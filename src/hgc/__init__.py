"""Couplings between Gaussian and Haar orthogonal random matrices.

Sample a square Gaussian matrix, orthonormalize its columns to get a
Haar orthogonal matrix on the same probability space, and measure how
closely sqrt(n) U tracks Y: truncated row norms against the
concentration target sqrt(phi(alpha) m), the projection/residual split
of each row, and the supremum statistic eps_n(m) for both the plain
and the randomized block-rotation coupling.  The harness runs seeded,
reproducible Monte Carlo experiments over these statistics.
"""

from .coupling import (
    CoupledPair,
    RotatedPair,
    gram_schmidt_couple,
    haar_orthogonal,
    randomized_couple,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    DomainError,
    NumericalError,
)
from .harness import (
    ExperimentConfig,
    Report,
    SweepTable,
    TrialResult,
    config_from_json,
    emit,
    run,
    sweep,
)
from .measure import (
    RowBlockDecomposition,
    decompose_gh,
    epsilon_sup,
    ks_statistic,
    summarize,
    truncated_row_norms,
)
from .rng import Seed, sample_gaussian
from .theory import (
    beta_interval,
    chi_norm_tail,
    epsilon_envelope,
    gaussian_tail_bounds,
    hoeffding_bound,
    phi,
    predicted_row_norm,
    projection_tails,
    sphere_sup_threshold,
)

__all__ = [
    "ConfigError",
    "CoupledPair",
    "DegeneracyError",
    "DomainError",
    "ExperimentConfig",
    "NumericalError",
    "Report",
    "RotatedPair",
    "RowBlockDecomposition",
    "Seed",
    "SweepTable",
    "TrialResult",
    "beta_interval",
    "chi_norm_tail",
    "config_from_json",
    "decompose_gh",
    "emit",
    "epsilon_envelope",
    "epsilon_sup",
    "gaussian_tail_bounds",
    "gram_schmidt_couple",
    "haar_orthogonal",
    "hoeffding_bound",
    "ks_statistic",
    "phi",
    "predicted_row_norm",
    "projection_tails",
    "randomized_couple",
    "run",
    "sample_gaussian",
    "sphere_sup_threshold",
    "summarize",
    "sweep",
    "truncated_row_norms",
]

__version__ = "0.1.0"

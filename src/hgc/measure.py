"""Empirical statistics of a coupled pair.

Computes the observables that the asymptotic laws speak about: the
truncated row norms of Y - sqrt(n) U, the split of each truncated row
F_i into its projection part G_i and residual-rescaling part H_i, the
supremum statistic eps_n(m) over the n x m block, and the distribution
diagnostics (Kolmogorov-Smirnov distance, order statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CoupledPair
from .errors import DimensionError, DomainError

PLAIN_GS = "plain-gs"
RANDOMIZED = "randomized"


@dataclass(frozen=True)
class RowBlockDecomposition:
    """Per-row norms of the F = G + H split at truncation m.

    ``f_norms[i]``, ``g_norms[i]``, ``h_norms[i]`` are the Euclidean
    norms of the first m coordinates of row i of Y - sqrt(n) U and of
    its two parts; ``cross[i]`` is the inner product <G_i, H_i>.
    """

    n: int
    m: int
    alpha: float
    f_norms: np.ndarray
    g_norms: np.ndarray
    h_norms: np.ndarray
    cross: np.ndarray


def truncated_row_norms(y: np.ndarray, u: np.ndarray, m: int) -> np.ndarray:
    """Euclidean norms of the first m coordinates of each row of Y - sqrt(n) U."""
    n = _check_block(y, u, m)
    diff = y[:, :m] - math.sqrt(n) * u[:, :m]
    return np.linalg.norm(diff, axis=1)


def gh_matrices(pair: CoupledPair, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x m matrices G and H of the projection/residual split.

    Column j of G is the projection of y_j onto the span of the earlier
    columns, rebuilt from the stored coupling trace (so F = G + H is an
    algebraic identity up to rounding, independent of projector
    accuracy); column j of H is (r_j - sqrt(n)) nu_j.  ``m`` may not
    exceed the number of columns the pair holds.
    """
    k = pair.u.shape[1]
    if not 1 <= m <= k:
        raise DimensionError(f"m must satisfy 1 <= m <= {k}, got {m}")
    coeffs = np.triu(pair.trace[:m, :m], k=1)
    g = pair.u[:, :m] @ coeffs
    h = (pair.residual_norms[:m] - math.sqrt(pair.n)) * pair.u[:, :m]
    return g, h


def decompose_gh(pair: CoupledPair, m: int) -> RowBlockDecomposition:
    """Row-wise norms and cross terms of the F = G + H split."""
    g, h = gh_matrices(pair, m)
    f_norms = truncated_row_norms(pair.y, pair.u, m)
    return RowBlockDecomposition(
        n=pair.n,
        m=m,
        alpha=m / pair.n,
        f_norms=f_norms,
        g_norms=np.linalg.norm(g, axis=1),
        h_norms=np.linalg.norm(h, axis=1),
        cross=np.einsum("ij,ij->i", g, h),
    )


def epsilon_sup(y: np.ndarray, u: np.ndarray, m: int) -> float:
    """eps_n(m): the max-absolute entry of the n x m block of Y - sqrt(n) U."""
    n = _check_block(y, u, m)
    diff = y[:, :m] - math.sqrt(n) * u[:, :m]
    return float(np.abs(diff).max())


def ks_statistic(samples) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal CDF.

    The CDF is evaluated through the C library's complementary error
    function (accurate to well below 1e-12).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    size = x.size
    if size == 0:
        raise DomainError("need at least one sample")
    cdf = np.array([_norm_cdf(v) for v in x])
    steps = np.arange(size + 1) / size
    return float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


def summarize(values) -> dict:
    """Order statistics and moments of a non-empty vector.

    Quantiles interpolate linearly between order statistics (position
    (size-1) q, endpoints clamped); ``std`` is the population standard
    deviation.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise DomainError("need at least one value")
    return {
        "sup": float(v.max()),
        "inf": float(v.min()),
        "mean": float(v.mean()),
        "std": float(v.std()),
        "q05": float(np.quantile(v, 0.05)),
        "q50": float(np.quantile(v, 0.50)),
        "q95": float(np.quantile(v, 0.95)),
    }


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _check_block(y: np.ndarray, u: np.ndarray, m: int) -> int:
    """Rows n of an n x k pair of blocks, after checking 1 <= m <= k <= n."""
    if y.ndim != 2 or y.shape[1] > y.shape[0]:
        raise DimensionError(f"y must be n x k with k <= n, got shape {y.shape}")
    if u.shape != y.shape:
        raise DimensionError(f"u shape {u.shape} does not match y shape {y.shape}")
    n, k = y.shape
    if not 1 <= m <= k:
        raise DimensionError(f"m must satisfy 1 <= m <= {k}, got {m}")
    return n

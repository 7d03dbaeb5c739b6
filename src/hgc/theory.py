"""Closed-form predictions and analytic tail-bound calculators.

Everything here is a pure function of its arguments.  The central
object is the limit profile

    phi(alpha) = 2 - (4/3) * (1 - (1 - alpha)^{3/2}) / alpha,

the per-unit-m squared norm that the truncated rows of Y - sqrt(n) U
concentrate around when U is the Gram-Schmidt orthonormalization of
the Gaussian matrix Y and alpha = m/n.  The remaining calculators give
the exponential tail bounds used by the Monte Carlo checks and the
leading-order envelopes for the supremum statistic eps_n(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Below this alpha the closed form is replaced by its series expansion.
SERIES_SWITCH = 1e-4


def phi(alpha: float) -> float:
    """Limit profile of squared truncated row norms per unit m.

    Evaluated through the cancellation-free rearrangement
    ``(2 alpha / 3) (1 + 2 s) / (1 + s)^2`` with ``s = sqrt(1 - alpha)``
    (substituting s factors the numerator as (1-s)^2 (1+2s) and
    1 - s = alpha / (1 + s)), so the result carries full precision on
    all of (0, 1].  Below ``SERIES_SWITCH`` the series
    alpha/2 + alpha^2/12 + alpha^3/32 is used; the two branches agree
    to well under 1e-12 relative at the switch.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha < SERIES_SWITCH:
        return alpha / 2.0 + alpha * alpha / 12.0 + alpha**3 / 32.0
    s = math.sqrt(1.0 - alpha)
    return (2.0 * alpha / 3.0) * (1.0 + 2.0 * s) / ((1.0 + s) ** 2)


def predicted_row_norm(n: int, m: int) -> float:
    """Concentration target sqrt(phi(m/n) * m) for the truncated row norms.

    For m/n -> 0 this approaches m / sqrt(2 n).
    """
    _check_sizes(n, m)
    return math.sqrt(phi(m / n) * m)


def gaussian_tail_bounds(t: float) -> tuple[float, float]:
    """Two-sided estimates of the standard normal tail P(Z > t).

    Returns ``(lower, upper)`` with
    lower = t e^{-t^2/2} / ((1 + t^2) sqrt(2 pi)) and
    upper = e^{-t^2/2} / (t sqrt(2 pi)); lower <= upper always.
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    core = math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return t * core / (1.0 + t * t), core / t


def kolmogorov_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov p-value Q(lam) of a KS distance.

    For N draws at KS distance D from their CDF, lam = sqrt(N) D and
    Q(lam) = 2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 lam^2} is the limit of
    P(sqrt(N) D_N > lam) (Marsaglia, Tsang & Wang 2003, J. Stat. Softw.
    8(18)).  Below lam = 1 the equivalent theta-function form
    1 - sqrt(2 pi) / lam sum_{k>=1} e^{-(2k-1)^2 pi^2 / (8 lam^2)} is
    summed instead, since it converges fast there.  Each sum stops where
    its first dropped term is below 1e-40.
    """
    if lam < 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    if lam < 0.1:
        return 1.0  # 1 - Q(0.1) is below 1e-50
    if lam < 1.0:
        theta = sum(
            math.exp(-(((2 * k - 1) * math.pi / lam) ** 2) / 8.0) for k in range(1, 5)
        )
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * theta
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2) for k in range(1, 7))


def chi_norm_tail(n: int, eps: float) -> float:
    """Bound e^{-eps^2 n / 4} on each norm deviation of a Gaussian vector.

    The same value bounds both P(||x|| >= sqrt(n)/sqrt(1-eps)) and
    P(||x|| <= sqrt(n) sqrt(1-eps)) for x standard Gaussian in R^n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return math.exp(-eps * eps * n / 4.0)


@dataclass(frozen=True)
class ProjectionTails:
    """Tail bounds for projections onto a Haar k-dimensional subspace.

    ``gaussian_upper``/``gaussian_lower`` bound the deviations of
    ||P_L(x)|| for Gaussian x around sqrt(k); ``unit_upper``/
    ``unit_lower`` bound the deviations of ||P_L(y)|| for a fixed unit
    vector y around sqrt(k/n).  ``unit_t`` bounds
    P(||P_L(y)|| >= t sqrt(k/n)) when a threshold t > 1 was given.
    """

    gaussian_upper: float
    gaussian_lower: float
    unit_upper: float
    unit_lower: float
    unit_t: float | None = None


def projection_tails(k: int, n: int, rho: float, t: float | None = None) -> ProjectionTails:
    """Exponential bounds for Haar-subspace projections.

    The Gaussian-vector bounds are e^{-rho^2 k / 4} for both deviation
    directions; the fixed-unit-vector bounds are likewise
    e^{-rho^2 k / 4} both ways.  With ``t`` given, the extra bound is
    e^{-(k/4)(t^2 - 2)}.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if t is not None and not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    two_sided = math.exp(-rho * rho * k / 4.0)
    unit_t = None
    if t is not None:
        # for 1 < t < sqrt(2) the exponent is positive and the bound is
        # vacuous; it can exceed double range, which rounds to inf
        exponent = -(k / 4.0) * (t * t - 2.0)
        unit_t = math.exp(exponent) if exponent < 709.0 else math.inf
    return ProjectionTails(
        gaussian_upper=two_sided,
        gaussian_lower=two_sided,
        unit_upper=two_sided,
        unit_lower=two_sided,
        unit_t=unit_t,
    )


def hoeffding_bound(half_widths, a: float) -> float:
    """Hoeffding bound 2 e^{-2 a^2 / sum w_i^2} for a sum of bounded terms.

    ``half_widths`` are the interval widths b_i - a_i of the summands.
    """
    widths = [float(w) for w in half_widths]
    if not widths or any(w < 0 for w in widths):
        raise DomainError("widths must be non-negative and non-empty")
    total = sum(w * w for w in widths)
    if total == 0.0:
        raise DomainError("widths must not all be zero")
    if not a > 0:
        raise DomainError(f"a must be positive, got {a}")
    return 2.0 * math.exp(-2.0 * a * a / total)


def epsilon_envelope(n: int, m: int, slack: float) -> tuple[float, float]:
    """Leading-order envelope for the supremum statistic eps_n(m).

    Returns ``(lower, upper)`` with
    lower = (1 - slack) sqrt(phi(m/n)) sqrt(2 ln n) and
    upper = (1 + slack) sqrt(phi(m/n)) sqrt(2 ln(n m)).  The O(m^-delta)
    corrections carry unknown constants and are deliberately dropped;
    reports label these values "leading order".
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    _check_sizes(n, m)
    if slack < 0:
        raise DomainError(f"slack must be >= 0, got {slack}")
    root_phi = math.sqrt(phi(m / n))
    lower = (1.0 - slack) * root_phi * math.sqrt(2.0 * math.log(n))
    upper = (1.0 + slack) * root_phi * math.sqrt(2.0 * math.log(n * m))
    return lower, upper


def beta_interval(beta: float) -> tuple[float, float]:
    """Limit window (sqrt(beta), sqrt(2 beta)) for eps_n(m) at m = [beta n / ln n]."""
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    return math.sqrt(beta), math.sqrt(2.0 * beta)


def sphere_sup_threshold(n: int, m: int, slack: float) -> tuple[float, float]:
    """Sup-entry thresholds for m uniform unit vectors in R^n.

    Returns ``(lower, upper)``: above upper = (1+slack) sqrt(2 ln(nm))/sqrt(n)
    the supremum over all entries lands with vanishing probability; below
    lower = (1-slack) sqrt(2 ln n)/sqrt(n) each vector's own sup entry
    falls with vanishing probability (for m <= alpha n).
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if not 0.0 <= slack < 1.0:
        raise DomainError(f"slack must lie in [0, 1), got {slack}")
    lower = (1.0 - slack) * math.sqrt(2.0 * math.log(n)) / math.sqrt(n)
    upper = (1.0 + slack) * math.sqrt(2.0 * math.log(n * m)) / math.sqrt(n)
    return lower, upper


def _check_sizes(n: int, m: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= m <= n:
        raise DomainError(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")

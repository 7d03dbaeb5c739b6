"""Closed-form predictions and analytic tail-bound calculators.

Everything here is a pure function of its arguments.  The central
object is the limit profile

    phi(alpha) = 2 - (4/3) * (1 - (1 - alpha)^{3/2}) / alpha,

the per-unit-m squared norm that the truncated rows of Y - sqrt(n) U
concentrate around when U is the Gram-Schmidt orthonormalization of
the Gaussian matrix Y and alpha = m/n.  It is evaluated by one
cancellation-free rearrangement of this closed form, within 2.4e-16
relative on [1e-300, 1].  Each other calculator is one formula too:
the Gaussian tail estimates; the norm-deviation bound e^{-eps^2 n / 4},
which with n = k and eps = rho is also the Haar-projection bound of
Dasgupta & Gupta 2003; the Hoeffding bound; one sup-entry window
((1 - slack) sqrt(2 ln n), (1 + slack) sqrt(2 ln(n m))), rescaled into
the leading-order envelope of eps_n(m) and the thresholds for unit
vectors; the beta window of eps_n(m); and the asymptotic Kolmogorov
p-value, one alternating series within 8.9e-16 absolute on [0.1, 6].
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError


def phi(alpha: float) -> float:
    """Limit profile of squared truncated row norms per unit m.

    Evaluated as ``(2 alpha / 3) (1 + 2 s) / (1 + s)^2`` with
    ``s = sqrt(1 - alpha)``: substituting s factors the numerator of the
    closed form as (1-s)^2 (1+2s), and 1 - s = alpha / (1 + s), so no
    term cancels.  This one formula stays within 2.4e-16 relative of a
    high-precision mpmath evaluation at 6000 log-spaced points of
    [1e-300, 1].
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
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
    upper = e^{-t^2/2} / (t sqrt(2 pi)); lower <= upper always.  Below
    t = 2.2192e-309 the upper bound exceeds float range, so such a t is
    rejected.
    """
    if not 0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    core = math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    upper = core / t
    if upper == math.inf:
        raise DomainError(f"t must be >= 2.22e-309 for a finite upper bound, got {t}")
    return t * core / (1.0 + t * t), upper


def kolmogorov_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov p-value Q(lam) of a KS distance.

    For N draws at KS distance D from their CDF, lam = sqrt(N) D and
    Q(lam) = 2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 lam^2} is the limit of
    P(sqrt(N) D_N > lam) (Marsaglia, Tsang & Wang 2003, J. Stat. Softw.
    8(18)).  The alternating series is summed up to its first term below
    1e-40, about 6.79 / lam terms (68 at lam = 0.1); on [0.1, 6] it stays
    within 8.9e-16 absolute of a 50-digit evaluation.
    """
    if not lam >= 0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    if lam < 0.1:
        return 1.0  # 1 - Q(0.1) is below 1e-50
    if lam > 20.0:
        return 0.0  # Q(20) < 2 e^{-800} rounds to 0, and (k lam)^2 would overflow past 1e154
    # term k is below 1e-40 once k > sqrt(20 ln 10) / lam = 6.786 / lam
    last = math.floor(math.sqrt(20.0 * math.log(10.0)) / lam) + 1
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2) for k in range(1, last + 1))


def chi_norm_tail(n: int, eps: float) -> float:
    """Bound e^{-eps^2 n / 4} on each norm deviation of a Gaussian vector.

    The same value bounds both P(||x|| >= sqrt(n)/sqrt(1-eps)) and
    P(||x|| <= sqrt(n) sqrt(1-eps)) for x standard Gaussian in R^n.
    """
    _check_sizes(n, 1)
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return math.exp(-eps * eps * n / 4.0)


def projection_tails(
    k: int, n: int, rho: float, t: float | None = None
) -> tuple[float, float | None]:
    """Exponential bounds for the projection P_L onto a Haar k-dim subspace of R^n.

    Returns ``(two_sided, unit_t)``.  ``two_sided`` = chi_norm_tail(k, rho)
    = e^{-rho^2 k / 4} bounds each deviation of ||P_L(x)|| for Gaussian x
    around sqrt(k), and of ||P_L(y)|| for a fixed unit vector y around
    sqrt(k/n) (Dasgupta & Gupta 2003).  With ``t`` given, ``unit_t`` =
    e^{-(k/4)(t^2 - 2)} bounds P(||P_L(y)|| >= t sqrt(k/n)); otherwise it
    is None.
    """
    if not 1 <= k <= min(n, sys.float_info.max):
        raise DomainError(f"need 1 <= k <= n and k <= {sys.float_info.max:g}, got k={k}, n={n}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if t is not None and not t > 1.0:
        raise DomainError(f"t must exceed 1, got {t}")
    unit_t = None
    if t is not None:
        # for 1 < t < sqrt(2) the exponent is positive and the bound is
        # vacuous; it can exceed double range, which rounds to inf
        exponent = -(k / 4.0) * (t * t - 2.0)
        unit_t = math.exp(exponent) if exponent < 709.0 else math.inf
    return chi_norm_tail(k, rho), unit_t


def hoeffding_bound(widths, a: float) -> float:
    """Hoeffding bound 2 e^{-2 a^2 / sum w_i^2} for a sum of bounded terms.

    ``widths`` are the interval widths w_i = b_i - a_i of the summands,
    and ``a`` is positive and finite.  It is evaluated as 2 e^{-2 r^2}
    with r = a / hypot(w_1, ...), so neither a^2 nor the w_i^2 over- or
    underflow: widths of 1e-200 are not zero, and a width and an a of
    1e200 give 2 e^{-2}, not NaN.
    """
    widths = [float(w) for w in widths]
    if not widths or not all(w >= 0 for w in widths):
        raise DomainError("widths must be non-negative and non-empty")
    norm = math.hypot(*widths)
    if norm == 0.0:
        raise DomainError("widths must not all be zero")
    if not 0 < a < math.inf:
        raise DomainError(f"a must be positive and finite, got {a}")
    ratio = a / norm
    return 2.0 * math.exp(-2.0 * ratio * ratio)


def _sup_entry_window(n: int, m: int, slack: float) -> tuple[float, float]:
    """Sup-entry window ((1 - slack) sqrt(2 ln n), (1 + slack) sqrt(2 ln(n m))).

    For an n x m block of standard Gaussian entries, each column's own
    max |entry| lies above the lower edge, and the max over all n m
    entries below the upper edge, with probability tending to 1.  The
    callers rescale both edges.  Requires n >= 2 and 0 <= slack < 1, so
    the lower edge stays positive.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not 0.0 <= slack < 1.0:
        raise DomainError(f"slack must lie in [0, 1), got {slack}")
    lower = (1.0 - slack) * math.sqrt(2.0 * math.log(n))
    # n m can pass float range when n and m do not; ln n + ln m stays finite.
    log_nm = math.log(n * m) if n * m < math.inf else math.log(n) + math.log(m)
    return lower, (1.0 + slack) * math.sqrt(2.0 * log_nm)


def epsilon_envelope(n: int, m: int, slack: float) -> tuple[float, float]:
    """Leading-order envelope for the supremum statistic eps_n(m).

    Returns the sup-entry window scaled by sqrt(phi(m/n)), the per-entry
    scale of Y - sqrt(n) U: lower = (1 - slack) sqrt(2 ln n) sqrt(phi(m/n))
    and upper = (1 + slack) sqrt(2 ln(n m)) sqrt(phi(m/n)), for 1 <= m <= n
    and 0 <= slack < 1.  The O(m^-delta) corrections carry unknown
    constants and are deliberately dropped; reports label these values
    "leading order".
    """
    _check_sizes(n, m)
    lower, upper = _sup_entry_window(n, m, slack)
    root_phi = math.sqrt(phi(m / n))
    return lower * root_phi, upper * root_phi


def beta_interval(beta: float) -> tuple[float, float]:
    """Limit window (sqrt(beta), sqrt(2 beta)) for eps_n(m) at m = [beta n / ln n].

    The upper edge is taken as sqrt(2) sqrt(beta), finite for every finite beta.
    """
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    return math.sqrt(beta), math.sqrt(2.0) * math.sqrt(beta)


def sphere_sup_threshold(n: int, m: int, slack: float) -> tuple[float, float]:
    """Sup-entry thresholds for m uniform unit vectors in R^n.

    Returns the sup-entry window divided by sqrt(n), for n >= 2 and
    m >= 1 within float range and 0 <= slack < 1: above upper = (1+slack)
    sqrt(2 ln(nm))/sqrt(n) the supremum over all entries lands with
    vanishing probability; below lower = (1-slack) sqrt(2 ln n)/sqrt(n)
    each vector's own sup entry falls with vanishing probability (for
    m <= alpha n).
    """
    _check_sizes(n, 1)
    if not 1 <= m <= sys.float_info.max:
        raise DomainError(f"m must lie in [1, {sys.float_info.max:g}], got {m}")
    lower, upper = _sup_entry_window(n, m, slack)
    return lower / math.sqrt(n), upper / math.sqrt(n)


def _check_sizes(n: int, m: int) -> None:
    if not 1 <= n <= sys.float_info.max:
        raise DomainError(f"n must lie in [1, {sys.float_info.max:g}], got {n}")
    if not 1 <= m <= n:
        raise DomainError(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")

"""Empirical statistics of a coupled pair.

Computes the observables that the asymptotic laws speak about: the
truncated row norms of Y - sqrt(n) U, the split of each truncated row
F_i into its projection part G_i and residual-rescaling part H_i, the
supremum statistic eps_n(m) over the n x m block, and the distribution
diagnostics (Kolmogorov-Smirnov distance, order statistics).

Every statistic of the pair reads F, the first m columns of
Y - sqrt(n) U, formed in one place.  Column j of H is
(r_j - sqrt(n)) nu_j, and G = F - H; since Y = U R, that equals
U striu(R), the projection of each y_j onto the earlier columns, up to
rounding.

Each statistic is a function of one row at a time, so F, G and H are
formed one panel of rows at a time, about 256 KiB each, and never as
n x m blocks.  Every step is elementwise or within a row, so the
results are bitwise those of the whole block.  The one exception is a
panel of a single row of a Fortran-ordered block, which numpy sums
pairwise and not in column order, so a one-row tail joins the panel
before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CoupledPair
from .errors import DomainError


@dataclass(frozen=True)
class RowBlockDecomposition:
    """Per-row norms of the F = G + H split at truncation m.

    ``f_norms[i]``, ``g_norms[i]``, ``h_norms[i]`` are the Euclidean
    norms of the first m coordinates of row i of Y - sqrt(n) U and of
    its two parts; ``cross[i]`` is the inner product <G_i, H_i>.
    """

    f_norms: np.ndarray
    g_norms: np.ndarray
    h_norms: np.ndarray
    cross: np.ndarray


def truncated_row_norms(y: np.ndarray, u: np.ndarray, m: int) -> np.ndarray:
    """Euclidean norms of the first m coordinates of each row of Y - sqrt(n) U."""
    panels = _panels(_check_block(y, u, m), m)
    return np.concatenate([_row_norms_in_place(_residual_rows(y, u, m, rows)) for rows in panels])


def decompose_gh(pair: CoupledPair, m: int) -> RowBlockDecomposition:
    """Row-wise norms and cross terms of the F = G + H split.

    F, H and G = F - H are formed one panel of rows at a time, and each
    panel's row results are read off it in place (:func:`_gh_rows`).
    """
    panels = _panels(_check_block(pair.y, pair.u, m), m)
    parts = [_gh_rows(*_split_rows(pair, m, rows)) for rows in panels]
    f_norms, g_norms, h_norms, cross = (np.concatenate(part) for part in zip(*parts))
    return RowBlockDecomposition(f_norms=f_norms, g_norms=g_norms, h_norms=h_norms, cross=cross)


def epsilon_sup(y: np.ndarray, u: np.ndarray, m: int) -> float:
    """eps_n(m): the max-absolute entry of the n x m block of Y - sqrt(n) U."""
    panels = _panels(_check_block(y, u, m), m)
    maxima = [np.abs(f, out=f).max() for f in (_residual_rows(y, u, m, rows) for rows in panels)]
    # np.max, unlike the builtin, keeps a NaN whatever panel it is in.
    return float(np.max(maxima))


def ks_statistic(samples) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal CDF.

    The CDF is evaluated as Phi(x) = erfc(-x / sqrt(2)) / 2 through the
    C library's complementary error function (accurate to well below
    1e-12).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    size = x.size
    if size == 0:
        raise DomainError("need at least one sample")
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
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


# Bytes of one panel of F: 32768 doubles, 128 rows at m = 256.
_PANEL_BYTES = 2**18


def _panels(n: int, m: int) -> list[slice]:
    """Row slices of an n x m block, about ``_PANEL_BYTES`` each.

    No panel has a single row unless n = 1: a short tail joins the panel
    before it.
    """
    size = max(2, _PANEL_BYTES // (8 * m))
    starts = list(range(0, n, size))
    if n - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def _residual_rows(y: np.ndarray, u: np.ndarray, m: int, rows: slice) -> np.ndarray:
    """Rows ``rows`` of F as one new array in u's layout.

    sqrt(n) is that of all n rows, not of the panel.  ``(-sqrt(n) u) + y``
    is bitwise ``y - sqrt(n) u``, since negation is exact; it needs no
    second temporary.
    """
    f = np.multiply(u[rows, :m], -math.sqrt(y.shape[0]), order="K")
    f += y[rows, :m]
    return f


def _row_norms_in_place(a: np.ndarray) -> np.ndarray:
    """Row norms of ``a``, which is squared in place to hold no temporary.

    The same products summed in the same order as ``np.linalg.norm(a,
    axis=1)``, so the result is bitwise that of the library call.
    """
    return np.sqrt(np.add.reduce(np.multiply(a, a, out=a), axis=1))


def _split_rows(pair: CoupledPair, m: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of F and H, both in u's layout."""
    f = _residual_rows(pair.y, pair.u, m, rows)
    return f, (pair.residual_norms[:m] - math.sqrt(pair.n)) * pair.u[rows, :m]


def _gh_rows(f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row norms of F, G = F - H and H, and the cross terms <G_i, H_i>.

    G gets its own buffer and the cross terms are read before F, G and
    H are squared in place.
    """
    g = f - h
    cross = np.einsum("ij,ij->i", g, h)
    return _row_norms_in_place(f), _row_norms_in_place(g), _row_norms_in_place(h), cross


def _check_block(y: np.ndarray, u: np.ndarray, m: int) -> int:
    """Rows n of an n x k pair of blocks, after checking 1 <= m <= k <= n.

    Raises :class:`DomainError` if ``y`` is not n x k with k <= n, if
    ``u`` has another shape, or if m lies outside 1..k.
    """
    if y.ndim != 2 or y.shape[1] > y.shape[0]:
        raise DomainError(f"y must be n x k with k <= n, got shape {y.shape}")
    if u.shape != y.shape:
        raise DomainError(f"u shape {u.shape} does not match y shape {y.shape}")
    n, k = y.shape
    if not 1 <= m <= k:
        raise DomainError(f"m must satisfy 1 <= m <= {k}, got {m}")
    return n

"""Couplings between Gaussian and Haar-orthogonal random matrices.

Orthonormalizing the columns of a square Gaussian matrix Y yields a
Haar-distributed orthogonal matrix U on the same probability space.
The orthonormalization is the map Y = U R with diag R > 0, which is
columnwise Gram-Schmidt (Stewart 1980, SIAM J. Numer. Anal. 17(3);
Mezzadri 2007, Notices AMS 54(5)).  Gram-Schmidt is sequential: column
j of U depends only on y_1..y_j.  So every statistic of the first m
coordinates of Y - sqrt(n) U needs only the n x m block of Y, and the
coupling accepts that block on its own.

Two paths compute the map, chosen by the shape alone.  A tall block,
4 k <= n, takes one CholeskyQR pass: L = chol(Y^T Y), U = Y L^{-T} and
R = L^T, all SYRK and GEMM.  One pass leaves U orthogonal to about
cond(Y)^2 times the unit roundoff (Yamamoto, Nakatsukasa, Yanagisawa &
Fukaya, ETNA 44, 2015), and a Gaussian block that tall has condition
number at most about 3 (Edelman 1988), so U is as orthogonal as
Householder's.  Square and wider blocks take LAPACK's Householder QR
with the signs fixed so that diag R > 0; so does a tall block whose
Cholesky factorization fails, whose U leaves max|U^T U - I| above
1e-12, or whose diag R reaches the degeneracy threshold.  Only the
Householder path names a degenerate column: near a dependent column
Cholesky's r_j is accurate only to about sqrt(eps), the threshold's
own scale.

The pair keeps its coupling trace: for each column j (1-based) the
projection coefficients onto the preceding orthonormal columns and the
residual norm r_j > 0, so that

    y_j = sum_{k<j} trace[k, j] * nu_k + r_j * nu_j

holds up to rounding.  A second, randomized coupling right-multiplies
the first m columns of both matrices by V_m, Haar on the m x m
orthogonal group; this uniformizes entries within the first m
coordinates of every row while preserving the truncated row norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionError
from .rng import Seed, sample_gaussian

# Residual norms below DEGENERACY_FACTOR * sqrt(n) abort the coupling.
DEGENERACY_FACTOR = 1e-8


@dataclass(frozen=True)
class CoupledPair:
    """A block of Gaussian columns, its orthonormalization, and the coupling trace.

    The pair holds k columns, 1 <= k <= n: the whole of a square Y, or
    the leading n x k block that a statistic reads.

    Attributes
    ----------
    y : ndarray
        (n, k) Gaussian input.  Not copied; treat as immutable.
    u : ndarray
        (n, k) orthonormal columns, columnwise Gram-Schmidt of ``y``.
    residual_norms : ndarray
        Length-k vector; entry j-1 is r_j = ||y_j - P_{span(y_1..y_{j-1})} y_j|| > 0.
    trace : ndarray
        (k, k) upper triangular.  The strict upper part holds the
        projection coefficients <y_j, nu_k> for k < j; the diagonal
        repeats ``residual_norms``.
    n : int
        Number of rows, the dimension of the Gaussian matrix.
    """

    y: np.ndarray
    u: np.ndarray
    residual_norms: np.ndarray
    trace: np.ndarray
    n: int


@dataclass(frozen=True)
class RotatedPair:
    """Result of the randomized block-rotation coupling.

    ``y`` and ``u`` are the rotated n x m blocks: ``y`` stays Gaussian
    and the columns of ``u`` stay those of a Haar orthogonal matrix.
    """

    y: np.ndarray
    u: np.ndarray


def gram_schmidt_couple(y: np.ndarray) -> CoupledPair:
    """Columnwise Gram-Schmidt orthonormalization with coupling trace.

    A tall block (``4 k <= n``) is orthonormalized by one CholeskyQR
    pass, whose R has a positive diagonal by construction; it falls back
    to the Householder path when its U is too far from orthogonal
    (max|U^T U - I| > 1e-12), when the Cholesky factorization fails, or
    when some r_j reaches the degeneracy threshold.  Every other block
    is Householder QR (LAPACK) with the signs of the columns of Q and
    the rows of R flipped so that diag(R) > 0.  Either way nu_j points
    along the residual of y_j, hence <y_j, nu_j> = r_j > 0, as in the
    classical procedure.  The CholeskyQR path returns ``u``
    Fortran-ordered, like a sampled ``y``; the Householder path returns
    it C-ordered.

    Parameters
    ----------
    y : ndarray
        n x k matrix, 1 <= k <= n, with numerically independent columns.

    Raises
    ------
    DimensionError
        If ``y`` is not 2-D with 1 <= k <= n columns and finite entries.
    DegeneracyError
        If some residual norm falls below ``1e-8 * sqrt(n)``; the error
        names the first offending column (1-based).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or not 1 <= y.shape[1] <= y.shape[0]:
        raise DimensionError(f"expected n x k with 1 <= k <= n, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise DimensionError("matrix entries must be finite")
    n, k = y.shape
    threshold = DEGENERACY_FACTOR * math.sqrt(n)

    factors = _cholesky_qr(y, threshold) if 4 * k <= n else None
    u, trace = factors if factors is not None else _householder_qr(y, threshold)
    residual_norms = np.diag(trace).copy()
    return CoupledPair(y=y, u=u, residual_norms=residual_norms, trace=trace, n=n)


def _householder_qr(y: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Q and R of ``y`` with diag R > 0, or DegeneracyError naming a column."""
    u, trace = np.linalg.qr(y)
    residual_norms = np.abs(np.diag(trace))
    failed = np.flatnonzero(~(residual_norms > threshold))
    if failed.size:
        j = int(failed[0])
        raise DegeneracyError(j + 1, float(residual_norms[j]), threshold)
    signs = np.sign(np.diag(trace))
    u *= signs
    trace *= signs[:, None]
    return u, trace


def _cholesky_qr(y: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray] | None:
    """One CholeskyQR pass over a tall ``y``, or None if the Householder path must decide.

    ``U = (L^{-1} @ y.T).T`` with ``L`` the Cholesky factor of ``y^T y``
    is ``y R^{-1}`` for ``R = L^T``, computed so that it comes out
    Fortran-ordered like ``y``.
    """
    try:
        lower = np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return None
    u = (np.linalg.inv(lower) @ y.T).T
    # NaN fails both tests too, so a broken pass falls back.
    defect = np.abs(u.T @ u - np.eye(u.shape[1])).max()
    if not (defect <= 1e-12 and (np.diag(lower) > threshold).all()):
        return None
    return u, lower.T


def haar_orthogonal(k: int, seed: Seed) -> np.ndarray:
    """k x k orthogonal matrix distributed by Haar measure on O(k).

    Realized as ``gram_schmidt_couple(sample_gaussian(k, k, seed)).u``,
    so it is deterministic per seed; a k below 1 raises
    :class:`DimensionError` there.
    """
    return gram_schmidt_couple(sample_gaussian(k, k, seed)).u


def randomized_couple(pair: CoupledPair, m: int, seed: Seed) -> RotatedPair:
    """Right-multiply the first m columns of a coupled pair by V_m.

    V_m is ``haar_orthogonal(m, seed)``, Haar on O(m), and m may not
    exceed the number of columns the pair holds.  Both the Gaussian law
    of y and the Haar law of u are invariant under the rotation
    diag(V_m, I), and for every row the Euclidean norm of the first m
    entries of y - sqrt(n) u is preserved exactly in exact arithmetic.
    Only the rotated n x m blocks are returned.
    """
    k = pair.u.shape[1]
    if not 1 <= m <= k:
        raise DimensionError(f"m must satisfy 1 <= m <= {k}, got {m}")
    v_m = haar_orthogonal(m, seed)
    return RotatedPair(y=pair.y[:, :m] @ v_m, u=pair.u[:, :m] @ v_m)

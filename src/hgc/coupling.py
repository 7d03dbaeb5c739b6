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

The Householder path calls LAPACK's ``dgeqrf`` and ``dorgqr`` (Anderson
et al., LAPACK Users' Guide, 3rd ed., 1999) directly, on one
Fortran-ordered copy of Y that becomes U, so it holds Y, U and R and no
more; they are the routines ``np.linalg.qr`` calls, with its workspace,
so Q and R are its bits.  Where numpy's linalg extension does not
export them, ``np.linalg.qr`` computes them instead.  Both paths return
U Fortran-ordered, like a sampled Y, whichever routine ran.  This module
is hgc's one handle on numpy's OpenBLAS (:func:`_openblas`): the same
handle reports the threads the library runs (:func:`blas_threads`).

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

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError
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
    the rows of R flipped so that diag(R) > 0, called in place through
    LAPACK where numpy's linalg extension exports it and through
    ``np.linalg.qr`` where it does not.  Either way nu_j points along
    the residual of y_j, hence <y_j, nu_j> = r_j > 0, as in the
    classical procedure.  Both paths return ``u`` Fortran-ordered, like
    a sampled ``y``.

    Parameters
    ----------
    y : ndarray
        n x k matrix, 1 <= k <= n, with numerically independent columns.

    Raises
    ------
    DomainError
        If ``y`` is not 2-D with 1 <= k <= n columns and finite entries.
    DegeneracyError
        If some residual norm falls below ``1e-8 * sqrt(n)``; the error
        names the first offending column (1-based).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or not 1 <= y.shape[1] <= y.shape[0]:
        raise DomainError(f"expected n x k with 1 <= k <= n, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise DomainError("matrix entries must be finite")
    n, k = y.shape
    threshold = DEGENERACY_FACTOR * math.sqrt(n)

    factors = _cholesky_qr(y, threshold) if 4 * k <= n else None
    u, trace = factors if factors is not None else _householder_qr(y, threshold)
    residual_norms = np.diag(trace).copy()
    return CoupledPair(y=y, u=u, residual_norms=residual_norms, trace=trace, n=n)


def _householder_qr(y: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Q and R of ``y`` with diag R > 0, or DegeneracyError naming a column.

    Q comes back Fortran-ordered.  Where LAPACK resolves
    (:func:`_openblas`), ``dgeqrf`` factors one Fortran-ordered copy of
    ``y``, R is copied out of its upper triangle, and ``dorgqr`` forms Q
    over the reflectors in the same array: the routines, workspace
    queries and inputs of ``np.linalg.qr``, so Q and R are its bits,
    without its four working blocks.  Elsewhere it is ``np.linalg.qr``.
    """
    lib = _openblas()
    u, trace = _lapack_householder(y, lib) if lib is not None else np.linalg.qr(y)
    u = np.asfortranarray(u)
    residual_norms = np.abs(np.diag(trace))
    failed = np.flatnonzero(~(residual_norms > threshold))
    if failed.size:
        j = int(failed[0])
        raise DegeneracyError(j + 1, float(residual_norms[j]), threshold)
    signs = np.sign(np.diag(trace))
    u *= signs
    trace *= signs[:, None]
    return u, trace


@functools.cache
def _openblas():
    """numpy's own OpenBLAS, or None where the symbols hgc calls do not resolve.

    numpy's wheels link scipy-openblas into the linalg extension and
    export it under ``scipy_*64_`` names, taking 64-bit integers:
    LAPACK's ``scipy_dgeqrf_64_`` and ``scipy_dorgqr_64_``, which
    :func:`_householder_qr` calls, and
    ``scipy_openblas_get_num_threads64_``, which :func:`blas_threads`
    calls.  Other builds (numpy before 2.0, a system BLAS, MKL) name
    them otherwise; :func:`_householder_qr` then calls ``np.linalg.qr``
    and :func:`blas_threads` reports no count.  Opened on first use, so
    importing hgc loads nothing.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        lib.scipy_dgeqrf_64_.restype = lib.scipy_dorgqr_64_.restype = None
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    except (AttributeError, OSError):
        return None
    return lib


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs now, or None where :func:`_openblas` does not resolve.

    The library's own count, so it follows whatever set it: the
    environment OpenBLAS read when it loaded, its cap at the cores, or a
    later call into the library.
    """
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _lapack_householder(y: np.ndarray, lib) -> tuple[np.ndarray, np.ndarray]:
    """Q (Fortran-ordered, in one copy of ``y``) and R of ``y`` by ``lib``'s LAPACK.

    Each routine first gets its optimal workspace from a query
    (LWORK = -1), which fixes its blocking, and then at least max(1, k)
    doubles of it, as numpy gives.
    """
    n, k = y.shape
    a = np.array(y, order="F")
    tau = np.empty(k)
    rows, cols, info = ctypes.c_int64(n), ctypes.c_int64(k), ctypes.c_int64(0)

    def call(routine, *dims):
        # (M, N[, K], A, LDA, TAU, WORK, LWORK, INFO); n >= 1, so LDA is n.
        head = (*map(ctypes.byref, dims), a.ctypes.data_as(ctypes.c_void_p),
                ctypes.byref(rows), tau.ctypes.data_as(ctypes.c_void_p))
        query, lwork = ctypes.c_double(), ctypes.c_int64(-1)
        routine(*head, ctypes.byref(query), ctypes.byref(lwork), ctypes.byref(info))
        work = np.empty(max(1, k, int(query.value)))
        lwork.value = work.size
        routine(*head, work.ctypes.data_as(ctypes.c_void_p), ctypes.byref(lwork),
                ctypes.byref(info))
        if info.value:
            raise np.linalg.LinAlgError(f"{routine.__name__} returned info={info.value}")

    call(lib.scipy_dgeqrf_64_, rows, cols)
    trace = np.triu(a[:k])
    call(lib.scipy_dorgqr_64_, rows, cols, cols)
    return a, trace


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
    :class:`DomainError` there.
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
        raise DomainError(f"m must satisfy 1 <= m <= {k}, got {m}")
    v_m = haar_orthogonal(m, seed)
    return RotatedPair(y=pair.y[:, :m] @ v_m, u=pair.u[:, :m] @ v_m)

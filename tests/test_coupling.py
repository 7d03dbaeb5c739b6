import math

import numpy as np
import pytest

import hgc.coupling as coupling
from hgc import (
    DegeneracyError,
    DimensionError,
    Seed,
    gram_schmidt_couple,
    haar_orthogonal,
    randomized_couple,
    sample_gaussian,
)


def random_pair(n, seed_path=(0,), root=123):
    return gram_schmidt_couple(sample_gaussian(n, n, Seed(root, seed_path)))


def test_identity_input():
    pair = gram_schmidt_couple(np.eye(3))
    assert np.allclose(pair.u, np.eye(3), atol=1e-15)
    assert np.allclose(pair.residual_norms, [1.0, 1.0, 1.0])


def test_diagonal_input_scales_residuals():
    pair = gram_schmidt_couple(np.diag([2.0, 3.0]))
    assert np.allclose(pair.u, np.eye(2), atol=1e-15)
    assert np.allclose(pair.residual_norms, [2.0, 3.0])


def test_hand_case_2x2():
    # columns (1,0) and (1,1): nu_1 = e1, projection of y_2 is (1,0),
    # residual (0,1) with norm 1
    y = np.array([[1.0, 1.0], [0.0, 1.0]])
    pair = gram_schmidt_couple(y)
    assert np.allclose(pair.u, np.eye(2), atol=1e-15)
    assert np.allclose(pair.residual_norms, [1.0, 1.0])
    assert pair.trace[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_coupled_pair_invariants():
    n = 64
    pair = random_pair(n)
    assert np.abs(pair.u.T @ pair.u - np.eye(n)).max() <= 1e-12
    # reconstruction: y_j = sum_{k<=j} trace[k, j] nu_k to 1e-10 relative
    recon = pair.y - pair.u @ np.triu(pair.trace)
    rel = np.linalg.norm(recon, axis=0) / np.linalg.norm(pair.y, axis=0)
    assert rel.max() <= 1e-10
    # sign convention: <y_j, nu_j> = r_j > 0
    diag = np.einsum("ij,ij->j", pair.y, pair.u)
    assert np.all(pair.residual_norms > 0)
    assert np.abs(diag - pair.residual_norms).max() <= 1e-9
    # nu_j orthogonal to all earlier Gaussian columns
    overlaps = np.triu(pair.y.T @ pair.u, k=1)
    assert np.abs(overlaps).max() <= 1e-9


def plain_gram_schmidt(y):
    # textbook modified Gram-Schmidt, one column at a time
    n, k = y.shape
    u = np.zeros((n, k))
    trace = np.zeros((k, k))
    for j in range(k):
        v = y[:, j].copy()
        for i in range(j):
            trace[i, j] = u[:, i] @ v
            v -= trace[i, j] * u[:, i]
        trace[j, j] = np.linalg.norm(v)
        u[:, j] = v / trace[j, j]
    return u, trace


def test_matches_gram_schmidt_oracle():
    n = 64
    y = sample_gaussian(n, n, Seed(5, (0,)))
    pair = gram_schmidt_couple(y)
    u, trace = plain_gram_schmidt(y)
    assert np.abs(u - pair.u).max() <= 1e-10
    assert np.abs(trace - pair.trace).max() <= 1e-10
    assert np.abs(np.diag(trace) - pair.residual_norms).max() <= 1e-10


def test_block_coupling_is_leading_block_of_full():
    n = 40
    y = sample_gaussian(n, n, Seed(6, (0,)))
    full = gram_schmidt_couple(y)
    for m in (1, n // 3, n):
        block = gram_schmidt_couple(y[:, :m])
        assert block.u.shape == (n, m) and block.trace.shape == (m, m)
        assert block.n == n
        assert np.abs(block.u - full.u[:, :m]).max() <= 1e-12
        assert np.abs(block.trace - full.trace[:m, :m]).max() <= 1e-12
        assert np.abs(block.residual_norms - full.residual_norms[:m]).max() <= 1e-12


def test_dependent_column_past_block_is_not_read():
    y = sample_gaussian(6, 6, Seed(7, (0,)))
    y[:, 4] = 2.0 * y[:, 1]
    with pytest.raises(DegeneracyError) as err:
        gram_schmidt_couple(y)
    assert err.value.column == 5
    pair = gram_schmidt_couple(y[:, :4])
    assert pair.u.shape == (6, 4)


def test_degenerate_column_named():
    y = np.array([[1.0, 2.0, 0.3], [0.5, 1.0, -0.2], [-2.0, -4.0, 0.9]])
    with pytest.raises(DegeneracyError) as err:
        gram_schmidt_couple(y)
    assert err.value.column == 2
    assert "column 2" in str(err.value)


def test_nonsquare_and_nonfinite_rejected():
    with pytest.raises(DimensionError):
        gram_schmidt_couple(np.ones((2, 3)))
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(DimensionError):
        gram_schmidt_couple(bad)


def test_haar_orthogonality():
    u = haar_orthogonal(4, Seed(3))
    assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-12


def test_haar_deterministic_and_matches_construction():
    a = haar_orthogonal(5, Seed(9, (2,)))
    b = gram_schmidt_couple(sample_gaussian(5, 5, Seed(9, (2,)))).u
    assert np.array_equal(a, b)


def test_haar_dimension_one_is_random_sign():
    values = [haar_orthogonal(1, Seed(13, (t,)))[0, 0] for t in range(10_000)]
    assert set(np.unique(values)) <= {-1.0, 1.0}
    plus = np.mean([v == 1.0 for v in values])
    assert 0.47 <= plus <= 0.53


def test_haar_entry_mean_near_zero():
    entries = [haar_orthogonal(64, Seed(17, (t,)))[0, 0] for t in range(1000)]
    assert abs(np.mean(entries)) <= 0.02


def test_haar_zero_dimension_rejected():
    with pytest.raises(DimensionError):
        haar_orthogonal(0, Seed(1))


def test_randomized_identity_injection(monkeypatch):
    monkeypatch.setattr(coupling, "haar_orthogonal", lambda k, seed: np.eye(k))
    pair = random_pair(16)
    rot = randomized_couple(pair, 16, Seed(0))
    assert np.array_equal(rot.y, pair.y)
    assert np.array_equal(rot.u, pair.u)


def test_randomized_preserves_row_block_norms():
    n, m = 48, 20
    pair = random_pair(n)
    rot = randomized_couple(pair, m, Seed(8, (2,)))
    before = np.linalg.norm(pair.y[:, :m] - math.sqrt(n) * pair.u[:, :m], axis=1)
    after = np.linalg.norm(rot.y[:, :m] - math.sqrt(n) * rot.u[:, :m], axis=1)
    assert np.abs(after - before).max() <= 1e-12 * before.max()
    assert np.abs(rot.u.T @ rot.u - np.eye(m)).max() <= 1e-12


def test_randomized_range_checks():
    pair = random_pair(6)
    with pytest.raises(DimensionError):
        randomized_couple(pair, 0, Seed(0))
    with pytest.raises(DimensionError):
        randomized_couple(pair, 7, Seed(0))


def householder(y):
    # LAPACK QR with the Gram-Schmidt sign convention, diag R > 0
    q, r = np.linalg.qr(y)
    signs = np.sign(np.diag(r))
    return q * signs, r * signs[:, None]


@pytest.mark.parametrize("n, k", [(64, 1), (64, 16), (512, 128), (1000, 250), (2048, 268)])
def test_tall_block_matches_householder(n, k):
    y = sample_gaussian(n, k, Seed(21, (n, k)))
    pair = gram_schmidt_couple(y)
    u, trace = householder(y)
    assert np.abs(pair.u - u).max() <= 1e-13
    assert np.abs(pair.trace - trace).max() <= 1e-13
    assert pair.u.flags.f_contiguous
    assert np.array_equal(pair.residual_norms, np.diag(pair.trace))
    assert np.all(pair.residual_norms > 0)
    assert not np.tril(pair.trace, -1).any()


@pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (64, 64), (64, 17), (40, 13), (300, 76)])
def test_square_and_wide_blocks_are_householder_bitwise(n, k):
    y = sample_gaussian(n, k, Seed(22, (n, k)))
    pair = gram_schmidt_couple(y)
    u, trace = householder(y)
    assert np.array_equal(pair.u, u)
    assert np.array_equal(pair.trace, trace)


def test_repeated_column_in_tall_block_named():
    y = sample_gaussian(400, 50, Seed(23, (0,)))
    y[:, 29] = y[:, 11]
    with pytest.raises(DegeneracyError) as err:
        gram_schmidt_couple(y)
    assert err.value.column == 30


@pytest.mark.parametrize("cond", [1e4, 1e6, 1e9])
def test_ill_conditioned_tall_block_falls_back_to_householder(cond):
    # singular values from 1e4 down to 1e4 / cond behind a Haar rotation
    # of the columns, every r_j far above 1e-8 sqrt(n).  At 1e4 and 1e6
    # Cholesky succeeds and only the check on U^T U sends the block back;
    # at 1e9 the Gram matrix is past what Cholesky can factor.
    n, k = 400, 50
    q, _ = np.linalg.qr(sample_gaussian(n, k, Seed(24, (0,))))
    s = np.logspace(4, 4 - math.log10(cond), k)
    y = np.asfortranarray((q * s) @ haar_orthogonal(k, Seed(24, (1,))).T)
    assert np.linalg.cond(y) == pytest.approx(cond, rel=0.01)
    pair = gram_schmidt_couple(y)
    assert pair.residual_norms.min() > 100 * 1e-8 * math.sqrt(n)
    u, trace = householder(y)
    assert np.array_equal(pair.u, u)
    assert np.array_equal(pair.trace, trace)
    assert np.abs(pair.u.T @ pair.u - np.eye(k)).max() <= 1e-12


def test_column_scaling_keeps_tall_block_on_cholesky_path():
    # Cholesky is invariant to column scaling, so a block made
    # ill-conditioned only that way needs no fallback
    y = sample_gaussian(400, 50, Seed(25, (0,)))
    scaled = gram_schmidt_couple(y * np.logspace(0, 9, 50))
    assert np.abs(scaled.u - gram_schmidt_couple(y).u).max() <= 1e-13
    # the Cholesky path returns u Fortran-ordered, Householder C-ordered
    assert scaled.u.flags.f_contiguous

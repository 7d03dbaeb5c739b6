import math

import numpy as np
import pytest

from hgc import (
    DimensionError,
    DomainError,
    Seed,
    decompose_gh,
    epsilon_sup,
    gh_matrices,
    gram_schmidt_couple,
    ks_statistic,
    sample_gaussian,
    summarize,
    truncated_row_norms,
)


def hand_pair():
    # columns (1,0) and (1,1) orthonormalize to the identity with
    # residual norms (1, 1)
    return gram_schmidt_couple(np.array([[1.0, 1.0], [0.0, 1.0]]))


def random_pair(n, root=31):
    return gram_schmidt_couple(sample_gaussian(n, n, Seed(root, (0,))))


# --- truncated_row_norms ----------------------------------------------------


def test_row_norms_zero_difference():
    y = sample_gaussian(5, 5, Seed(1))
    u = y / math.sqrt(5)
    assert np.allclose(truncated_row_norms(y, u, 3), 0.0)


def test_row_norms_scalar_case():
    c = 1.7
    assert truncated_row_norms(np.array([[c]]), np.array([[1.0]]), 1)[0] == pytest.approx(
        abs(c - 1.0)
    )
    assert truncated_row_norms(np.array([[c]]), np.array([[-1.0]]), 1)[0] == pytest.approx(
        abs(c + 1.0)
    )


def test_row_norms_hand_case():
    pair = hand_pair()
    norms = truncated_row_norms(pair.y, pair.u, 2)
    root2 = math.sqrt(2.0)
    assert norms[0] == pytest.approx(math.sqrt((1 - root2) ** 2 + 1.0), rel=1e-12)
    assert norms[1] == pytest.approx(abs(1 - root2), rel=1e-12)


def test_row_norms_validation():
    y = sample_gaussian(4, 4, Seed(2))
    with pytest.raises(DimensionError):
        truncated_row_norms(y, y[:3, :3], 2)
    with pytest.raises(DimensionError):
        truncated_row_norms(y, y, 5)
    with pytest.raises(DimensionError):
        truncated_row_norms(y, y, 0)


# --- G/H decomposition ------------------------------------------------------


def test_gh_first_column_of_g_is_zero():
    pair = random_pair(16)
    g, _ = gh_matrices(pair, 8)
    assert np.abs(g[:, 0]).max() == 0.0


@pytest.mark.parametrize("n,m", [(64, 40), (1024, 512)])
def test_gh_entrywise_identity(n, m):
    pair = random_pair(n)
    g, h = gh_matrices(pair, m)
    f = pair.y[:, :m] - math.sqrt(n) * pair.u[:, :m]
    assert np.abs(f - g - h).max() <= 1e-10


def test_gh_hand_case_columns():
    pair = hand_pair()
    g, h = gh_matrices(pair, 2)
    root2 = math.sqrt(2.0)
    assert np.allclose(g[:, 0], [0.0, 0.0])
    assert np.allclose(g[:, 1], [1.0, 0.0])
    assert np.allclose(h[:, 0], [(1 - root2), 0.0])
    assert np.allclose(h[:, 1], [0.0, (1 - root2)])


def test_gh_column_orthogonality():
    pair = random_pair(96)
    m = 50
    g, h = gh_matrices(pair, m)
    cross = np.einsum("ij,ij->j", g, h)
    assert np.abs(cross).max() <= 1e-9 * math.sqrt(96)


def test_decomposition_invariants():
    pair = random_pair(64)
    m = 33
    deco = decompose_gh(pair, m)
    # per-row expansion of ||F||^2 = ||G||^2 + ||H||^2 + 2 <G, H>
    lhs = deco.f_norms**2
    rhs = deco.g_norms**2 + deco.h_norms**2 + 2 * deco.cross
    assert np.abs(lhs - rhs).max() <= 1e-9 * lhs.max()
    # Frobenius identity between row and column accounting
    f = pair.y[:, :m] - math.sqrt(64) * pair.u[:, :m]
    col_sq = float((np.linalg.norm(f, axis=0) ** 2).sum())
    row_sq = float((deco.f_norms**2).sum())
    assert abs(row_sq - col_sq) <= 1e-9 * row_sq
    assert deco.alpha == pytest.approx(m / 64)


def test_decompose_range_check():
    pair = random_pair(8)
    with pytest.raises(DimensionError):
        decompose_gh(pair, 9)
    with pytest.raises(DimensionError):
        decompose_gh(pair, 0)


# --- epsilon_sup -------------------------------------------------------------


def test_epsilon_sup_zero_difference():
    y = sample_gaussian(6, 6, Seed(3))
    u = y / math.sqrt(6)
    assert epsilon_sup(y, u, 4) <= 1e-15


def test_epsilon_sup_hand_case():
    pair = hand_pair()
    assert epsilon_sup(pair.y, pair.u, 2) == pytest.approx(1.0, rel=1e-12)


def test_epsilon_sup_below_max_row_norm():
    pair = random_pair(32)
    for m in (1, 7, 32):
        eps = epsilon_sup(pair.y, pair.u, m)
        assert eps <= truncated_row_norms(pair.y, pair.u, m).max() + 1e-15


# --- ks_statistic -------------------------------------------------------------


def test_ks_single_sample_at_median():
    assert ks_statistic([0.0]) == pytest.approx(0.5, rel=1e-12)


def test_ks_normal_sample_is_small():
    x = Seed(5).generator().standard_normal(100_000)
    assert ks_statistic(x) <= 1.63 / math.sqrt(100_000)


def test_ks_uniform_sample_is_large():
    x = Seed(6).generator().uniform(0.0, 1.0, 10_000)
    assert ks_statistic(x) >= 0.3


def test_ks_empty_rejected():
    with pytest.raises(DomainError):
        ks_statistic([])


# --- summarize ----------------------------------------------------------------


def test_summarize_small_vector():
    s = summarize([1.0, 2.0, 3.0])
    assert s["sup"] == 3.0 and s["inf"] == 1.0
    assert s["mean"] == pytest.approx(2.0)
    assert s["q50"] == pytest.approx(2.0)


def test_summarize_constant_vector():
    s = summarize([4.2] * 9)
    assert s["std"] == 0.0
    assert s["q05"] == s["q50"] == s["q95"] == 4.2


def test_summarize_quantile_rule():
    # linear interpolation at position (size-1) q: 99 * 0.05 = 4.95
    s = summarize(np.arange(100.0))
    assert s["q05"] == pytest.approx(4.95, rel=1e-12)
    assert s["q95"] == pytest.approx(94.05, rel=1e-12)


def test_summarize_empty_rejected():
    with pytest.raises(DomainError):
        summarize([])

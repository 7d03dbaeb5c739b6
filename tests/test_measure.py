import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hgc import (
    DomainError,
    Seed,
    decompose_gh,
    epsilon_sup,
    gram_schmidt_couple,
    ks_statistic,
    sample_gaussian,
    summarize,
    truncated_row_norms,
)
from hgc import measure
from hgc.measure import _split_rows


def hand_pair():
    # columns (1,0) and (1,1) orthonormalize to the identity with
    # residual norms (1, 1)
    return gram_schmidt_couple(np.array([[1.0, 1.0], [0.0, 1.0]]))


def random_pair(n, root=31):
    return gram_schmidt_couple(sample_gaussian(n, n, Seed(root, (0,))))


def gh_matrices(pair, m):
    # G = F - H, as decompose_gh forms it
    f, h = _split_rows(pair, m, slice(None))
    return f - h, h


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
    with pytest.raises(DomainError):
        truncated_row_norms(y, y[:3, :3], 2)
    with pytest.raises(DomainError):
        truncated_row_norms(y, y, 5)
    with pytest.raises(DomainError):
        truncated_row_norms(y, y, 0)


# --- G/H decomposition ------------------------------------------------------


def test_gh_first_column_of_g_is_zero():
    # G_1 = y_1 - r_1 nu_1 is zero up to rounding (at most 4.6e-15 up to n = 2048)
    pair = random_pair(16)
    g, _ = gh_matrices(pair, 8)
    assert np.abs(g[:, 0]).max() <= 1e-12


@pytest.mark.parametrize("n,m", [(64, 40), (1024, 512), (2048, 2048)])
def test_gh_entrywise_identity(n, m):
    # G = F - H against its definition from the coupling trace, U striu(R)
    pair = random_pair(n)
    g, _ = gh_matrices(pair, m)
    reference = pair.u[:, :m] @ np.triu(pair.trace[:m, :m], 1)
    assert np.abs(g - reference).max() <= 1e-10


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


def full_block_reference(pair, m):
    # F, G and H as whole n x m blocks, read by the library calls.
    f, h = _split_rows(pair, m, slice(None))
    g = f - h
    return {
        "f": np.linalg.norm(f, axis=1),
        "g": np.linalg.norm(g, axis=1),
        "h": np.linalg.norm(h, axis=1),
        "cross": np.einsum("ij,ij->i", g, h),
        "eps": float(np.abs(f).max()),
    }


def assert_panels_match_full_block(pair, m):
    want = full_block_reference(pair, m)
    deco = decompose_gh(pair, m)
    assert np.array_equal(truncated_row_norms(pair.y, pair.u, m), want["f"])
    assert np.array_equal(deco.f_norms, want["f"])
    assert np.array_equal(deco.g_norms, want["g"])
    assert np.array_equal(deco.h_norms, want["h"])
    assert np.array_equal(deco.cross, want["cross"])
    assert epsilon_sup(pair.y, pair.u, m) == want["eps"]


@pytest.mark.parametrize("n, m", [(64, 20), (300, 50), (96, 96)])
def test_norms_match_library_norm_bitwise(n, m):
    # The norms square their own temporaries in place; the sums are the
    # library's, term for term and in the same order.
    assert_panels_match_full_block(gram_schmidt_couple(sample_gaussian(n, m, Seed(9, (0,)))), m)


@pytest.mark.parametrize(
    "n, m, last",
    [
        (2197, 268, 123),  # 122-row panels; the 1-row tail joins the panel before it
        (2198, 268, 2),  # a 2-row tail stays a panel of its own
        (512, 64, 512),  # exactly one panel
        (513, 64, 513),  # one panel and a 1-row tail
        (100, 1, 100),
    ],
)
def test_panels_of_a_tall_fortran_pair_match_the_full_block(n, m, last):
    # The CholeskyQR path returns u Fortran-ordered, where numpy sums a
    # panel of one row in another order than a panel of two or more.
    pair = gram_schmidt_couple(sample_gaussian(n, m, Seed(4, (n,))))
    assert pair.u.flags.f_contiguous
    panel = measure._panels(n, m)[-1]
    assert panel.stop - panel.start == last
    assert_panels_match_full_block(pair, m)


def c_ordered(pair):
    # Both coupling paths return u Fortran-ordered; a C-ordered copy of u
    # beside the sampled Fortran-ordered y keeps the other layout, whose
    # rows numpy sums in another order, covered.
    return replace(pair, u=np.ascontiguousarray(pair.u))


@pytest.mark.parametrize("n, m", [(300, 300), (300, 120), (300, 1), (1, 1)])
def test_panels_of_a_householder_pair_match_the_full_block(n, m):
    pair = gram_schmidt_couple(sample_gaussian(n, n, Seed(4, (n,))))
    assert pair.u.flags.f_contiguous
    assert_panels_match_full_block(pair, m)
    pair = c_ordered(pair)
    assert pair.u.flags.c_contiguous
    assert_panels_match_full_block(pair, m)


@pytest.mark.parametrize("rows", [2, 3, 5])
@pytest.mark.parametrize("n, k", [(301, 60), (97, 97)])
def test_small_panels_match_the_full_block(monkeypatch, rows, n, k):
    # Panels of a few rows, in both layouts, with every tail length.
    m = k - 7
    monkeypatch.setattr(measure, "_PANEL_BYTES", rows * 8 * m)
    pair = gram_schmidt_couple(sample_gaussian(n, k, Seed(6, (n,))))
    assert {p.stop - p.start for p in measure._panels(n, m)} <= set(range(2, rows + 2))
    assert_panels_match_full_block(pair, m)
    assert_panels_match_full_block(c_ordered(pair), m)


def test_panels_cover_every_row_once():
    for n in (1, 2, 3, 121, 122, 123, 244, 245, 2197):
        panels = measure._panels(n, 268)
        assert [p.start for p in panels[1:]] == [p.stop for p in panels[:-1]]
        assert (panels[0].start, panels[-1].stop) == (0, n)
        assert n == 1 or min(p.stop - p.start for p in panels) >= 2


@pytest.mark.parametrize("n, m", [(1024, 1024), (4096, 512)])
def test_measure_holds_no_n_by_m_block(n, m):
    # Each call's own allocations peak at a few panels, far below one block.
    pair = gram_schmidt_couple(sample_gaussian(n, m, Seed(8, (n,))))
    calls = {
        "rownorms": lambda: truncated_row_norms(pair.y, pair.u, m),
        "gh": lambda: decompose_gh(pair, m),
        "eps": lambda: epsilon_sup(pair.y, pair.u, m),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * m * 8, name


def test_decompose_range_check():
    pair = random_pair(8)
    with pytest.raises(DomainError):
        decompose_gh(pair, 9)
    with pytest.raises(DomainError):
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

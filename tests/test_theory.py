import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hgc import (
    DomainError,
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
from hgc.theory import SERIES_SWITCH, kolmogorov_pvalue

mpmath.mp.dps = 50


def phi_mp(alpha):
    a = mpmath.mpf(alpha)
    return 2 - mpmath.mpf(4) / 3 * (1 - (1 - a) ** mpmath.mpf(1.5)) / a


def series3_mp(alpha):
    a = mpmath.mpf(alpha)
    return a / 2 + a**2 / 12 + a**3 / 32


# --- phi -------------------------------------------------------------------


def test_phi_at_one():
    assert phi(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_phi_at_half():
    assert phi(0.5) == pytest.approx(0.27614237491539670, rel=1e-12)
    assert abs(phi(0.5) - 0.27614237) <= 1e-7


def test_phi_small_alpha_series_branch():
    # below the switch the implementation is the three-term series;
    # the two-term value differs by alpha^2/16 relative, consistent
    # with the O(alpha^3) remainder of the expansion
    a = 1e-6
    three = a / 2 + a * a / 12 + a**3 / 32
    assert phi(a) == pytest.approx(three, rel=1e-15)
    two = a / 2 + a * a / 12
    assert abs(phi(a) - two) / phi(a) <= a * a / 16 * 1.01
    assert abs(phi(a) - two) <= a**3


def test_phi_branch_continuity_at_switch():
    a = SERIES_SWITCH
    series = a / 2 + a * a / 12 + a**3 / 32
    assert abs(phi(a) - series) / phi(a) <= 1e-12


def test_phi_monotone_on_grid():
    grid = np.concatenate(
        [np.logspace(-6, -4, 100), np.linspace(1.01e-4, 1.0, 10_000)]
    )
    values = np.array([phi(a) for a in grid])
    assert np.all(np.diff(values) > 0)
    assert np.all(values > 0)
    assert values[-1] == phi(1.0)
    assert np.all(values <= 2.0 / 3.0 + 1e-15)


def test_phi_series_consistency():
    # |phi - (a/2 + a^2/12 + a^3/32)| <= a^4 on a 10^4-point grid
    for a in np.logspace(-5, -1, 10_000):
        gap = abs(phi(a) - float(series3_mp(a)))
        assert gap <= a**4


def test_phi_domain():
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(DomainError):
            phi(bad)


def test_phi_vs_high_precision_oracle():
    rng = np.random.default_rng(1)
    alphas = np.concatenate(
        [10 ** rng.uniform(-6, 0, 80), rng.uniform(0.5, 1.0, 19), [1.0]]
    )
    for a in alphas:
        exact = float(phi_mp(a))
        assert phi(float(a)) == pytest.approx(exact, rel=1e-12)


# --- predicted_row_norm ----------------------------------------------------


def test_predicted_row_norm_values():
    assert predicted_row_norm(1000, 1000) == pytest.approx(25.81988897471611, abs=1e-3)
    assert predicted_row_norm(2000, 1000) == pytest.approx(16.61753215478751, abs=1e-3)
    small_alpha = predicted_row_norm(8192, 256)
    assert abs(small_alpha - 2.0) / 2.0 <= 0.015


def test_predicted_row_norm_domain():
    with pytest.raises(DomainError):
        predicted_row_norm(10, 11)
    with pytest.raises(DomainError):
        predicted_row_norm(10, 0)


# --- tail bounds -----------------------------------------------------------


def test_gaussian_tail_values():
    lower, upper = gaussian_tail_bounds(1.0)
    assert upper == pytest.approx(0.241971, abs=1e-6)
    assert lower == pytest.approx(0.120985, abs=1e-6)
    true_tail = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    assert lower <= true_tail <= upper


def test_gaussian_tail_ordering_and_domain():
    for t in (0.1, 1.0, 3.0, 10.0):
        lower, upper = gaussian_tail_bounds(t)
        assert 0 < lower <= upper
    with pytest.raises(DomainError):
        gaussian_tail_bounds(0.0)


def test_kolmogorov_pvalue_values():
    # the classical 5% and 1% critical values of sqrt(N) D
    assert kolmogorov_pvalue(1.3581) == pytest.approx(0.05, abs=1e-3)
    assert kolmogorov_pvalue(1.6276) == pytest.approx(0.01, abs=1e-3)
    assert kolmogorov_pvalue(0.0) == 1.0
    # the theta form below lam = 1 and the alternating series above agree
    assert kolmogorov_pvalue(1.0 - 1e-12) == pytest.approx(kolmogorov_pvalue(1.0), abs=1e-11)
    for lam in (0.3, 0.8, 1.2, 2.5):
        series = 2 * mpmath.nsum(
            lambda k: (-1) ** (k - 1) * mpmath.exp(-2 * k**2 * mpmath.mpf(lam) ** 2),
            [1, mpmath.inf],
        )
        assert kolmogorov_pvalue(lam) == pytest.approx(float(series), abs=1e-12)
    with pytest.raises(DomainError):
        kolmogorov_pvalue(-0.1)


def test_chi_norm_tail_values():
    assert chi_norm_tail(400, 0.2) == pytest.approx(0.018316, abs=1e-6)
    assert chi_norm_tail(4, 0.99) == pytest.approx(0.37527, abs=1e-5)
    with pytest.raises(DomainError):
        chi_norm_tail(4, 1.0)
    with pytest.raises(DomainError):
        chi_norm_tail(0, 0.5)


def test_projection_tails_values():
    tails = projection_tails(100, 200, 0.2)
    assert tails.unit_upper == pytest.approx(0.367879, abs=1e-6)
    assert tails.unit_lower == tails.unit_upper
    assert tails.gaussian_upper == tails.unit_upper
    assert tails.unit_t is None
    with_t = projection_tails(100, 200, 0.2, t=2.0)
    assert with_t.unit_t == pytest.approx(math.exp(-50.0), rel=1e-12)
    for bad in (dict(k=0, n=4, rho=0.5), dict(k=5, n=4, rho=0.5),
                dict(k=2, n=4, rho=1.5), dict(k=2, n=4, rho=0.5, t=0.5)):
        with pytest.raises(DomainError):
            projection_tails(**bad)


def test_hoeffding_values():
    assert hoeffding_bound([2.0] * 100, 20.0) == pytest.approx(
        2.0 * math.exp(-2.0), rel=1e-12
    )
    assert hoeffding_bound([1.0], 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert hoeffding_bound([1.0], 1e-12) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(DomainError):
        hoeffding_bound([0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        hoeffding_bound([1.0], 0.0)
    with pytest.raises(DomainError):
        hoeffding_bound([], 1.0)


# --- envelopes -------------------------------------------------------------


def test_epsilon_envelope_square_case():
    lower, upper = epsilon_envelope(500, 500, 0.0)
    assert lower == pytest.approx(math.sqrt(2.0 / 3.0) * math.sqrt(2 * math.log(500)), rel=1e-12)
    assert upper == pytest.approx(lower * math.sqrt(2.0), rel=1e-12)


def test_epsilon_envelope_beta_one_case():
    lower, upper = epsilon_envelope(4096, 492, 0.0)
    assert lower == pytest.approx(1.0099839104299540, rel=1e-12)
    assert upper == pytest.approx(1.3342531744103394, rel=1e-12)
    assert abs(lower - 1.014) <= 0.01


def test_epsilon_envelope_slack_linearity():
    base = epsilon_envelope(300, 120, 0.0)
    slacked = epsilon_envelope(300, 120, 0.1)
    assert slacked[0] == pytest.approx(0.9 * base[0], rel=1e-15)
    assert slacked[1] == pytest.approx(1.1 * base[1], rel=1e-15)


@given(
    n=st.integers(2, 10_000),
    frac=st.floats(0.001, 1.0),
    slack=st.floats(0.0, 0.99),
)
def test_epsilon_envelope_ordering(n, frac, slack):
    m = max(1, int(frac * n))
    lower, upper = epsilon_envelope(n, m, slack)
    assert 0 <= lower <= upper


def test_beta_interval_values():
    low, high = beta_interval(1.0)
    assert (low, high) == pytest.approx((1.0, 1.41421356), abs=1e-8)
    assert beta_interval(4.0) == pytest.approx((2.0, 2.82842712), abs=1e-8)
    assert beta_interval(0.25) == pytest.approx((0.5, 0.70710678), abs=1e-8)
    with pytest.raises(DomainError):
        beta_interval(0.0)


def test_sphere_sup_threshold_values():
    lower, upper = sphere_sup_threshold(10_000, 1, 0.0)
    assert lower == pytest.approx(0.04292, abs=1e-5)
    assert upper == pytest.approx(lower, rel=1e-12)
    base = sphere_sup_threshold(500, 20, 0.0)
    slacked = sphere_sup_threshold(500, 20, 0.05)
    assert slacked[0] == pytest.approx(0.95 * base[0], rel=1e-15)
    assert slacked[1] == pytest.approx(1.05 * base[1], rel=1e-15)
    square = sphere_sup_threshold(777, 777, 0.0)
    assert square[1] / square[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        sphere_sup_threshold(500, 0, 0.0)


# --- cross-check every calculator against 50-digit evaluation ---------------


def test_calculators_vs_high_precision_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = float(10 ** rng.uniform(-2, 1))
        lower, upper = gaussian_tail_bounds(t)
        tm = mpmath.mpf(t)
        core = mpmath.exp(-(tm**2) / 2) / mpmath.sqrt(2 * mpmath.pi)
        assert lower == pytest.approx(float(tm * core / (1 + tm**2)), rel=1e-12)
        assert upper == pytest.approx(float(core / tm), rel=1e-12)

        n = int(rng.integers(1, 10_000))
        eps = float(rng.uniform(0.01, 0.99))
        assert chi_norm_tail(n, eps) == pytest.approx(
            float(mpmath.exp(-mpmath.mpf(eps) ** 2 * n / 4)), rel=1e-12
        )

        k = int(rng.integers(1, n + 1))
        tp = float(rng.uniform(1.01, 3.0))
        tails = projection_tails(k, n, eps, tp)
        assert tails.unit_upper == pytest.approx(
            float(mpmath.exp(-mpmath.mpf(eps) ** 2 * k / 4)), rel=1e-12
        )
        assert tails.unit_t == pytest.approx(
            float(mpmath.exp(-mpmath.mpf(k) / 4 * (mpmath.mpf(tp) ** 2 - 2))),
            rel=1e-12,
        )

        widths = rng.uniform(0.1, 3.0, size=rng.integers(1, 20)).tolist()
        a = float(rng.uniform(0.1, 5.0))
        expected = 2 * mpmath.exp(
            -2 * mpmath.mpf(a) ** 2 / sum(mpmath.mpf(w) ** 2 for w in widths)
        )
        assert hoeffding_bound(widths, a) == pytest.approx(float(expected), rel=1e-12)

        n2 = int(rng.integers(2, 10_000))
        m2 = int(rng.integers(1, n2 + 1))
        slack = float(rng.uniform(0.0, 0.5))
        lo, up = epsilon_envelope(n2, m2, slack)
        root_phi = mpmath.sqrt(phi_mp(mpmath.mpf(m2) / n2))
        assert lo == pytest.approx(
            float((1 - mpmath.mpf(slack)) * root_phi * mpmath.sqrt(2 * mpmath.log(n2))),
            rel=1e-12,
        )
        assert up == pytest.approx(
            float(
                (1 + mpmath.mpf(slack)) * root_phi * mpmath.sqrt(2 * mpmath.log(n2 * m2))
            ),
            rel=1e-12,
        )

        assert predicted_row_norm(n2, m2) == pytest.approx(
            float(mpmath.sqrt(phi_mp(mpmath.mpf(m2) / n2) * m2)), rel=1e-12
        )

        beta = float(rng.uniform(0.01, 10.0))
        low, high = beta_interval(beta)
        assert low == pytest.approx(float(mpmath.sqrt(beta)), rel=1e-12)
        assert high == pytest.approx(float(mpmath.sqrt(2 * mpmath.mpf(beta))), rel=1e-12)

        s_lo, s_up = sphere_sup_threshold(n2, m2, slack)
        assert s_lo == pytest.approx(
            float(
                (1 - mpmath.mpf(slack))
                * mpmath.sqrt(2 * mpmath.log(n2))
                / mpmath.sqrt(n2)
            ),
            rel=1e-12,
        )
        assert s_up == pytest.approx(
            float(
                (1 + mpmath.mpf(slack))
                * mpmath.sqrt(2 * mpmath.log(n2 * m2))
                / mpmath.sqrt(n2)
            ),
            rel=1e-12,
        )

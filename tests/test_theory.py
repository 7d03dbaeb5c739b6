import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hgc import theory
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
from hgc.theory import kolmogorov_pvalue

mpmath.mp.dps = 50


def phi_mp(alpha):
    # the closed form cancels twice, each time about -log10(alpha) digits
    a = mpmath.mpf(alpha)
    with mpmath.extradps(2 * max(0, int(-mpmath.log10(a)))):
        return +(2 - mpmath.mpf(4) / 3 * (1 - (1 - a) ** mpmath.mpf(1.5)) / a)


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
    # at small alpha the closed form matches the three-term series
    # alpha/2 + alpha^2/12 + alpha^3/32, whose remainder is alpha^4/64;
    # the two-term value differs by alpha^2/16 relative, consistent
    # with the O(alpha^3) remainder of the expansion
    a = 1e-6
    three = a / 2 + a * a / 12 + a**3 / 32
    assert phi(a) == pytest.approx(three, rel=1e-15)
    two = a / 2 + a * a / 12
    assert abs(phi(a) - two) / phi(a) <= a * a / 16 * 1.01
    assert abs(phi(a) - two) <= a**3


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
    # the dense band below 1e-4 is where a three-term series would miss
    # by its alpha^4/64 remainder, up to 3.1e-14 relative
    rng = np.random.default_rng(1)
    alphas = np.concatenate(
        [10 ** rng.uniform(-6, 0, 80), rng.uniform(0.5, 1.0, 19), [1.0],
         np.logspace(-300, -6, 300), np.logspace(-6, -4, 300)]
    )
    for a in alphas:
        exact = phi_mp(float(a))
        assert abs(phi(float(a)) - exact) / exact <= 4e-16


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
    with pytest.raises(DomainError, match="^n must lie in "):
        predicted_row_norm(10**400, 10**400)


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
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gaussian_tail_bounds(t)
    # below 2.2192e-309 the upper bound 1 / (t sqrt(2 pi)) exceeds float range
    assert gaussian_tail_bounds(2.22e-309)[1] < math.inf
    for t in (2.2e-309, 1e-320):
        with pytest.raises(DomainError, match=r"^t must be >= 2\.22e-309 for a finite upper"):
            gaussian_tail_bounds(t)


def test_kolmogorov_pvalue_values():
    # the classical 5% and 1% critical values of sqrt(N) D
    assert kolmogorov_pvalue(1.3581) == pytest.approx(0.05, abs=1e-3)
    assert kolmogorov_pvalue(1.6276) == pytest.approx(0.01, abs=1e-3)
    assert kolmogorov_pvalue(0.0) == 1.0
    # (k lam)^2 overflows past lam = 1.3e154, where Q has long rounded to 0.
    assert kolmogorov_pvalue(20.0) == kolmogorov_pvalue(1e200) == kolmogorov_pvalue(math.inf) == 0.0
    assert kolmogorov_pvalue(1.0 - 1e-12) == pytest.approx(kolmogorov_pvalue(1.0), abs=1e-11)
    for lam in (0.1, 0.15, 0.3, 0.8, 1.2, 2.5, *np.linspace(0.1, 6.0, 60)):
        series = 2 * mpmath.nsum(
            lambda k: (-1) ** (k - 1) * mpmath.exp(-2 * k**2 * mpmath.mpf(lam) ** 2),
            [1, mpmath.inf],
        )
        assert abs(kolmogorov_pvalue(float(lam)) - float(series)) <= 1e-15
    for bad in (-0.1, math.nan):
        with pytest.raises(DomainError):
            kolmogorov_pvalue(bad)


def test_chi_norm_tail_values():
    assert chi_norm_tail(400, 0.2) == pytest.approx(0.018316, abs=1e-6)
    assert chi_norm_tail(4, 0.99) == pytest.approx(0.37527, abs=1e-5)
    with pytest.raises(DomainError):
        chi_norm_tail(4, 1.0)
    with pytest.raises(DomainError):
        chi_norm_tail(0, 0.5)
    # an n past float range cannot enter the exponent
    with pytest.raises(DomainError, match="^n must lie in "):
        chi_norm_tail(10**400, 0.5)


def test_projection_tails_values():
    two_sided, unit_t = projection_tails(100, 200, 0.2)
    assert two_sided == pytest.approx(0.367879, abs=1e-6)
    assert unit_t is None
    two_sided_t, unit_t = projection_tails(100, 200, 0.2, t=2.0)
    assert two_sided_t == two_sided
    assert unit_t == pytest.approx(math.exp(-50.0), rel=1e-12)
    for bad in (dict(k=0, n=4, rho=0.5), dict(k=5, n=4, rho=0.5),
                dict(k=2, n=4, rho=1.5), dict(k=2, n=4, rho=0.5, t=0.5),
                dict(k=10**400, n=10**400, rho=0.5)):
        with pytest.raises(DomainError):
            projection_tails(**bad)


def test_projection_bound_is_the_chi_norm_bound():
    for k in (1, 2, 7, 64, 100, 1000, 10**6):
        for rho in (1e-9, 0.01, 0.2, 0.3, 0.5, 0.9, 0.999999):
            assert projection_tails(k, 2 * k, rho)[0] == chi_norm_tail(k, rho)


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
    with pytest.raises(DomainError, match="^widths must be non-negative and non-empty$"):
        hoeffding_bound([float("nan")], 1.0)
    # The bound depends on a / ||w|| alone; a^2 and w^2 would overflow to
    # inf / inf = NaN at 1e200, and underflow to a zero sum at 1e-200.
    for scale in (1e-200, 1e200):
        assert hoeffding_bound([scale], scale) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    assert hoeffding_bound([1e-200], 1.0) == 0.0
    with pytest.raises(DomainError, match="^a must be positive and finite, got inf$"):
        hoeffding_bound([math.inf], math.inf)


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


@pytest.mark.parametrize("slack", [-0.1, 1.0, 2.0, math.inf, math.nan])
def test_epsilon_envelope_rejects_bad_slack(slack):
    with pytest.raises(DomainError, match=r"^slack must lie in \[0, 1\), got "):
        epsilon_envelope(300, 120, slack)


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
    # 2 beta overflows here, so the upper edge is sqrt(2) sqrt(beta)
    low, high = beta_interval(1e308)
    assert high == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    assert low < high < math.inf
    assert beta_interval(4.0) == pytest.approx((2.0, 2.82842712), abs=1e-8)
    assert beta_interval(0.25) == pytest.approx((0.5, 0.70710678), abs=1e-8)
    for beta in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            beta_interval(beta)


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
    # m infinite or NaN is refused, not taken to an infinite or NaN edge
    for m in (math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^m must lie in \[1, "):
            sphere_sup_threshold(500, m, 0.0)
    # n past float range, infinite or NaN is refused, not taken to sqrt
    for n in (10**400, math.inf, math.nan):
        with pytest.raises(DomainError, match=r"^n must lie in \[1, "):
            sphere_sup_threshold(n, 1, 0.0)
    for slack in (-0.1, 1.0, 2.0, math.nan):
        with pytest.raises(DomainError, match=r"^slack must lie in \[0, 1\), got "):
            sphere_sup_threshold(500, 20, slack)


def test_sup_window_is_finite_where_n_m_overflows():
    # n m passes float range in both calls, so ln(n m) is read as ln n + ln m.
    lower, upper = sphere_sup_threshold(500, 1e308, 0.0)
    assert upper == pytest.approx(math.sqrt(2 * (math.log(500) + math.log(1e308)) / 500), rel=1e-15)
    assert 0 < lower < upper < math.inf
    lower, upper = epsilon_envelope(1e200, 1e200, 0.0)
    assert upper == pytest.approx(lower * math.sqrt(2.0), rel=1e-15)
    assert 0 < lower < upper < math.inf


@pytest.mark.parametrize("n", [2, 3, 10, 500, 4096, 10**6, 10**12, 1e150])
@pytest.mark.parametrize("frac", [1e-9, 0.01, 0.3, 1.0])
def test_sup_window_upper_edge_is_unchanged_in_range(n, frac):
    # Where n m is finite the upper edge is bitwise sqrt(2 ln(n m)), scaled.
    m = max(1, math.floor(frac * n))
    for slack in (0.0, 0.1):
        edge = (1.0 + slack) * math.sqrt(2.0 * math.log(n * m))
        assert sphere_sup_threshold(n, m, slack)[1] == edge / math.sqrt(n)
        assert epsilon_envelope(n, m, slack)[1] == edge * math.sqrt(phi(m / n))


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
        two_sided, unit_t = projection_tails(k, n, eps, tp)
        assert two_sided == pytest.approx(
            float(mpmath.exp(-mpmath.mpf(eps) ** 2 * k / 4)), rel=1e-12
        )
        assert unit_t == pytest.approx(
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


# --- every calculator on every double ---------------------------------------

_ANY = st.floats()  # every double: NaN, the infinities, subnormals, -0.0
_CALLS = {
    theory.phi: (_ANY,),
    theory.predicted_row_norm: (_ANY, _ANY),
    theory.gaussian_tail_bounds: (_ANY,),
    theory.kolmogorov_pvalue: (_ANY,),
    theory.chi_norm_tail: (_ANY, _ANY),
    theory.projection_tails: (_ANY, _ANY, _ANY, st.none() | _ANY),
    theory.hoeffding_bound: (st.lists(_ANY, max_size=4), _ANY),
    theory.epsilon_envelope: (_ANY, _ANY, _ANY),
    theory.beta_interval: (_ANY,),
    theory.sphere_sup_threshold: (_ANY, _ANY, _ANY),
}


def test_the_float_property_covers_every_calculator():
    public = {fn for name, fn in vars(theory).items()
              if callable(fn) and not name.startswith("_") and fn.__module__ == theory.__name__}
    assert public == set(_CALLS)


@settings(max_examples=1000)
@given(st.one_of(*(st.tuples(st.just(fn), *args) for fn, args in _CALLS.items())))
@example((theory.hoeffding_bound, [1e200], 1e200))
@example((theory.hoeffding_bound, [1e-200], 1.0))
@example((theory.hoeffding_bound, [math.inf], math.inf))
@example((theory.kolmogorov_pvalue, 1e200))
@example((theory.projection_tails, 8.0, 8.0, 0.5, 1.0000001))
def test_every_calculator_raises_domain_error_or_returns_finite_values(call):
    fn, *args = call
    try:
        out = fn(*args)
    except DomainError:
        return
    values = list(out) if isinstance(out, tuple) else [out]
    if fn is theory.projection_tails:
        # unit_t is None without t, and +inf where its vacuous bound
        # passes double range, as its docstring says.
        unit_t = values.pop()
        assert unit_t is None or unit_t == math.inf or math.isfinite(unit_t)
    assert all(math.isfinite(v) for v in values), (args, out)

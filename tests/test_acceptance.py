"""Acceptance suite.

Runs every acceptance criterion at its stated scale and tolerance and
prints one pass/fail line per criterion (run with ``pytest -s`` to see
them).  Heavy reports are cached and shared between criteria; the whole
module takes about 2.5 minutes on two cores.

Known red: criterion 05.  The supremum row-norm ratio at n = 8192,
m = 256 concentrates near 1.29 (measured 1.26..1.33 over ten
independent seeds), above the stated window edge of 1.25; the
small-ratio asymptotic has not set in for the supremum at alpha = 1/32.
The criterion is asserted exactly as stated and fails honestly.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from hgc import (
    ExperimentConfig,
    Seed,
    beta_interval,
    chi_norm_tail,
    epsilon_envelope,
    gaussian_tail_bounds,
    gh_matrices,
    gram_schmidt_couple,
    hoeffding_bound,
    phi,
    predicted_row_norm,
    projection_tails,
    run,
    sample_gaussian,
    sphere_sup_threshold,
)
from hgc.harness import render_csv

ACCEPT_SEED = 20260811

PHI_HALF = 0.27614237491539670  # high-precision evaluation of the closed form


@lru_cache(maxsize=None)
def report(kind, n, m=None, alpha=None, beta=None, trials=5, coupling="plain-gs",
           workers=1):
    cfg = ExperimentConfig(
        kind=kind, n=n, m=m, alpha=alpha, beta=beta, trials=trials,
        seed=ACCEPT_SEED, coupling=coupling, workers=workers,
    )
    return run(cfg)


def _criterion(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def _median_dev(results, field):
    return float(np.median([abs(r.rows[0][field] - 1.0) for r in results]))


# -- 01 ----------------------------------------------------------------------


def test_criterion_01_exact_identities():
    worst = {"fg": 0.0, "orth": 0.0, "cross": 0.0, "frob": 0.0}
    sizes = (8, 32, 64)
    for i in range(20):
        n = sizes[i % 3]
        pair = gram_schmidt_couple(sample_gaussian(n, n, Seed(ACCEPT_SEED, (900, i))))
        m = (i % n) + 1
        g, h = gh_matrices(pair, m)
        f = pair.y[:, :m] - math.sqrt(n) * pair.u[:, :m]
        worst["fg"] = max(worst["fg"], float(np.abs(f - g - h).max()))
        worst["orth"] = max(
            worst["orth"], float(np.abs(pair.u.T @ pair.u - np.eye(n)).max())
        )
        worst["cross"] = max(
            worst["cross"],
            float(np.abs(np.einsum("ij,ij->j", g, h)).max()) / math.sqrt(n),
        )
        row_sq = float((np.linalg.norm(f, axis=1) ** 2).sum())
        col_sq = float((np.linalg.norm(f, axis=0) ** 2).sum())
        worst["frob"] = max(worst["frob"], abs(row_sq - col_sq) / row_sq)
    ok = (
        worst["fg"] <= 1e-10
        and worst["orth"] <= 1e-12
        and worst["cross"] <= 1e-9
        and worst["frob"] <= 1e-9
    )
    _criterion(
        1, "exact-identities", ok,
        f"20 instances, worst: |F-(G+H)|={worst['fg']:.1e}, "
        f"|U^T U-I|={worst['orth']:.1e}, col-cross={worst['cross']:.1e}, "
        f"Frobenius rel={worst['frob']:.1e}",
    )


# -- 02 ----------------------------------------------------------------------


def _ratio_reports(alpha):
    # alpha = 0.5 rides on the gh-split reports shared with criteria 3/4
    kind = "gh-split" if alpha == 0.5 else "row-norms"
    return {n: report(kind, n, alpha=alpha, trials=5) for n in (1024, 2048, 4096)}


def test_criterion_02_row_norm_leading_order():
    details = []
    ok = True
    for alpha in (0.25, 0.5, 1.0):
        reps = _ratio_reports(alpha)
        sup_med = reps[4096].aggregate["ratio_sup"]["q50"]
        inf_med = reps[4096].aggregate["ratio_inf"]["q50"]
        ok &= 0.90 <= sup_med <= 1.30
        ok &= 0.75 <= inf_med <= 1.05
        sup_devs = [_median_dev(reps[n].results, "ratio_sup") for n in (1024, 2048, 4096)]
        inf_devs = [_median_dev(reps[n].results, "ratio_inf") for n in (1024, 2048, 4096)]
        ok &= sup_devs[0] >= sup_devs[1] >= sup_devs[2]
        ok &= inf_devs[0] >= inf_devs[1] >= inf_devs[2]
        details.append(
            f"a={alpha}: sup={sup_med:.4f} inf={inf_med:.4f} "
            f"dev_sup={'>'.join(f'{d:.3f}' for d in sup_devs)}"
        )
    _criterion(2, "row-norm-leading-order", ok, "; ".join(details))


# -- 03 ----------------------------------------------------------------------


def test_criterion_03_flatness():
    def flatness(rep):
        rows = [r.rows[0] for r in rep.results]
        return [(row["sup_F"] - row["inf_F"]) / row["mean_F"] for row in rows]

    at_4096 = flatness(report("gh-split", 4096, alpha=0.5, trials=5))
    at_1024 = flatness(report("gh-split", 1024, alpha=0.5, trials=5))
    ok = max(at_4096) <= 0.25
    ok &= float(np.median(at_4096)) < float(np.median(at_1024))
    _criterion(
        3, "flatness", ok,
        f"(sup-inf)/mean at n=4096: max={max(at_4096):.4f} <= 0.25, "
        f"median {np.median(at_4096):.4f} < {np.median(at_1024):.4f} at n=1024",
    )


# -- 04 ----------------------------------------------------------------------


def test_criterion_04_gh_split():
    h_target = PHI_HALF - 0.25
    reps = {n: report("gh-split", n, alpha=0.5, trials=5) for n in (512, 1024, 2048, 4096)}
    g2 = reps[4096].aggregate["g2_over_m"]["q50"]
    h2 = reps[4096].aggregate["h2_over_m"]["q50"]
    crosses = [reps[n].aggregate["max_cross_over_m"]["q50"] for n in (512, 1024, 2048, 4096)]
    ok = abs(g2 - 0.25) <= 0.15 * 0.25
    ok &= abs(h2 - h_target) <= 0.25 * h_target
    ok &= crosses[-1] <= 0.10
    ok &= all(a > b for a, b in zip(crosses, crosses[1:]))
    _criterion(
        4, "gh-split", ok,
        f"|G|^2/m={g2:.5f} (0.25 +-15%), |H|^2/m={h2:.5f} ({h_target:.5f} +-25%), "
        f"max-cross/m decreasing {'>'.join(f'{c:.4f}' for c in crosses)} and <= 0.1",
    )


# -- 05 ----------------------------------------------------------------------


def test_criterion_05_small_alpha_regime():
    # Known red; see the module docstring.
    rep = report("row-norms", 8192, m=256, trials=3)
    target = 256 / math.sqrt(2 * 8192)
    assert target == 2.0
    ratios = [r.rows[0]["sup_F"] / target for r in rep.results]
    med = float(np.median(ratios))
    ok = 0.85 <= med <= 1.25
    _criterion(
        5, "small-alpha-sup-window", ok,
        f"median sup ratio {med:.4f} vs window [0.85, 1.25]; "
        f"per-trial {[round(r, 4) for r in ratios]}; the statistic "
        f"concentrates near 1.29 at this scale (1.26..1.33 over ten seeds)",
    )


# -- 06 / 07 ------------------------------------------------------------------


def _beta_window():
    low, high = beta_interval(1.0)
    return 0.8 * low, 1.25 * high  # (0.80, 1.7678)


def test_criterion_06_epsilon_window():
    rep = report("coupling-compare", 4096, beta=1.0, trials=10)
    assert rep.config.resolved_m() == 492
    low, high = _beta_window()
    values = [rotated["eps"] for _, rotated in (r.rows for r in rep.results)]
    hits = sum(low < v < high for v in values)
    ok = hits >= 9
    _criterion(
        6, "epsilon-beta-window", ok,
        f"randomized eps in ({low:.2f}, {high:.2f}) in {hits}/10 trials "
        f"(values {min(values):.3f}..{max(values):.3f})",
    )


def test_criterion_07_coupling_improvement():
    rep = report("coupling-compare", 4096, beta=1.0, trials=10)
    # each trial's rows: plain-gs first, randomized second
    wins = sum(rotated["eps"] < plain["eps"] for plain, rotated in
               (r.rows for r in rep.results))
    ok = wins >= 9
    _criterion(
        7, "coupling-improvement", ok,
        f"randomized eps below plain-GS eps in {wins}/10 paired trials",
    )


# -- 08 ------------------------------------------------------------------------


def test_criterion_08_borel_marginal():
    rep = report("borel", 512, trials=200)
    ks = rep.aggregate["ks"]
    ok = ks <= 0.115
    _criterion(
        8, "borel-marginal", ok,
        f"KS(pooled sqrt(n) u_11, N(0,1)) = {ks:.4f} <= 0.115 (200 trials, n=512)",
    )


# -- 09 ------------------------------------------------------------------------


def test_criterion_09_analytic_calculators():
    checks = []

    def close(value, target, tol):
        checks.append(abs(value - target) <= tol)

    close(phi(1.0), 2.0 / 3.0, 1e-15)
    close(phi(0.5), 0.27614237, 1e-7)
    a = 1e-6
    series3 = a / 2 + a * a / 12 + a**3 / 32
    checks.append(abs(phi(a) - series3) / phi(a) <= 1e-15)
    checks.append(abs(phi(a) - (a / 2 + a * a / 12)) <= a**3)

    close(predicted_row_norm(1000, 1000), 25.820, 1e-3)
    close(predicted_row_norm(2000, 1000), 16.6175, 1e-3)
    checks.append(abs(predicted_row_norm(8192, 256) - 2.0) / 2.0 <= 0.015)

    lower, upper = gaussian_tail_bounds(1.0)
    close(upper, 0.241971, 1e-6)
    close(lower, 0.120985, 1e-6)
    checks.append(lower <= 0.158655 <= upper)

    close(chi_norm_tail(400, 0.2), 0.018316, 1e-6)
    close(chi_norm_tail(4, 0.99), 0.37527, 1e-5)

    tails = projection_tails(100, 200, 0.2, t=2.0)
    close(tails.unit_upper, 0.367879, 1e-6)
    close(tails.unit_t, math.exp(-50.0), 1e-60)

    close(hoeffding_bound([2.0] * 100, 20.0), 0.27067, 1e-5)
    close(hoeffding_bound([1.0], 1.0), 2.0 * math.exp(-2.0), 1e-12)

    env_low, env_up = epsilon_envelope(4096, 492, 0.0)
    checks.append(abs(env_low - 1.014) <= 0.01)
    sq_low, sq_up = epsilon_envelope(1000, 1000, 0.0)
    checks.append(abs(sq_up - sq_low * math.sqrt(2.0)) <= 1e-12)

    close(beta_interval(1.0)[1], 1.41421356, 1e-8)
    close(sphere_sup_threshold(10_000, 1, 0.0)[0], 0.04292, 1e-5)

    calculators_ok = all(checks)

    battery = report("bounds-check", 1, m=None, trials=1)
    dominated = battery.aggregate["all_dominated"]
    worst = max(battery.aggregate["checks"], key=lambda c: c["ratio"])

    ok = calculators_ok and dominated
    _criterion(
        9, "analytic-calculators", ok,
        f"{len(checks)} example values at stated tolerance "
        f"({sum(checks)} ok); Monte Carlo dominance worst ratio "
        f"{worst['ratio']:.3f} ({worst['label']})",
    )


# -- 10 ------------------------------------------------------------------------


def test_criterion_10_determinism():
    cfg = dict(kind="epsilon", n=256, beta=1.0, trials=5, seed=ACCEPT_SEED,
               coupling="randomized")
    first = render_csv(run(ExperimentConfig(**cfg)))
    second = render_csv(run(ExperimentConfig(**cfg)))
    parallel = render_csv(run(ExperimentConfig(**cfg, workers=8)))
    moved = render_csv(run(ExperimentConfig(**cfg, out="elsewhere.csv")))
    gh_cfg = dict(kind="gh-split", n=128, alpha=0.5, trials=3, seed=ACCEPT_SEED)
    gh_first = render_csv(run(ExperimentConfig(**gh_cfg)))
    gh_parallel = render_csv(run(ExperimentConfig(**gh_cfg, workers=8)))
    ok = first == second == parallel == moved and gh_first == gh_parallel
    _criterion(
        10, "determinism", ok,
        "byte-identical CSV across re-run, workers=8, and output-path change",
    )


# -- module invariants at scale ---------------------------------------------


def test_column_norm_growth():
    # columns of Y - sqrt(n) U grow in j: the averaged squared column
    # norms at n = 256 increase for at least 99% of adjacent pairs
    # (1500 trials; the invariant's floor of 100 leaves the averages too
    # noisy near j ~ n/2, where the deterministic step is ~sqrt(2))
    n, trials = 256, 1500
    acc = np.zeros(n)
    for t in range(trials):
        pair = gram_schmidt_couple(sample_gaussian(n, n, Seed(ACCEPT_SEED, (700, t))))
        proj_sq = (np.triu(pair.trace, 1) ** 2).sum(axis=0)
        acc += proj_sq + (pair.residual_norms - math.sqrt(n)) ** 2
    acc /= trials
    increasing = float(np.mean(np.diff(acc) > 0))
    print(f"column-norm growth: {increasing:.4f} of adjacent pairs increasing")
    assert increasing >= 0.99


def test_orthogonality_at_largest_supported_dimension():
    # ||U^T U - I||_max <= 1e-10 must hold through n = 8192
    n = 8192
    pair = gram_schmidt_couple(sample_gaussian(n, n, Seed(ACCEPT_SEED, (8192,))))
    u = pair.u
    del pair
    gram = u.T @ u
    np.fill_diagonal(gram, np.diag(gram) - 1.0)
    worst = float(np.abs(gram).max())
    print(f"orthogonality at n=8192: {worst:.3e} <= 1e-10")
    assert worst <= 1e-10

"""Reduced-scale self test.

Runs the acceptance checks at n <= 512 so a desk run finishes in about
9 seconds (measured on two cores with OpenBLAS).  The exact-identity,
Borel, residual-law, and bound-dominance checks keep their
full-strength tolerances; the concentration windows are widened to
match the larger finite-size corrections at this scale.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import gram_schmidt_couple
from .harness import ExperimentConfig, render_csv, run
from .measure import gh_matrices
from .rng import Seed, sample_gaussian


def run_selftest(seed: int = 0, log=print) -> bool:
    """Run every reduced-scale check; returns True when all pass."""
    checks = (
        _check_identities,
        _check_residual_law,
        _check_row_norms,
        _check_gh_split,
        _check_epsilon_window,
        _check_improvement,
        _check_borel,
        _check_bounds,
        _check_determinism,
    )
    all_ok = True
    for check in checks:
        name, ok, detail = check(seed)
        log(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return all_ok


def _check_identities(seed):
    worst_fg = worst_orth = worst_cross = worst_frob = 0.0
    for i, n in enumerate((8, 32, 64)):
        pair = gram_schmidt_couple(sample_gaussian(n, n, Seed(seed, (100, i))))
        m = n // 2 + 1
        g, h = gh_matrices(pair, m)
        f = pair.y[:, :m] - math.sqrt(n) * pair.u[:, :m]
        worst_fg = max(worst_fg, float(np.abs(f - g - h).max()))
        worst_orth = max(
            worst_orth, float(np.abs(pair.u.T @ pair.u - np.eye(n)).max())
        )
        worst_cross = max(
            worst_cross,
            float(np.abs(np.einsum("ij,ij->j", g, h)).max()) / math.sqrt(n),
        )
        f_sq = float((np.linalg.norm(f, axis=1) ** 2).sum())
        col_sq = float((np.linalg.norm(f, axis=0) ** 2).sum())
        worst_frob = max(worst_frob, abs(f_sq - col_sq) / f_sq)
    ok = (
        worst_fg <= 1e-10
        and worst_orth <= 1e-12
        and worst_cross <= 1e-9
        and worst_frob <= 1e-9
    )
    return (
        "exact-identities",
        ok,
        f"max |F-(G+H)|={worst_fg:.2e}, |U^T U - I|={worst_orth:.2e}, "
        f"column cross/sqrt(n)={worst_cross:.2e}, Frobenius rel={worst_frob:.2e}",
    )


def _check_residual_law(seed):
    n, trials = 256, 200
    sq = np.empty((trials, 3))
    cols = (0, n // 2 - 1, n - 2)
    for t in range(trials):
        pair = gram_schmidt_couple(sample_gaussian(n, n, Seed(seed, (101, t))))
        sq[t] = pair.residual_norms[list(cols)] ** 2
    ok = True
    details = []
    for idx, j in enumerate(cols):
        dof = n - j  # j is 0-based, so dof = n - (j+1) + 1
        tol = 5.0 * math.sqrt(2.0 * dof / trials)
        dev = abs(float(sq[:, idx].mean()) - dof)
        ok &= dev <= tol
        details.append(f"j={j + 1}: |mean r^2 - {dof}|={dev:.2f} (tol {tol:.2f})")
    return "residual-chi-law", ok, "; ".join(details)


def _check_row_norms(seed):
    report = run(
        ExperimentConfig(kind="row-norms", n=512, alpha=0.5, trials=5, seed=seed)
    )
    sup = report.aggregate["ratio_sup"]["q50"]
    inf = report.aggregate["ratio_inf"]["q50"]
    ok = 0.90 <= sup <= 1.45 and 0.60 <= inf <= 1.05
    return (
        "row-norm-ratios",
        ok,
        f"n=512 alpha=0.5: median ratio_sup={sup:.4f} in [0.90, 1.45], "
        f"ratio_inf={inf:.4f} in [0.60, 1.05]",
    )


def _check_gh_split(seed):
    report = run(
        ExperimentConfig(kind="gh-split", n=512, alpha=0.5, trials=5, seed=seed)
    )
    agg = report.aggregate
    g2 = agg["g2_over_m"]["q50"]
    h2 = agg["h2_over_m"]["q50"]
    cross = agg["max_cross_over_m"]["q50"]
    ok = abs(g2 - 0.25) <= 0.15 * 0.25 and abs(h2 - 0.02614) <= 0.25 * 0.02614
    ok &= cross <= 0.10
    return (
        "gh-split",
        ok,
        f"n=512 alpha=0.5: |G|^2/m={g2:.5f} (target 0.25 +-15%), "
        f"|H|^2/m={h2:.5f} (target 0.02614 +-25%), max cross/m={cross:.4f} <= 0.10",
    )


def _check_epsilon_window(seed):
    report = run(
        ExperimentConfig(
            kind="epsilon", n=512, beta=1.0, trials=10, seed=seed,
            coupling="randomized",
        )
    )
    values = [r.rows[0]["eps"] for r in report.results]
    hits = sum(0.80 < v < 1.77 for v in values)
    ok = hits >= 8
    return (
        "epsilon-window",
        ok,
        f"n=512 beta=1 randomized: eps in (0.80, 1.77) in {hits}/10 trials "
        f"(q50={np.median(values):.4f})",
    )


def _check_improvement(seed):
    report = run(
        ExperimentConfig(kind="coupling-compare", n=512, beta=1.0, trials=10, seed=seed)
    )
    # each trial's rows: plain-gs first, randomized second
    wins = sum(rotated["eps"] < plain["eps"] for plain, rotated in
               (r.rows for r in report.results))
    ok = wins >= 8
    return (
        "coupling-improvement",
        ok,
        f"n=512 beta=1: randomized eps below plain-GS eps in {wins}/10 trials",
    )


def _check_borel(seed):
    report = run(ExperimentConfig(kind="borel", n=512, trials=200, seed=seed))
    ks = report.aggregate["ks"]
    ok = ks <= 0.115
    return (
        "borel-marginal",
        ok,
        f"n=512, 200 trials: KS(sqrt(n) u_11, N(0,1))={ks:.4f} <= 0.115",
    )


def _check_bounds(seed):
    report = run(ExperimentConfig(kind="bounds-check", n=1, seed=seed))
    checks = report.aggregate["checks"]
    worst = max(checks, key=lambda c: c["ratio"])
    ok = report.aggregate["all_dominated"]
    return (
        "bound-dominance",
        ok,
        f"{len(checks)} bounds dominate their Monte Carlo frequencies; "
        f"worst ratio {worst['ratio']:.3f} ({worst['label']})",
    )


def _check_determinism(seed):
    config = ExperimentConfig(kind="row-norms", n=64, alpha=0.5, trials=4, seed=seed)
    first = render_csv(run(config))
    second = render_csv(run(config))
    parallel = render_csv(
        run(
            ExperimentConfig(
                kind="row-norms", n=64, alpha=0.5, trials=4, seed=seed, workers=2
            )
        )
    )
    ok = first == second == parallel
    return (
        "determinism",
        ok,
        "serial re-run and workers=2 run are byte-identical"
        if ok
        else "outputs differ between runs",
    )

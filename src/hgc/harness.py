"""Declarative Monte Carlo experiment execution.

An :class:`ExperimentConfig` names a statistic (``kind``), a matrix
dimension, a truncation size (exactly one of ``m``, ``alpha`` with
m = floor(alpha n), or ``beta`` with m = floor(beta n / ln n)), a trial
count, and a root seed.  :func:`run` executes the trials on derived
substreams -- trial t samples from ``(seed, [t])`` and its optional
block rotation from ``(seed, [t, 1])`` -- so serial and parallel runs
produce identical results, and :func:`emit` persists a report as CSV,
JSON, or SVG with byte-identical output for identical configs.

Kinds
-----
row-norms        truncated row norms of Y - sqrt(n) U vs sqrt(phi(alpha) m)
gh-split         norms of the projection/residual split F = G + H
epsilon          the supremum statistic eps_n(m) vs its envelope
coupling-compare paired eps for the plain and randomized couplings on
                 the same (Y, U); emitted as two CSV rows per trial
                 keyed by the ``coupling`` column
borel            pools sqrt(n) u_11 across trials; each row carries the
                 trial's value in the ``mean_F`` column and the pooled
                 Kolmogorov-Smirnov distance in ``ks``
bounds-check     fixed battery of tail-bound dominance checks (see
                 ``BOUND_CHECK_LABELS`` for the row order); each row
                 carries the empirical frequency in ``sup_F``, the
                 analytic bound in ``predicted``, and their ratio in
                 ``ratio_sup``; ``trials`` is ignored

Every matrix kind couples only the n x m block of each sampled Y, the
columns its statistics read.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import theory
from .coupling import gram_schmidt_couple, randomized_couple
from .errors import (
    ConfigError,
    DegeneracyError,
    DimensionError,
    DomainError,
    NumericalError,
)
from .measure import (
    PLAIN_GS,
    RANDOMIZED,
    SupStatistic,
    decompose_gh,
    epsilon_sup,
    ks_statistic,
    summarize,
    truncated_row_norms,
)
from .rng import Seed, sample_gaussian

KINDS = (
    "row-norms",
    "gh-split",
    "epsilon",
    "coupling-compare",
    "borel",
    "bounds-check",
)
COUPLINGS = (PLAIN_GS, RANDOMIZED)
FORMATS = ("csv", "json", "svg")

# Kinds that need no truncation size; they default to m = 1.
_SIZELESS_KINDS = ("borel", "bounds-check")

CSV_HEADER = (
    "kind,n,m,alpha,beta,trial,seed,coupling,sup_F,inf_F,mean_F,predicted,"
    "ratio_sup,ratio_inf,eps,eps_lower,eps_upper,g2_over_m,h2_over_m,"
    "max_cross_over_m,ks"
)
_CSV_FIELDS = tuple(CSV_HEADER.split(","))


def default_trials(kind: str, n: int) -> int:
    """Default trial count: 200 for borel, 5 otherwise."""
    return 200 if kind == "borel" else 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment."""

    kind: str
    n: int
    m: int | None = None
    alpha: float | None = None
    beta: float | None = None
    trials: int = 1
    seed: int = 0
    coupling: str = PLAIN_GS
    out: str | None = None
    format: str = "csv"
    workers: int = 1
    deterministic: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.coupling not in COUPLINGS:
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        given = sum(v is not None for v in (self.m, self.alpha, self.beta))
        if given > 1:
            raise ConfigError("give exactly one of m, alpha, beta")
        if given == 0:
            if self.kind in _SIZELESS_KINDS:
                object.__setattr__(self, "m", 1)
            else:
                raise ConfigError("give exactly one of m, alpha, beta")
        self.resolved_m()

    def resolved_m(self) -> int:
        """Truncation size: m, floor(alpha n), or floor(beta n / ln n)."""
        if self.m is not None:
            m = self.m
        elif self.alpha is not None:
            if not 0.0 < self.alpha <= 1.0:
                raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
            m = math.floor(self.alpha * self.n)
        else:
            if self.beta <= 0:
                raise ConfigError(f"beta must be positive, got {self.beta}")
            if self.n < 2:
                raise ConfigError("beta sizing needs n >= 2")
            m = math.floor(self.beta * self.n / math.log(self.n))
        if not 1 <= m <= self.n:
            raise ConfigError(f"resolved m={m} outside [1, {self.n}]")
        return m


@dataclass(frozen=True)
class TrialResult:
    """Measured statistics of one trial (or one bound check)."""

    trial: int
    seed: Seed
    sup_F: float | None = None
    inf_F: float | None = None
    mean_F: float | None = None
    predicted: float | None = None
    ratio_sup: float | None = None
    ratio_inf: float | None = None
    eps: SupStatistic | None = None
    eps_randomized: SupStatistic | None = None
    gh: tuple[float, float, float] | None = None
    borel_entry: float | None = None
    label: str | None = None
    check_dims: tuple[int, int | None] | None = None
    wall_time_ms: int = 0


@dataclass(frozen=True)
class Report:
    """Everything :func:`run` measured, plus the aggregate summary."""

    config: ExperimentConfig
    results: list[TrialResult]
    aggregate: dict


@dataclass(frozen=True)
class SweepTable:
    """One aggregate row per grid cell; failed cells carry an error string."""

    cells: list[dict]


def run(config: ExperimentConfig, sampler=None) -> Report:
    """Execute all trials of a config and aggregate them.

    ``sampler`` optionally replaces the Gaussian sampler (test hook,
    signature ``sampler(n, seed) -> ndarray``); a custom sampler forces
    serial execution.  Trials run in parallel worker processes when
    ``config.workers > 1``; results are folded in trial order, so the
    output is identical to a serial run.
    """
    if config.kind == "bounds-check":
        results = _bounds_battery(config)
    elif config.workers > 1 and sampler is None:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_trial_task, config, t) for t in range(config.trials)]
            results = []
            for t, fut in enumerate(futures):
                try:
                    results.append(fut.result())
                except DegeneracyError as exc:
                    raise NumericalError(t, exc) from exc
    else:
        results = []
        for t in range(config.trials):
            try:
                results.append(_trial_task(config, t, sampler))
            except DegeneracyError as exc:
                raise NumericalError(t, exc) from exc
    return Report(config=config, results=results, aggregate=_aggregate(config, results))


def sweep(configs, sampler=None) -> SweepTable:
    """Run a grid of configs; per-cell failures do not stop other cells."""
    configs = list(configs)
    if not configs:
        raise ConfigError("empty sweep grid")
    cells = []
    for cfg in configs:
        try:
            report = run(cfg, sampler=sampler)
            cells.append({"config": cfg, "aggregate": report.aggregate, "error": None})
        except (ConfigError, NumericalError, DegeneracyError, DimensionError,
                DomainError) as exc:
            cells.append(
                {
                    "config": cfg,
                    "aggregate": None,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return SweepTable(cells=cells)


def emit(report, format: str | None = None, path: str | None = None) -> None:
    """Persist a Report or SweepTable as csv, json, or svg.

    Output is byte-identical for identical inputs: fixed field order,
    shortest round-trip float formatting, rows ordered by trial index.
    """
    cfg = getattr(report, "config", None)
    fmt = format or (cfg.format if cfg else "csv")
    target = path or (cfg.out if cfg else None)
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    if target is None:
        raise ConfigError("no output path given")
    if fmt == "csv":
        text = render_csv(report)
    elif fmt == "json":
        text = render_json(report)
    else:
        text = render_svg(report)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# trial execution


def _trial_task(config: ExperimentConfig, t: int, sampler=None) -> TrialResult:
    """One trial on substream (seed, [t]); module-level so workers can pickle it."""
    started = time.perf_counter()
    n = config.n
    m = config.resolved_m()
    trial_seed = Seed(config.seed, (t,))
    y = sampler(n, trial_seed) if sampler else sample_gaussian(n, n, trial_seed)
    pair = gram_schmidt_couple(y[:, :m])

    fields: dict = {}
    if config.kind == "borel":
        fields["borel_entry"] = float(math.sqrt(n) * pair.u[0, 0])
    else:
        if config.kind == "coupling-compare":
            yy, uu = pair.y, pair.u
            fields["eps"] = epsilon_sup(yy, uu, m, PLAIN_GS, config.beta)
            rot = randomized_couple(pair, m, Seed(config.seed, (t, 1)))
            fields["eps_randomized"] = epsilon_sup(rot.y, rot.u, m, RANDOMIZED, config.beta)
        elif config.coupling == RANDOMIZED:
            rot = randomized_couple(pair, m, Seed(config.seed, (t, 1)))
            yy, uu = rot.y, rot.u
        else:
            yy, uu = pair.y, pair.u

        if config.kind == "gh-split":
            # G/H are defined by the Gram-Schmidt trace, i.e. the plain
            # coupling; the rotation preserves the row norms anyway.
            deco = decompose_gh(pair, m)
            f_norms = deco.f_norms
            fields["gh"] = (
                float(np.mean(deco.g_norms**2) / m),
                float(np.mean(deco.h_norms**2) / m),
                float(np.abs(deco.cross).max() / m),
            )
        else:
            f_norms = truncated_row_norms(yy, uu, m)
        if config.kind == "epsilon":
            fields["eps"] = epsilon_sup(yy, uu, m, config.coupling, config.beta)

        predicted = theory.predicted_row_norm(n, m)
        fields.update(
            sup_F=float(f_norms.max()),
            inf_F=float(f_norms.min()),
            mean_F=float(f_norms.mean()),
            predicted=predicted,
            ratio_sup=float(f_norms.max()) / predicted,
            ratio_inf=float(f_norms.min()) / predicted,
        )

    wall = 0 if config.deterministic else int((time.perf_counter() - started) * 1000)
    return TrialResult(trial=t, seed=trial_seed, wall_time_ms=wall, **fields)


# ---------------------------------------------------------------------------
# bound-dominance battery

BOUND_CHECK_LABELS = (
    "gauss-tail-upper",
    "gauss-tail-complement",
    "chi-upper",
    "chi-lower",
    "proj-gauss-upper",
    "proj-gauss-lower",
    "proj-unit-upper",
    "proj-unit-lower",
    "proj-unit-t",
)


def _bounds_battery(config: ExperimentConfig) -> list[TrialResult]:
    """Empirical frequency vs analytic bound at the standard parameter points.

    Three sampling groups (substreams 0..2 of the root seed): 1e5
    scalar normals for the Gaussian tail at t = 1; 1e5 Gaussian vectors
    in R^400 for the norm deviations at eps = 0.2; 1e4 Haar 64-dim
    subspaces of R^256 for the projection bounds at rho = eps = 0.3 and
    t = 1.5.
    """
    rows: list[tuple[str, int, int | None, float, float]] = []

    gen = Seed(config.seed, (0,)).generator()
    z = gen.standard_normal(100_000)
    lower, upper = theory.gaussian_tail_bounds(1.0)
    rows.append(("gauss-tail-upper", 1, None, float(np.mean(z > 1.0)), upper))
    rows.append(("gauss-tail-complement", 1, None, float(np.mean(z <= 1.0)), 1.0 - lower))

    gen = Seed(config.seed, (1,)).generator()
    dim, eps = 400, 0.2
    bound = theory.chi_norm_tail(dim, eps)
    hi = math.sqrt(dim) / math.sqrt(1.0 - eps)
    lo = math.sqrt(dim) * math.sqrt(1.0 - eps)
    count_hi = count_lo = 0
    total, batch = 100_000, 10_000
    for _ in range(total // batch):
        norms = np.linalg.norm(gen.standard_normal((batch, dim)), axis=1)
        count_hi += int((norms >= hi).sum())
        count_lo += int((norms <= lo).sum())
    rows.append(("chi-upper", dim, None, count_hi / total, bound))
    rows.append(("chi-lower", dim, None, count_lo / total, bound))

    gen = Seed(config.seed, (2,)).generator()
    amb, k, rho, t = 256, 64, 0.3, 1.5
    tails = theory.projection_tails(k, amb, rho, t)
    ratio = math.sqrt(k / amb)
    trials = 10_000
    gauss_hi = gauss_lo = unit_hi = unit_lo = unit_t = 0
    for _ in range(trials):
        # Orthonormal basis of a Haar k-subspace; column signs do not
        # matter for the projection norms, so no sign fix is needed.
        q = np.linalg.qr(gen.standard_normal((amb, k)))[0]
        x = gen.standard_normal(amb)
        p_gauss = float(np.linalg.norm(q.T @ x))
        p_unit = float(np.linalg.norm(q[0, :]))
        gauss_hi += p_gauss >= math.sqrt(k) / math.sqrt(1.0 - rho)
        gauss_lo += p_gauss <= math.sqrt(k) * math.sqrt(1.0 - rho)
        unit_hi += p_unit >= ratio / (1.0 - rho)
        unit_lo += p_unit <= ratio * (1.0 - rho)
        unit_t += p_unit >= t * ratio
    rows.append(("proj-gauss-upper", amb, k, gauss_hi / trials, tails.gaussian_upper))
    rows.append(("proj-gauss-lower", amb, k, gauss_lo / trials, tails.gaussian_lower))
    rows.append(("proj-unit-upper", amb, k, unit_hi / trials, tails.unit_upper))
    rows.append(("proj-unit-lower", amb, k, unit_lo / trials, tails.unit_lower))
    rows.append(("proj-unit-t", amb, k, unit_t / trials, tails.unit_t))

    results = []
    for i, (label, row_n, row_m, freq, bnd) in enumerate(rows):
        results.append(
            TrialResult(
                trial=i,
                seed=Seed(config.seed, (min(i // 2, 2),)),
                sup_F=freq,
                predicted=bnd,
                ratio_sup=freq / bnd,
                label=label,
                check_dims=(row_n, row_m),
            )
        )
    return results


# ---------------------------------------------------------------------------
# aggregation


def _aggregate(config: ExperimentConfig, results: list[TrialResult]) -> dict:
    agg: dict = {
        "kind": config.kind,
        "n": config.n,
        "trials": len(results),
        "seed": config.seed,
        "coupling": config.coupling,
    }
    if config.kind == "bounds-check":
        agg["checks"] = [
            {
                "label": r.label,
                "frequency": r.sup_F,
                "bound": r.predicted,
                "ratio": r.ratio_sup,
            }
            for r in results
        ]
        agg["all_dominated"] = all(r.sup_F <= r.predicted for r in results)
        return agg

    if config.kind == "borel":
        pooled = [r.borel_entry for r in results]
        agg["borel"] = summarize(pooled)
        agg["ks"] = ks_statistic(pooled)
        return agg

    m = config.resolved_m()
    agg["m"] = m
    agg["alpha"] = m / config.n
    agg["beta"] = config.beta

    for name in ("sup_F", "inf_F", "mean_F", "ratio_sup", "ratio_inf"):
        values = [getattr(r, name) for r in results if getattr(r, name) is not None]
        if values:
            agg[name] = summarize(values)
    if any(r.eps is not None for r in results):
        agg["eps"] = summarize([r.eps.eps for r in results])
    if any(r.eps_randomized is not None for r in results):
        agg["eps_randomized"] = summarize([r.eps_randomized.eps for r in results])
    if any(r.gh is not None for r in results):
        for i, name in enumerate(("g2_over_m", "h2_over_m", "max_cross_over_m")):
            agg[name] = summarize([r.gh[i] for r in results])

    env = {"predicted": theory.predicted_row_norm(config.n, m)}
    if config.n >= 2:
        low, up = theory.epsilon_envelope(config.n, m, 0.0)
        env["eps_lower"] = low
        env["eps_upper"] = up
        env["label"] = "leading order"
    agg["theory"] = env
    return agg


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _report_rows(report: Report) -> list[dict]:
    cfg = report.config
    kind = cfg.kind
    matrix_kind = kind in ("row-norms", "gh-split", "epsilon", "coupling-compare")
    m = cfg.resolved_m() if kind != "bounds-check" else None
    eps_low = eps_up = None
    if kind in ("epsilon", "coupling-compare") and cfg.n >= 2:
        eps_low, eps_up = theory.epsilon_envelope(cfg.n, m, 0.0)
    pooled_ks = report.aggregate.get("ks") if kind == "borel" else None

    rows = []
    for r in report.results:
        base = {f: None for f in _CSV_FIELDS}
        base["kind"] = kind
        base["n"] = r.check_dims[0] if r.check_dims else cfg.n
        base["m"] = r.check_dims[1] if r.check_dims else (m if matrix_kind else None)
        base["alpha"] = (m / cfg.n) if matrix_kind else None
        base["beta"] = cfg.beta
        base["trial"] = r.trial
        base["seed"] = str(r.seed)
        base["sup_F"] = r.sup_F
        base["inf_F"] = r.inf_F
        base["mean_F"] = r.borel_entry if kind == "borel" else r.mean_F
        base["predicted"] = r.predicted
        base["ratio_sup"] = r.ratio_sup
        base["ratio_inf"] = r.ratio_inf
        base["eps_lower"] = eps_low
        base["eps_upper"] = eps_up
        base["ks"] = pooled_ks
        if r.gh is not None:
            base["g2_over_m"], base["h2_over_m"], base["max_cross_over_m"] = r.gh
        if kind == "coupling-compare":
            first = dict(base)
            first["coupling"] = PLAIN_GS
            first["eps"] = r.eps.eps
            rows.append(first)
            second = {f: None for f in _CSV_FIELDS}
            second.update(
                kind=kind,
                n=cfg.n,
                m=m,
                alpha=m / cfg.n,
                beta=cfg.beta,
                trial=r.trial,
                seed=str(r.seed),
                coupling=RANDOMIZED,
                eps=r.eps_randomized.eps,
                eps_lower=eps_low,
                eps_upper=eps_up,
            )
            rows.append(second)
        else:
            base["coupling"] = None if kind == "bounds-check" else cfg.coupling
            if r.eps is not None:
                base["eps"] = r.eps.eps
            rows.append(base)
    return rows


def _sweep_rows(table: SweepTable) -> list[dict]:
    rows = []
    for cell in table.cells:
        cfg = cell["config"]
        row = {f: None for f in _CSV_FIELDS}
        row["kind"] = cfg.kind
        row["n"] = cfg.n
        row["seed"] = str(cfg.seed)
        row["coupling"] = cfg.coupling
        agg = cell["aggregate"]
        if agg is None:
            row["error"] = cell["error"]
            rows.append(row)
            continue
        row["m"] = agg.get("m")
        row["alpha"] = agg.get("alpha")
        row["beta"] = agg.get("beta")
        for name in ("sup_F", "inf_F", "mean_F", "ratio_sup", "ratio_inf", "eps",
                     "g2_over_m", "h2_over_m", "max_cross_over_m"):
            if name in agg:
                row[name] = agg[name]["q50"]
        theory_block = agg.get("theory", {})
        row["predicted"] = theory_block.get("predicted")
        row["eps_lower"] = theory_block.get("eps_lower")
        row["eps_upper"] = theory_block.get("eps_upper")
        row["ks"] = agg.get("ks")
        rows.append(row)
    return rows


def _rows_of(report) -> list[dict]:
    if isinstance(report, SweepTable):
        return _sweep_rows(report)
    return _report_rows(report)


def render_csv(report) -> str:
    """CSV text: the fixed schema header plus one row per trial.

    Sweep tables get one row of per-cell medians per grid point; rows
    of failed cells leave every statistic column empty.
    """
    lines = [CSV_HEADER]
    for row in _rows_of(report):
        lines.append(",".join(_fmt(row[f]) for f in _CSV_FIELDS))
    return "\n".join(lines) + "\n"


def render_json(report) -> str:
    """JSON text mirroring the CSV fields plus config and aggregate."""
    if isinstance(report, SweepTable):
        doc = {
            "rows": _sweep_rows(report),
            "cells": [
                {
                    "config": _config_dict(cell["config"]),
                    "aggregate": cell["aggregate"],
                    "error": cell["error"],
                }
                for cell in report.cells
            ],
        }
    else:
        doc = {
            "config": _config_dict(report.config),
            "rows": _report_rows(report),
            "aggregate": report.aggregate,
        }
    return json.dumps(doc, indent=2) + "\n"


def render_svg(report) -> str:
    """Minimal line chart: one polyline per series, labeled axes."""
    rows = _rows_of(report)
    is_sweep = isinstance(report, SweepTable)
    x_name = "n" if is_sweep else "trial"
    series: dict[str, list[tuple[float, float]]] = {}
    for i, row in enumerate(rows):
        x = float(row["n"] if is_sweep else (row["trial"] if row["trial"] is not None else i))
        for col in ("ratio_sup", "ratio_inf", "eps", "eps_lower", "eps_upper", "ks"):
            if row.get(col) is None:
                continue
            name = col
            if col == "eps" and row.get("coupling"):
                name = f"eps[{row['coupling']}]"
            series.setdefault(name, []).append((x, float(row[col])))
    if not series:
        for i, row in enumerate(rows):
            if row.get("mean_F") is not None:
                series.setdefault("mean_F", []).append((float(i), float(row["mean_F"])))

    width, height = 640, 400
    left, right, top, bottom = 60, 620, 20, 360
    xs = [p[0] for pts in series.values() for p in pts] or [0.0]
    ys = [p[1] for pts in series.values() for p in pts] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return left + (x - x0) / (x1 - x0) * (right - left)

    def sy(y):
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) // 2}" y="{height - 6}" font-size="12">{x_name}</text>',
        f'<text x="12" y="{(top + bottom) // 2}" font-size="12" '
        f'transform="rotate(-90 12 {(top + bottom) // 2})">value</text>',
        f'<text x="{left - 4}" y="{bottom + 14}" font-size="10" text-anchor="end">{_fmt(x0)}</text>',
        f'<text x="{right}" y="{bottom + 14}" font-size="10" text-anchor="end">{_fmt(x1)}</text>',
        f'<text x="{left - 6}" y="{bottom}" font-size="10" text-anchor="end">{_fmt(y0)}</text>',
        f'<text x="{left - 6}" y="{top + 10}" font-size="10" text-anchor="end">{_fmt(y1)}</text>',
    ]
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = palette[idx % len(palette)]
        pts = sorted(pts)
        if len(pts) == 1:
            pts = pts * 2
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{right - 150}" y="{top + 14 + 14 * idx}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _config_dict(cfg: ExperimentConfig) -> dict:
    return {
        "kind": cfg.kind,
        "n": cfg.n,
        "m": cfg.m,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "coupling": cfg.coupling,
        "out": cfg.out,
        "format": cfg.format,
        "workers": cfg.workers,
        "deterministic": cfg.deterministic,
    }


_JSON_KEYS = {
    "kind", "n", "m", "alpha", "beta", "trials", "seed",
    "coupling", "out", "format", "workers",
}


def config_from_json(source) -> ExperimentConfig:
    """Build a config from the JSON schema (text, file object, or dict)."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object")
    unknown = set(data) - _JSON_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data or "n" not in data:
        raise ConfigError("JSON config requires 'kind' and 'n'")
    kwargs = dict(data)
    kwargs.setdefault("trials", default_trials(data["kind"], data["n"]))
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc

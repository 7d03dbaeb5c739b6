"""Declarative Monte Carlo experiment execution.

An :class:`ExperimentConfig` names a statistic (``kind``), a matrix
dimension, a truncation size (exactly one of ``m``, ``alpha`` with
m = floor(alpha n), or ``beta`` with m = floor(beta n / ln n)), a trial
count, and a root seed.  :func:`run` executes the trials on derived
substreams -- trial t samples from ``(seed, [t])`` and the block
rotation that a randomized eps reads from ``(seed, [t, 1])`` -- through
one ordered map, in this process or in a pool of at most ``workers``
processes that the cores can hold beside OpenBLAS's threads (see
:func:`pool_budget`), so serial and parallel runs produce identical
results, and
:func:`emit` writes a report as CSV, JSON, or SVG with byte-identical
output for identical configs.  Every trial draws its Gaussian Y
through the module global ``sample_gaussian``.

Each trial builds its own CSV rows (:class:`TrialResult`), keyed by the
column names of ``CSV_HEADER``; the report fills in only the columns
that come from the config (kind, n, m, alpha, beta, coupling, the eps
envelope and the pooled KS distance), and a column a trial row sets
itself takes precedence.

Kinds
-----
row-norms        truncated row norms of Y - sqrt(n) U vs sqrt(phi(alpha) m)
gh-split         norms of the projection/residual split F = G + H
epsilon          the supremum statistic eps_n(m) vs its envelope
coupling-compare paired eps for the plain and randomized couplings on
                 the same (Y, U); two rows per trial, each naming its
                 coupling in the ``coupling`` column
borel            pools sqrt(n) u_11 across trials; each row carries the
                 trial's value in the ``mean_F`` column and the pooled
                 Kolmogorov-Smirnov distance in ``ks``
bounds-check     fixed battery of tail-bound dominance checks (see
                 ``BOUND_CHECK_LABELS`` for the row order); each row
                 carries its own n, m and label, the empirical frequency
                 in ``sup_F``, the analytic bound in ``predicted``, and
                 their ratio in ``ratio_sup``; ``trials`` is ignored

Every matrix kind samples and couples only the n x m block of Y, the
columns its statistics read; borel draws n x 1.  The block is bitwise
the first m columns of the square the same trial seed draws (see
:mod:`hgc.rng`).
"""

from __future__ import annotations

import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import repeat

import numpy as np

from . import theory
from .coupling import CoupledPair, gram_schmidt_couple, randomized_couple
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
    _row_norms_in_place,
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
# The measured columns a report summarizes and a sweep row reports the median of.
_SUMMARIZED = ("sup_F", "inf_F", "mean_F", "ratio_sup", "ratio_inf", "eps",
               "g2_over_m", "h2_over_m", "max_cross_over_m")


# The values each type named in a config field's annotation accepts, in
# Python and in a JSON config alike.  True and False are never numbers,
# though Python's bool is an int.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}


def default_trials(kind: str) -> int:
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # f.type is the annotation's text, such as "int | None".
            accepted = tuple(_FIELD_TYPES[name] for name in f.type.split(" | "))
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")
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
        Seed(self.seed)
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
            if not 0.0 < self.beta < math.inf:
                raise ConfigError(f"beta must be positive and finite, got {self.beta}")
            if self.n < 2:
                raise ConfigError("beta sizing needs n >= 2")
            m = math.floor(self.beta * self.n / math.log(self.n))
        if not 1 <= m <= self.n:
            raise ConfigError(f"resolved m={m} outside [1, {self.n}]")
        return m


@dataclass(frozen=True)
class TrialResult:
    """The CSV rows one trial (or one bound check) measured.

    Each row maps CSV column names to values; columns it leaves out come
    from the config or stay empty.  A bound check's row also carries its
    ``label``, which the aggregate reads and the CSV does not hold.
    """

    trial: int
    seed: Seed
    rows: tuple[dict, ...]


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


def run(config: ExperimentConfig) -> Report:
    """Execute all trials of a config and aggregate them.

    Trials run in one ordered map over the trial indices on
    ``pool_budget(config.workers, config.trials).processes`` processes:
    the builtin ``map`` when that is 1, otherwise a pool of that many
    processes, each handed one contiguous chunk of trials.  Every
    process runs OpenBLAS's own thread count, so results are folded in
    trial order and the output does not depend on the process count.
    A run whose blocks cannot fit in physical memory is refused with a
    :class:`ConfigError` before the first draw.  A degenerate trial is
    reported as a :class:`NumericalError` naming that trial; a worker
    that dies and breaks the pool, as one naming the first trial without
    a result.
    """
    if config.kind == "bounds-check":
        results = _bounds_battery(config)
    else:
        processes = pool_budget(config.workers, config.trials).processes
        _check_footprint(config, processes)
        results = []
        with _trial_map(processes, config.trials) as trial_map:
            try:
                for result in trial_map(_trial_task, repeat(config), range(config.trials)):
                    results.append(result)
            except BrokenProcessPool as exc:
                raise NumericalError(len(results), exc) from exc
    return Report(config=config, results=results, aggregate=_aggregate(config, results))


def sweep(configs) -> SweepTable:
    """Run a grid of configs; a failing cell does not stop the others.

    Every config is valid by construction, so what a cell records is a
    failure of its run (a numerical failure, for one); an invalid cell
    never reaches the grid.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("empty sweep grid")
    cells = []
    for cfg in configs:
        try:
            report = run(cfg)
            cells.append({"config": cfg, "aggregate": report.aggregate, "error": None})
        except (NumericalError, DimensionError, DomainError) as exc:
            cells.append(
                {
                    "config": cfg,
                    "aggregate": None,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return SweepTable(cells=cells)


def emit(report, format: str, path: str) -> None:
    """Write a Report or SweepTable to ``path`` as csv, json, or svg.

    Output is byte-identical for identical inputs: fixed field order,
    shortest round-trip float formatting, rows ordered by trial index.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown format {format!r}")
    if format == "csv":
        text = render_csv(report)
    elif format == "json":
        text = render_json(report)
    else:
        text = render_svg(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# trial execution


# The variables OpenBLAS reads its thread count from when it loads, in
# the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class PoolBudget:
    """How many trial processes fit beside OpenBLAS's threads on the usable cores."""

    processes: int
    blas_threads: int
    cores: int


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_budget(workers: int, trials: int, environ=None, cores: int | None = None) -> PoolBudget:
    """The trial processes a run of ``trials`` trials on ``workers`` workers forks.

    ``min(workers, trials, max(1, cores // blas_threads))``, where
    ``cores`` defaults to this process's usable cores and ``environ`` to
    ``os.environ``.  ``blas_threads`` is the count OpenBLAS gives itself
    when it loads: the first positive value among ``_BLAS_THREAD_VARS``,
    read as C's ``atoi`` reads it ("2x" is 2; "abc", "0" and "-1" are
    skipped), capped at ``cores``; with none set, ``cores``.

    Every forked process keeps that thread count, so a run uses BLAS
    threads or processes, never more of the two than there are cores.
    The thread count is not changed, and neither are the bits it decides.
    """
    if cores is None:
        cores = _usable_cores()
    environ = os.environ if environ is None else environ
    threads = cores
    for name in _BLAS_THREAD_VARS:
        value = re.match(r"\s*[+-]?[0-9]+", environ.get(name, ""))
        if value and int(value.group()) > 0:
            threads = min(int(value.group()), cores)
            break
    return PoolBudget(min(workers, trials, max(1, cores // threads)), threads, cores)


def _check_footprint(config: ExperimentConfig, processes: int) -> None:
    """Refuse a run whose trials cannot fit in physical memory at once.

    Each of the ``processes`` processes holds a trial's Y, U and F (or
    the QR's working copy of Y), three n x m blocks of doubles, at the
    same time, so 3 n m 8 bytes per process is a lower bound on the
    run's footprint: a run this refuses could not have fit in physical
    memory.  Where ``os.sysconf`` cannot tell the physical memory,
    nothing is checked.
    """
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    m = config.resolved_m()
    need = processes * 3 * config.n * m * 8
    if 0 < physical < need:
        raise ConfigError(
            f"n={config.n}, m={m} on {processes} process(es) needs at least {need:,} "
            f"bytes (3 n m 8 per process), more than the {physical:,} bytes of "
            f"physical memory"
        )


@contextmanager
def _trial_map(processes: int, trials: int):
    """An ordered ``map`` over ``trials`` trials on ``processes`` processes.

    With one process it is the builtin, and nothing is forked.
    Otherwise it is the ``map`` of a pool of that many processes with
    one contiguous chunk of ``ceil(trials / processes)`` trials per
    task: trials of one config cost the same, so each worker's share is
    known up front, and a task pays its pickle and queue round trip
    once, not once per trial.  :func:`run` takes ``processes`` from
    :func:`pool_budget`, so a pool is forked only when the cores can
    hold its processes beside each one's OpenBLAS threads.
    """
    if processes == 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            yield partial(pool.map, chunksize=math.ceil(trials / processes))


def _trial_task(config: ExperimentConfig, t: int) -> TrialResult:
    """One trial on substream (seed, [t]); module-level so workers can pickle it.

    A degenerate coupling or rotation is raised as a
    :class:`NumericalError` naming trial ``t``: a pool returns a chunk's
    results only when the whole chunk succeeds, so the trial that failed
    must be named where it fails.
    """
    try:
        return _trial(config, t)
    except DegeneracyError as exc:
        raise NumericalError(t, exc) from exc


def _trial(config: ExperimentConfig, t: int) -> TrialResult:
    n = config.n
    m = config.resolved_m()
    trial_seed = Seed(config.seed, (t,))
    pair = gram_schmidt_couple(sample_gaussian(n, m, trial_seed))

    # The rotation diag(V_m, I) maps F to F V_m, which keeps every row
    # norm, every G/H norm and every cross term <G_i, H_i>: of all the
    # statistics only eps sees it.  So every kind reads its row
    # statistics off the plain pair, and V_m is drawn only for the eps
    # of a row of the randomized coupling.
    if config.kind == "borel":
        rows = ({"mean_F": float(math.sqrt(n) * pair.u[0, 0])},)
    elif config.kind == "gh-split":
        deco = decompose_gh(pair, m)
        row = _row_norm_columns(deco.f_norms, n, m)
        row.update(
            g2_over_m=float(np.mean(deco.g_norms**2) / m),
            h2_over_m=float(np.mean(deco.h_norms**2) / m),
            max_cross_over_m=float(np.abs(deco.cross).max() / m),
        )
        rows = (row,)
    else:
        row = _row_norm_columns(truncated_row_norms(pair.y, pair.u, m), n, m)
        rows = (row,)
        rotation = Seed(config.seed, (t, 1))
        if config.kind == "epsilon":
            row["eps"] = _eps(pair, m, config.coupling, rotation)
        elif config.kind == "coupling-compare":
            row.update(coupling=PLAIN_GS, eps=_eps(pair, m, PLAIN_GS, rotation))
            rows = (row, {"coupling": RANDOMIZED, "eps": _eps(pair, m, RANDOMIZED, rotation)})
    return TrialResult(trial=t, seed=trial_seed, rows=rows)


def _eps(pair: CoupledPair, m: int, coupling: str, rotation: Seed) -> float:
    """eps_n(m) of the pair under ``coupling``; V_m is drawn from ``rotation``."""
    if coupling == RANDOMIZED:
        pair = randomized_couple(pair, m, rotation)
    return epsilon_sup(pair.y, pair.u, m)


def _row_norm_columns(f_norms: np.ndarray, n: int, m: int) -> dict:
    """The row-norm columns of a trial's row: extremes, mean and target ratios."""
    predicted = theory.predicted_row_norm(n, m)
    sup, inf = float(f_norms.max()), float(f_norms.min())
    return {
        "sup_F": sup,
        "inf_F": inf,
        "mean_F": float(f_norms.mean()),
        "predicted": predicted,
        "ratio_sup": sup / predicted,
        "ratio_inf": inf / predicted,
    }


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


# Trials per batch of the projection group.  Its drawer fills one
# (125, 256*64 + 256) buffer of 16.6 MB while the caller solves the
# other, so the group holds two of them.
_PROJECTION_BATCH = 125
# The chi group's vector count, and the vectors per fill of its one
# reused (1000, 400) buffer.
_CHI_TOTAL = 100_000
_CHI_BATCH = 1_000


def _bounds_battery(config: ExperimentConfig) -> list[TrialResult]:
    """Empirical frequency vs analytic bound at the standard parameter points.

    Three sampling groups (substreams 0..2 of the root seed): 1e5
    scalar normals for the Gaussian tail at t = 1; 1e5 Gaussian vectors
    in R^400 for the norm deviations at eps = 0.2; 1e4 Haar 64-dim
    subspaces of R^256 for the projection bounds at rho = eps = 0.3 and
    t = 1.5.

    The chi group runs on a worker thread while this thread draws the
    Gaussian group and solves the projection group (whose own drawer is
    a second worker, see :func:`_projection_norms`).  numpy's fill
    releases the GIL, so on two cores the draws overlap the solves.
    Each group owns its substream and its generator, and each generator
    is drawn by one thread in the serial order, so every stream and
    every frequency is that of a serial run; the chi counts are joined
    before the rows are built, in the serial row order.  A worker's
    exception is raised here, and both workers are joined before this
    returns.

    The projection group needs no QR.  For a Gaussian 256 x 64 block
    A = QR, Q^T v = R^-T A^T v, so ||Q^T v||^2 = b^T (A^T A)^-1 b with
    b = A^T v (Stewart 1980); :func:`_projection_norms` solves these Gram
    systems for ``_PROJECTION_BATCH`` = 125 trials at a time.  Each trial
    still draws its block A and then its vector x, in that order, so the
    stream and the frequencies are those of one QR per trial.
    """
    dim, eps = 400, 0.2
    with ThreadPoolExecutor(max_workers=1) as chi_worker:
        chi = chi_worker.submit(
            _chi_counts,
            Seed(config.seed, (1,)).generator(),
            dim,
            math.sqrt(dim) * math.sqrt(1.0 - eps),
            math.sqrt(dim) / math.sqrt(1.0 - eps),
        )

        gen = Seed(config.seed, (0,)).generator()
        z = gen.standard_normal(100_000)
        lower, upper = theory.gaussian_tail_bounds(1.0)

        gen = Seed(config.seed, (2,)).generator()
        amb, k, rho, t = 256, 64, 0.3, 1.5
        trials = 10_000
        p_gauss, p_unit = _projection_norms(gen, trials, amb, k)
    count_lo, count_hi = chi.result()

    chi_bound = theory.chi_norm_tail(dim, eps)
    tails = theory.projection_tails(k, amb, rho, t)
    ratio = math.sqrt(k / amb)
    gauss_hi = int((p_gauss >= math.sqrt(k) / math.sqrt(1.0 - rho)).sum())
    gauss_lo = int((p_gauss <= math.sqrt(k) * math.sqrt(1.0 - rho)).sum())
    unit_hi = int((p_unit >= ratio / (1.0 - rho)).sum())
    unit_lo = int((p_unit <= ratio * (1.0 - rho)).sum())
    unit_t = int((p_unit >= t * ratio).sum())
    rows = [
        ("gauss-tail-upper", 1, None, float(np.mean(z > 1.0)), upper),
        ("gauss-tail-complement", 1, None, float(np.mean(z <= 1.0)), 1.0 - lower),
        ("chi-upper", dim, None, count_hi / _CHI_TOTAL, chi_bound),
        ("chi-lower", dim, None, count_lo / _CHI_TOTAL, chi_bound),
        ("proj-gauss-upper", amb, k, gauss_hi / trials, tails.gaussian_upper),
        ("proj-gauss-lower", amb, k, gauss_lo / trials, tails.gaussian_lower),
        ("proj-unit-upper", amb, k, unit_hi / trials, tails.unit_upper),
        ("proj-unit-lower", amb, k, unit_lo / trials, tails.unit_lower),
        ("proj-unit-t", amb, k, unit_t / trials, tails.unit_t),
    ]

    return [
        TrialResult(
            trial=i,
            seed=Seed(config.seed, (min(i // 2, 2),)),
            rows=(
                {
                    "n": row_n,
                    "m": row_m,
                    "coupling": None,
                    "label": label,
                    "sup_F": freq,
                    "predicted": bnd,
                    "ratio_sup": freq / bnd,
                },
            ),
        )
        for i, (label, row_n, row_m, freq, bnd) in enumerate(rows)
    ]


def _chi_counts(gen: np.random.Generator, dim: int, lo: float, hi: float) -> tuple[int, int]:
    """How many of ``_CHI_TOTAL`` Gaussian vectors in R^dim have norm <= lo, >= hi.

    The vectors are drawn ``_CHI_BATCH`` at a time into one reused
    buffer.  Consecutive fills continue one stream, so the vectors are
    bitwise those of a single draw, and :func:`_row_norms_in_place` is
    bitwise ``np.linalg.norm(..., axis=1)``.
    """
    buf = np.empty((_CHI_BATCH, dim))
    count_lo = count_hi = 0
    for _ in range(_CHI_TOTAL // _CHI_BATCH):
        norms = _row_norms_in_place(gen.standard_normal(out=buf))
        count_lo += int((norms <= lo).sum())
        count_hi += int((norms >= hi).sum())
    return count_lo, count_hi


def _projection_norms(
    gen: np.random.Generator, trials: int, amb: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``||Q^T x||`` and ``||Q^T e_1||`` for ``trials`` Haar k-subspaces of R^amb.

    Trial i draws an amb x k Gaussian block A (row-major) and then x in
    R^amb from ``gen``; Q is an orthonormal basis of A's columns.  Both
    right-hand sides, A^T x and A^T e_1 (the first row of A), are solved
    against G = A^T A at once.  A Gaussian block with k = amb / 4 has
    cond(A) near 3, so G is well conditioned and the norms match an
    explicit QR to rounding.

    One drawer thread fills batch i + 1 while this thread solves batch
    i, alternating between two buffers.  The drawer is the only thread
    that touches ``gen`` and runs its fills in submission order, one
    batch after the other, so the stream is that of a serial loop and
    ends exactly after the last trial.  Batch i + 2 is submitted only
    once batch i's buffer has been read for the last time.  A failed
    fill is raised here, and the drawer is joined before this returns.
    """
    p_gauss = np.empty(trials)
    p_unit = np.empty(trials)
    starts = range(0, trials, _PROJECTION_BATCH)
    buffers = np.empty((2, min(_PROJECTION_BATCH, trials), amb * k + amb))

    def draw(i: int) -> np.ndarray:
        size = min(_PROJECTION_BATCH, trials - starts[i])
        return gen.standard_normal(out=buffers[i % 2, :size])

    with ThreadPoolExecutor(max_workers=1) as drawer:
        pending = [drawer.submit(draw, i) for i in range(min(2, len(starts)))]
        for i, start in enumerate(starts):
            draws = pending[i].result()
            a = draws[:, : amb * k].reshape(-1, amb, k)
            x = draws[:, amb * k :, None]
            a_t = a.transpose(0, 2, 1)
            # Right-hand sides A^T x and A^T e_1 side by side: (batch, k, 2).
            rhs = np.concatenate((a_t @ x, a_t[:, :, :1]), axis=2)
            gram = a_t @ a
            # The last read of this buffer is done; the drawer may refill it.
            if i + 2 < len(starts):
                pending.append(drawer.submit(draw, i + 2))
            sol = np.linalg.solve(gram, rhs)
            squares = np.einsum("bki,bki->bi", rhs, sol)
            stop = start + len(draws)
            p_gauss[start:stop] = np.sqrt(squares[:, 0])
            p_unit[start:stop] = np.sqrt(squares[:, 1])
    return p_gauss, p_unit


# ---------------------------------------------------------------------------
# aggregation


def _aggregate(config: ExperimentConfig, results: list[TrialResult]) -> dict:
    agg: dict = {
        "kind": config.kind,
        "n": config.n,
        "trials": len(results),
        "seed": config.seed,
    }
    rows = [row for r in results for row in r.rows]
    # The battery couples nothing, so its aggregate names no coupling.
    if config.kind == "bounds-check":
        agg["checks"] = [
            {
                "label": row["label"],
                "frequency": row["sup_F"],
                "bound": row["predicted"],
                "ratio": row["ratio_sup"],
            }
            for row in rows
        ]
        agg["all_dominated"] = all(c["frequency"] <= c["bound"] for c in agg["checks"])
        return agg
    agg["coupling"] = config.coupling

    if config.kind == "borel":
        pooled = [row["mean_F"] for row in rows]
        agg["borel"] = summarize(pooled)
        agg["ks"] = ks_statistic(pooled)
        return agg

    m = config.resolved_m()
    agg["m"] = m
    agg["alpha"] = m / config.n
    agg["beta"] = config.beta

    # Rows that name the randomized coupling themselves are
    # coupling-compare's second rows; their eps is summarized apart.
    rotated_eps = [row["eps"] for row in rows if row.get("coupling") == RANDOMIZED]
    measured = [row for row in rows if row.get("coupling") != RANDOMIZED]
    for name in _SUMMARIZED:
        values = [row[name] for row in measured if name in row]
        if values:
            agg[name] = summarize(values)
    if rotated_eps:
        agg["eps_randomized"] = summarize(rotated_eps)

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
    """Each trial's rows, completed by the columns that come from the config."""
    cfg, agg = report.config, report.aggregate
    env = agg.get("theory", {})
    from_config = {
        "kind": cfg.kind,
        "n": cfg.n,
        "m": agg.get("m"),
        "alpha": agg.get("alpha"),
        "beta": cfg.beta,
        "coupling": cfg.coupling,
        "ks": agg.get("ks"),
    }
    rows = []
    for r in report.results:
        for measured in r.rows:
            row = dict.fromkeys(_CSV_FIELDS)
            row.update(from_config, trial=r.trial, seed=str(r.seed))
            if "eps" in measured:
                row["eps_lower"] = env.get("eps_lower")
                row["eps_upper"] = env.get("eps_upper")
            row.update((f, measured[f]) for f in _CSV_FIELDS if f in measured)
            rows.append(row)
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
        for name in _SUMMARIZED:
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
                    "config": asdict(cell["config"]),
                    "aggregate": cell["aggregate"],
                    "error": cell["error"],
                }
                for cell in report.cells
            ],
        }
    else:
        doc = {
            "config": asdict(report.config),
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
    # The accepted keys are the config fields, which render_json emits.
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data or "n" not in data:
        raise ConfigError("JSON config requires 'kind' and 'n'")
    return ExperimentConfig(**{"trials": default_trials(data["kind"]), **data})

"""Declarative Monte Carlo experiment execution.

An :class:`ExperimentConfig` names a statistic (``kind``), a matrix
dimension, a truncation size (exactly one of ``m``, ``alpha`` with
m = floor(alpha n), or ``beta`` with m = floor(beta n / ln n)), a trial
count, and a root seed.  :func:`run` executes the trials on derived
substreams -- trial t samples from ``(seed, [t])`` and the block
rotation that a randomized eps reads from ``(seed, [t, 1])`` -- through
one ordered map, in this process or in a pool of at most ``workers``
processes that the cores can hold beside the threads numpy's OpenBLAS
reports (see :func:`pool_budget`), so serial and parallel runs produce
identical results, and
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
``KINDS`` maps each kind's name to its :class:`Kind`: its subcommand,
the function that measures one trial, its default trial count, the
columns it draws and the couplings its config takes.

row-norms        truncated row norms of Y - sqrt(n) U vs sqrt(phi(alpha) m)
gh-split         norms of the projection/residual split F = G + H
epsilon          the supremum statistic eps_n(m) vs its envelope
coupling-compare paired eps for the plain and randomized couplings on
                 the same (Y, U); two rows per trial, each naming its
                 coupling in the ``coupling`` column; the config
                 takes only the default coupling
borel            pools sqrt(n) u_11 across trials; each row carries the
                 trial's value in the ``mean_F`` column and the pooled
                 Kolmogorov-Smirnov distance in ``ks``; the config
                 takes only the default coupling
bounds-check     fixed battery of tail-bound dominance checks (see
                 ``_bounds_battery`` for the row order); each row
                 carries its own n and m, the empirical frequency in
                 ``sup_F``, the analytic bound in ``predicted``, and
                 their ratio in ``ratio_sup``; the aggregate's ``checks``
                 name each bound; the config takes no trial inputs

Every matrix kind samples and couples only the n x m block of Y, the
columns its statistics read.  Borel draws one column y_1 whatever m is,
and couples nothing: sqrt(n) u_11 = sqrt(n) y_11 / ||y_1||.  The block
is bitwise the first m columns of the square the same trial seed draws
(see :mod:`hgc.rng`).
"""

from __future__ import annotations

import json
import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from . import theory
from .coupling import CoupledPair, blas_threads, gram_schmidt_couple, randomized_couple
from .errors import (
    ConfigError,
    DegeneracyError,
    DomainError,
    NumericalError,
)
from .measure import (
    decompose_gh,
    epsilon_sup,
    ks_statistic,
    summarize,
    truncated_row_norms,
)
from .rng import Seed, sample_gaussian

PLAIN_GS = "plain-gs"
RANDOMIZED = "randomized"
COUPLINGS = (PLAIN_GS, RANDOMIZED)

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
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {tuple(KINDS)}")
        spec = KINDS[self.kind]
        if self.coupling not in spec.couplings:
            raise ConfigError(f"kind {self.kind!r} takes coupling "
                              f"{' or '.join(map(repr, spec.couplings))}, got {self.coupling!r}")
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
        # A kind that draws a fixed column count needs no size; m defaults to 1.
        if given > 1 or given == 0 and spec.columns is None:
            raise ConfigError("give exactly one of m, alpha, beta")
        if given == 0:
            object.__setattr__(self, "m", 1)
        # A kind without trials (the bound battery) takes none of their inputs.
        if spec.measure is None:
            for name, v in zip(("alpha", "beta", "m", "trials", "workers"), (None, None, 1, 1, 1)):
                if getattr(self, name) != v:
                    raise ConfigError(f"kind {self.kind!r} runs no trials, so {name} must be {v}, "
                                      f"got {getattr(self, name)!r}")
        self.resolved_m()

    def resolved_m(self) -> int:
        """Truncation size: m, floor(alpha n), or floor(beta n / ln n)."""
        try:
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
        except OverflowError:
            size = f"alpha={self.alpha}" if self.alpha is not None else f"beta={self.beta}"
            raise ConfigError(f"n={self.n}, {size}: m is beyond float range") from None
        if not 1 <= m <= self.n:
            raise ConfigError(f"resolved m={m} outside [1, {self.n}]")
        return m


@dataclass(frozen=True)
class TrialResult:
    """The CSV rows one trial (or one bound check) measured.

    Each row maps CSV column names to values; columns it leaves out come
    from the config or stay empty.
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
    if KINDS[config.kind].measure is None:
        return _bounds_battery(config)
    processes = _check_fits(config)
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
    never reaches the grid.  A grid with a cell whose blocks cannot fit
    in memory is refused with a :class:`ConfigError` before the first
    cell draws.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("empty sweep grid")
    for cfg in configs:
        _check_fits(cfg)
    cells = []
    for cfg in configs:
        try:
            report = run(cfg)
            cells.append({"config": cfg, "aggregate": report.aggregate, "error": None})
        except (NumericalError, DomainError) as exc:
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
    text = FORMATS[format](report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# trial execution


@dataclass(frozen=True)
class PoolBudget:
    """How many trial processes fit beside OpenBLAS's threads on the usable cores.

    ``blas_threads`` is None where numpy's BLAS does not report its count.
    """

    processes: int
    blas_threads: int | None
    cores: int


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_budget(workers: int, trials: int) -> PoolBudget:
    """The trial processes a run of ``trials`` trials on ``workers`` workers forks.

    ``min(workers, trials, max(1, cores // threads))``, where ``cores``
    is this process's usable cores (:func:`_usable_cores`) and
    ``threads`` the count numpy's loaded OpenBLAS runs now
    (:func:`hgc.coupling.blas_threads`).  Where the library reports no
    count (numpy before 2.0, another BLAS), its threads are counted as
    one per core, so the run is serial.

    Every forked process keeps that thread count, so a run uses BLAS
    threads or processes, never more of the two than there are cores.
    The thread count is not changed, and neither are the bits it decides.
    """
    cores = _usable_cores()
    threads = blas_threads()
    return PoolBudget(min(workers, trials, max(1, cores // (threads or cores))), threads, cores)


def _check_footprint(n: int, m: int, processes: int, extra: int = 0) -> None:
    """Refuse work whose n x m blocks on ``processes`` processes cannot fit in memory.

    Each process holds at least what coupling its n x m block holds at
    one time on either path: Y, U and the m x m R, 2 n m + m^2 doubles,
    and ``extra`` more n x m blocks beside them (2 for the rotated
    Y V_m and U V_m of a trial that rotates).  So that many doubles per
    process is a lower bound on the footprint: work this refuses could
    not have fit in physical memory.  Where ``os.sysconf`` cannot tell
    the physical memory, nothing is checked.
    """
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    blocks = 2 + extra
    need = processes * 8 * (blocks * n * m + m * m)
    if 0 < physical < need:
        raise ConfigError(
            f"n={n}, m={m} on {processes} process(es) needs at least {need:,} "
            f"bytes ({blocks} n m + m^2 doubles per process), more than the {physical:,} "
            f"bytes of physical memory"
        )


def _drawn_columns(config: ExperimentConfig) -> int:
    """The columns of Y a trial of ``config`` draws: its kind's own count, else m."""
    return KINDS[config.kind].columns or config.resolved_m()


def _check_fits(config: ExperimentConfig) -> int:
    """The processes a run of ``config`` forks; refuses one that cannot fit in memory."""
    processes = pool_budget(config.workers, config.trials).processes
    rotates = config.coupling in KINDS[config.kind].rotates
    _check_footprint(config.n, _drawn_columns(config), processes, extra=2 if rotates else 0)
    return processes


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

    A worker takes SIGINT's default action, so an interrupt of the
    process group ends it at once and without a traceback, busy or idle;
    the parent alone reports the interrupt.
    """
    if processes == 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=processes, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_DFL)) as pool:
            yield partial(pool.map, chunksize=math.ceil(trials / processes))


def _trial_task(config: ExperimentConfig, t: int) -> TrialResult:
    """One trial on substream (seed, [t]); module-level so workers can pickle it.

    A degenerate coupling or rotation is raised as a
    :class:`NumericalError` naming trial ``t``: a pool returns a chunk's
    results only when the whole chunk succeeds, so the trial that failed
    must be named where it fails.
    """
    trial_seed = Seed(config.seed, (t,))
    y = sample_gaussian(config.n, _drawn_columns(config), trial_seed)
    try:
        rows = KINDS[config.kind].measure(config, t, y)
    except DegeneracyError as exc:
        raise NumericalError(t, exc) from exc
    return TrialResult(trial=t, seed=trial_seed, rows=rows)


def _plain_pair(y: np.ndarray) -> tuple[CoupledPair, dict]:
    """The plain pair of ``y`` and its row-norm columns.

    The rotation diag(V_m, I) maps F to F V_m, which keeps every row
    norm, every G/H norm and every cross term <G_i, H_i>: of all the
    statistics only eps sees it.  So every kind reads its row
    statistics off the plain pair, and V_m is drawn only for the eps
    of a row of the randomized coupling.
    """
    n, m = y.shape
    pair = gram_schmidt_couple(y)
    return pair, _row_norm_columns(truncated_row_norms(pair.y, pair.u, m), n, m)


def _measure_row_norms(config: ExperimentConfig, t: int, y: np.ndarray) -> tuple[dict, ...]:
    return (_plain_pair(y)[1],)


def _measure_gh_split(config: ExperimentConfig, t: int, y: np.ndarray) -> tuple[dict, ...]:
    n, m = y.shape
    deco = decompose_gh(gram_schmidt_couple(y), m)
    row = _row_norm_columns(deco.f_norms, n, m)
    row.update(
        g2_over_m=float(np.mean(deco.g_norms**2) / m),
        h2_over_m=float(np.mean(deco.h_norms**2) / m),
        max_cross_over_m=float(np.abs(deco.cross).max() / m),
    )
    return (row,)


def _measure_epsilon(config: ExperimentConfig, t: int, y: np.ndarray) -> tuple[dict, ...]:
    pair, row = _plain_pair(y)
    row["eps"] = _eps(pair, y.shape[1], config.coupling, Seed(config.seed, (t, 1)))
    return (row,)


def _measure_compare(config: ExperimentConfig, t: int, y: np.ndarray) -> tuple[dict, ...]:
    pair, row = _plain_pair(y)
    m, rotation = y.shape[1], Seed(config.seed, (t, 1))
    row.update(coupling=PLAIN_GS, eps=_eps(pair, m, PLAIN_GS, rotation))
    return row, {"coupling": RANDOMIZED, "eps": _eps(pair, m, RANDOMIZED, rotation)}


def _measure_borel(config: ExperimentConfig, t: int, y: np.ndarray) -> tuple[dict, ...]:
    # Column 1 of U is column 1 of Y normalized, so sqrt(n) u_11 needs
    # no coupling.  numpy's pairwise sum, unlike a BLAS dot, does not
    # depend on the thread count.
    u_11 = y[0, 0] / math.sqrt(float(np.square(y).sum()))
    return ({"mean_F": float(math.sqrt(config.n) * u_11)},)


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


@dataclass(frozen=True)
class Kind:
    """What one experiment kind is.

    ``command`` is its CLI subcommand; ``measure(config, t, y)`` turns
    trial t's draw ``y`` into the trial's CSV rows; ``trials`` is the
    default trial count.  A kind with ``columns`` set draws that many
    columns of Y whatever m is, and needs no truncation size (m
    defaults to 1).  ``couplings`` are the values its config's
    ``coupling`` may take: a kind that measures every coupling on each
    trial (compare), or only the plain one (borel's u_11; the battery,
    which couples nothing), takes only the default, so no row names a
    coupling it did not measure.  ``rotates`` names the couplings under
    which a trial also rotates its pair by V_m; only the memory guard
    reads it.  A kind without ``measure`` runs no trials, so its config
    takes none of their inputs: no alpha or beta, and m, trials and
    workers of 1.
    """

    command: str | None
    measure: Callable | None
    trials: int = 5
    columns: int | None = None
    couplings: tuple[str, ...] = COUPLINGS
    rotates: tuple[str, ...] = ()


KINDS = {
    "row-norms": Kind("rownorms", _measure_row_norms),
    "gh-split": Kind("gh", _measure_gh_split),
    "epsilon": Kind("epsilon", _measure_epsilon, rotates=(RANDOMIZED,)),
    "coupling-compare": Kind("compare", _measure_compare, couplings=(PLAIN_GS,), rotates=COUPLINGS),
    "borel": Kind("borel", _measure_borel, trials=200, columns=1, couplings=(PLAIN_GS,)),
    "bounds-check": Kind(None, None, trials=1, columns=1, couplings=(PLAIN_GS,)),
}


# ---------------------------------------------------------------------------
# bound-dominance battery

def _bounds_battery(config: ExperimentConfig) -> Report:
    """Empirical frequency vs analytic bound at the standard parameter points.

    Each group draws the norms it measures from their exact laws, on its
    own substream.  The Gaussian tail at t = 1 reads 1e5 scalar normals
    on (seed, [0]).  The norm deviations at eps = 0.2 read 1e5 norms of
    Gaussian vectors x in R^400, ||x||^2 ~ chi2(400), on (seed, [1]).
    The projection bounds at rho = eps = 0.3 and t = 1.5 read 1e4
    projections onto Haar 64-dim subspaces L of R^256, on (seed, [2]):
    first the norms ||P_L x||, with ||P_L x||^2 ~ chi2(64) since
    P_L x ~ N(0, P_L), then the norms ||P_L e_1||, with
    ||P_L e_1||^2 ~ Beta(32, 96) (Dasgupta & Gupta 2003).
    """
    dim, eps = 400, 0.2
    amb, k, rho, t = 256, 64, 0.3, 1.5
    samples, trials = 100_000, 10_000
    z = Seed(config.seed, (0,)).generator().standard_normal(samples)
    chi = np.sqrt(Seed(config.seed, (1,)).generator().chisquare(dim, samples))
    projections = Seed(config.seed, (2,)).generator()
    p_gauss = np.sqrt(projections.chisquare(k, trials))
    p_unit = np.sqrt(projections.beta(k / 2, (amb - k) / 2, trials))

    lower, upper = theory.gaussian_tail_bounds(1.0)
    chi_bound = theory.chi_norm_tail(dim, eps)
    proj_bound, unit_t = theory.projection_tails(k, amb, rho, t)
    ratio = math.sqrt(k / amb)
    # (label, substream group, row n, row m, the draws that hit the event, bound)
    events = [
        ("gauss-tail-upper", 0, 1, None, z > 1.0, upper),
        ("gauss-tail-complement", 0, 1, None, z <= 1.0, 1.0 - lower),
        ("chi-upper", 1, dim, None, chi >= math.sqrt(dim) / math.sqrt(1.0 - eps), chi_bound),
        ("chi-lower", 1, dim, None, chi <= math.sqrt(dim) * math.sqrt(1.0 - eps), chi_bound),
        ("proj-gauss-upper", 2, amb, k, p_gauss >= math.sqrt(k) / math.sqrt(1.0 - rho), proj_bound),
        ("proj-gauss-lower", 2, amb, k, p_gauss <= math.sqrt(k) * math.sqrt(1.0 - rho), proj_bound),
        ("proj-unit-upper", 2, amb, k, p_unit >= ratio / (1.0 - rho), proj_bound),
        ("proj-unit-lower", 2, amb, k, p_unit <= ratio * (1.0 - rho), proj_bound),
        ("proj-unit-t", 2, amb, k, p_unit >= t * ratio, unit_t),
    ]
    results, checks = [], []
    for i, (label, group, row_n, row_m, hits, bnd) in enumerate(events):
        freq = float(np.mean(hits))
        results.append(TrialResult(trial=i, seed=Seed(config.seed, (group,)), rows=(
            {"n": row_n, "m": row_m, "coupling": None, "sup_F": freq, "predicted": bnd,
             "ratio_sup": freq / bnd},
        )))
        checks.append({"label": label, "frequency": freq, "bound": bnd, "ratio": freq / bnd})
    # The battery couples nothing, so its aggregate names no coupling.
    aggregate = {
        "kind": config.kind,
        "n": config.n,
        "trials": len(results),
        "seed": config.seed,
        "checks": checks,
        "all_dominated": all(check["frequency"] <= check["bound"] for check in checks),
    }
    return Report(config=config, results=results, aggregate=aggregate)


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
    rows = [row for r in results for row in r.rows]

    # A kind that draws a fixed column count pools one value per trial.
    if KINDS[config.kind].columns is not None:
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


def _row(config: ExperimentConfig, aggregate: dict, **columns) -> dict:
    """A CSV row, empty but for the columns of the config and aggregate and ``columns``.

    Keys come in CSV order; a column ``columns`` adds beyond the CSV's
    own, such as a failed sweep cell's ``error``, comes last.
    """
    row = dict.fromkeys(_CSV_FIELDS)
    row.update(kind=config.kind, n=config.n, m=aggregate.get("m"), alpha=aggregate.get("alpha"),
               coupling=config.coupling, ks=aggregate.get("ks"), **columns)
    return row


def _rows_of(report) -> list[dict]:
    """The rows of a Report, one per measured row, or of a SweepTable, one per cell.

    A report's row is a trial's measured row over the columns that come
    from the config, which are built once per report; it carries the eps
    envelope only beside an eps.  A sweep's row holds its cell's medians
    and theory, and ``beta`` as the aggregate has it, so a borel cell's
    is empty; a failed cell's row holds only its config and its error.
    """
    if isinstance(report, Report):
        cfg, agg = report.config, report.aggregate
        env = agg.get("theory", {})
        envelope = {"eps_lower": env.get("eps_lower"), "eps_upper": env.get("eps_upper")}
        base = _row(cfg, agg, beta=cfg.beta)
        return [
            {**base, "trial": r.trial, "seed": str(r.seed),
             **(envelope if "eps" in measured else {}), **measured}
            for r in report.results
            for measured in r.rows
        ]
    rows = []
    for cell in report.cells:
        agg = cell["aggregate"] or {}
        env = agg.get("theory", {})
        medians = {name: agg[name]["q50"] for name in _SUMMARIZED if name in agg}
        failed = {} if cell["error"] is None else {"error": cell["error"]}
        rows.append(_row(cell["config"], agg, beta=agg.get("beta"), seed=str(cell["config"].seed),
                         predicted=env.get("predicted"), eps_lower=env.get("eps_lower"),
                         eps_upper=env.get("eps_upper"), **medians, **failed))
    return rows


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
            "rows": _rows_of(report),
            "cells": [{**cell, "config": asdict(cell["config"])} for cell in report.cells],
        }
    else:
        doc = {
            "config": asdict(report.config),
            "rows": _rows_of(report),
            "aggregate": report.aggregate,
        }
    return json.dumps(doc, indent=2) + "\n"


def render_svg(report) -> str:
    """Minimal line chart: one polyline per series, labeled axes."""
    rows = _rows_of(report)
    is_sweep = isinstance(report, SweepTable)
    x_name = "n" if is_sweep else "trial"
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        x = float(row["n"] if is_sweep else row["trial"])
        for col in ("ratio_sup", "ratio_inf", "eps", "eps_lower", "eps_upper", "ks"):
            if row.get(col) is None:
                continue
            name = col
            if col == "eps" and row.get("coupling"):
                name = f"eps[{row['coupling']}]"
            series.setdefault(name, []).append((x, float(row[col])))

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


FORMATS = {"csv": render_csv, "json": render_json, "svg": render_svg}


def config_from_json(source) -> ExperimentConfig:
    """Build a config from the JSON schema (text, file object, or dict)."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        data = json.loads(source) if isinstance(source, str) else source
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object")
    # The accepted keys are the config fields, which render_json emits.
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data or "n" not in data:
        raise ConfigError("JSON config requires 'kind' and 'n'")
    # A kind that is not a str is not looked up: a list cannot be hashed.
    kind = data["kind"]
    trials = KINDS[kind].trials if isinstance(kind, str) and kind in KINDS else 1
    return ExperimentConfig(**{"trials": trials, **data})

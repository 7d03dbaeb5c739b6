import csv
import io
import json
import os
import pickle
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import hgc.coupling as coupling
import hgc.harness as harness
from hgc import (
    ConfigError,
    DegeneracyError,
    ExperimentConfig,
    NumericalError,
    Seed,
    config_from_json,
    emit,
    epsilon_sup,
    gram_schmidt_couple,
    randomized_couple,
    run,
    sample_gaussian,
    sweep,
)
from hgc.harness import (
    _PROJECTION_BATCH,
    BOUND_CHECK_LABELS,
    CSV_HEADER,
    _projection_norms,
    render_csv,
    render_json,
    render_svg,
)


def make_singular(monkeypatch, singular, module=harness):
    """Make every Gaussian draw for which ``singular(n, seed)`` holds degenerate.

    Patches ``module.sample_gaussian`` (the harness's trial draws by
    default, ``coupling`` for the rotation V_m) so that column 2 of such
    a draw repeats column 1.  A process pool's workers see the patch
    because they are forked from the patched test process.
    """

    def sample(rows, cols, seed):
        y = sample_gaussian(rows, cols, seed)
        if singular(rows, seed):
            y[:, 1] = y[:, 0]
        return y

    monkeypatch.setattr(module, "sample_gaussian", sample)


# --- configuration -----------------------------------------------------------


def test_exactly_one_size_flag():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="epsilon", n=1024, beta=1.0, m=100)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="epsilon", n=1024)
    ExperimentConfig(kind="epsilon", n=1024, m=100)  # a single size is fine


def test_beta_resolution():
    cfg = ExperimentConfig(kind="epsilon", n=256, beta=1.0)
    assert cfg.resolved_m() == 46
    assert ExperimentConfig(kind="epsilon", n=4096, beta=1.0).resolved_m() == 492


def test_alpha_resolution_floor():
    assert ExperimentConfig(kind="row-norms", n=10, alpha=0.55).resolved_m() == 5
    assert ExperimentConfig(kind="row-norms", n=10, alpha=1.0).resolved_m() == 10


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope", n=8, m=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, m=2, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, m=9)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, m=2, coupling="other")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, alpha=0.01)  # floor(0.08) = 0
    with pytest.raises(ConfigError):
        run(ExperimentConfig(kind="sweep", n=8, m=2))


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("m", 2.5), ("n", 8.5), ("trials", 2.0), ("workers", True)],
)
def test_config_field_of_wrong_type_raises_config_error(field, value):
    # The library checks types where --config does, before any value reaches numpy.
    with pytest.raises(ConfigError, match=f"^config key {field!r} must be "):
        ExperimentConfig(**{"kind": "row-norms", "n": 8, "m": 2, field: value})


def test_sizeless_kinds_default_m():
    assert ExperimentConfig(kind="borel", n=64).resolved_m() == 1
    assert ExperimentConfig(kind="bounds-check", n=1).resolved_m() == 1


# --- run ----------------------------------------------------------------------


def test_run_deterministic_and_seed_sensitivity():
    cfg = ExperimentConfig(kind="row-norms", n=48, alpha=1.0, trials=2, seed=5)
    first = run(cfg)
    second = run(cfg)
    assert [r.rows for r in first.results] == [r.rows for r in second.results]
    assert render_csv(first) == render_csv(second)
    other = run(ExperimentConfig(kind="row-norms", n=48, alpha=1.0, trials=2, seed=6))
    assert [r.rows for r in other.results] != [r.rows for r in first.results]
    # changing only the output path does not change the rows
    redirected = run(
        ExperimentConfig(kind="row-norms", n=48, alpha=1.0, trials=2, seed=5, out="x.csv")
    )
    assert render_csv(redirected) == render_csv(first)


def test_parallel_matches_serial(two_pool_processes):
    serial = run(ExperimentConfig(kind="gh-split", n=64, alpha=0.5, trials=4, seed=9))
    parallel = run(
        ExperimentConfig(kind="gh-split", n=64, alpha=0.5, trials=4, seed=9, workers=2)
    )
    assert render_csv(serial) == render_csv(parallel)


_REAL_TRIAL_TASK = harness._trial_task


def _trial_with_pid(config, t):
    # Runs in a forked pool worker, which inherits the patched module.
    # The pause keeps a worker from finishing its chunk before the other
    # worker has taken the next one.
    time.sleep(0.1)
    result = _REAL_TRIAL_TASK(config, t)
    return replace(result, rows=tuple({**row, "pid": os.getpid()} for row in result.rows))


def test_each_worker_runs_one_contiguous_chunk(monkeypatch, two_pool_processes):
    monkeypatch.setattr(harness, "_trial_task", _trial_with_pid)
    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)

    def pids(workers, trials):
        report = run(ExperimentConfig(kind="row-norms", n=8, m=2, trials=trials,
                                      workers=workers))
        return [r.rows[0]["pid"] for r in report.results]

    chunked = pids(2, 6)
    assert pools == [2]
    assert len(set(chunked[:3])) == len(set(chunked[3:])) == 1
    assert len(set(chunked)) == 2 and os.getpid() not in chunked

    # No more processes than trials, and none for a single trial.
    assert os.getpid() not in pids(8, 2)
    assert pools == [2, 2]
    assert pids(4, 1) == [os.getpid()]
    assert pools == [2, 2]


@pytest.mark.parametrize(
    "environ, cores, workers, trials, threads, processes",
    [
        ({}, 2, 2, 200, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"GOTO_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 2, 2, 200, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 2, 200, 2, 1),
        # OpenBLAS reads a value as atoi does and skips one below 1.
        ({"OPENBLAS_NUM_THREADS": "1abc"}, 2, 2, 200, 1, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        # OPENBLAS_NUM_THREADS comes first, then GOTO_NUM_THREADS, then OMP_NUM_THREADS.
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 200, 2, 2),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 8, 200, 4, 2),
        # The workers, trials and cores caps.
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 200, 1, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 8, 5, 1, 5),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 8, 200, 1, 2),
        ({}, 1, 4, 200, 1, 1),
    ],
)
def test_pool_budget(environ, cores, workers, trials, threads, processes):
    budget = harness.pool_budget(workers, trials, environ, cores)
    assert budget == harness.PoolBudget(processes, threads, cores)


# Prints the thread count of numpy's loaded OpenBLAS and the derived one;
# exits 3 when the library or its symbol cannot be found.
_LIVE_BLAS_THREADS = """
import ctypes, glob, os, sys
import numpy
from hgc import harness
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "*openblas*"))
try:
    live = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    live.argtypes, live.restype = [], ctypes.c_int
except (IndexError, OSError, AttributeError):
    sys.exit(3)
print(live(), harness.pool_budget(1, 1).blas_threads)
"""


@pytest.mark.parametrize("setting", [{}, {"OPENBLAS_NUM_THREADS": "1"}])
def test_derived_blas_threads_match_the_loaded_openblas(setting):
    env = {k: v for k, v in os.environ.items() if k not in harness._BLAS_THREAD_VARS}
    src = str(Path(harness.__file__).parents[1])
    env.update(setting, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _LIVE_BLAS_THREADS], env=env,
                          capture_output=True, text=True)
    if done.returncode == 3:
        pytest.skip("numpy's OpenBLAS exports no scipy_openblas_get_num_threads64_")
    assert done.returncode == 0, done.stderr
    live, derived = done.stdout.split()
    assert live == derived


def test_a_capped_run_forks_nothing(monkeypatch):
    # Two OpenBLAS threads fill two cores, so workers=2 runs in this process.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a capped run forked a pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    config = ExperimentConfig(kind="gh-split", n=64, alpha=0.5, trials=4, seed=9)
    assert render_csv(run(replace(config, workers=2))) == render_csv(run(config))


def test_footprint_bound_counts_every_process(monkeypatch):
    # 8 MiB of physical memory; a 512 x 256 trial holds 3 MiB.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2048, "SC_PAGE_SIZE": 4096}.get)
    config = ExperimentConfig(kind="row-norms", n=512, m=256)
    harness._check_footprint(config, 2)
    with pytest.raises(ConfigError, match=r"on 3 process\(es\) needs at least 9,437,184 "
                                          r"bytes .* the 8,388,608 bytes of physical"):
        harness._check_footprint(config, 3)


def test_footprint_is_not_checked_without_sysconf_names(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unknown)
    harness._check_footprint(ExperimentConfig(kind="row-norms", n=10**6, alpha=1.0), 1)


@pytest.mark.parametrize(
    "kind, size, shape",
    [
        ("row-norms", dict(alpha=0.25), (64, 16)),
        ("gh-split", dict(m=5), (64, 5)),
        ("epsilon", dict(beta=1.0), (64, 15)),
        ("coupling-compare", dict(beta=1.0), (64, 15)),
        ("row-norms", dict(alpha=1.0), (64, 64)),
        ("borel", {}, (64, 1)),
    ],
)
def test_each_trial_draws_only_the_block_it_reads(monkeypatch, kind, size, shape):
    drawn = []

    def sample(rows, cols, seed):
        drawn.append((rows, cols, seed))
        return sample_gaussian(rows, cols, seed)

    monkeypatch.setattr(harness, "sample_gaussian", sample)
    run(ExperimentConfig(kind=kind, n=64, trials=2, seed=3, **size))
    assert drawn == [(*shape, Seed(3, (0,))), (*shape, Seed(3, (1,)))]


def test_trial_seeds_follow_root_and_index():
    report = run(ExperimentConfig(kind="row-norms", n=16, alpha=1.0, trials=3, seed=21))
    assert [str(r.seed) for r in report.results] == ["21:0", "21:1", "21:2"]


def test_compare_pairs_from_same_matrices():
    cfg = ExperimentConfig(kind="coupling-compare", n=32, m=10, trials=2, seed=13)
    report = run(cfg)
    # recompute trial 0 by hand from the same substreams
    pair = gram_schmidt_couple(sample_gaussian(32, 10, Seed(13, (0,))))
    rot = randomized_couple(pair, 10, Seed(13, (0, 1)))
    plain, rotated = report.results[0].rows
    assert plain["coupling"] == "plain-gs"
    assert plain["eps"] == epsilon_sup(pair.y, pair.u, 10)
    assert rotated["coupling"] == "randomized"
    assert rotated["eps"] == epsilon_sup(rot.y, rot.u, 10)


@pytest.mark.parametrize(
    "kind, coupling, size, rotations",
    [
        ("row-norms", "randomized", dict(alpha=0.25), 0),
        ("gh-split", "randomized", dict(m=5), 0),
        ("borel", "randomized", {}, 0),
        ("epsilon", "plain-gs", dict(beta=1.0), 0),
        ("epsilon", "randomized", dict(beta=1.0), 3),
        ("coupling-compare", "plain-gs", dict(beta=1.0), 3),
    ],
)
def test_rotation_drawn_only_for_a_randomized_eps(monkeypatch, kind, coupling, size,
                                                  rotations):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return randomized_couple(*args, **kwargs)

    monkeypatch.setattr(harness, "randomized_couple", counted)
    run(ExperimentConfig(kind=kind, n=64, trials=3, seed=5, coupling=coupling, **size))
    assert len(calls) == rotations


@pytest.mark.parametrize("kind", ["row-norms", "epsilon"])
def test_row_statistics_do_not_depend_on_the_coupling(kind):
    plain, rotated = (
        run(ExperimentConfig(kind=kind, n=128, beta=1.0, trials=3, seed=4, coupling=c))
        for c in ("plain-gs", "randomized")
    )
    for a, b in zip(plain.results, rotated.results):
        (row_a,), (row_b,) = a.rows, b.rows
        for name in ("sup_F", "inf_F", "mean_F", "predicted", "ratio_sup", "ratio_inf"):
            assert row_a[name] == row_b[name]
        if kind == "epsilon":
            assert row_a["eps"] != row_b["eps"]


def test_epsilon_randomized_coupling_field():
    report = run(
        ExperimentConfig(
            kind="epsilon", n=32, beta=1.0, trials=2, seed=3, coupling="randomized"
        )
    )
    for row in json.loads(render_json(report))["rows"]:
        assert row["coupling"] == "randomized"
        assert row["beta"] == 1.0
        assert row["eps"] <= row["sup_F"] + 1e-15


def test_borel_kind_pools_entries():
    report = run(ExperimentConfig(kind="borel", n=32, trials=50, seed=8))
    entries = [r.rows[0]["mean_F"] for r in report.results]
    assert len(set(entries)) == 50
    assert 0 <= report.aggregate["ks"] <= 1
    assert report.aggregate["borel"]["mean"] == pytest.approx(np.mean(entries))


@pytest.mark.parametrize("workers", [1, 2])
def test_degenerate_trial_reports_index(monkeypatch, two_pool_processes, workers):
    # With workers=2 the trials run in forked pool workers, which inherit
    # the patch; the worker's DegeneracyError is pickled back to this process.
    make_singular(monkeypatch, lambda n, seed: seed.path == (1,))
    with pytest.raises(NumericalError) as err:
        run(ExperimentConfig(kind="row-norms", n=8, alpha=1.0, trials=3, seed=1,
                             workers=workers))
    assert err.value.trial == 1
    assert str(err.value).startswith("trial 1: column 2 (1-based)")


@pytest.mark.parametrize("workers", [1, 2])
def test_degenerate_rotation_reports_its_trial(monkeypatch, two_pool_processes, workers):
    # On two workers trial 3 is the second trial of the chunk (2, 3), so
    # counting the results that came back would name trial 2: the trial
    # must name itself, rotation included.
    make_singular(monkeypatch, lambda n, seed: seed.path == (3, 1), module=coupling)
    with pytest.raises(NumericalError) as err:
        run(ExperimentConfig(kind="epsilon", n=16, beta=1.0, trials=4, seed=1,
                             coupling="randomized", workers=workers))
    assert err.value.trial == 3
    assert str(err.value).startswith("trial 3: column 2 (1-based)")


def test_trial_errors_pickle():
    # A worker's error reaches the parent pickled; the cause pickles with it.
    degenerate = DegeneracyError(2, 1.5e-12, 4e-8)
    failed = NumericalError(3, degenerate)
    copy = pickle.loads(pickle.dumps(failed))
    assert (type(copy), str(copy), copy.trial) == (NumericalError, str(failed), 3)
    assert type(copy.cause) is DegeneracyError
    assert (str(copy.cause), vars(copy.cause)) == (str(degenerate), vars(degenerate))


# --- bounds battery -----------------------------------------------------------


# The battery's stream is fixed by its seed, so its frequencies are exact
# values; a change to the draw order of any group, to the row order or to
# a threshold shows here.
_BATTERY_FREQUENCIES = {
    0: (0.16052, 0.83948, 0.00053, 0.00131, 0.013, 0.0302, 0.0, 0.0002, 0.0),
    7: (0.15861, 0.84139, 0.0005, 0.00128, 0.0151, 0.0333, 0.0, 0.0001, 0.0),
    100: (0.15893, 0.84107, 0.0006, 0.00126, 0.0141, 0.033, 0.0, 0.0001, 0.0),
}


def test_bounds_battery_dominates():
    threads = threading.active_count()
    for seed, frequencies in _BATTERY_FREQUENCIES.items():
        report = run(ExperimentConfig(kind="bounds-check", n=1, seed=seed))
        # The chi worker and the projection drawer are joined before run returns.
        assert threading.active_count() == threads
        rows = [r.rows[0] for r in report.results]
        assert [row["label"] for row in rows] == list(BOUND_CHECK_LABELS)
        assert report.aggregate["all_dominated"]
        for row in rows:
            assert 0.0 <= row["sup_F"] <= row["predicted"]
            assert row["ratio_sup"] == pytest.approx(row["sup_F"] / row["predicted"])
        assert tuple(row["sup_F"] for row in rows) == frequencies, f"seed {seed}"


class _FailingGenerator:
    """A generator whose third ``standard_normal`` fill raises."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = 0

    def standard_normal(self, *, out):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("fill 3 failed")
        return self.gen.standard_normal(out=out)


def test_projection_drawer_failure_reaches_the_caller():
    threads = threading.active_count()
    gen = _FailingGenerator(Seed(5, (2,)).generator())
    raised = []

    def call():
        try:
            _projection_norms(gen, 5 * _PROJECTION_BATCH, 32, 8)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "_projection_norms hung after a failed fill"
    assert [str(exc) for exc in raised] == ["fill 3 failed"]
    assert threading.active_count() == threads


def test_projection_norms_match_qr_loop():
    amb, k, trials = 256, 64, 300
    assert trials % _PROJECTION_BATCH != 0  # a partial last batch runs too
    batched_gen = Seed(5, (2,)).generator()
    p_gauss, p_unit = _projection_norms(batched_gen, trials, amb, k)

    loop_gen = Seed(5, (2,)).generator()
    want_gauss, want_unit = np.empty(trials), np.empty(trials)
    for i in range(trials):
        q = np.linalg.qr(loop_gen.standard_normal((amb, k)))[0]
        x = loop_gen.standard_normal(amb)
        want_gauss[i] = np.linalg.norm(q.T @ x)
        want_unit[i] = np.linalg.norm(q[0, :])
    np.testing.assert_allclose(p_gauss, want_gauss, rtol=1e-12, atol=0)
    np.testing.assert_allclose(p_unit, want_unit, rtol=1e-12, atol=0)
    # both generators consumed the same draws
    assert batched_gen.standard_normal() == loop_gen.standard_normal()


# --- sweep ---------------------------------------------------------------------


def test_sweep_grid_order_and_rows():
    table = sweep(
        [
            ExperimentConfig(kind="row-norms", n=n, alpha=1.0, trials=2, seed=4)
            for n in (32, 64)
        ]
    )
    rows = [cell for cell in table.cells]
    assert [c["config"].n for c in rows] == [32, 64]
    assert all(c["error"] is None for c in rows)
    csv_text = render_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_sweep_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep([])


def test_sweep_isolates_failing_cell(monkeypatch):
    # inject a singular Y into the n=2 cell only; the n=16 cell still runs
    make_singular(monkeypatch, lambda n, seed: n == 2)
    table = sweep(
        [
            ExperimentConfig(kind="row-norms", n=2, m=2, trials=1, seed=4),
            ExperimentConfig(kind="row-norms", n=16, m=8, trials=1, seed=4),
        ]
    )
    assert table.cells[0]["error"] is not None
    assert "trial 0" in table.cells[0]["error"]
    assert table.cells[1]["error"] is None
    assert table.cells[1]["aggregate"]["ratio_sup"]["q50"] > 0
    lines = render_csv(table).strip().splitlines()
    assert len(lines) == 3  # header + one error row + one data row


# --- emit -----------------------------------------------------------------------


def test_csv_header_and_byte_identity(tmp_path):
    cfg = ExperimentConfig(kind="epsilon", n=32, beta=1.0, trials=3, seed=2)
    report = run(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(report, "csv", str(p1))
    emit(report, "csv", str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == CSV_HEADER
    assert len(b1.decode().strip().splitlines()) == 4


def test_csv_floats_roundtrip():
    report = run(ExperimentConfig(kind="row-norms", n=24, alpha=0.5, trials=2, seed=11))
    lines = render_csv(report).strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    sup_f = float(row[header.index("sup_F")])
    assert sup_f == report.results[0].rows[0]["sup_F"]


def test_json_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(kind="gh-split", n=24, alpha=0.5, trials=2, seed=12)
    report = run(cfg)
    path = tmp_path / "r.json"
    emit(report, "json", str(path))
    doc = json.loads(path.read_text())
    assert doc["config"]["kind"] == "gh-split"
    for row, res in zip(doc["rows"], report.results):
        assert row["sup_F"] == res.rows[0]["sup_F"]
        assert row["g2_over_m"] == res.rows[0]["g2_over_m"]
        assert row["seed"] == str(res.seed)
    assert doc["aggregate"]["g2_over_m"]["q50"] == report.aggregate["g2_over_m"]["q50"]


def test_svg_well_formed(tmp_path):
    report = run(
        ExperimentConfig(kind="coupling-compare", n=32, beta=1.0, trials=3, seed=14)
    )
    path = tmp_path / "r.svg"
    emit(report, "svg", str(path))
    root = ET.fromstring(path.read_text())
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    # series: eps[plain-gs], eps[randomized], envelope lower/upper,
    # ratio_sup, ratio_inf
    assert len(polylines) == 6


def test_emit_unwritable_path_raises_oserror():
    report = run(ExperimentConfig(kind="row-norms", n=8, alpha=1.0, trials=1, seed=1))
    with pytest.raises(OSError):
        emit(report, "csv", "/nonexistent-dir/r.csv")


# --- CSV layout per kind ---------------------------------------------------------

_NORMS = {"kind", "n", "m", "alpha", "trial", "seed", "coupling",
          "sup_F", "inf_F", "mean_F", "predicted", "ratio_sup", "ratio_inf"}
_EPS = {"beta", "eps", "eps_lower", "eps_upper"}
_CHECK = {"kind", "n", "trial", "seed", "sup_F", "predicted", "ratio_sup"}


def _failing_sweep():
    with pytest.MonkeyPatch.context() as monkeypatch:
        make_singular(monkeypatch, lambda n, seed: n == 2)
        return sweep(
            [ExperimentConfig(kind="row-norms", n=n, m=2, trials=1, seed=4)
             for n in (2, 16)]
        )


# name -> (report or sweep table factory, non-empty CSV columns of each row)
_LAYOUTS = {
    "row-norms": (
        lambda: run(ExperimentConfig(kind="row-norms", n=16, alpha=0.5, trials=2)),
        [_NORMS] * 2,
    ),
    "gh-split": (
        lambda: run(ExperimentConfig(kind="gh-split", n=16, alpha=0.5, trials=2)),
        [_NORMS | {"g2_over_m", "h2_over_m", "max_cross_over_m"}] * 2,
    ),
    "epsilon-plain": (
        lambda: run(ExperimentConfig(kind="epsilon", n=32, beta=1.0, trials=2)),
        [_NORMS | _EPS] * 2,
    ),
    "epsilon-randomized": (
        lambda: run(ExperimentConfig(kind="epsilon", n=32, beta=1.0, trials=2,
                                     coupling="randomized")),
        [_NORMS | _EPS] * 2,
    ),
    "coupling-compare": (
        lambda: run(ExperimentConfig(kind="coupling-compare", n=32, beta=1.0, trials=2)),
        [_NORMS | _EPS, {"kind", "n", "m", "alpha", "trial", "seed", "coupling"} | _EPS] * 2,
    ),
    "borel": (
        lambda: run(ExperimentConfig(kind="borel", n=16, trials=3)),
        [{"kind", "n", "trial", "seed", "coupling", "mean_F", "ks"}] * 3,
    ),
    "bounds-check": (
        lambda: run(ExperimentConfig(kind="bounds-check", n=1)),
        [_CHECK] * 4 + [_CHECK | {"m"}] * 5,
    ),
    "sweep-failing-cell": (
        _failing_sweep,
        [
            {"kind", "n", "seed", "coupling"},
            _NORMS - {"trial"} | {"eps_lower", "eps_upper"},
        ],
    ),
}


@lru_cache(maxsize=None)
def _layout_report(name):
    return _LAYOUTS[name][0]()


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
def test_csv_columns_filled_per_row(name):
    rows = csv.DictReader(io.StringIO(render_csv(_layout_report(name))))
    assert [{col for col, value in row.items() if value} for row in rows] == _LAYOUTS[name][1]


# --- JSON config ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
def test_json_report_config_runs_again(name):
    report = _layout_report(name)
    doc = json.loads(render_json(report))
    if "cells" in doc:
        pairs = zip((cell["config"] for cell in doc["cells"]), report.cells)
        assert all(config_from_json(emitted) == cell["config"] for emitted, cell in pairs)
    else:
        assert config_from_json(doc["config"]) == report.config



def test_config_from_json_roundtrip():
    cfg = config_from_json(
        '{"kind": "epsilon", "n": 256, "beta": 1.0, "trials": 3, "seed": 7, '
        '"coupling": "randomized", "out": "r.csv", "format": "csv", "workers": 2}'
    )
    assert cfg.kind == "epsilon"
    assert cfg.resolved_m() == 46
    assert cfg.workers == 2


def test_config_from_json_defaults_and_errors():
    assert config_from_json('{"kind": "borel", "n": 512}').trials == 200
    assert config_from_json('{"kind": "row-norms", "n": 64, "m": 4}').trials == 5
    with pytest.raises(ConfigError):
        config_from_json('{"kind": "row-norms"}')
    with pytest.raises(ConfigError):
        config_from_json('{"kind": "row-norms", "n": 64, "m": 4, "bogus": 1}')
    with pytest.raises(ConfigError):
        config_from_json("not json")
    with pytest.raises(ConfigError):
        config_from_json('{"kind": "row-norms", "n": 64, "m": 4, "alpha": 0.5}')

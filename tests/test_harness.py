import csv
import io
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

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
    CSV_HEADER,
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
    message = ("unknown kind 'nope'; expected one of ('row-norms', 'gh-split', 'epsilon', "
               "'coupling-compare', 'borel', 'bounds-check')")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="nope", n=8, m=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, m=2, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, m=9)
    message = "kind 'row-norms' takes coupling 'plain-gs' or 'randomized', got 'other'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="row-norms", n=8, m=2, coupling="other")
    # A compare trial measures both couplings, so it takes only the default.
    message = "kind 'coupling-compare' takes coupling 'plain-gs', got 'randomized'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(kind="coupling-compare", n=8, m=2, coupling="randomized")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="row-norms", n=8, alpha=0.01)  # floor(0.08) = 0
    with pytest.raises(ConfigError):
        run(ExperimentConfig(kind="sweep", n=8, m=2))
    for bad, message in (({"n": 0}, "n must be >= 1, got 0"),
                         ({"workers": 0}, "workers must be >= 1, got 0"),
                         ({"format": "xml"}, "unknown format 'xml'")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**{"kind": "row-norms", "n": 8, "m": 2, **bad})
    with pytest.raises(ConfigError, match=r"^alpha must lie in \(0, 1\], got 1\.5$"):
        ExperimentConfig(kind="row-norms", n=8, alpha=1.5)
    # alpha n or beta n / ln n would overflow a float on its way to m
    for size in ({"n": 8, "beta": 1e308}, {"n": 10**400, "alpha": 0.5},
                 {"n": 10**400, "beta": 1.0}):
        with pytest.raises(ConfigError, match=r"^n=\d+, (alpha|beta)=.*: m is beyond float range$"):
            ExperimentConfig(kind="epsilon", **size)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("m", 2.5), ("n", 8.5), ("trials", 2.0), ("workers", True)],
)
def test_config_field_of_wrong_type_raises_config_error(field, value):
    # The library checks types where --config does, before any value reaches numpy.
    with pytest.raises(ConfigError, match=f"^config key {field!r} must be "):
        ExperimentConfig(**{"kind": "row-norms", "n": 8, "m": 2, field: value})


@pytest.mark.parametrize("kind", sorted(harness.KINDS))
@pytest.mark.parametrize("coupling", harness.COUPLINGS)
def test_each_kind_takes_the_couplings_its_row_names(kind, coupling):
    # The battery, which runs no trials, takes only n = 1.
    config = dict(kind=kind, n=8 if harness.KINDS[kind].measure else 1, coupling=coupling)
    if harness.KINDS[kind].columns is None:
        config["m"] = 2
    if coupling in harness.KINDS[kind].couplings:
        assert ExperimentConfig(**config).coupling == coupling
    else:
        message = f"kind {kind!r} takes coupling 'plain-gs', got {coupling!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**config)


def test_kinds_that_read_only_the_plain_pair_take_only_the_default_coupling():
    # compare measures both couplings on each trial; borel's u_11 and
    # the battery, which couples nothing, read the plain pair alone.
    taking_one = {kind for kind, spec in harness.KINDS.items() if spec.couplings == ("plain-gs",)}
    assert taking_one == {"coupling-compare", "borel", "bounds-check"}
    assert all(set(spec.couplings) <= set(harness.COUPLINGS) for spec in harness.KINDS.values())


@pytest.mark.parametrize(
    "given, message",
    [
        (dict(n=8), "n must be 1, got 8"),
        (dict(m=3), "m must be 1, got 3"),
        (dict(alpha=1.0), "alpha must be None, got 1.0"),
        (dict(beta=0.5), "beta must be None, got 0.5"),
        (dict(trials=4), "trials must be 1, got 4"),
        (dict(workers=2), "workers must be 1, got 2"),
    ],
    ids=["n", "m", "alpha", "beta", "trials", "workers"],
)
def test_bounds_check_refuses_every_trial_input(given, message):
    # The battery draws at its own sizes, so it takes no n either.
    with pytest.raises(ConfigError, match=f"^kind 'bounds-check' runs no trials, so "
                                          f"{re.escape(message)}$"):
        ExperimentConfig(**{"kind": "bounds-check", "n": 1, **given})


def test_bounds_check_takes_its_defaults_written_out():
    # The config block of its JSON report names m, trials and workers of 1.
    spelled = ExperimentConfig(kind="bounds-check", n=1, m=1, trials=1, workers=1)
    assert spelled == ExperimentConfig(kind="bounds-check", n=1)
    assert config_from_json('{"kind": "bounds-check", "n": 1}').trials == 1


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

    def pool(max_workers, **kwargs):
        pools.append(max_workers)
        return ProcessPoolExecutor(max_workers, **kwargs)

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


def test_pool_workers_take_the_default_action_on_sigint():
    # An interrupt of the process group ends an idle worker at once; a
    # KeyboardInterrupt there would print a traceback.
    with harness._trial_map(2, 2) as trial_map:
        assert list(trial_map(signal.getsignal, [signal.SIGINT] * 2)) == [signal.SIG_DFL] * 2


# Each case is an environment OpenBLAS loaded under on ``cores`` cores and
# the thread count it runs there.  ``plan`` reads that count from the
# library (patched here); the variables, set again now, change nothing.
@pytest.mark.parametrize(
    "environ, cores, workers, trials, threads, processes",
    [
        ({}, 2, 2, 200, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"GOTO_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 2, 2, 200, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 2, 200, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1abc"}, 2, 2, 200, 1, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2, 200, 1, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 200, 2, 2),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 8, 200, 4, 2),
        # The workers, trials and cores caps.
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 200, 1, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 8, 5, 1, 5),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 8, 200, 1, 2),
        ({}, 1, 4, 200, 1, 1),
        # A BLAS that reports no thread count is counted as taking every core.
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 8, 200, None, 1),
    ],
)
def test_pool_budget(monkeypatch, environ, cores, workers, trials, threads, processes):
    # The pool budget is the process count of a run's plan; the note
    # comes exactly when it is below min(workers, trials).
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(harness, "blas_threads", lambda: threads)
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
    config = ExperimentConfig(kind="borel", n=16, trials=trials, workers=workers)
    planned, note = harness.plan([config])
    assert planned == processes
    assert (note is None) == (processes == min(workers, trials))


def test_pool_budget_reads_the_threads_the_library_runs(monkeypatch):
    # OpenBLAS reads its thread variables when it loads, so one set now
    # changes nothing it runs: a plan read off the environment would
    # fork two processes beside the library's live threads.
    live = coupling.blas_threads()
    if live is None or live < 2:
        pytest.skip("numpy's BLAS runs one thread or reports no count")
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    config = ExperimentConfig(kind="borel", n=16, trials=4, workers=2)
    assert harness.plan([config])[0] == max(1, 2 // live)


def test_one_blas_thread_at_load_leaves_room_for_a_pool():
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("from hgc.harness import ExperimentConfig, _usable_cores, blas_threads, plan; "
            "print(plan([ExperimentConfig(kind='borel', n=16, trials=2, workers=2)])[0], "
            "blas_threads(), _usable_cores())")
    processes, threads, cores = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    if threads == "None":
        pytest.skip("numpy's BLAS reports no thread count")
    assert (threads, int(processes)) == ("1", min(2, int(cores)))


@pytest.mark.parametrize("kind", ["gh-split", "row-norms"])
def test_householder_fallback_writes_the_same_csv(monkeypatch, kind):
    # Square blocks take the Householder path: in place through LAPACK,
    # or through np.linalg.qr where numpy exports no LAPACK to call.
    config = ExperimentConfig(kind=kind, n=150, alpha=1.0, trials=2, seed=5)
    direct = render_csv(run(config))
    monkeypatch.setattr(coupling, "_openblas", lambda: None)
    assert render_csv(run(config)) == direct


def test_a_capped_run_forks_nothing(monkeypatch):
    # Two OpenBLAS threads fill two cores, so workers=2 runs in this process.
    monkeypatch.setattr(harness, "blas_threads", lambda: 2)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a capped run forked a pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    config = ExperimentConfig(kind="gh-split", n=64, alpha=0.5, trials=4, seed=9)
    assert render_csv(run(replace(config, workers=2))) == render_csv(run(config))


def test_footprint_bound_counts_every_process(monkeypatch):
    # 8 MiB of physical memory; a 512 x 256 trial holds Y and U, 1 MiB
    # each, and R, 0.5 MiB.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2048, "SC_PAGE_SIZE": 4096}.get)
    harness._check_footprint(512, 256, 3)
    with pytest.raises(ConfigError, match=r"on 4 process\(es\) needs at least 10,485,760 "
                                          r"bytes .* the 8,388,608 bytes of physical"):
        harness._check_footprint(512, 256, 4)


@pytest.mark.parametrize("m", [256, 257])
def test_footprint_counts_y_u_and_r_on_either_path(monkeypatch, m):
    # 1 MiB of physical memory: n = 1024 takes CholeskyQR up to m = 256
    # and the Householder QR past it, and both hold Y, U and R.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
    with pytest.raises(ConfigError, match=rf"needs at least {8 * (2 * 1024 * m + m * m):,} "
                                          rf"bytes \(2 n m \+ m\^2 doubles per process\)"):
        harness._check_footprint(1024, m, 1)


@pytest.mark.parametrize(
    "kind, coupling, blocks",
    [
        ("epsilon", "plain-gs", 2),
        ("epsilon", "randomized", 4),
        ("coupling-compare", "plain-gs", 4),
        ("row-norms", "randomized", 2),
        ("gh-split", "randomized", 2),
    ],
)
def test_footprint_counts_the_rotated_blocks_of_a_rotating_trial(monkeypatch, kind, coupling,
                                                                  blocks):
    # A trial that rotates also holds Y V_m and U V_m: compare always,
    # epsilon under the randomized coupling.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
    config = ExperimentConfig(kind=kind, n=1024, m=64, coupling=coupling)
    with pytest.raises(ConfigError, match=rf"needs at least {8 * (blocks * 1024 * 64 + 64**2):,} "
                                          rf"bytes \({blocks} n m \+ m\^2 doubles"):
        run(config)


def test_footprint_is_not_checked_without_sysconf_names(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", unknown)
    harness._check_footprint(10**6, 10**6, 1)


@pytest.mark.parametrize(
    "kind, size, shape",
    [
        ("row-norms", dict(alpha=0.25), (64, 16)),
        ("gh-split", dict(m=5), (64, 5)),
        ("epsilon", dict(beta=1.0), (64, 15)),
        ("coupling-compare", dict(beta=1.0), (64, 15)),
        ("row-norms", dict(alpha=1.0), (64, 64)),
        ("borel", {}, (64, 1)),
        # Borel reads one column whatever m is.
        ("borel", dict(m=5), (64, 1)),
        ("borel", dict(alpha=1.0), (64, 1)),
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
        ("borel", "plain-gs", {}, 0),
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


@pytest.mark.parametrize("n", [4, 64, 512])
def test_borel_entry_is_the_coupled_u_11(n):
    # sqrt(n) y_11 / ||y_1|| is sqrt(n) u_11 of the column's coupling, to rounding.
    report = run(ExperimentConfig(kind="borel", n=n, trials=20, seed=2))
    for r in report.results:
        want = math.sqrt(n) * gram_schmidt_couple(sample_gaussian(n, 1, r.seed)).u[0, 0]
        assert r.rows[0]["mean_F"] == pytest.approx(want, rel=1e-15, abs=0)


def test_borel_footprint_counts_one_column(monkeypatch):
    # 4 MiB of physical memory: the three 1000 x 1000 blocks of Y, U and R
    # do not fit, one column does.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}.get)
    report = run(ExperimentConfig(kind="borel", n=1000, alpha=1.0, trials=2, seed=1))
    assert len(report.results) == 2
    with pytest.raises(ConfigError, match=r"^n=1000, m=1000 on 1 process"):
        run(ExperimentConfig(kind="row-norms", n=1000, alpha=1.0, trials=2, seed=1))


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
    0: (0.16052, 0.83948, 0.00044, 0.00129, 0.0114, 0.0365, 0.0, 0.0001, 0.0),
    7: (0.15861, 0.84139, 0.00058, 0.0013, 0.0153, 0.0312, 0.0, 0.0, 0.0),
    100: (0.15893, 0.84107, 0.00043, 0.00109, 0.0142, 0.0323, 0.0, 0.0003, 0.0),
}


def test_bounds_battery_dominates():
    for seed, frequencies in _BATTERY_FREQUENCIES.items():
        report = run(ExperimentConfig(kind="bounds-check", n=1, seed=seed))
        rows = [r.rows[0] for r in report.results]
        checks = report.aggregate["checks"]
        assert [check["label"] for check in checks] == [
            "gauss-tail-upper",
            "gauss-tail-complement",
            "chi-upper",
            "chi-lower",
            "proj-gauss-upper",
            "proj-gauss-lower",
            "proj-unit-upper",
            "proj-unit-lower",
            "proj-unit-t",
        ]
        # Each row's seed names its substream group: the Gaussian tail,
        # chi, then the projections.
        assert [str(r.seed) for r in report.results] == (
            [f"{seed}:0"] * 2 + [f"{seed}:1"] * 2 + [f"{seed}:2"] * 5)
        assert report.aggregate["all_dominated"]
        for row, check in zip(rows, checks):
            assert set(row) <= set(CSV_HEADER.split(","))
            assert 0.0 <= row["sup_F"] <= row["predicted"]
            assert row["ratio_sup"] == pytest.approx(row["sup_F"] / row["predicted"])
            assert (check["frequency"], check["bound"], check["ratio"]) == (
                row["sup_F"], row["predicted"], row["ratio_sup"])
        assert tuple(row["sup_F"] for row in rows) == frequencies, f"seed {seed}"


def _ks_two_sample(a, b):
    """The two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate((a, b))
    return float(np.abs(np.searchsorted(a, grid, side="right") / a.size
                        - np.searchsorted(b, grid, side="right") / b.size).max())


def test_projection_norms_match_qr_loop():
    # The battery draws ||Q^T x||^2 ~ chi2(k) and ||Q^T e_1||^2 ~
    # Beta(k/2, (amb-k)/2) from their laws; an explicit QR of Gaussian
    # blocks must agree with those draws in law.  At size draws a side,
    # the two-sample KS distance exceeds c sqrt(2 / size) with
    # c = sqrt(-ln(alpha / 2) / 2) with probability at most alpha = 0.001.
    amb, k, size = 256, 64, 2_000
    gen = Seed(5, (9,)).generator()
    qr_gauss, qr_unit = np.empty(size), np.empty(size)
    for i in range(size):
        q = np.linalg.qr(gen.standard_normal((amb, k)))[0]
        qr_gauss[i] = np.sum((q.T @ gen.standard_normal(amb)) ** 2)
        qr_unit[i] = np.sum(q[0, :] ** 2)
    law = Seed(5, (2,)).generator()
    law_gauss = law.chisquare(k, size)
    law_unit = law.beta(k / 2, (amb - k) / 2, size)

    critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / size)
    assert _ks_two_sample(qr_gauss, law_gauss) < critical
    assert _ks_two_sample(qr_unit, law_unit) < critical


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
    # Refused before ``plan``, which needs at least one config.
    with pytest.raises(ConfigError, match="^empty sweep grid$"):
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


# --- sweep rows -------------------------------------------------------------------


@pytest.mark.parametrize(
    "size",
    [
        dict(kind="row-norms", alpha=0.5),
        dict(kind="epsilon", beta=1.0, coupling="randomized"),
        dict(kind="coupling-compare", beta=1.0),
        dict(kind="borel"),
    ],
    ids=lambda size: size["kind"],
)
def test_sweep_rows_agree_with_their_cells(size):
    table = sweep([ExperimentConfig(n=n, trials=3, seed=5, **size) for n in (16, 32)])
    rows = json.loads(render_json(table))["rows"]
    assert len(rows) == len(table.cells)
    for row, cell in zip(rows, table.cells):
        agg = cell["aggregate"]
        report = run(cell["config"])
        assert report.aggregate == agg
        for name in harness._SUMMARIZED:
            assert row[name] == (agg[name]["q50"] if name in agg else None), name
        report_rows = json.loads(render_json(report))["rows"]
        for name in ("kind", "n", "m", "alpha", "ks"):
            assert {r[name] for r in report_rows} == {row[name]}, name
        # A compare trial's second row names the randomized coupling it measured.
        assert report_rows[0]["coupling"] == row["coupling"] == cell["config"].coupling
        env = agg.get("theory", {})
        for name in ("predicted", "eps_lower", "eps_upper"):
            assert row[name] == env.get(name), name
        assert row["beta"] == agg.get("beta") and "error" not in row


def test_failed_sweep_cell_row_names_its_error(monkeypatch):
    make_singular(monkeypatch, lambda n, seed: n == 16)
    table = sweep([ExperimentConfig(kind="epsilon", n=n, beta=1.0, trials=2, seed=4)
                   for n in (16, 32)])
    failed, ok = json.loads(render_json(table))["rows"]
    assert list(failed)[-1] == "error"
    assert failed["error"] == table.cells[0]["error"]
    assert failed["error"].startswith("NumericalError: trial 0: ")
    assert (failed["m"], failed["alpha"], failed["beta"], failed["eps"]) == (None,) * 4
    assert (failed["kind"], failed["n"], failed["seed"]) == ("epsilon", 16, "4")
    assert "error" not in ok and ok["beta"] == 1.0 and ok["eps"] is not None


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


# Any JSON value, and beside it for each key the values a config may take.
# Strings come from a small alphabet, which needs no Unicode tables.
_TEXT = st.text("ab-/.\u00e9", max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_PLAUSIBLE = {
    "kind": st.sampled_from(sorted(harness.KINDS)),
    "n": st.integers(1, 64) | st.integers(-1, 10**400),
    "m": st.integers(1, 64) | st.integers(-1, 10**400) | st.none(),
    "alpha": st.floats(0.0, 1.0) | st.floats() | st.none(),
    "beta": st.floats(0.0, 4.0) | st.floats() | st.none(),
    "trials": st.integers(-1, 10**6),
    "seed": st.integers(-1, 2**65),
    "coupling": st.sampled_from(harness.COUPLINGS),
    "out": _TEXT | st.none(),
    "format": st.sampled_from(sorted(harness.FORMATS)),
    "workers": st.integers(-1, 8),
}


def _usually(values):
    # Seven times in eight a value of the key's type, else any JSON value.
    return st.integers(0, 7).flatmap(lambda pick: _JSON if pick == 7 else values)


@settings(max_examples=300)
@given(st.fixed_dictionaries(
    {key: _usually(_PLAUSIBLE[key]) for key in ("kind", "n")},
    optional={key: _usually(values) for key, values in _PLAUSIBLE.items()
              if key not in ("kind", "n")}))
@example({"kind": "bounds-check", "n": 8, "m": 3, "coupling": "randomized", "trials": 7,
          "workers": 9})
@example({"kind": "bounds-check", "n": 1, "trials": 4})
@example({"kind": "bounds-check", "n": 1, "m": 1, "trials": 1, "workers": 1})
@example({"kind": "borel", "n": 64, "coupling": "randomized"})
@example({"kind": "coupling-compare", "n": 64, "beta": 1.0, "coupling": "randomized"})
def test_json_config_is_refused_or_runs_again_from_its_report(doc):
    try:
        config = config_from_json(json.dumps(doc))
    except ConfigError:
        event("refused")
        return
    event("accepted")
    report = harness.Report(config=config, results=[], aggregate={})
    assert config_from_json(json.loads(render_json(report))["config"]) == config


def test_config_from_json_defaults_and_errors():
    assert config_from_json('{"kind": "borel", "n": 512}').trials == 200
    assert config_from_json('{"kind": "row-norms", "n": 64, "m": 4}').trials == 5
    with pytest.raises(ConfigError):
        config_from_json('{"kind": "row-norms"}')
    with pytest.raises(ConfigError):
        config_from_json('{"kind": "row-norms", "n": 64, "m": 4, "bogus": 1}')
    with pytest.raises(ConfigError):
        config_from_json("not json")
    with pytest.raises(ConfigError, match="^JSON config must be an object$"):
        config_from_json("[1]")
    with pytest.raises(ConfigError):
        config_from_json('{"kind": "row-norms", "n": 64, "m": 4, "alpha": 0.5}')

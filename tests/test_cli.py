import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

import hgc.cli as cli
import hgc.coupling as coupling
import hgc.harness as harness
from hgc import NumericalError, Seed, sample_gaussian
from hgc.cli import build_parser, main
from hgc.criteria import CRITERIA

DATA = Path(__file__).parent / "data"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_rownorms_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    code, stdout, _ = invoke(
        ["rownorms", "--n", "64", "--alpha", "0.5", "--trials", "3",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    assert "row-norms: n=64" in stdout
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 data rows
    assert lines[0].startswith("kind,n,m,alpha,beta,trial,seed,coupling")


@pytest.mark.parametrize(
    "command, kind, trials",
    [
        ("rownorms", "row-norms", 5),
        ("gh", "gh-split", 5),
        ("epsilon", "epsilon", 5),
        ("compare", "coupling-compare", 5),
        ("borel", "borel", 200),
    ],
)
def test_each_command_runs_its_kind_with_its_default_trials(tmp_path, command, kind, trials):
    out = tmp_path / "out.json"
    code, stdout, _ = invoke([command, "--n", "8", "--m", "2", "--format", "json",
                              "--out", str(out)])
    assert code == 0
    assert stdout.startswith(f"{kind}: n=8 ")
    config = json.loads(out.read_text())["config"]
    assert (config["kind"], config["trials"]) == (kind, trials)


def test_two_size_flags_exit_1():
    code, _, err = invoke(
        ["epsilon", "--n", "1024", "--beta", "1", "--m", "100", "--trials", "1"]
    )
    assert code == 1
    assert "exactly one of" in err


def test_missing_size_exit_1():
    code, _, _ = invoke(["rownorms", "--n", "64"])
    assert code == 1


def test_bounds_t_prints_gaussian_tail():
    code, stdout, _ = invoke(["bounds", "--t", "1"])
    assert code == 0
    assert "0.120985" in stdout
    assert "0.241971" in stdout


def test_bounds_various_calculators():
    code, stdout, _ = invoke(
        ["bounds", "--n", "400", "--eps", "0.2", "--beta", "1.0"]
    )
    assert code == 0
    assert "0.018316" in stdout
    assert "1.414214" in stdout
    code, stdout, _ = invoke(["bounds", "--k", "100", "--n", "200", "--rho", "0.2"])
    assert code == 0
    # One value bounds the Gaussian and the unit vector's deviations alike.
    assert stdout.count("0.367879") == 1
    code, stdout, _ = invoke(["bounds", "--n", "4096", "--m", "492"])
    assert code == 0
    assert "1.009984" in stdout


def test_bounds_beta_window_is_finite_at_float_range():
    # 2 beta overflows at beta = 1e308; sqrt(2) sqrt(beta) does not
    code, stdout, _ = invoke(["bounds", "--beta", "1e308"])
    assert code == 0
    assert stdout.startswith("beta=1e+308: eps_n(m) window (")
    assert "inf" not in stdout


def test_bounds_check_passes_when_every_bound_dominates():
    code, stdout, _ = invoke(["bounds", "--check"])
    assert code == 0
    assert "9 tail bounds vs Monte Carlo: all dominated" in stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--n", "100", "--m", "10", "--slack", "1"],
         "slack must lie in [0, 1), got 1.0"),
        (["bounds", "--n", "100", "--m", "10", "--slack", "2"],
         "slack must lie in [0, 1), got 2.0"),
        (["bounds", "--t", "1e-320"],
         "t must be >= 2.22e-309 for a finite upper bound, got 1e-320"),
        (["bounds", "--k", "3", "--n", "5"], "--k needs --n and --rho"),
        (["sweep", "--n", ","], "empty --n list"),
        (["sweep", "--n", "8,x", "--alpha", "1"],
         "bad --n list '8,x': invalid literal for int() with base 10: 'x'"),
        (["compare", "--n", "64", "--beta", "1", "--coupling", "randomized"],
         "kind 'coupling-compare' takes coupling 'plain-gs', got 'randomized'"),
        (["sweep", "--kind", "coupling-compare", "--n", "64,128", "--beta", "1",
          "--coupling", "randomized"],
         "n=64: kind 'coupling-compare' takes coupling 'plain-gs', got 'randomized'"),
        (["borel", "--n", "64", "--coupling", "randomized"],
         "kind 'borel' takes coupling 'plain-gs', got 'randomized'"),
        (["sweep", "--kind", "borel", "--n", "16,32", "--coupling", "randomized"],
         "n=16: kind 'borel' takes coupling 'plain-gs', got 'randomized'"),
    ],
    ids=["bounds-slack-1", "bounds-slack-2", "bounds-tiny-t", "bounds-k-without-rho",
         "sweep-empty-n", "sweep-bad-n", "compare-randomized", "sweep-compare-randomized",
         "borel-randomized", "sweep-borel-randomized"],
)
def test_bad_argument_exits_1(monkeypatch, argv, message):
    monkeypatch.setattr(harness, "sample_gaussian", _no_draw)
    code, stdout, err = invoke(argv)
    assert (code, stdout) == (1, "")
    assert err == f"error: {message}\n"


def _no_draw(*args):
    raise AssertionError("a refused run drew its sample")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "bounds-check", "n": 8, "m": 3, "coupling": "randomized", "trials": 7,
          "workers": 9},
         "kind 'bounds-check' takes coupling 'plain-gs', got 'randomized'"),
        ({"kind": "bounds-check", "n": 1, "trials": 4},
         "kind 'bounds-check' runs no trials, so trials must be 1, got 4"),
        ({"kind": "bounds-check", "n": 8},
         "kind 'bounds-check' runs no trials, so n must be 1, got 8"),
    ],
    ids=["every-trial-input", "trials", "n"],
)
def test_bounds_check_config_with_trial_inputs_exits_1(monkeypatch, tmp_path, doc, message):
    def no_battery(config):
        raise AssertionError("a refused battery ran")

    monkeypatch.setattr(harness, "_bounds_battery", no_battery)
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps(doc))
    assert invoke(["--config", str(cfg)]) == (1, "", f"error: {message}\n")


def test_bounds_check_report_runs_again_as_a_config(tmp_path):
    out = tmp_path / "b.json"
    assert invoke(["bounds", "--check", "--seed", "7", "--format", "json",
                   "--out", str(out)])[0] == 0
    cfg = tmp_path / "again.json"
    cfg.write_text(json.dumps(json.loads(out.read_text())["config"]))
    code, stdout, err = invoke(["--config", str(cfg)])
    assert (code, err) == (0, "")
    # The summary names the config's one trial; the battery runs 9 checks.
    assert stdout.startswith("bounds-check: n=1 trials=1 seed=7 | 9 tail bounds")
    assert json.loads(out.read_text())["aggregate"]["trials"] == 1


def test_bounds_without_args_exit_1():
    code, _, err = invoke(["bounds"])
    assert code == 1
    assert "nothing to print" in err


def test_couple_diagnostics():
    code, stdout, _ = invoke(["couple", "--n", "48", "--seed", "3"])
    assert code == 0
    assert "orthogonality" in stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0"], "error: n must be >= 1, got 0"),
        (["--n", "4", "--seed", "-1"],
         "error: seed must be a 64-bit unsigned integer, got -1"),
    ],
)
def test_couple_bad_input_exits_1(argv, message):
    code, _, err = invoke(["couple", *argv])
    assert code == 1
    assert err == message + "\n"


def test_epsilon_summary_mentions_envelope(tmp_path):
    out = tmp_path / "eps.json"
    code, stdout, _ = invoke(
        ["epsilon", "--n", "128", "--beta", "1", "--trials", "2", "--seed", "1",
         "--coupling", "randomized", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    assert "envelope" in stdout
    doc = json.loads(out.read_text())
    assert doc["config"]["coupling"] == "randomized"
    assert len(doc["rows"]) == 2


def test_gh_summary_reports_the_split():
    code, stdout, _ = invoke(["gh", "--n", "64", "--alpha", "0.5", "--trials", "2", "--seed", "1"])
    assert code == 0
    assert len(stdout.splitlines()) == 1
    assert "; split q50: |G|^2/m=" in stdout
    assert "(alpha/2=0.25000), |H|^2/m=" in stdout


def test_compare_summary_reports_wins():
    code, stdout, _ = invoke(
        ["compare", "--n", "64", "--beta", "1", "--trials", "2", "--seed", "2"]
    )
    assert code == 0
    assert "improved in" in stdout


def test_sweep_runs_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = invoke(
        ["sweep", "--kind", "row-norms", "--n", "32,64", "--alpha", "1.0",
         "--trials", "2", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert "2/2 cells ok" in stdout
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_sweep_cell_runs_again_without_overwriting_the_table(tmp_path):
    table = tmp_path / "s.json"
    code, _, _ = invoke(
        ["sweep", "--kind", "row-norms", "--n", "8,16", "--m", "2", "--trials", "1",
         "--out", str(table), "--format", "json"]
    )
    assert code == 0
    before = table.read_bytes()
    cell = tmp_path / "cell.json"
    cell.write_text(json.dumps(json.loads(before)["cells"][0]["config"]))
    code, stdout, _ = invoke(["--config", str(cell)])
    assert code == 0
    assert "row-norms: n=8" in stdout
    assert table.read_bytes() == before


def test_sweep_prints_its_failed_cell(monkeypatch):
    def sample(rows, cols, seed):
        y = sample_gaussian(rows, cols, seed)
        if rows == 8:
            y[:, 1] = y[:, 0]  # column 2 repeats column 1
        return y

    monkeypatch.setattr(harness, "sample_gaussian", sample)
    code, stdout, _ = invoke(["sweep", "--n", "8,16", "--m", "2", "--trials", "1"])
    assert code == 0
    head, failed = stdout.splitlines()
    assert head == "sweep: 1/2 cells ok over n=[8, 16] (kind=row-norms)."
    assert failed.startswith("  n=8: NumericalError: trial 0: ")


def test_sweep_with_an_invalid_cell_runs_no_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, err = invoke(
        ["sweep", "--kind", "epsilon", "--n", "1,32,64", "--beta", "1", "--trials", "2",
         "--out", str(out)]
    )
    assert code == 1
    assert err == "error: n=1: beta sizing needs n >= 2\n"
    assert stdout == ""
    assert not out.exists()


def test_sweep_with_a_cell_too_big_for_memory_draws_nothing(monkeypatch, tmp_path):
    drawn = []
    monkeypatch.setattr(harness, "sample_gaussian", lambda *args: drawn.append(args))
    out = tmp_path / "sweep.csv"
    code, stdout, err = invoke(["sweep", "--n", "256,2000000", "--alpha", "1", "--workers", "1",
                                "--out", str(out)])
    assert (code, stdout, drawn) == (1, "", [])
    assert err.startswith("error: n=2000000, m=2000000 on 1 process(es) needs at least ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_config_file_runs(tmp_path):
    cfg = tmp_path / "run.json"
    out = tmp_path / "out.csv"
    cfg.write_text(
        json.dumps(
            {
                "kind": "row-norms",
                "n": 32,
                "alpha": 1.0,
                "trials": 2,
                "seed": 9,
                "out": str(out),
                "format": "csv",
            }
        )
    )
    code, stdout, _ = invoke(["--config", str(cfg)])
    assert code == 0
    assert out.exists()
    # --config and a subcommand together is ambiguous
    code, _, err = invoke(["--config", str(cfg), "rownorms", "--n", "8", "--m", "2"])
    assert code == 1


@pytest.mark.parametrize(
    "doc,key",
    [
        ('{"kind": "row-norms", "n": 16, "m": 2.5}', "m"),
        ('{"kind": "row-norms", "n": 16, "m": 2, "trials": 2.0}', "trials"),
        ('{"kind": "row-norms", "n": 16, "m": 2, "seed": 1.5}', "seed"),
        ('{"kind": "row-norms", "n": true, "m": 2}', "n"),
        ('{"kind": "row-norms", "n": "abc", "m": 2}', "n"),
        ('{"kind": "row-norms", "n": 16, "alpha": true}', "alpha"),
        ('{"kind": 3, "n": 16, "m": 2}', "kind"),
        ('{"kind": [1], "n": 16, "m": 2}', "kind"),
        ('{"kind": "row-norms", "n": 16, "m": 2, "out": 5}', "out"),
    ],
)
def test_config_value_of_wrong_type_exits_1(tmp_path, doc, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(doc)
    code, _, err = invoke(["--config", str(cfg)])
    assert code == 1
    assert err.startswith(f"error: config key {key!r} must be ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rownorms", "--n", "8", "--beta", "nan"], "beta must be positive and finite"),
        (["rownorms", "--n", "8", "--beta", "inf"], "beta must be positive and finite"),
        (["--config", '{"kind": "epsilon", "n": 64, "beta": NaN}'],
         "beta must be positive and finite"),
        (["bounds", "--n", "4", "--m", "2", "--slack", "nan"], "slack must lie in [0, 1)"),
        (["bounds", "--n", "4", "--m", "2", "--slack", "inf"], "slack must lie in [0, 1)"),
        (["bounds", "--t", "inf"], "t must be positive and finite"),
        (["bounds", "--beta", "inf"], "beta must be positive and finite"),
    ],
)
def test_non_finite_argument_exits_1(tmp_path, argv, message):
    if argv[0] == "--config":
        cfg = tmp_path / "nan.json"
        cfg.write_text(argv[1])
        argv = ["--config", str(cfg)]
    code, stdout, err = invoke(argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {message}, got ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


HUGE_N = str(10**400)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["epsilon", "--n", "8", "--beta", "1e308"], "n=8, beta=1e+308: m is beyond float range"),
        (["rownorms", "--n", HUGE_N, "--alpha", "0.5"],
         f"n={HUGE_N}, alpha=0.5: m is beyond float range"),
        (["sweep", "--n", "8,16", "--beta", "1e308"],
         "n=8: n=8, beta=1e+308: m is beyond float range"),
        (["bounds", "--n", HUGE_N, "--eps", "0.5"], "n must lie in [1, 1.79769e+308], got "),
        (["bounds", "--n", HUGE_N, "--m", HUGE_N], "n must lie in [1, 1.79769e+308], got "),
    ],
    ids=["epsilon-beta", "rownorms-n", "sweep-beta", "bounds-eps", "bounds-envelope"],
)
def test_size_beyond_float_range_exits_1(argv, message):
    code, stdout, err = invoke(argv)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


def test_config_file_not_in_utf8_exits_1(tmp_path):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe{")
    code, stdout, err = invoke(["--config", str(cfg)])
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: invalid JSON config: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


def test_io_error_exit_3(tmp_path):
    code, _, err = invoke(
        ["rownorms", "--n", "16", "--alpha", "1.0", "--trials", "1",
         "--out", "/nonexistent-dir/deep/r.csv"]
    )
    assert code == 3
    assert "i/o error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gh", "--n", "64", "--alpha", "1", "--trials", "2"],
        ["sweep", "--n", "16,32", "--alpha", "1", "--trials", "2"],
        ["bounds", "--check"],
        ["--config", {"kind": "epsilon", "n": 64, "beta": 1.0}],
    ],
    ids=["gh", "sweep", "bounds-check", "config"],
)
def test_unwritable_out_exits_3_before_the_first_draw(monkeypatch, tmp_path, argv):
    monkeypatch.setattr(harness, "sample_gaussian", _no_draw)
    monkeypatch.setattr(harness, "_bounds_battery", _no_draw)
    out = tmp_path / "missing" / "x.csv"
    if argv[0] == "--config":
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**argv[1], "out": str(out)}))
        argv = ["--config", str(cfg)]
    else:
        argv = [*argv, "--out", str(out)]
    code, stdout, err = invoke(argv)
    assert (code, stdout) == (3, "")
    assert err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
    assert not (tmp_path / "missing").exists()


def test_out_that_is_a_directory_exits_3_before_the_first_draw(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "sample_gaussian", _no_draw)
    code, stdout, err = invoke(["rownorms", "--n", "16", "--m", "2", "--out", str(tmp_path)])
    assert (code, stdout) == (3, "")
    assert err == f"i/o error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_checking_out_creates_and_truncates_nothing(tmp_path):
    # A run refused after the check leaves an existing file as it was and
    # makes no new one.
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("keep\n")
    for out in (kept, new):
        code, _, err = invoke(["rownorms", "--n", "1000000", "--alpha", "1", "--workers", "1",
                               "--out", str(out)])
        assert code == 1 and err.startswith("error: n=1000000, m=1000000 ")
    assert kept.read_text() == "keep\n"
    assert not new.exists()


def _two_checks(config):
    # One bound dominated, one violated.
    checks = (("held", 0.05), ("broken", 0.2))
    results = [
        harness.TrialResult(trial=i, seed=Seed(config.seed, (i,)), rows=(
            {"n": 1, "m": None, "coupling": None,
             "sup_F": freq, "predicted": 0.1, "ratio_sup": freq / 0.1},
        ))
        for i, (_, freq) in enumerate(checks)
    ]
    aggregate = {
        "kind": config.kind, "n": config.n, "trials": 2, "seed": config.seed,
        "checks": [{"label": label, "frequency": freq, "bound": 0.1, "ratio": freq / 0.1}
                   for label, freq in checks],
        "all_dominated": False,
    }
    return harness.Report(config=config, results=results, aggregate=aggregate)


def test_bounds_check_violation_exits_2(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "_bounds_battery", _two_checks)
    out = tmp_path / "bounds.json"
    code, stdout, _ = invoke(["bounds", "--check", "--out", str(out), "--format", "json"])
    assert code == 2
    assert len(stdout.splitlines()) == 1
    assert "2 tail bounds vs Monte Carlo: VIOLATED" in stdout
    doc = json.loads(out.read_text())
    assert doc["config"]["kind"] == "bounds-check"
    assert [row["trial"] for row in doc["rows"]] == [0, 1]
    assert doc["aggregate"]["all_dominated"] is False


def test_bounds_check_names_no_coupling(monkeypatch, tmp_path):
    # The battery couples nothing; the config block still round-trips.
    monkeypatch.setattr(harness, "_bounds_battery", _two_checks)
    out = tmp_path / "bounds.json"
    _, stdout, _ = invoke(["bounds", "--check", "--out", str(out), "--format", "json"])
    assert stdout.startswith("bounds-check: n=1 trials=2 seed=0 | ")
    assert "coupling" not in stdout
    doc = json.loads(out.read_text())
    assert "coupling" not in doc["aggregate"]
    assert [row["coupling"] for row in doc["rows"]] == [None, None]


def test_numerical_error_exit_2(monkeypatch):
    def boom(config):
        raise NumericalError(0, ArithmeticError("singular"))

    monkeypatch.setattr(cli, "run", boom)
    code, _, err = invoke(["rownorms", "--n", "16", "--alpha", "1.0"])
    assert code == 2
    assert "numerical failure" in err


def test_memory_error_exit_3(monkeypatch):
    def boom(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "run", boom)
    code, _, err = invoke(["rownorms", "--n", "16", "--alpha", "1.0"])
    assert code == 3
    assert err == "error: out of memory\n"


_REAL_TRIAL_TASK = harness._trial_task
_CRASHING_TRIAL = 2


def _crash_on_one_trial(config, t):
    # Runs in a forked pool worker, which inherits the patched module.
    # The pause lets the other worker finish the earlier trials first, so
    # the crashed trial is the first one whose result is lost.
    if t == _CRASHING_TRIAL:
        time.sleep(0.5)
        os._exit(1)
    return _REAL_TRIAL_TASK(config, t)


def test_crashed_worker_exits_2_naming_the_trial(monkeypatch, capfd, two_pool_processes):
    monkeypatch.setattr(harness, "_trial_task", _crash_on_one_trial)
    code, _, err = invoke(
        ["rownorms", "--n", "8", "--m", "2", "--trials", "4", "--workers", "2"]
    )
    assert code == 2
    assert err.startswith(f"numerical failure: trial {_CRASHING_TRIAL}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err + capfd.readouterr().err


def _capped_note(monkeypatch, tmp_path):
    """The stderr of borel on --workers 2 and two cores, which must fork
    nothing and write the --workers 1 CSV."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a capped run forked a pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    argv = ["borel", "--n", "16", "--trials", "12", "--seed", "3", "--out"]
    serial = invoke([*argv, str(tmp_path / "w1.csv"), "--workers", "1"])
    capped = invoke([*argv, str(tmp_path / "w2.csv"), "--workers", "2"])
    assert serial[:2] == capped[:2] == (0, serial[1])
    assert serial[2] == ""
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    return capped[2]


def test_capped_workers_write_the_serial_csv_and_one_note(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "blas_threads", lambda: 2)
    assert _capped_note(monkeypatch, tmp_path) == (
        "hgc: --workers 2 runs as 1 process: OpenBLAS uses 2 threads on 2 cores; "
        "set OPENBLAS_NUM_THREADS=1 to run trials in parallel\n"
    )


def test_a_blas_without_a_thread_count_runs_serially(monkeypatch, tmp_path):
    # numpy before 2.0, a system BLAS or MKL: the handle does not resolve.
    monkeypatch.setattr(coupling, "_openblas", lambda: None)
    assert _capped_note(monkeypatch, tmp_path) == (
        "hgc: --workers 2 runs as 1 process: numpy's BLAS reports no thread count, "
        "so every core counts as taken\n"
    )


def test_bounds_check_config_notes_no_pool(monkeypatch, tmp_path):
    # The battery never forks, so its config takes no --workers or trials
    # and is refused with the error alone, before any note on the pool.
    monkeypatch.setattr(harness, "blas_threads", lambda: 2)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    cfg = tmp_path / "b.json"
    cfg.write_text('{"kind": "bounds-check", "n": 1, "workers": 2, "trials": 4}')
    code, stdout, err = invoke(["--config", str(cfg)])
    assert (code, stdout) == (1, "")
    assert err == "error: kind 'bounds-check' runs no trials, so trials must be 1, got 4\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rownorms", "--n", "1024", "--alpha", "1", "--workers", "2", "--trials", "2"],
        ["sweep", "--n", "16,1024", "--alpha", "1", "--workers", "2", "--trials", "2"],
    ],
    ids=["run", "sweep-second-cell"],
)
def test_a_refused_capped_run_prints_only_its_error(monkeypatch, argv):
    # Two OpenBLAS threads on two cores cap --workers 2 at one process,
    # which would print a note; 1 MiB of memory holds the n = 16 cell
    # and not the n = 1024 one.  The refusal comes first and alone.
    monkeypatch.setattr(harness, "blas_threads", lambda: 2)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
    monkeypatch.setattr(harness, "sample_gaussian", _no_draw)
    code, stdout, err = invoke(argv)
    assert (code, stdout) == (1, "")
    assert err == ("error: n=1024, m=1024 on 1 process(es) needs at least 25,165,824 bytes "
                   "(2 n m + m^2 doubles per process), more than the 1,048,576 bytes of "
                   "physical memory\n")


def test_workers_beyond_the_cores_note_the_core_cap(monkeypatch, two_pool_processes):
    code, _, err = invoke(["borel", "--n", "16", "--trials", "12", "--workers", "4"])
    assert code == 0
    assert err == "hgc: --workers 4 runs as 2 processes: OpenBLAS uses 1 thread on 2 cores\n"
    # One core is counted in the singular.
    monkeypatch.setattr(harness, "_usable_cores", lambda: 1)
    assert invoke(["borel", "--n", "16", "--trials", "12", "--workers", "2"])[2] == (
        "hgc: --workers 2 runs as 1 process: OpenBLAS uses 1 thread on 1 core\n")


def test_json_reports_under_any_workers_differ_only_in_the_flags(tmp_path, two_pool_processes):
    # The rows and the aggregate do not depend on --workers, but the
    # config block echoes the run's flags: its "out" and "workers" lines.
    paths = [tmp_path / "w1.json", tmp_path / "w2.json"]
    runs = [invoke(["rownorms", "--n", "64", "--alpha", "0.5", "--trials", "2", "--format",
                    "json", "--workers", workers, "--out", str(path)])
            for workers, path in zip(("1", "2"), paths)]
    assert runs[0] == runs[1] == (0, runs[0][1], "")
    serial, pooled = (path.read_text().splitlines() for path in paths)
    assert len(serial) == len(pooled)
    differ = [(a, b) for a, b in zip(serial, pooled) if a != b]
    assert differ == [tuple(f'    "out": "{path}",' for path in paths),
                      ('    "workers": 1', '    "workers": 2')]


def test_oversized_run_is_refused_before_it_draws(monkeypatch, capfd):
    def no_draw(*args):
        raise AssertionError("an oversized run drew its sample")

    monkeypatch.setattr(harness, "sample_gaussian", no_draw)
    code, out, err = invoke(["rownorms", "--n", "1000000", "--alpha", "1", "--workers", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: n=1000000, m=1000000 on 1 process(es) needs at least "
                          "24,000,000,000,000 bytes (2 n m + m^2 doubles per process)")
    assert "bytes of physical memory" in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err + capfd.readouterr().err


def test_oversized_tall_run_is_refused_by_its_two_blocks(monkeypatch, capfd):
    # 4 m <= n: the CholeskyQR path holds the block's Y and U and the m x m R.
    def no_draw(*args):
        raise AssertionError("an oversized run drew its sample")

    monkeypatch.setattr(harness, "sample_gaussian", no_draw)
    code, out, err = invoke(["rownorms", "--n", "10000000", "--m", "100000"])
    assert (code, out) == (1, "")
    assert err.startswith("error: n=10000000, m=100000 on 1 process(es) needs at least "
                          "16,080,000,000,000 bytes (2 n m + m^2 doubles per process)")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err + capfd.readouterr().err


def test_oversized_couple_is_refused_before_it_draws(monkeypatch, capfd):
    def no_draw(*args):
        raise AssertionError("an oversized couple drew its sample")

    monkeypatch.setattr(cli, "sample_gaussian", no_draw)
    code, out, err = invoke(["couple", "--n", "1000000"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: n=1000000, m=1000000 on 1 process(es) needs at least "
                          "32,000,000,000,000 bytes (3 n m + m^2 doubles per process)")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err + capfd.readouterr().err


def test_couple_that_fits_three_blocks_but_not_five_is_refused(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a refused couple drew its sample")

    # 4 MiB of physical memory; an n = 400 square is 1.28 MB, so three
    # of them fit, and neither the four that couple holds (Y, U, R and a
    # diagnostic) nor five do.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}.get)
    monkeypatch.setattr(cli, "sample_gaussian", no_draw)
    code, out, err = invoke(["couple", "--n", "400"])
    assert (code, out) == (1, "")
    assert err == ("error: n=400, m=400 on 1 process(es) needs at least 5,120,000 bytes "
                   "(3 n m + m^2 doubles per process), more than the 4,194,304 bytes of "
                   "physical memory\n")


def test_couple_that_fits_four_blocks_runs(monkeypatch):
    # 5 MiB of physical memory holds the four n = 400 squares of couple.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1280, "SC_PAGE_SIZE": 4096}.get)
    code, out, err = invoke(["couple", "--n", "400"])
    assert (code, err) == (0, "")
    assert out.startswith("couple: n=400 seed=0 | ")


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("HGC_WORKERS", "3")
    parser = build_parser()
    ns = parser.parse_args(["rownorms", "--n", "8", "--m", "2"])
    assert ns.workers == 3


def test_malformed_workers_env_exits_1(monkeypatch):
    monkeypatch.setenv("HGC_WORKERS", "abc")
    code, _, err = invoke(["rownorms", "--n", "8", "--m", "2"])
    assert code == 1
    assert "invalid int value: 'abc'" in err
    assert "Traceback" not in err
    code, _, _ = invoke(["bounds", "--t", "1"])
    assert code == 0


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parts = []

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        return buf.getvalue()

    parts.append(capture(["--help"]))
    for cmd in ("couple", "rownorms", "gh", "epsilon", "compare", "sweep",
                "borel", "bounds", "selftest"):
        parts.append(f"$ hgc {cmd} --help\n" + capture([cmd, "--help"]))
    assert "\n".join(parts) == (DATA / "help.txt").read_text()


def test_help_lists_every_flag():
    _, text, _ = invoke(["rownorms", "--help"])
    for flag in ("--n", "--m", "--alpha", "--beta", "--trials", "--seed",
                 "--coupling", "--out", "--format", "--workers"):
        assert flag in text


def test_help_exits_zero():
    code, _, _ = invoke(["--help"])
    assert code == 0


def test_no_command_exits_one():
    code, _, _ = invoke([])
    assert code == 1


def test_selftest_passes():
    code, stdout, _ = invoke(["selftest", "--seed", "0"])
    assert code == 0
    lines = [l for l in stdout.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == sum(c.reduced is not None for c in CRITERIA)
    assert all(l.startswith("PASS") for l in lines)


def test_selftest_bad_seed_exits_1():
    code, _, err = invoke(["selftest", "--seed", "-1"])
    assert code == 1
    assert err == "error: seed must be a 64-bit unsigned integer, got -1\n"


@pytest.mark.parametrize(
    "module, argv, code, stream, text",
    [
        ("hgc", ["--help"], 0, "stdout", "usage: hgc"),
        ("hgc.cli", ["selftest", "--seed", "-1"], 1, "stderr",
         "error: seed must be a 64-bit unsigned integer, got -1\n"),
    ],
)
def test_python_dash_m_runs_the_cli(module, argv, code, stream, text):
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert text in getattr(proc, stream)
    assert "Traceback" not in proc.stderr


def _cli_env(**extra):
    """The environment of a child ``python -m hgc`` that imports this checkout."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.mark.parametrize("workers", [
    "1",
    pytest.param("2", marks=pytest.mark.skipif(
        harness._usable_cores() < 2, reason="a pool needs two cores")),
])
def test_interrupt_exits_130_with_one_line(workers):
    # SIGINT to the whole process group, as Ctrl-C in a terminal sends it.
    # One OpenBLAS thread per process lets --workers 2 fork a pool.
    argv = ["gh", "--n", "1024", "--alpha", "1", "--trials", "200", "--workers", workers]
    proc = subprocess.Popen([sys.executable, "-m", "hgc", *argv],
                            env=_cli_env(OPENBLAS_NUM_THREADS="1"), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        time.sleep(1.5)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err == "interrupted\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


# --- the exit-code contract as a property ----------------------------------------
#
# argv is drawn from a grammar of every subcommand but selftest, with every
# flag.  A value is a small valid one or an edge case of its type.  A size
# is at most 64 or one that the config or the memory guard refuses before
# it draws.  A run would take a large --trials or --workers as valid and
# loop for ever or fork a process per core, so those draw no large value,
# and every example is quick and forks at most two processes.  "{tmp}" in
# an argument stands for the example's own temporary directory, and a dict
# for a --config file holding it as JSON.
_INT_EDGES = ("0", "-1", str(2**64), str(10**400), "nan", "1.5", "abc", "")
_COUNT_EDGES = ("0", "-1", "nan", "abc", "")
_FLOAT_EDGES = ("nan", "inf", "-inf", "0", "-1", str(2**64), str(10**400), "1e308", "1e-320",
                "abc")


def _values(valid, edges):
    # One value in four is an edge case, so most examples reach a run.
    valid = valid.map(str)
    return st.one_of(valid, valid, valid, st.sampled_from(edges))


_SMALL_N = _values(st.integers(1, 64), _INT_EDGES)
_FRACTION = _values(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0), _FLOAT_EDGES)
_POSITIVE = _values(st.floats(0.1, 4.0), _FLOAT_EDGES)
_FLAGS = {
    "--n": _SMALL_N,
    "--m": _SMALL_N,
    "--alpha": _FRACTION,
    "--beta": _POSITIVE,
    "--trials": _values(st.integers(1, 4), _COUNT_EDGES),
    "--workers": _values(st.integers(1, 2), _COUNT_EDGES),
    "--seed": _values(st.integers(0, 2**64 - 1), _INT_EDGES),
    "--coupling": st.sampled_from([*harness.COUPLINGS] * 2 + ["other"]),
    "--format": st.sampled_from([*harness.FORMATS] * 2 + ["xml"]),
    "--out": st.sampled_from(["{tmp}/out"] * 4 + ["{tmp}/missing/x.csv", "{tmp}"]),
    "--t": _POSITIVE,
    "--eps": _FRACTION,
    "--k": _SMALL_N,
    "--rho": _FRACTION,
    "--slack": _FRACTION,
}
_SIZES = ("--m", "--alpha", "--beta")
_EXPERIMENT = ("--trials", "--seed", "--coupling", "--out", "--format", "--workers")
_COMMANDS = {
    "couple": ("--n", "--seed"),
    **{harness.KINDS[kind].command: ("--n", *_EXPERIMENT)
       for kind in harness.KINDS if harness.KINDS[kind].command},
    "sweep": ("--kind", "--n", *_EXPERIMENT),
    "bounds": ("--t", "--n", "--eps", "--k", "--rho", "--beta", "--m", "--slack", "--check",
               "--seed", "--out", "--format"),
}
_CONFIG_DOC = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from([*harness.KINDS, "nope"]),
    "n": st.integers(1, 64) | st.sampled_from([0, -1, 2**64, 10**400, 1.5, math.nan, "8", True]),
    "m": st.integers(1, 64) | st.sampled_from([0, 2**64, None, 2.5]),
    "alpha": st.floats(0.01, 1.0) | st.sampled_from([0.0, math.inf, math.nan, None, 1]),
    "beta": st.floats(0.1, 4.0) | st.sampled_from([1e308, 1e-320, -1.0, None]),
    "trials": st.integers(1, 4) | st.sampled_from([0, -1, 2.0, None, "3"]),
    "seed": st.integers(-1, 2**64),
    "coupling": st.sampled_from([*harness.COUPLINGS, "other", None]),
    "out": st.sampled_from(["{tmp}/out", "{tmp}/missing/x.csv", "{tmp}", None, 5]),
    "format": st.sampled_from([*harness.FORMATS, "xml"]),
    "workers": st.integers(1, 2) | st.sampled_from([0, -1, True]),
    "extra": st.just(1),
})


@st.composite
def _argv(draw):
    if draw(st.integers(0, 9)) == 0:
        return ["--config", draw(_CONFIG_DOC | st.just("{tmp}/missing.json"))]
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, flags = [command], list(_COMMANDS[command])
    # --n is given nine times in ten; an experiment is given a size flag,
    # most often exactly one.
    required = ["--n"] if "--n" in flags and draw(st.integers(0, 9)) else []
    if "--trials" in flags:
        count = draw(st.sampled_from([0, 1, 1, 1, 2]))
        required += draw(st.lists(st.sampled_from(_SIZES), unique=True, min_size=count,
                                  max_size=count))
    optional = [flag for flag in flags if flag not in required]
    for flag in required + draw(st.lists(st.sampled_from(optional), unique=True, max_size=4)):
        if flag == "--check":
            argv.append(flag)
        elif flag == "--kind":
            argv += [flag, draw(st.sampled_from([*harness.KINDS, "nope"]))]
        elif command == "sweep" and flag == "--n":
            argv += [flag, ",".join(draw(st.lists(_SMALL_N, min_size=1, max_size=3)))]
        else:
            argv += [flag, draw(_FLAGS[flag])]
    return argv


_ERROR_LINE = re.compile(r"^(hgc( [a-z]+)?: )?error: ")


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["borel", "--n", "64", "--coupling", "randomized"])
@example(["sweep", "--kind", "borel", "--n", "16,32", "--coupling", "randomized"])
@example(["compare", "--n", "64", "--beta", "1", "--coupling", "randomized"])
@example(["--config", {"kind": "bounds-check", "n": 8, "m": 3, "coupling": "randomized",
                       "trials": 7, "workers": 9}])
@example(["--config", {"kind": "bounds-check", "n": 1, "trials": 4}])
@example(["--config", {"kind": "bounds-check", "n": 1, "alpha": 0.5}])
@example(["--config", {"kind": "bounds-check", "n": 1, "workers": 2}])
@example(["--config", {"kind": "bounds-check", "n": 8}])
@example(["gh", "--n", "64", "--alpha", "1", "--trials", "2", "--out", "{tmp}/missing/x.csv"])
@example(["sweep", "--n", "16,32", "--alpha", "1", "--out", "{tmp}/missing/x.csv"])
@example(["bounds", "--check", "--out", "{tmp}/missing/x.csv"])
def test_every_argv_exits_0_to_3_and_an_exit_1_prints_one_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for arg in argv:
            if isinstance(arg, dict):
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(
                    {k: v.replace("{tmp}", tmp) if isinstance(v, str) else v
                     for k, v in arg.items()}))
                arg = str(path)
            args.append(arg.replace("{tmp}", tmp))
        code, _, err = invoke(args)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert sum(bool(_ERROR_LINE.match(line)) for line in err.splitlines()) == 1, err

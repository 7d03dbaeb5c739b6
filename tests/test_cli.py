import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hgc.cli as cli
import hgc.harness as harness
from hgc import NumericalError, Seed
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
    assert "0.367879" in stdout
    code, stdout, _ = invoke(["bounds", "--n", "4096", "--m", "492"])
    assert code == 0
    assert "1.009984" in stdout


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
        (["bounds", "--n", "4", "--m", "2", "--slack", "nan"], "slack must be >= 0 and finite"),
        (["bounds", "--n", "4", "--m", "2", "--slack", "inf"], "slack must be >= 0 and finite"),
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


def test_io_error_exit_3(tmp_path):
    code, _, err = invoke(
        ["rownorms", "--n", "16", "--alpha", "1.0", "--trials", "1",
         "--out", "/nonexistent-dir/deep/r.csv"]
    )
    assert code == 3
    assert "i/o error" in err


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


def test_capped_workers_write_the_serial_csv_and_one_note(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a capped run forked a pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    argv = ["borel", "--n", "16", "--trials", "12", "--seed", "3", "--out"]
    serial = invoke([*argv, str(tmp_path / "w1.csv"), "--workers", "1"])
    capped = invoke([*argv, str(tmp_path / "w2.csv"), "--workers", "2"])
    assert serial[:2] == capped[:2] == (0, serial[1])
    assert serial[2] == ""
    assert capped[2] == (
        "hgc: --workers 2 runs as 1 process: OpenBLAS uses 2 threads on 2 cores; "
        "set OPENBLAS_NUM_THREADS=1 to run trials in parallel\n"
    )
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_bounds_check_config_notes_no_pool(monkeypatch, tmp_path):
    # The battery never forks, so a capped --workers has nothing to say.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    cfg = tmp_path / "b.json"
    cfg.write_text('{"kind": "bounds-check", "n": 1, "workers": 2, "trials": 4}')
    code, stdout, err = invoke(["--config", str(cfg)])
    assert code == 0
    assert stdout.startswith("bounds-check: n=1 ")
    assert err == ""


def test_workers_beyond_the_cores_note_the_core_cap(two_pool_processes):
    code, _, err = invoke(["borel", "--n", "16", "--trials", "12", "--workers", "4"])
    assert code == 0
    assert err == "hgc: --workers 4 runs as 2 processes: OpenBLAS uses 1 thread on 2 cores\n"


def test_oversized_run_is_refused_before_it_draws(monkeypatch, capfd):
    def no_draw(*args):
        raise AssertionError("an oversized run drew its sample")

    monkeypatch.setattr(harness, "sample_gaussian", no_draw)
    code, out, err = invoke(["rownorms", "--n", "1000000", "--alpha", "1", "--workers", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: n=1000000, m=1000000 on 1 process(es) needs at least "
                          "24,000,000,000,000 bytes")
    assert "bytes of physical memory" in err
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
                          "40,000,000,000,000 bytes (5 n m 8 per process)")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err + capfd.readouterr().err


def test_couple_that_fits_three_blocks_but_not_five_is_refused(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a refused couple drew its sample")

    # 4 MiB of physical memory; an n = 400 square is 1.28 MB, so three
    # of them fit and the five that the QR holds do not.
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}.get)
    monkeypatch.setattr(cli, "sample_gaussian", no_draw)
    code, out, err = invoke(["couple", "--n", "400"])
    assert (code, out) == (1, "")
    assert err == ("error: n=400, m=400 on 1 process(es) needs at least 6,400,000 bytes "
                   "(5 n m 8 per process), more than the 4,194,304 bytes of physical memory\n")


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
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert text in getattr(proc, stream)
    assert "Traceback" not in proc.stderr

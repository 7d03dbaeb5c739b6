import contextlib
import io
import json
import os
import time
from pathlib import Path

import pytest

import hgc.cli as cli
import hgc.harness as harness
from hgc import NumericalError
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


def test_io_error_exit_3(tmp_path):
    code, _, err = invoke(
        ["rownorms", "--n", "16", "--alpha", "1.0", "--trials", "1",
         "--out", "/nonexistent-dir/deep/r.csv"]
    )
    assert code == 3
    assert "i/o error" in err


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


def _crash_on_one_trial(config, t, sampler=None):
    # Runs in a forked pool worker, which inherits the patched module.
    # The pause lets the other worker finish the earlier trials first, so
    # the crashed trial is the first one whose result is lost.
    if t == _CRASHING_TRIAL:
        time.sleep(0.5)
        os._exit(1)
    return _REAL_TRIAL_TASK(config, t, sampler)


def test_crashed_worker_exits_2_naming_the_trial(monkeypatch, capfd):
    monkeypatch.setattr(harness, "_trial_task", _crash_on_one_trial)
    code, _, err = invoke(
        ["rownorms", "--n", "8", "--m", "2", "--trials", "4", "--workers", "2"]
    )
    assert code == 2
    assert err.startswith(f"numerical failure: trial {_CRASHING_TRIAL}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err + capfd.readouterr().err


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

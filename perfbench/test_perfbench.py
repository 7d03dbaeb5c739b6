"""Tests of the benchmark itself, on tiny stand-ins for its workloads.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

import run
import workloads
from workloads import WORKLOADS, check_output

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Same names, tiny commands: the bounds battery has no size flag, so its
# stand-in is a small matrix command.
TINY_ARGV = {
    "eps-randomized": ("epsilon", "--n", "48", "--beta", "1", "--coupling", "randomized",
                       "--trials", "2", "--workers", "1"),
    "gh-full": ("gh", "--n", "32", "--alpha", "1", "--trials", "2", "--workers", "1"),
    "borel-pool": ("borel", "--n", "16", "--trials", "12", "--workers", "2"),
    "bounds-battery": ("rownorms", "--n", "16", "--alpha", "0.5", "--trials", "1"),
}
TINY_ROWS = {"eps-randomized": 2, "gh-full": 2, "borel-pool": 12, "bounds-battery": 1}
TINY_COLUMNS = {"bounds-battery": ("sup_F", "predicted", "ratio_sup")}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(
        WORKLOADS[name],
        argv=TINY_ARGV[name],
        rows=TINY_ROWS[name],
        columns=TINY_COLUMNS.get(name, WORKLOADS[name].columns),
        check=lambda rows: None,
    )


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name in WORKLOADS:
        monkeypatch.setitem(WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)


def bench_result(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", ["borel-pool", "eps-randomized", "bounds-battery"])
def test_printed_metrics_match_benchmark_json(tiny_workloads, capsys, name, trace, section):
    record, result = bench_result(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert record["deterministic"] is True
    assert "thread_env" in record["environment"]


def test_traced_run_attributes_all_time_and_checks_the_block(tiny_workloads, capsys):
    _, result = bench_result(
        capsys, "--workload", "eps-randomized", "--seed", "1", "--seconds", "0", "--trace", "1"
    )
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = ("rng.sample_s", "coupling.self_s", "measure.self_s", "harness.self_s",
              "harness.emit_s", "cli.self_s")
    assert sum(metrics[k] for k in layers) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["coupling.cols_built"] == 2 * 48
    m = math.floor(48 / math.log(48))
    assert metrics["coupling.cols_read"] == 2 * m
    assert metrics["coupling.rotate_calls"] == 2
    assert metrics["coupling.couple_calls"] == 4  # two trials, two rotations
    assert metrics["coupling.orth_defect"] <= run.ORTH_LIMIT


def test_seed_reaches_the_program(tmp_path):
    bench = run.Bench(tiny("gh-full"), 987654321, tmp_path)
    call = bench.call(run.import_cli().main, bench.workload.argv)
    assert call.argv[-4:-2] == ["--seed", "987654321"]
    assert call.error is None and not bench.failures
    text = bench.out.read_text()
    assert check_output(bench.workload, 987654321, 0, text) is None
    assert "seed" in check_output(bench.workload, 987654320, 0, text)


def good_csv(tmp_path) -> tuple[workloads.Workload, str]:
    bench = run.Bench(tiny("gh-full"), 5, tmp_path)
    bench.call(run.import_cli().main, bench.workload.argv)
    return bench.workload, bench.out.read_text()


def test_output_check_rejects_tampered_csv(tmp_path):
    workload, text = good_csv(tmp_path)
    assert check_output(workload, 5, 0, text) is None
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    column = header.index("g2_over_m")

    def with_field(value):
        cells = lines[1].rstrip("\n").split(",")
        cells[column] = value
        return "".join([lines[0], ",".join(cells) + "\n", *lines[2:]])

    assert "rows" in check_output(workload, 5, 0, "".join(lines[:-1]))
    assert check_output(workload, 5, 0, with_field("nan")) is not None
    assert check_output(workload, 5, 0, with_field("")) is not None
    assert check_output(workload, 5, 1, text) == "exit code 1"
    assert check_output(workload, 5, 0, None) == "no output file"


@pytest.mark.parametrize(
    "check, good, bad",
    [
        (workloads._check_eps, [{"eps": "1.3"}] * 4, [{"eps": "1.9"}] * 4),
        (workloads._check_gh,
         [{"g2_over_m": "0.5", "h2_over_m": "0.167"}],
         [{"g2_over_m": "0.5", "h2_over_m": "0.2"}]),
        (workloads._check_borel, [{"ks": "0.07"}] * 200, [{"ks": "0.3"}] * 200),
        (workloads._check_bounds,
         [{"sup_F": "0.84", "predicted": "0.88", "trial": "1"}],
         [{"sup_F": "0.9", "predicted": "0.88", "trial": "1"}]),
    ],
)
def test_workload_statistic_windows(check, good, bad):
    assert check(good) is None
    assert check(bad) is not None


def test_failed_calls_are_counted_and_the_benchmark_goes_on(tmp_path):
    bench = run.Bench(tiny("gh-full"), 2, tmp_path)
    bench.call(run.import_cli().main, ("gh", "--n", "0", "--alpha", "1", "--trials", "1"))

    def crash(argv):
        raise MemoryError("no room")

    bench.call(crash, bench.workload.argv)
    bench.call(run.import_cli().main, bench.workload.argv)
    assert [(f["rep"], f["error"]) for f in bench.failures] == [
        (0, "OutputCheck"), (1, "MemoryError")
    ]
    assert bench.calls[2].error is None


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "gh-full", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""

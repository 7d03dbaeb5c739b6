import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hgc import (
    ConfigError,
    ExperimentConfig,
    Seed,
    config_from_json,
    emit,
    epsilon_sup,
    gram_schmidt_couple,
    run,
    sample_gaussian,
    sweep,
)
from hgc.harness import BOUND_CHECK_LABELS, CSV_HEADER, render_csv, render_json, render_svg


def singular_sampler(n, seed):
    # test hook: second column duplicates the first
    y = sample_gaussian(n, n, seed)
    y[:, 1] = y[:, 0]
    return y


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


def test_sizeless_kinds_default_m():
    assert ExperimentConfig(kind="borel", n=64).resolved_m() == 1
    assert ExperimentConfig(kind="bounds-check", n=1).resolved_m() == 1


# --- run ----------------------------------------------------------------------


def test_run_deterministic_and_seed_sensitivity():
    cfg = ExperimentConfig(kind="row-norms", n=48, alpha=1.0, trials=2, seed=5)
    first = run(cfg)
    second = run(cfg)
    assert [r.sup_F for r in first.results] == [r.sup_F for r in second.results]
    assert render_csv(first) == render_csv(second)
    other = run(ExperimentConfig(kind="row-norms", n=48, alpha=1.0, trials=2, seed=6))
    assert [r.sup_F for r in other.results] != [r.sup_F for r in first.results]
    # changing only the output path does not change the rows
    redirected = run(
        ExperimentConfig(kind="row-norms", n=48, alpha=1.0, trials=2, seed=5, out="x.csv")
    )
    assert render_csv(redirected) == render_csv(first)


def test_parallel_matches_serial():
    serial = run(ExperimentConfig(kind="gh-split", n=64, alpha=0.5, trials=4, seed=9))
    parallel = run(
        ExperimentConfig(kind="gh-split", n=64, alpha=0.5, trials=4, seed=9, workers=2)
    )
    assert render_csv(serial) == render_csv(parallel)


def test_trial_seeds_follow_root_and_index():
    report = run(ExperimentConfig(kind="row-norms", n=16, alpha=1.0, trials=3, seed=21))
    assert [str(r.seed) for r in report.results] == ["21:0", "21:1", "21:2"]


def test_compare_pairs_from_same_matrices():
    cfg = ExperimentConfig(kind="coupling-compare", n=32, m=10, trials=2, seed=13)
    report = run(cfg)
    # recompute trial 0 by hand from the same substreams
    pair = gram_schmidt_couple(sample_gaussian(32, 32, Seed(13, (0,)))[:, :10])
    expected_plain = epsilon_sup(pair.y, pair.u, 10).eps
    assert report.results[0].eps.eps == expected_plain
    assert report.results[0].eps_randomized is not None
    assert report.results[0].eps_randomized.coupling_kind == "randomized"


def test_epsilon_randomized_coupling_field():
    report = run(
        ExperimentConfig(
            kind="epsilon", n=32, beta=1.0, trials=2, seed=3, coupling="randomized"
        )
    )
    for r in report.results:
        assert r.eps.coupling_kind == "randomized"
        assert r.eps.beta == 1.0
        assert r.eps.eps <= r.sup_F + 1e-15


def test_borel_kind_pools_entries():
    report = run(ExperimentConfig(kind="borel", n=32, trials=50, seed=8))
    entries = [r.borel_entry for r in report.results]
    assert len(set(entries)) == 50
    assert 0 <= report.aggregate["ks"] <= 1
    assert report.aggregate["borel"]["mean"] == pytest.approx(np.mean(entries))


def test_degenerate_trial_reports_index():
    from hgc import NumericalError

    with pytest.raises(NumericalError) as err:
        run(
            ExperimentConfig(kind="row-norms", n=8, alpha=1.0, trials=1, seed=1),
            sampler=singular_sampler,
        )
    assert err.value.trial == 0


# --- bounds battery -----------------------------------------------------------


def test_bounds_battery_dominates():
    report = run(ExperimentConfig(kind="bounds-check", n=1, seed=100))
    assert [r.label for r in report.results] == list(BOUND_CHECK_LABELS)
    assert report.aggregate["all_dominated"]
    for r in report.results:
        assert 0.0 <= r.sup_F <= r.predicted
        assert r.ratio_sup == pytest.approx(r.sup_F / r.predicted)


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


def test_sweep_isolates_failing_cell():
    # inject a singular Y into the n=2 cell only; the n=16 cell still runs
    table = sweep(
        [
            ExperimentConfig(kind="row-norms", n=2, m=2, trials=1, seed=4),
            ExperimentConfig(kind="row-norms", n=16, m=8, trials=1, seed=4),
        ],
        sampler=lambda n, seed: (
            singular_sampler(n, seed) if n == 2 else sample_gaussian(n, n, seed)
        ),
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
    assert sup_f == report.results[0].sup_F


def test_json_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(kind="gh-split", n=24, alpha=0.5, trials=2, seed=12)
    report = run(cfg)
    path = tmp_path / "r.json"
    emit(report, "json", str(path))
    doc = json.loads(path.read_text())
    assert doc["config"]["kind"] == "gh-split"
    for row, res in zip(doc["rows"], report.results):
        assert row["sup_F"] == res.sup_F
        assert row["g2_over_m"] == res.gh[0]
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


def test_wall_time_zeroed_in_deterministic_mode():
    report = run(ExperimentConfig(kind="row-norms", n=16, alpha=1.0, trials=2, seed=1))
    assert all(r.wall_time_ms == 0 for r in report.results)
    timed = run(
        ExperimentConfig(
            kind="row-norms", n=16, alpha=1.0, trials=2, seed=1, deterministic=False
        )
    )
    assert render_csv(timed) == render_csv(report)  # wall time is not a CSV field


# --- JSON config ----------------------------------------------------------------


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

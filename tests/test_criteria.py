"""The criteria table that the acceptance suite and ``hgc selftest`` share."""

import os
import subprocess
import sys
from pathlib import Path

import hgc
from hgc import ExperimentConfig, harness, run
from hgc.criteria import CRITERIA

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_acceptance_collects_one_test_per_criterion():
    src = str(Path(hgc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         ACCEPTANCE.name],
        cwd=ACCEPTANCE.parent, env=env, capture_output=True, text=True, check=True,
    ).stdout
    collected = [line.split("::")[1] for line in out.splitlines()
                 if "::test_criterion" in line]
    assert len(collected) == len(CRITERIA)
    for criterion in CRITERIA:
        slug = criterion.name.replace("-", "_")
        assert sum(name.endswith(slug) for name in collected) == 1, criterion.name


def test_reduced_epsilon_window_equals_the_randomized_epsilon_run():
    # The reduced criterion 06 reads the randomized rows of the
    # coupling-compare report it shares with 07; they draw from the same
    # substreams (t) and (t, 1) as an epsilon run with that coupling.
    criterion = next(c for c in CRITERIA if c.number == "06")
    reports = []

    def recording_run(config):
        reports.append(harness.run(config))
        return reports[-1]

    ok, _ = criterion.check(0, recording_run, **criterion.reduced)
    assert ok
    [compare] = reports
    values = [rotated["eps"] for _, rotated in (r.rows for r in compare.results)]
    epsilon = run(ExperimentConfig(kind="epsilon", n=512, beta=1.0, trials=10, seed=0,
                                   coupling="randomized"))
    assert values == [r.rows[0]["eps"] for r in epsilon.results]

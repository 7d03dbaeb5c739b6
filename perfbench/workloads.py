"""The benchmark's workloads and the check every run's output must pass.

Each workload is one fixed ``hgc`` command line; the benchmark adds only
``--seed`` and ``--out``.  Why each one is in the set, and which layer it
exercises, is in README.md.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One CLI configuration and what a correct run of it writes.

    ``columns`` are the CSV columns that must hold a finite number in
    every row, and ``check`` tests the workload's own statistic on the
    parsed rows, returning a description of the problem or None.
    """

    name: str
    argv: tuple[str, ...]
    rows: int
    columns: tuple[str, ...]
    check: Callable[[list[dict]], str | None]

    @property
    def workers(self) -> int:
        if "--workers" not in self.argv:
            return 1
        return int(self.argv[self.argv.index("--workers") + 1])

    def serial_argv(self) -> tuple[str, ...]:
        """The same command with one worker, for the traced run."""
        if "--workers" not in self.argv:
            return self.argv
        at = self.argv.index("--workers") + 1
        return self.argv[:at] + ("1",) + self.argv[at + 1:]


def _within(label: str, value: float, low: float, high: float) -> str | None:
    if low <= value <= high:
        return None
    return f"{label} = {value!r} outside [{low!r}, {high!r}]"


def _check_eps(rows):
    # eps_n(m) is the largest of n*m entries; its Gumbel scale at
    # n = 2048, m = 268 is about 0.05, and the observed medians sit near
    # 1.3.  The lower edge is sqrt(beta) of the limit window; reaching the
    # upper edge takes two of the four trials nine scales above the mode.
    return _within("median eps", statistics.median(float(r["eps"]) for r in rows), 1.0, 1.75)


def _check_gh(rows):
    # At alpha = 1 the limits are |G|^2/m -> alpha/2 and |H|^2/m ->
    # phi(1) - 1/2 = 1/6.  One trial averages 2048 rows and scatters by
    # about 5e-4, so +-0.01 is some twenty standard deviations.
    for r in rows:
        problem = _within("g2_over_m", float(r["g2_over_m"]), 0.49, 0.51) or _within(
            "h2_over_m", float(r["h2_over_m"]), 1 / 6 - 0.01, 1 / 6 + 0.01
        )
        if problem:
            return problem
    return None


def _check_borel(rows):
    # Kolmogorov: P(sqrt(N) D > 3) <= 2 exp(-18) < 1e-7 for N = 200 draws
    # of sqrt(n) u_11, whose law is N(0, 1) up to O(1/n).
    return _within("KS distance", float(rows[0]["ks"]), 0.0, 3 / math.sqrt(len(rows)))


def _check_bounds(rows):
    # Every empirical frequency must stay below its analytic bound; the
    # closest pair (gauss-tail-complement) is about 30 standard errors apart.
    for r in rows:
        if not float(r["sup_F"]) <= float(r["predicted"]):
            return f"bound {r['predicted']} not dominating frequency {r['sup_F']} in row {r['trial']}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eps-randomized",
            ("epsilon", "--n", "2048", "--beta", "1", "--coupling", "randomized",
             "--trials", "4", "--workers", "1"),
            rows=4,
            columns=("sup_F", "inf_F", "mean_F", "eps", "eps_lower", "eps_upper"),
            check=_check_eps,
        ),
        Workload(
            "gh-full",
            ("gh", "--n", "2048", "--alpha", "1", "--trials", "3", "--workers", "1"),
            rows=3,
            columns=("sup_F", "inf_F", "mean_F", "g2_over_m", "h2_over_m", "max_cross_over_m"),
            check=_check_gh,
        ),
        Workload(
            "borel-pool",
            ("borel", "--n", "512", "--trials", "200", "--workers", "2"),
            rows=200,
            columns=("mean_F", "ks"),
            check=_check_borel,
        ),
        Workload(
            "bounds-battery",
            ("bounds", "--check"),
            rows=9,
            columns=("sup_F", "predicted", "ratio_sup"),
            check=_check_bounds,
        ),
    )
}


def check_output(workload: Workload, seed: int, code: int, text: str | None) -> str | None:
    """Why one run's exit code and CSV are wrong, or None when they are right."""
    if code != 0:
        return f"exit code {code}"
    if text is None:
        return "no output file"
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != workload.rows:
        return f"{len(rows)} rows, expected {workload.rows}"
    for i, row in enumerate(rows):
        if row.get("seed", "").split(":")[0] != str(seed):
            return f"row {i} seed {row.get('seed')!r} does not carry --seed {seed}"
        for column in workload.columns:
            try:
                value = float(row[column])
            except (KeyError, TypeError, ValueError):
                return f"row {i} column {column!r} is {row.get(column)!r}"
            if not math.isfinite(value):
                return f"row {i} column {column!r} is {value!r}"
    return workload.check(rows)

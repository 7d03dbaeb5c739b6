"""Benchmark of the hgc trial pipeline, end to end and per layer.

Run from the root of a checkout, where ``src/hgc`` holds the package:

    python3 perfbench/run.py --workload eps-randomized --seed 1 --seconds 10 --trace 0

Each run calls ``hgc.cli.main`` in this process with the workload's
arguments plus ``--seed`` and ``--out``.  ``--trace 0`` makes as many
untraced calls as fit in ``--seconds`` (at least one) and then times
fresh interpreters importing ``hgc.cli``; it reports the end-to-end
metrics.  ``--trace 1`` makes one untraced call and one serial traced
call and reports the per-layer metrics.  Every call's exit code and CSV
are checked, and the CSVs of one invocation must be byte-identical.

The second-to-last line of standard output is a JSON record of the
environment and of every call; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

import spans
from workloads import WORKLOADS, Workload, check_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s.  Their medians scatter by tens of
# percent over sets of ten launches, so a run takes many.
SETUP_LAUNCHES = 11

ORTH_LIMIT = 1e-10

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "rng.sample_s": "s",
    "rng.sample_calls": "count",
    "rng.sample_mb": "MiB",
    "coupling.couple_s": "s",
    "coupling.couple_calls": "count",
    "coupling.cols_built": "count",
    "coupling.cols_read": "count",
    "coupling.useful_col_ratio": "ratio",
    "coupling.gflop_s": "GFLOP/s",
    "coupling.held_mb": "MiB",
    "coupling.rotate_copied_mb": "MiB",
    "coupling.orth_defect": "abs",
    "coupling.rotate_s": "s",
    "coupling.rotate_calls": "count",
    "coupling.self_s": "s",
    "measure.gh_s": "s",
    "measure.rownorms_s": "s",
    "measure.eps_s": "s",
    "measure.ks_s": "s",
    "measure.summarize_s": "s",
    "measure.self_s": "s",
    "harness.run_s": "s",
    "harness.self_s": "s",
    "harness.emit_s": "s",
    "harness.pool_efficiency": "ratio",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Thread settings read by the BLAS libraries numpy may load, and by hgc.
# The benchmark only records them: setting them would hide the pool's
# oversubscription.
_THREAD_ENV = re.compile(r"^(OMP_|OPENBLAS_|GOTO_|MKL_|BLIS_|VECLIB_|NUMEXPR_|HGC_WORKERS)")
_KNOWN_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "HGC_WORKERS",
)


@dataclass
class Call:
    """One call of the CLI: how long it took and what it wrote."""

    rep: int
    argv: list[str]
    seconds: float
    code: int | None = None
    sha256: str | None = None
    error: str | None = None
    traced: bool = False


class Bench:
    """The calls of one benchmark invocation and the failures among them."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out = out_dir / "out.csv"
        self.calls: list[Call] = []
        self.launches = 0
        self.failures: list[dict] = []

    def call(self, main, argv, traced: bool = False) -> Call:
        """Run ``main`` once on ``argv`` plus seed and output path; check what it wrote."""
        full = [*argv, "--seed", str(self.seed), "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        record = Call(rep=len(self.calls), argv=full, seconds=0.0, traced=traced)
        self.calls.append(record)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                record.code = main(full)
            record.seconds = time.perf_counter() - started
        except Exception as exc:  # a crashed call is counted, and the benchmark goes on
            record.seconds = time.perf_counter() - started
            traceback.print_exc()
            self.fail(record, type(exc).__name__, str(exc))
            return record
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else None
        if text is not None:
            record.sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        problem = check_output(self.workload, self.seed, record.code, text)
        if problem:
            self.fail(record, "OutputCheck", problem)
        return record

    def fail(self, record: Call | None, kind: str, detail: str):
        """Count a failed call (or, with ``record`` None, a failed set-up launch)."""
        rep = "setup" if record is None else record.rep
        if record is not None:
            record.error = f"{kind}: {detail}"
        self.failures.append(
            {"workload": self.workload.name, "rep": rep, "error": kind, "detail": detail}
        )
        print(f"perfbench: {self.workload.name} call {rep} failed: {kind}: {detail}",
              file=sys.stderr)

    def deterministic(self) -> bool:
        """Whether every call that wrote a CSV wrote the same bytes."""
        return len({c.sha256 for c in self.calls if c.sha256 is not None}) <= 1


def peak_rss_mib() -> float:
    """Largest resident set of this process or any worker it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def setup_seconds(bench: Bench, launches: int) -> float:
    """Median time for a fresh interpreter to start and import hgc.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hgc.cli"
    times = []
    for _ in range(launches):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        times.append(time.perf_counter() - started)
        bench.launches += 1
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or [f"exit code {done.returncode}"])[-1]
            bench.fail(None, "SetupLaunch", last)
            break
    return statistics.median(times)


def measure_end_to_end(bench: Bench, main, seconds: float) -> dict:
    """Repeat the untraced call within ``seconds``; then time set-up.

    The first call always runs; another follows while one more call of
    the median length still fits, so a run lasts about ``seconds``
    whatever the call length.
    """
    started = time.perf_counter()
    walls = [bench.call(main, bench.workload.argv).seconds]
    while time.perf_counter() - started + statistics.median(walls) <= seconds:
        walls.append(bench.call(main, bench.workload.argv).seconds)
    peak = peak_rss_mib()
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup_seconds(bench, SETUP_LAUNCHES),
        "peak_rss_mb": peak,
    }


def measure_layers(bench: Bench, main) -> tuple[dict, bool]:
    """One untraced call per argument list, then one serial traced call.

    Returns the per-layer metrics and whether the traced call's spans are
    sound: self times that add up to its wall time and an orthonormal
    block wherever a statistic read one.
    """
    workload = bench.workload
    pooled = bench.call(main, workload.argv)
    serial = pooled if workload.serial_argv() == workload.argv else bench.call(
        main, workload.serial_argv()
    )
    tracer = spans.Tracer()
    with spans.traced(tracer):
        bench.call(tracer.wrap("cli.main", main), workload.serial_argv(), traced=True)

    seconds, calls, layer = tracer.total, tracer.calls, tracer.layer_self()
    wall = seconds["cli.main"]
    metrics = {
        "rng.sample_s": seconds["rng.sample"],
        "rng.sample_calls": calls["rng.sample"],
        "rng.sample_mb": tracer.sample_bytes / spans.MIB,
        "coupling.couple_s": seconds["coupling.couple"],
        "coupling.couple_calls": calls["coupling.couple"],
        "coupling.cols_built": tracer.cols_built,
        "coupling.cols_read": tracer.cols_read,
        "coupling.useful_col_ratio": (
            tracer.cols_read / tracer.cols_built if tracer.cols_built else 0.0
        ),
        "coupling.gflop_s": (
            tracer.flops / seconds["coupling.couple"] / 1e9 if calls["coupling.couple"] else 0.0
        ),
        "coupling.held_mb": tracer.held_bytes / spans.MIB,
        "coupling.rotate_copied_mb": tracer.rotate_bytes / spans.MIB,
        "coupling.orth_defect": tracer.orth_defect,
        "coupling.rotate_s": seconds["coupling.rotate"],
        "coupling.rotate_calls": calls["coupling.rotate"],
        "coupling.self_s": layer.get("coupling", 0.0),
        "measure.gh_s": seconds["measure.gh"],
        "measure.rownorms_s": seconds["measure.rownorms"],
        "measure.eps_s": seconds["measure.eps"],
        "measure.ks_s": seconds["measure.ks"],
        "measure.summarize_s": seconds["measure.summarize"],
        "measure.self_s": layer.get("measure", 0.0),
        "harness.run_s": seconds["harness.run"],
        "harness.self_s": tracer.self_time["harness.run"],
        "harness.emit_s": seconds["harness.emit"],
        "harness.pool_efficiency": seconds["harness.run"] / (workload.workers * pooled.seconds),
        "cli.self_s": tracer.self_time["cli.main"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": serial.seconds,
        "trace.overhead_s": wall - serial.seconds,
    }
    attributed = sum(layer.values())
    sound = abs(attributed - wall) <= 1e-6 * max(wall, 1.0) and tracer.orth_defect <= ORTH_LIMIT
    if not sound:
        print(
            f"perfbench: traced spans unsound: self times {attributed!r} s against "
            f"wall {wall!r} s, orthogonality defect {tracer.orth_defect!r}",
            file=sys.stderr,
        )
    return metrics, sound


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy: record why the BLAS is unknown
        blas = {"unknown": f"{type(exc).__name__}: {exc}"}
    threads = {name: os.environ.get(name) for name in _KNOWN_THREAD_VARS}
    threads.update({k: v for k, v in os.environ.items() if _THREAD_ENV.match(k)})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "l3_cache": _l3_size(),
        "thread_env": threads,
    }


def _l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_cli():
    """``hgc.cli`` from this checkout's sources, or None when they are missing."""
    if not (SRC / "hgc" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hgc.cli

    if Path(hgc.cli.__file__).resolve().parent != SRC / "hgc":
        return None
    return hgc.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    if cli is None:
        print(f"perfbench: no hgc sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        bench = Bench(workload, args.seed, Path(out_dir))
        if args.trace:
            metrics, sound = measure_layers(bench, cli.main)
            units = PER_LAYER_UNITS
        else:
            metrics, sound = measure_end_to_end(bench, cli.main, args.seconds), True
            units = END_TO_END_UNITS
    deterministic = bench.deterministic()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "calls": [vars(c) for c in bench.calls],
        "failures": bench.failures,
        "deterministic": deterministic,
    }
    print(json.dumps(record))
    result = {
        "correct": not bench.failures and deterministic and sound,
        "attempted": len(bench.calls) + bench.launches,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans and counts, recorded around the public calls of hgc.

The tracer replaces the public functions that ``hgc.cli``, ``hgc.harness``
and ``hgc.coupling`` call by wrappers that open a span on entry and close
it on exit, then restores them.  The package itself is not changed.

A span's self time is its duration minus the durations of the spans
opened inside it.  Work the tracer does for its own counts (above all the
orthogonality check) runs with the span clock stopped, so that the self
times of all spans add up to the duration of the outermost span.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

MIB = 2**20

# (module, attribute, span name, hook) for every call site that is
# wrapped.  ``hgc.coupling`` calls ``sample_gaussian`` and
# ``gram_schmidt_couple`` itself, to draw the rotation V_m, so those two
# are wrapped there as well.
_CALL_SITES = (
    ("hgc.harness", "sample_gaussian", "rng.sample", "_on_sample"),
    ("hgc.coupling", "sample_gaussian", "rng.sample", "_on_sample"),
    ("hgc.harness", "gram_schmidt_couple", "coupling.couple", "_on_trial_couple"),
    ("hgc.coupling", "gram_schmidt_couple", "coupling.couple", "_on_couple"),
    ("hgc.harness", "randomized_couple", "coupling.rotate", "_on_rotate"),
    ("hgc.harness", "truncated_row_norms", "measure.rownorms", "_on_block_read"),
    ("hgc.harness", "decompose_gh", "measure.gh", "_on_pair_read"),
    ("hgc.harness", "epsilon_sup", "measure.eps", "_on_block_read"),
    ("hgc.harness", "ks_statistic", "measure.ks", None),
    ("hgc.harness", "summarize", "measure.summarize", None),
    ("hgc.cli", "run", "harness.run", "_on_run"),
    ("hgc.cli", "emit", "harness.emit", None),
)


def coupling_flops(n: int) -> int:
    """Computed flops of orthonormalizing an n x n matrix: 4 n^3.

    Two Gram-Schmidt passes, each 4 n j flops for column j, summed over
    j < n.  The formula is fixed by the shape alone, so it does not
    follow a change of algorithm: it only turns time into a rate.
    """
    return 4 * n**3


class Tracer:
    """Spans, counts and health numbers of one traced CLI call."""

    def __init__(self):
        self.paused = 0.0
        self.stack: list[list] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.sample_bytes = 0
        self.flops = 0
        self.held_bytes = 0
        self.rotate_bytes = 0
        self.cols_built = 0
        self.cols_read = 0
        self.orth_defect = 0.0
        self._pair = None
        self._pair_read = 0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, name: str, fn, hook: str | None = None):
        """``fn`` inside a span called ``name``; ``hook`` counts its call."""

        def wrapper(*args, **kwargs):
            self.stack.append([self.now(), 0.0])
            try:
                out = fn(*args, **kwargs)
            finally:
                start, inner = self.stack.pop()
                duration = self.now() - start
                self.total[name] += duration
                self.self_time[name] += duration - inner
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][1] += duration
            if hook is not None:
                stopped = time.perf_counter()
                getattr(self, hook)(args, kwargs, out)
                self.paused += time.perf_counter() - stopped
            return out

        return wrapper

    def layer_self(self) -> dict[str, float]:
        """Self time summed per layer, the part of a span name before the dot."""
        layers: defaultdict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[name.split(".")[0]] += seconds
        return dict(layers)

    # -- hooks: called after the wrapped function returned, clock stopped

    def _on_sample(self, args, kwargs, out):
        self.sample_bytes += out.nbytes

    def _on_couple(self, args, kwargs, pair):
        self.flops += coupling_flops(pair.n)
        held = pair.y.nbytes + pair.u.nbytes + pair.trace.nbytes
        self.held_bytes = max(self.held_bytes, held + pair.residual_norms.nbytes)

    def _on_trial_couple(self, args, kwargs, pair):
        self._close_pair()
        self._on_couple(args, kwargs, pair)
        self._pair = pair
        self._pair_read = 0

    def _on_rotate(self, args, kwargs, rotated):
        self.rotate_bytes = max(self.rotate_bytes, rotated.y.nbytes + rotated.u.nbytes)
        self._read(_arg(args, kwargs, 1, "m"))

    def _on_block_read(self, args, kwargs, out):
        self._read(_arg(args, kwargs, 2, "m"))

    def _on_pair_read(self, args, kwargs, out):
        self._read(_arg(args, kwargs, 1, "m"))

    def _on_run(self, args, kwargs, report):
        self._close_pair()

    def _read(self, m: int):
        self._pair_read = max(self._pair_read, int(m))

    def _close_pair(self):
        """Count the columns the last trial built and read, and check them."""
        if self._pair is None:
            return
        # A pair no measure call received is borel's, which reads u[0, 0]
        # inline in the harness, past every public boundary: one column.
        pair, read = self._pair, self._pair_read or 1
        self._pair = None
        self.cols_built += pair.n
        self.cols_read += read
        block = pair.u[:, :read]
        defect = np.abs(block.T @ block - np.eye(read)).max()
        self.orth_defect = max(self.orth_defect, float(defect))


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every wrapped call site through ``tracer`` for the block's duration."""
    saved = []
    try:
        for module_name, attr, span, hook in _CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

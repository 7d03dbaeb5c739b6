"""Seeded, splittable random streams.

A :class:`Seed` names one substream of a counter-based generator
(Philox) as a pure function of ``(root, path)``: the same pair always
yields the same stream, and distinct paths yield statistically
independent streams.  Trials, rotations, and other purposes get their
own path entries, so parallel and serial runs draw identical numbers.

Gaussian matrices are drawn column by column: column j is the j-th run
of ``rows`` variates of the stream.  It depends only on the stream and
j, so an n x k draw is bitwise the first k columns of the n x n draw,
and a statistic that reads k columns samples only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_MAX_ROOT = 2**64


@dataclass(frozen=True)
class Seed:
    """Identifier of a derived random substream.

    ``root`` is a 64-bit unsigned integer; ``path`` is an ordered tuple
    of non-negative integers (trial index, purpose tag, ...).  Either
    out of range raises :class:`ConfigError`, so a root seed is checked
    here and nowhere else.
    """

    root: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= self.root < _MAX_ROOT:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.root}")
        path = tuple(int(p) for p in self.path)
        if any(p < 0 for p in path):
            raise ConfigError(f"path entries must be non-negative, got {path}")
        object.__setattr__(self, "path", path)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        ss = np.random.SeedSequence(self.root, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def __str__(self):
        if not self.path:
            return str(self.root)
        return f"{self.root}:" + "-".join(str(p) for p in self.path)


def sample_gaussian(rows: int, cols: int, seed: Seed) -> np.ndarray:
    """Matrix of i.i.d. standard normal entries from the seed's substream.

    Repeated calls with identical arguments return bitwise-identical
    matrices.  Variates come from numpy's ziggurat sampler, which
    realizes the exact N(0, 1) law on the deterministic substream.

    The stream fills the matrix in column-major order, and the result is
    the Fortran-ordered view of that draw.  Column j therefore does not
    depend on ``cols``: ``sample_gaussian(rows, k, seed)`` equals
    ``sample_gaussian(rows, cols, seed)[:, :k]`` bitwise for every
    k <= cols.
    """
    if rows < 1 or cols < 1:
        raise DomainError(f"rows and cols must be >= 1, got {rows}x{cols}")
    return seed.generator().standard_normal((cols, rows)).T

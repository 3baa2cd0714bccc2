"""Finite overlap grids and exact level-indexed overlap matrices.

Overlap values live on a finite ascending grid q_1 < ... < q_k. Matrices
store grid-level indices (1-based; 0 marks the diagonal), never floats,
so events like "entry equals the top level" are exact integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import GridTooSmall

DIAG = 0  # sentinel stored on the diagonal of a level matrix

LEVEL_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class OverlapGrid:
    """Ascending support values and the diagonal value. The law of the
    levels belongs to a measure (DiscreteMeasure.pair_level_probs)."""

    levels: tuple
    self_overlap: float = 1.0

    def __post_init__(self):
        levels = tuple(float(q) for q in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 1:
            raise ValueError("grid needs at least one level")
        # each rule states what must hold, so that NaN fails it
        if not all(b > a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if not (levels[0] >= -1.0 and levels[-1] <= 1.0):
            raise ValueError("levels must lie in [-1, 1]")
        if not self.self_overlap >= levels[-1]:
            raise ValueError("self_overlap must be >= top level")

    @property
    def k(self) -> int:
        return len(self.levels)

    def values_by_index(self) -> np.ndarray:
        """Lookup array: index 0 -> self_overlap, index l -> levels[l-1]."""
        return np.array([self.self_overlap, *self.levels])

    def threshold_below(self, q: float) -> int:
        """Largest level index whose value is < q (0 if none)."""
        return int(np.searchsorted(np.asarray(self.levels), q, side="left"))

    def truncated(self) -> "OverlapGrid":
        """Drop the top level; diagonal becomes the new top value."""
        if self.k < 2:
            raise GridTooSmall("cannot truncate a single-level grid")
        return OverlapGrid(self.levels[:-1], self.levels[-2])

    @classmethod
    def from_json_dict(cls, d: dict) -> "OverlapGrid":
        return cls(tuple(d["levels"]), float(d["self_overlap"]))


@dataclass(frozen=True)
class ViolationReport:
    triples_checked: int
    violations: int
    first_witness: Optional[tuple] = None  # ((a, b, c), (lab, lac, lbc))


class LevelMatrix:
    """Symmetric n x n matrix of grid-level indices with a DIAG diagonal."""

    def __init__(self, entries: np.ndarray, grid: OverlapGrid):
        entries = np.asarray(entries, dtype=np.int16)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be square")
        n = entries.shape[0]
        if not np.array_equal(entries, entries.T):
            raise ValueError("entries must be symmetric")
        if not np.all(np.diag(entries) == DIAG):
            raise ValueError("diagonal entries must be DIAG")
        off = entries[~np.eye(n, dtype=bool)]
        if off.size and (off.min() < 1 or off.max() > grid.k):
            raise ValueError("off-diagonal entries must be level indices in 1..k")
        entries = entries.copy()
        entries.setflags(write=False)
        self.entries = entries
        self.grid = grid
        self.n = n

    def __eq__(self, other):
        return (isinstance(other, LevelMatrix) and self.grid == other.grid
                and np.array_equal(self.entries, other.entries))

    def realize(self) -> np.ndarray:
        """Dense float matrix: level values off-diagonal, self_overlap on it."""
        return self.grid.values_by_index()[self.entries]


def check_ultrametric_batch(levels_batch: np.ndarray) -> ViolationReport:
    """Triple scan over every triple of one (n, n) level matrix or of
    every matrix of a (T, n, n) batch.

    The witness is the first violating matrix's first triple, in
    lexicographic order.
    """
    checked, violations, witness = _kernels.ultra_full(levels_batch)
    first = None
    if violations > 0:
        a, b, c, lab, lac, lbc = (int(x) for x in witness)
        first = ((a, b, c), (lab, lac, lbc))
    return ViolationReport(int(checked), int(violations), first)


def truncate(matrix: LevelMatrix) -> LevelMatrix:
    """Entrywise minimum with the second-highest level; drops the top level."""
    grid = matrix.grid
    new_grid = grid.truncated()  # raises GridTooSmall for k == 1
    entries = np.minimum(matrix.entries, grid.k - 1)
    entries[np.diag_indices(matrix.n)] = DIAG
    return LevelMatrix(entries, new_grid)


def matrix_from_offdiag(n: int, offdiag_levels: Sequence[int], grid: OverlapGrid) -> LevelMatrix:
    """Build a LevelMatrix from row-major upper-triangle level indices."""
    entries = np.zeros((n, n), dtype=np.int16)
    iu, ju = np.triu_indices(n, k=1)
    vals = np.asarray(offdiag_levels, dtype=np.int16)
    if vals.shape != iu.shape:
        raise ValueError("wrong number of off-diagonal entries")
    entries[iu, ju] = vals
    entries[ju, iu] = vals
    return LevelMatrix(entries, grid)

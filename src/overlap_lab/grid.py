"""Finite overlap grids and the triple scan of level-indexed overlap
matrices.

Overlap values live on a finite ascending grid q_1 < ... < q_k. The level
matrices the samplers draw store grid-level indices (1-based; 0 marks the
diagonal), never floats, so events like "entry equals the top level" are
exact integer comparisons; grid.values_by_index()[levels] gives their
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

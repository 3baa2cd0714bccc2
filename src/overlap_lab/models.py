"""Measure sources for the two-layer Monte Carlo.

A model yields one DiscreteMeasure per outer replication index. Tree
models redraw the random weights (the outer randomness) while sharing
the fixed geometry, and keep the measures they built up to MEMO_BYTES so
that every check reuses them; frozen models return the same measure
every time, so the outer expectation degenerates to the inner average.

A descended model represents the conditioned-and-truncated ensemble of
the induction step: sampling n replicas from it means rejection-sampling
the base measure until all pairwise levels stay at or below a threshold.
k-fold descent composes to a single threshold, so the stack stays flat.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .errors import GridTooSmall
from .grid import OverlapGrid
from .measures import (DiscreteMeasure, TreeMeasureSpec, TreeStructure,
                       build_tree_measure, derive_seed)

_OUTER_KEY = 0x5EED

# Bytes of outer measures a TreeModel keeps, counted as 16 per atom (weights
# and their cumulative sums). Measures are kept first come, never evicted:
# every check scans j = 0, 1, ... again, so the first ones are the ones reused.
MEMO_BYTES = 64 * 2**20


class TreeModel:
    """Hierarchical measure with fresh per-outer-draw weights."""

    frozen = False
    threshold: Optional[int] = None

    def __init__(self, spec: TreeMeasureSpec):
        self.spec = spec
        self.structure = TreeStructure(spec.q, spec.branching)
        levels = self.structure.grid_levels
        self.grid = OverlapGrid(levels, None, levels[-1])
        qs = ",".join(f"{v:g}" for v in spec.q)
        zs = ",".join(f"{z:g}" for z in spec.zetas)
        self.model_id = f"tree(q=[{qs}],B={spec.branching},z=[{zs}],seed={spec.seed})"
        self._memo = {}

    def measure_at(self, j: int) -> DiscreteMeasure:
        measure = self._memo.get(j)
        if measure is not None:
            return measure
        child = derive_seed(self.spec.seed, _OUTER_KEY, j)
        measure = build_tree_measure(replace(self.spec, seed=child), self.structure)
        if 16 * measure.m * (len(self._memo) + 1) <= MEMO_BYTES:
            self._memo[j] = measure
        return measure


class FrozenModel:
    """Degenerate outer randomness: one fixed measure."""

    frozen = True
    threshold: Optional[int] = None

    def __init__(self, measure: DiscreteMeasure):
        self.measure = measure
        self.grid = measure.grid
        self.model_id = f"frozen-{measure.kind}(m={measure.m})"

    def measure_at(self, j: int) -> DiscreteMeasure:
        return self.measure


class DescendedModel:
    """The base ensemble conditioned on pairwise levels <= threshold.

    One induction step conditions on "no top-level ties" and truncates,
    which leaves off-diagonal levels untouched and lowers the diagonal;
    s chained steps collapse to the single threshold K - s on the base.
    """

    def __init__(self, base, steps: int = 1):
        if isinstance(base, DescendedModel):
            steps += base.steps
            base = base.base
        if steps < 1:
            raise ValueError("steps must be >= 1")
        root_k = base.grid.k
        t = root_k - steps
        if t < 1:
            raise GridTooSmall(f"cannot descend {steps} levels from k={root_k}")
        self.base = base
        self.steps = steps
        self.threshold = t
        self.frozen = base.frozen
        levels = base.grid.levels[:t]
        self.grid = OverlapGrid(levels, None, levels[-1])
        self.model_id = f"{base.model_id}|descend{steps}"

    def measure_at(self, j: int) -> DiscreteMeasure:
        return self.base.measure_at(j)


def as_model(source):
    """Coerce a DiscreteMeasure to a FrozenModel; pass models through."""
    if isinstance(source, DiscreteMeasure):
        return FrozenModel(source)
    return source

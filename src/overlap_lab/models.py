"""Measure sources for the two-layer Monte Carlo.

A model yields one DiscreteMeasure per outer replication index. Tree
models redraw the random weights (the outer randomness) while sharing
the fixed geometry, and keep the measures they built up to MEMO_BYTES so
that every check reuses them. While the memo has room they build them in
blocks of consecutive indices, bounded by OUTER_BLOCK_ATOMS: one numpy
seeding pass for the block's child seeds, one for all of its vertex
streams, and one cumulative sum and one power per tree level; each
measure is bit for bit the one built alone. Frozen models return the same
measure every time, so the outer expectation degenerates to the inner
average.

A descended model represents the conditioned-and-truncated ensemble of
the induction step: sampling n replicas from it means rejection-sampling
the base measure until all pairwise levels stay at or below a threshold.
k-fold descent composes to a single threshold, so the stack stays flat.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import GridTooSmall
from .grid import OverlapGrid
from .measures import (DiscreteMeasure, TreeMeasureSpec, TreeStructure,
                       build_tree_measures, seed_words)

_OUTER_KEY = 0x5EED

# Bytes of outer measures a TreeModel keeps, counted as 16 per atom (weights
# and their cumulative sums). Measures are kept first come, never evicted:
# every check scans j = 0, 1, ... again, so the first ones are the ones reused.
MEMO_BYTES = 64 * 2**20

# Most atoms of the outer measures a TreeModel builds in one block. A block
# may run past the last index a scan asks for, so this also bounds the memory
# of measures built ahead and never read: 16 bytes an atom, 512 KiB.
OUTER_BLOCK_ATOMS = 1 << 15


def build_tree_measure(spec: TreeMeasureSpec, structure: TreeStructure,
                       outer) -> list:
    """A tree model's outer measures j of the int sequence outer, built as
    one block: measure j is measures.build_tree_measure on the child seed
    derive_seed(spec.seed, _OUTER_KEY, j), bit for bit. Every build of a
    TreeModel goes through this name."""
    seeds = seed_words(spec.seed, _OUTER_KEY, np.asarray(outer))[:, 0]
    return build_tree_measures(spec, seeds, structure)


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
        m = self.structure.m
        room = MEMO_BYTES // (16 * m) - len(self._memo)
        # Checks scan j = 0, 1, 2, ...: a scan that has reached j is taken
        # to go on to about 2j, so the block at j holds at most j measures
        # and a scan that stops short leaves fewer than half of what it
        # built unused. Only measures the memo will keep are built ahead;
        # past its cap each one is built alone, when it is asked for.
        size = min(room, max(1, OUTER_BLOCK_ATOMS // m), max(1, j))
        block = [j]
        while len(block) < size and block[-1] + 1 not in self._memo:
            block.append(block[-1] + 1)
        built = build_tree_measure(self.spec, self.structure, block)
        if room > 0:
            self._memo.update(zip(block, built))
        return built[0]


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

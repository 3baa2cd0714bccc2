"""Measure sources for the two-layer Monte Carlo.

A model yields one DiscreteMeasure per outer replication index, one at a
time (measure_at) or a range of them in order (measures). Tree models
redraw the random weights (the outer randomness) while sharing the fixed
geometry: outer measure j is draw j of the model spec's tree, which reads
its own slice of one weight stream, so a range is built as one block and
each measure is bit for bit the one built alone. A run reads the outer
draws of all its Monte Carlo estimates in one pass (sampler.sweep), and
only the scans (support, positivity, ultra and descend) read draws again
after it. So a tree model keeps the measures it built only as a run asks,
up to MEMO_BYTES: a kept measure holds its cumulative weights, and
rebuilds its weights from its slice of the stream only if something reads
them. Which measures are kept follows Belady's rule (keep an item only
until its last future use): a run knows the outer draws each scan still
to come reads, and before the sweep and each scan it tells the model,
through keep_measures, which draws a later read needs (cli.memo_plan).
Frozen models return the same measure every time, so the outer
expectation degenerates to the inner average; they keep nothing.

A descended model represents the conditioned-and-truncated ensemble of
the induction step: n replicas from it are n replicas of the base measure
conditioned on all pairwise levels staying at or below a threshold.
k-fold descent composes to a single threshold, so the stack stays flat.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import GridTooSmall
from .grid import OverlapGrid
from .measures import (DiscreteMeasure, TreeMeasureSpec, TreeStructure,
                       build_tree_measures)

# Most bytes of outer measures a TreeModel keeps, counted as 8 per atom
# (their cumulative weights; a measure redraws its weights when they are
# read). Within keep_measures' bounds measures are kept first come: every
# scan reads draws 0 .. reach - 1, so the first ones are the ones reused.
MEMO_BYTES = 64 * 2**20

# Most atoms a TreeModel builds in one block. A longer range is built in
# consecutive blocks, so this bounds the memory of a block's weights and
# their temporaries (8 bytes an atom each) without changing any measure.
BLOCK_ATOMS = 1 << 15


def build_tree_measure(spec: TreeMeasureSpec, structure: TreeStructure,
                       start: int, stop: int) -> list:
    """A tree model's outer measures start, ..., stop - 1, built as one
    block: measures.build_tree_measures. Every build of a TreeModel goes
    through this name."""
    return build_tree_measures(spec, start, stop, structure)


class TreeModel:
    """Hierarchical measure with fresh per-outer-draw weights."""

    frozen = False
    threshold: Optional[int] = None

    def __init__(self, spec: TreeMeasureSpec):
        self.spec = spec
        self.structure = TreeStructure(spec.q, spec.branching)
        self.grid = self.structure.grid  # the grid of every measure it yields
        qs = ",".join(f"{v:g}" for v in spec.q)
        zs = ",".join(f"{z:g}" for z in spec.zetas)
        self.model_id = f"tree(q=[{qs}],B={spec.branching},z=[{zs}],seed={spec.seed})"
        self._memo = {}
        self._store = math.inf  # keep built measures j < _store

    def keep_measures(self, keep: int, store: int):
        """Drop the kept measures j >= keep, and from now on keep a newly
        built measure only if j < store (at most keep). A caller that knows
        the reads to come passes, for keep, the largest number of outer
        draws any of them reads, and for store the part of that range
        some read after the first pass over it will reach again."""
        for j in [j for j in self._memo if j >= keep]:
            del self._memo[j]
        self._store = min(keep, store)

    def measure_at(self, j: int) -> DiscreteMeasure:
        return next(self.measures(j, j + 1))

    def measures(self, start: int, stop: int):
        """Outer measures start, ..., stop - 1, in order. Each run of them
        that the memo lacks is built in blocks of up to BLOCK_ATOMS atoms;
        nothing outside the range is built."""
        m = self.structure.m
        size = max(1, BLOCK_ATOMS // m)
        j = start
        while j < stop:
            if j in self._memo:
                yield self._memo[j]
                j += 1
                continue
            end = j + 1
            while end < min(stop, j + size) and end not in self._memo:
                end += 1
            built = build_tree_measure(self.spec, self.structure, j, end)
            room = max(0, MEMO_BYTES // (8 * m) - len(self._memo))
            kept = range(j, min(end, self._store))[:room]
            self._memo.update(zip(kept, built))
            yield from built
            j = end


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

    def measures(self, start: int, stop: int):
        return itertools.repeat(self.measure, stop - start)


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
        self.grid = OverlapGrid(levels, levels[-1])
        self.model_id = f"{base.model_id}|descend{steps}"

    def measure_at(self, j: int) -> DiscreteMeasure:
        return self.base.measure_at(j)

    def measures(self, start: int, stop: int):
        return self.base.measures(start, stop)


def as_model(source):
    """Coerce a DiscreteMeasure to a FrozenModel; pass models through."""
    if isinstance(source, DiscreteMeasure):
        return FrozenModel(source)
    return source

"""Measure sources for the two-layer Monte Carlo.

A model yields one DiscreteMeasure per outer replication index, one at a
time (measure_at) or a range of them in order (measures). Tree models
redraw the random weights (the outer randomness) while sharing the fixed
geometry: outer measure j is draw j of the model spec's tree, which reads
its own slice of one weight stream, so a range is built in blocks and
each measure is bit for bit the one built alone. A tree model builds
every range it is asked for and keeps none: a run reads the outer draws
of all its Monte Carlo estimates in one pass (sampler.sweep), and a
reader that reads draws in more than one pass holds the first of them,
within HELD_BYTES, in a HeldModel (pipeline.descend). Frozen models return
the same measure every time, so the outer expectation degenerates to the
inner average.

A descended model represents the conditioned-and-truncated ensemble of
the induction step: n replicas from it are n replicas of the base measure
conditioned on all pairwise levels staying at or below a threshold.
k-fold descent composes to a single threshold, so the stack stays flat.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import GridTooSmall
from .grid import OverlapGrid
from .measures import (DiscreteMeasure, TreeMeasureSpec, TreeStructure,
                       build_tree_measures)

# Most atoms a TreeModel builds in one block. A longer range is built in
# consecutive blocks, so this bounds the memory of a block's weights and
# their temporaries (8 bytes an atom each) without changing any measure.
BLOCK_ATOMS = 1 << 15
# Most bytes of measures a HeldModel holds, at 8 bytes an atom (a tree
# measure's cumulative weights): 134 draws of a B = 250, k = 2 tree. Past
# it, draws are built again when read.
HELD_BYTES = 64 * 2**20


def build_tree_measure(spec: TreeMeasureSpec, structure: TreeStructure,
                       start: int, stop: int) -> list:
    """A tree model's outer measures start, ..., stop - 1, built as one
    block: measures.build_tree_measures. Every build of a TreeModel goes
    through this name."""
    return build_tree_measures(spec, start, stop, structure)


class TreeModel:
    """Hierarchical measure with fresh per-outer-draw weights. built counts
    the outer measures it has built (the manifest's measures_built)."""

    frozen = False
    threshold: Optional[int] = None

    def __init__(self, spec: TreeMeasureSpec):
        self.spec = spec
        self.structure = TreeStructure(spec.q, spec.branching)
        self.grid = self.structure.grid  # the grid of every measure it yields
        qs = ",".join(f"{v:g}" for v in spec.q)
        zs = ",".join(f"{z:g}" for z in spec.zetas)
        self.model_id = f"tree(q=[{qs}],B={spec.branching},z=[{zs}],seed={spec.seed})"
        self.built = 0

    def measure_at(self, j: int) -> DiscreteMeasure:
        return next(self.measures(j, j + 1))

    def measures(self, start: int, stop: int):
        """Outer measures start, ..., stop - 1, in order, built in blocks of
        up to BLOCK_ATOMS atoms as they are read; nothing outside the range
        is built."""
        size = max(1, BLOCK_ATOMS // self.structure.m)
        for j in range(start, stop, size):
            end = min(j + size, stop)
            self.built += end - j
            yield from build_tree_measure(self.spec, self.structure, j, end)


class HeldModel:
    """base with its outer measures 0, ..., count - 1 built once and held, so
    that a reader that reads them in more than one pass builds them once, as
    many as HELD_BYTES holds at 8 bytes an atom (at least one); reads past
    the held draws go to base, which builds them again, bit for bit."""

    def __init__(self, base, count: int):
        self.base = base
        # draw 0 gives the atom count, and so how many draws to build
        self.held = [base.measure_at(0)]
        keep = HELD_BYTES // (8 * self.held[0].m)
        self.held += base.measures(1, min(count, keep))
        self.frozen, self.threshold = base.frozen, base.threshold
        self.grid, self.model_id = base.grid, base.model_id

    def measure_at(self, j: int) -> DiscreteMeasure:
        return next(self.measures(j, j + 1))

    def measures(self, start: int, stop: int):
        yield from self.held[start:stop]
        yield from self.base.measures(max(start, len(self.held)), stop)


class FrozenModel:
    """Degenerate outer randomness: one fixed measure."""

    frozen = True
    threshold: Optional[int] = None
    built = 0  # it builds no outer measure

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

"""Replica sampling (nested MC and per-draw scans) and the exact oracle.

Expectations are nested: an outer average over independently drawn
measures and an inner average over i.i.d. replica tuples from each.
Standard errors always come from the outer replication level, treating
each drawn measure as one observation. Every draw, of the estimates of
sweep (outer_stat_means is its one-estimate case) and of the per-draw
scans of filtered_level_batches, is read in blocks from _draw_block: outer
draw j reads a fixed slice of one stream per purpose
(measures.counter_stream). sweep serves any number of estimates from one
pass over the outer draws, so a run reads each draw once for all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import EventMassTooSmall, EventNull, TooLarge
from .grid import OverlapGrid
# perfbench/tracer.py wraps rng_from here, though no code here calls it
from .measures import DiscreteMeasure, counter_stream, rng_from
from .models import as_model
from .observables import Statistic, pack_statistics

ENUM_GUARD = 10**7

# The purpose keys of the inner draws and of empirical_matrix_law's draws.
_INNER_KEY = 0xD1CE
_LAW_KEY = 0x1A3

# Most replica rows of one block of outer draws (_block_draws); whole outer
# draws are grouped up to this bound (one draw when inner exceeds it).
OUTER_BLOCK_ROWS = 1 << 14
# Most atoms of the outer measures one window of sweep holds (at least one
# measure): 26 measures of a B = 50, k = 2 tree, whose 8-byte cumulative
# weights make 0.5 MB. Every estimate of a sweep reads its draws of a window
# before the next window is read, so this also caps its blocks' draws. A
# window of 13 such measures ran a tree_k2 run about 10% slower, and one of
# 105 peaked 2 MB higher, both in process on a 2-vCPU host.
SWEEP_ATOMS = 1 << 16
# Most outer draws of one block of filtered_level_batches. Its consumers read
# one draw at a time, so a larger block only spreads the block's fixed set-up
# (one stream seek, the per-pair gathers) over more draws, and at 16 draws
# that is already small next to each draw's own index draw and scan.
SCAN_BLOCK_DRAWS = 16


@dataclass(frozen=True)
class EventSpec:
    """Distinctness (A_n) or below-threshold (A_nq) event on an n-tuple."""

    kind: str                 # "A_n" | "A_nq"
    n: int
    q: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("A_n", "A_nq"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("events need n >= 2")
        if self.kind == "A_nq" and self.q is None:
            raise ValueError("A_nq needs a threshold q")

    def threshold(self, grid: OverlapGrid) -> int:
        """Largest admissible level index; 0 means the event is impossible."""
        if self.kind == "A_n":
            return grid.k - 1
        return grid.threshold_below(self.q)

    def label(self) -> str:
        return f"A_{self.n}" if self.kind == "A_n" else f"A_{self.n},q<{self.q:g}"


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    std_error: float
    inner_samples: int
    outer_samples: int
    acceptance_rate: Optional[float] = None


@dataclass(frozen=True)
class MCConfig:
    """Sample sizes for one nested estimate."""

    outer: int = 200
    inner: int = 100

    def __post_init__(self):
        if self.outer < 1 or self.inner < 1:
            raise ValueError("sample sizes must be >= 1")


def combined_threshold(model, event_threshold: Optional[int]) -> Optional[int]:
    parts = [t for t in (model.threshold, event_threshold) if t is not None]
    return min(parts) if parts else None


def _block_draws(n: int, mc: MCConfig, width: int = 0,
                 max_draws: Optional[int] = None) -> int:
    """How many consecutive outer draws one block holds. A block holds up to
    OUTER_BLOCK_ROWS replica rows (one draw when inner exceeds it), fewer
    for n > 8 so that its level entries stay within OUTER_BLOCK_ROWS * 64,
    and fewer for a caller that computes more than 8 values a row (width)
    so that those stay within OUTER_BLOCK_ROWS * 8, and at most max_draws
    outer draws when a caller sets it."""
    rows = OUTER_BLOCK_ROWS * 64 // max(64, n * n, 8 * width)
    return min(max(1, rows // mc.inner), max_draws or mc.outer)


def _draw_block(measures, draws: int, n: int, inner: int, rng):
    """(first measure, levels) of draws consecutive outer draws, measures
    giving their measures in order and rng positioned at the first one:
    one block of sweep's or of filtered_level_batches'.

    Outer draw j reads its n * inner uniforms at offset j * n * inner of
    its stream (counter_stream(seed, key)), so results do not depend on how
    the draws are grouped or in which order the blocks run. The block's
    uniforms are read in one call, which gives the bits of the per-draw
    calls in order (random() reads one word per double); each draw's
    searchsorted fills its own rows of one index array, and the uniforms
    are freed before the level fill, the indices after it.

    The levels are a view of one pair-major (n, n, rows) block
    (DiscreteMeasure.levels_from_indices), so each pair's levels are
    contiguous, as in the enumeration's blocks. Every measure of a model
    shares one pair-level table or one set of ancestor codes (a TreeModel's
    measures share its TreeStructure, a frozen model has one measure), so
    the first measure of a block turns all of the block's index rows into
    level matrices, and its grid gives their values.
    """
    u = rng.random((draws * inner, n))
    idx = np.empty(u.shape, dtype=np.intp)
    for r, measure in enumerate(measures):
        if r == 0:
            first = measure
        elif not first.shares_levels(measure):
            raise ValueError("outer measures of one model must share "
                             "their pair levels")
        rs = slice(r * inner, (r + 1) * inner)
        idx[rs] = measure.sample_indices(u[rs])
    del u
    return first, first.levels_from_indices(idx)


def count_columns(counts: Sequence[int]) -> list:
    """(count, columns) per distinct replica count, in increasing order of
    count, for a means matrix of S = len(counts) statistics followed by one
    denominator per count: the columns of the count's statistics, then its
    denominator column."""
    distinct = sorted(set(counts))
    return [(c, [i for i, k in enumerate(counts) if k == c] + [len(counts) + g])
            for g, c in enumerate(distinct)]


@dataclass(frozen=True)
class Estimate:
    """The arguments of one outer_stat_means call: what sweep serves."""

    stats: Sequence[Statistic]
    n: int
    mc: MCConfig
    seed: int
    event_threshold: Optional[int] = None
    counts: Optional[Sequence[int]] = None

    def columns(self, model) -> list:
        """The statistics outer_stat_means evaluates, denominators last."""
        n, stats = self.n, self.stats
        threshold = combined_threshold(model, self.event_threshold)
        counts = [n] * len(stats) if self.counts is None else list(self.counts)
        if len(counts) != len(stats) or max(counts, default=n) > n:
            raise ValueError(f"need one replica count <= {n} per statistic")
        groups = count_columns(counts)
        if threshold is None:
            return list(stats) + [Statistic(n)] * len(groups)
        return ([s.with_threshold(c, threshold) for s, c in zip(stats, counts)]
                + [Statistic(n).with_threshold(c, threshold) for c, _ in groups])


def outer_stat_means(model, stats: Sequence[Statistic], n: int, mc: MCConfig,
                     seed: int, event_threshold: Optional[int] = None,
                     counts: Optional[Sequence[int]] = None):
    """Per-outer-draw inner means; the last columns are event indicators.

    Conditional expectations are ratios of unconditioned expectations, so
    every statistic is multiplied by the indicator of the combined event
    (model conditioning and the explicit threshold), and the indicator
    itself is appended as a denominator column. Without any conditioning
    the denominator columns are identically one.

    counts[i] is the number of leading replicas statistic i reads (default
    n for all). The first n' replicas of an n-replica draw are an
    n'-replica draw, so statistic i carries the event over its own first
    counts[i] replicas, and each distinct count gets its own denominator
    column (count_columns). The indicators weight, never reject, so this
    is exact for every model.

    This is sweep of one Estimate; the draws come from the stream of
    _INNER_KEY.
    """
    return sweep(model, [Estimate(stats, n, mc, seed, event_threshold,
                                  counts)])[0]


def sweep(model, estimates: Sequence[Estimate]) -> list:
    """The outer_stat_means of each estimate, from one pass over the outer
    draws.

    The pass reads the measures 0, 1, ... of the farthest estimate's outer
    draws in order from one model.measures call, a window of at most
    SWEEP_ATOMS atoms of measures at a time (at least one measure), and
    holds only the window's measures. Within a window each estimate that
    reads its draws fills its rows in blocks of consecutive draws bounded
    by _block_draws, each drawn by _draw_block from the estimate's own
    stream slice and evaluated by one eval_stats call, so the means are
    bit for bit those of the estimate swept alone, whatever the windows.
    A run that sweeps all its estimates thus reads each draw once.
    """
    model = as_model(model)
    columns = [est.columns(model) for est in estimates]
    packs = [pack_statistics(cols) for cols in columns]
    means = [np.empty((est.mc.outer, len(cols))) for est, cols
             in zip(estimates, columns)]
    outer = max((est.mc.outer for est in estimates), default=0)
    measures = model.measures(0, outer)
    start = 0
    while start < outer:
        window = [next(measures)]
        size = min(outer - start, max(1, SWEEP_ATOMS // window[0].m))
        window += itertools.islice(measures, size - 1)
        stop = start + size
        for est, pack, out in zip(estimates, packs, means):
            _fill(window, start, min(stop, est.mc.outer), est, pack, out)
        del window  # not held while the next window is read
        start = stop
    return means


def _fill(window, start: int, stop: int, est: Estimate, pack, out):
    """Fill out[start:stop], the means of est's draws start, ..., stop - 1,
    from window, the measures of the draws from start on."""
    n, inner = est.n, est.mc.inner
    draws = _block_draws(n, est.mc, out.shape[1])
    for a in range(start, stop, draws):
        b = min(a + draws, stop)
        rng = counter_stream(est.seed, _INNER_KEY, a * n * inner)
        first, lv = _draw_block(window[a - start:b - start], b - a, n, inner,
                                rng)
        vals = _kernels.eval_stats(lv, first.grid.values_by_index(), pack)
        out[a:b] = vals.reshape(b - a, inner, -1).mean(axis=1)
        del lv, vals  # not held while the next block is drawn


def mean_and_se(per_outer: np.ndarray):
    m = len(per_outer)
    est = float(np.mean(per_outer))
    se = float(np.std(per_outer, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return est, se


def ratio_from_means(means: np.ndarray, z: float = 3.0):
    """Conditional estimates from an indicator-augmented means matrix: of
    outer_stat_means, or the one exact row of verify.served_means, which
    this alone conditions.

    Returns (ratios (S,), per-outer influence values (M, S), denominator
    mean). The influence values linearize each ratio around the means, so
    column standard deviations over sqrt(M) are delta-method standard
    errors (0.0 for one row). Raises when the event mass is zero or
    statistically indistinguishable from zero. A means matrix with one
    denominator per replica count is read one count at a time, as
    np.take(means, columns, axis=1) for the columns of count_columns: a
    copy in the layout outer_stat_means returns, so that the sums run in
    the same order.
    """
    D = means[:, -1]
    dbar, dse = mean_and_se(D)
    if dbar <= 0.0 or dbar <= z * dse:
        raise EventMassTooSmall(
            f"event mass {dbar:.3g} (se {dse:.3g}) too close to zero")
    N = means[:, :-1]
    r = N.mean(axis=0) / dbar
    h = (N - np.outer(D, r)) / dbar
    return r, h, dbar


def influence_se(h: np.ndarray) -> float:
    m = len(h)
    return float(np.std(h, ddof=1) / np.sqrt(m)) if m > 1 else 0.0


def filtered_level_batches(model, n: int, mc: MCConfig, seed: int,
                           event_threshold: Optional[int] = None, *, key: int):
    """Yield one (measure, kept level batch) pair per outer draw.

    The draws come in blocks of _draw_block from the stream of the caller's
    key, at most SCAN_BLOCK_DRAWS draws a block within its row bound, so
    that a scan holds the index and level arrays of a few draws, not of up
    to OUTER_BLOCK_ROWS rows. The measure is the first of the draw's block,
    whose grid levels every measure of the block shares.

    Tuples outside the combined conditioning are dropped, not redrawn:
    every kept matrix lies in the conditional support, which is all that
    support-style checks (PSD, triple scans) need, and those of a fixed
    measure are i.i.d. from its conditional law (empirical_matrix_law).
    """
    model = as_model(model)
    threshold = combined_threshold(model, event_threshold)
    draws = _block_draws(n, mc, max_draws=SCAN_BLOCK_DRAWS)
    for start in range(0, mc.outer, draws):
        stop = min(start + draws, mc.outer)
        rng = counter_stream(seed, key, start * n * mc.inner)
        first, lv = _draw_block(model.measures(start, stop), stop - start, n,
                                mc.inner, rng)
        for batch in lv.reshape(stop - start, mc.inner, n, n):
            if threshold is not None:
                batch = batch[_kernels.all_below(batch, n, threshold)]
            yield first, batch
        del lv, batch  # one block at a time: freed before the next is drawn


# ---------------------------------------------------------------------------
# Exact enumeration for fixed measures
# ---------------------------------------------------------------------------

def _enum_guard(measure: DiscreteMeasure, n: int) -> np.ndarray:
    """The pair-level table that enumeration sums over, once its work is
    bounded: m**n tuples, or P(n) patterns and m atoms tried after each of
    the P(n - 1) patterns of n - 1 replicas, where P(r) = sum_j S(r, j) C**j
    for C twin classes (S: Stirling numbers). A tree measure has no table,
    and is refused."""
    table = measure.table
    if table is None:
        raise ValueError("enumeration needs a pair-level table: a tree "
                         "measure reads its levels from ancestor codes")
    if measure.m**n > ENUM_GUARD:
        C = len(_kernels.twin_classes(table))
        P = [1]  # Touchard's recurrence P(r + 1) = C sum_k comb(r, k) P(k)
        for r in range(n):
            P.append(C * sum(comb(r, k) * p for k, p in enumerate(P)))
        if max(P[n], measure.m * P[n - 1]) > ENUM_GUARD:
            raise TooLarge(f"{measure.m}^{n} tuples in {C} twin classes exceed the guard")
    return table


def enumerate_statistics(measure: DiscreteMeasure, stats: Sequence[Statistic],
                         n: int, event_threshold: Optional[int] = None):
    """Exact E[stat; event] of each statistic (the statistic times the
    event's indicator) and the event mass, 0.0 for an event without mass:
    the entries of an outer_stat_means row, unconditioned, for
    ratio_from_means to condition (verify.served_means)."""
    table = _enum_guard(measure, n)
    t = -1 if event_threshold is None else int(event_threshold)
    vals = measure.grid.values_by_index()
    pack = pack_statistics(stats)
    mass, sums = _kernels.enum_stats(measure.weights, table, n, t, vals, pack)
    return sums, float(mass)


def enumerate_matrix_law(measure: DiscreteMeasure, n: int,
                         event_threshold: Optional[int] = None) -> dict:
    """Exact (conditional) law of the off-diagonal level tuple.

    Keys are row-major upper-triangle level tuples; values sum to one.
    """
    table = _enum_guard(measure, n)
    t = -1 if event_threshold is None else int(event_threshold)
    k = measure.grid.k
    keys, mass = _kernels.enum_law(measure.weights, table, n, t, k)
    total = float(mass.sum())
    if total <= 0.0:
        raise EventNull("conditioning event has zero mass")
    hit = mass != 0.0
    return dict(zip(_kernels.level_tuples(keys[hit], n, k),
                    (mass[hit] / total).tolist()))


def empirical_matrix_law(measure: DiscreteMeasure, n: int, mc: MCConfig,
                         seed: int, event_threshold: Optional[int] = None) -> dict:
    """Empirical counterpart of enumerate_matrix_law: the frequencies of the
    level tuples filtered_level_batches keeps of mc.outer * mc.inner draws
    from the fixed measure (stream _LAW_KEY), over the kept tuples alone."""
    k = measure.grid.k
    keys = [_kernels.level_keys(lv, k) for _, lv in filtered_level_batches(
        measure, n, mc, seed, event_threshold, key=_LAW_KEY)]
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    if not len(keys):
        raise EventMassTooSmall("no draw lies in the conditioning event")
    return dict(zip(_kernels.level_tuples(keys, n, k),
                    (counts / counts.sum()).tolist()))


def total_variation(law_a: dict, law_b: dict) -> float:
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0)) for k in keys)

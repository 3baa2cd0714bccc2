"""Discrete directing measures on a finite-dimensional sphere.

Three families:
  * hierarchical tree measures driven by normalized power-law point weights
    (the positive controls: their overlap arrays are ultrametric by
    construction and satisfy the replica identities as branching grows),
  * explicit user-specified atom/weight measures,
  * a fixed 3-atom adversarial measure whose overlap pattern is PSD and
    exchangeable but not ultrametric (the negative control).

Random draws come from seeded PCG64 streams: rng_from(*keys) seeds one
stream per key tuple, and counter_stream(seed, key, offset) reads the
stream rng_from(seed, key) of a purpose from a given position, so that
draw j of a tree, of a check's inner sample or of a scan is a fixed slice
of it, whichever block it is drawn in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .eigen import is_psd_dense
from .errors import BadWeights, BadZeta, OffGridOverlap, TooManyAtoms
from .grid import LEVEL_MATCH_TOL, OverlapGrid

ATOM_COUNT_GUARD = 10**6

WEIGHT_SUM_TOL = 1e-12
SPHERE_TOL = 1e-10


def seed_sequence(*keys) -> np.random.SeedSequence:
    """Deterministic seed stream for a tuple of integer keys."""
    return np.random.SeedSequence([int(k) & 0xFFFFFFFFFFFFFFFF for k in keys])


def rng_from(*keys) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(*keys)))


def derive_seed(*keys) -> int:
    """Collapse a key tuple into a single 64-bit child seed."""
    return int(seed_sequence(*keys).generate_state(1, np.uint64)[0])


def counter_stream(seed: int, key: int, offset: int) -> np.random.Generator:
    """The generator of stream (seed, key), advanced by offset 64-bit words.

    Each purpose has one stream, and draw j of it reads a fixed slice: the
    counter-based layout of Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3" (SC'11). random() turns one word into one double, so
    a draw of s uniforms starts at word j * s, whichever block it is drawn
    in. SeedSequence pads a short key with zero words, which makes this
    stream rng_from(seed, key, 0) too: key must be one that no other
    rng_from or derive_seed call uses.
    """
    rng = rng_from(seed, key)
    rng.bit_generator.advance(offset)
    return rng


@dataclass(frozen=True)
class TreeMeasureSpec:
    """Depth-k B-ary hierarchy. The law of its levels is not prescribed: each
    draw's pair_level_probs computes it from that draw's weights."""

    q: tuple               # q_1 < ... < q_k, all positive
    branching: int
    zetas: tuple           # 0 < zeta_1 < ... < zeta_k < 1
    seed: int = 0

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        zetas = tuple(float(z) for z in self.zetas)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "zetas", zetas)
        if len(q) < 1:
            raise ValueError("need at least one overlap value")
        # each rule states what must hold, so that NaN fails it
        if not all(b > a for a, b in zip((0.0, *q), q)) or not q[-1] <= 1.0:
            raise ValueError("q must be strictly increasing in (0, 1]")
        if len(zetas) != len(q):
            raise ValueError("need one zeta per depth")
        if any(not 0.0 < z < 1.0 for z in zetas):
            raise BadZeta("zetas must lie in (0,1)")
        if not all(b > a for a, b in zip(zetas, zetas[1:])):
            raise ValueError("zetas must be strictly increasing")
        if not self.branching >= 2:
            raise ValueError("branching must be >= 2")

    @property
    def depth(self) -> int:
        return len(self.q)


class DiscreteMeasure:
    """Finitely many atoms with positive weights summing to one.

    A measure enters only through its weights and the Gram matrix of its
    atoms, kept as pair levels and squared norms, never as coordinates. An
    explicit measure keeps an m x m int16 table, where -1 marks an inner
    product matching no grid level (drawing such a pair raises), and the
    norms_sq it is built with. A tree measure has no table (None): it reads
    its levels (from the ancestor codes), norms and grid from the
    TreeStructure it shares with every measure on it. Built by
    build_tree_measures, it keeps its block-validated cumulative weights cum
    and its draw = (spec, j), and redraws its weights on first read.
    pair_level_probs computes the law of the levels from the weights.

    levels_from_indices returns (T, n, n) level matrices as a view of a
    pair-major (n, n, T) block: each pair's T levels are contiguous.
    """

    def __init__(self, weights: Optional[np.ndarray], grid: Optional[OverlapGrid],
                 kind: str, norms_sq: Optional[np.ndarray] = None,
                 table: Optional[np.ndarray] = None,
                 tree: Optional["TreeStructure"] = None,
                 cum: Optional[np.ndarray] = None, draw: Optional[tuple] = None):
        if cum is None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.ndim != 1 or len(weights) == 0:
                raise BadWeights("weights must be a nonempty vector")
            _check_weights(weights)
            self.weights = weights
            cum = np.cumsum(weights)
            cum[-1] = 1.0
            cum.flags.writeable = False
        self._cum = cum
        self.kind = kind
        self.grid = grid
        self.table = table
        self.tree = tree
        if tree is not None:
            self._draw = draw
            self.norms_sq = tree.norms_sq
        elif table is None:
            raise ValueError("need a pair-level table or a tree structure")
        elif norms_sq is None:
            raise ValueError("need atom norms")
        else:
            self.norms_sq = norms_sq

    @property
    def m(self) -> int:
        return len(self._cum)

    @cached_property
    def weights(self) -> np.ndarray:
        """A tree measure's weights, redrawn bit for bit on first read."""
        spec, j = self._draw
        w = tree_leaf_weights(self.tree, spec.zetas, spec.seed, j, j + 1)[0]
        w.flags.writeable = False
        return w

    def shares_levels(self, other: "DiscreteMeasure") -> bool:
        """True when other reads pair levels from the same arrays and level
        values from an equal grid, so one levels_from_indices serves both.
        The measures of a tree share one grid object, which is tested first."""
        return (self.tree is other.tree and self.table is other.table
                and (self.grid is other.grid or self.grid == other.grid))

    def sample_indices(self, u: np.ndarray) -> np.ndarray:
        """Atom indices of uniforms u (any shape): the inverse of the CDF.

        The search runs on the bit patterns as int64: weights are validated
        positive, and non-negative doubles order as their bits, so every key
        (negative, +-0, +-inf, the default NaN) gets the index of the float
        search, without its NaN-aware compare at each step. Only a NaN with
        its sign bit set would differ (index 0, not m); random() draws none.
        """
        return self._cum.view(np.int64).searchsorted(
            np.asarray(u, dtype=np.float64).view(np.int64))

    def pair_level(self, i: int, j: int) -> int:
        if self.tree is not None:
            return 1 + int((self.tree.codes[:, i] == self.tree.codes[:, j]).sum())
        lv = int(self.table[i, j])
        if lv < 1:
            raise OffGridOverlap(f"atoms ({i},{j}) have an off-grid inner product")
        return lv

    def levels_from_indices(self, idx: np.ndarray) -> np.ndarray:
        """(T, n) atom indices -> (T, n, n) symmetric level matrices, DIAG = 0.

        The matrices are a view of one pair-major (n, n, T) block, whose
        row [i, j] holds pair (i, j)'s level in every matrix, contiguous.
        A tree fills each row i < j from one code gather per depth, 1 + the
        depths where the two leaves share an ancestor, and copies it to
        [j, i]. An explicit measure fills each row i != j with one table
        gather, and raises when a drawn pair or atom is off the grid.
        """
        idx = np.asarray(idx)
        T, n = idx.shape
        if self.tree is not None:
            # (n, T) codes per depth, gathered before the block that outlives
            # them is allocated: in that order a tree_k2 run's peak RSS
            # measured about 1 MB lower than with the block allocated first
            codes = [code[idx.T] for code in self.tree.codes]
            lv = np.zeros((n, n, T), dtype=np.int16)
            for i, j in itertools.combinations(range(n), 2):
                row = lv[i, j]
                row += 1
                for c in codes:
                    row += c[i] == c[j]
                lv[j, i] = row
        else:
            table, cols = self.table, idx.T
            lv = np.zeros((n, n, T), dtype=np.int16)
            for i, j in itertools.permutations(range(n), 2):
                lv[i, j] = table[cols[i], cols[j]]
            if lv.min(initial=0) < 0 or np.diagonal(table)[idx].min(initial=0) < 0:
                raise OffGridOverlap("drawn pair has an off-grid inner product")
        return lv.transpose(2, 0, 1)

    def pair_level_probs(self) -> np.ndarray:
        """Exact two-replica level probabilities, index 1..k (index 0 unused):
        a tree's from its weights, an explicit measure's from its table."""
        k = self.grid.k
        out = np.zeros(k + 1)
        if self.tree is not None:
            out[1:] = _tree_level_probs(self.weights, self.tree.B)
        else:
            outer = np.outer(self.weights, self.weights)
            flat = np.bincount(self.table.ravel() + 1,
                               weights=outer.ravel(), minlength=k + 2)
            if flat[0] > 0:
                raise OffGridOverlap("measure has off-grid pairs")
            out[:] = flat[1:]
        return out


def _check_weights(W: np.ndarray) -> None:
    """Weights must be positive and sum to 1: a vector, or each row of a block."""
    if not np.all(W > 0.0):
        raise BadWeights("weights must be positive")
    sums = np.atleast_1d(W.sum(axis=-1))
    off = ~(np.abs(sums - 1.0) <= WEIGHT_SUM_TOL)
    if off.any():
        raise BadWeights(f"weights sum to {float(sums[off][0])!r}, not 1")


def _level_table_from_gram(gram: np.ndarray, grid: OverlapGrid,
                           strict: bool) -> np.ndarray:
    """Map every pairwise inner product to its grid level (or -1)."""
    levels = np.asarray(grid.levels)
    pos = np.searchsorted(levels, gram)
    table = np.full(gram.shape, -1, dtype=np.int16)
    for cand in (np.clip(pos - 1, 0, len(levels) - 1), np.clip(pos, 0, len(levels) - 1)):
        match = np.abs(levels[cand] - gram) <= LEVEL_MATCH_TOL
        table[match] = cand[match] + 1
    if strict and np.any(table < 0):
        i, j = np.argwhere(table < 0)[0]
        raise OffGridOverlap(
            f"inner product {float(gram[i, j])!r} of atoms ({i},{j}) matches no grid level")
    return table


def _gram_measure(gram: np.ndarray, norms_sq: np.ndarray, weights,
                  grid: OverlapGrid, kind: str, on_sphere: bool = True):
    """Measure with pair-level table from gram and squared norms norms_sq;
    validates weights and (optionally) support.

    on_sphere demands every squared norm equal the top grid level and every
    inner product sit on the grid; disable it for deliberately broken inputs.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(gram) != len(weights):
        raise BadWeights("one weight per atom required")
    table = _level_table_from_gram(gram, grid, strict=on_sphere)
    measure = DiscreteMeasure(weights, grid, kind, norms_sq, table)
    if on_sphere:
        dev = np.max(np.abs(norms_sq - grid.levels[-1]))
        if dev > SPHERE_TOL:
            raise OffGridOverlap(
                f"atom norms deviate from the top level by {dev:.3e}")
    return measure


def explicit_measure(atoms, weights, grid: OverlapGrid, kind: str = "explicit",
                     on_sphere: bool = True) -> DiscreteMeasure:
    """Measure from explicit atoms: their Gram matrix and squared norms
    (_gram_measure). The atoms are not kept."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    return _gram_measure(atoms @ atoms.T, np.einsum("ij,ij->i", atoms, atoms),
                         weights, grid, kind, on_sphere)


def measure_from_gram(gram: np.ndarray, weights, grid: OverlapGrid,
                      kind: str = "explicit") -> DiscreteMeasure:
    """Measure from the Gram matrix of its atoms, on the sphere: its table
    and norms come from gram itself. gram must be positive semidefinite
    (eigen.is_psd_dense, so at most eigen.MAX_DENSE_N atoms); a singular
    one, such as two equal atoms, is accepted."""
    gram = np.asarray(gram, dtype=np.float64)
    psd, lo = is_psd_dense(gram)
    if not psd:
        raise ValueError(f"Gram matrix is not positive semidefinite: "
                         f"smallest eigenvalue {lo:.3e}")
    return _gram_measure(gram, np.diag(gram).copy(), weights, grid, kind)


ADVERSARIAL_GRAM = np.array([
    [1.0, 0.7, 0.7],
    [0.7, 1.0, 0.3],
    [0.7, 0.3, 1.0],
])


def adversarial_measure() -> DiscreteMeasure:
    """Fixed 3-atom equal-weight measure with a non-ultrametric overlap pattern.

    The pattern (0.7, 0.7, 0.3) has a unique minimum, so three distinct
    replicas always violate ultrametricity; the Gram matrix is still PSD.
    """
    grid = OverlapGrid((0.3, 0.7, 1.0), 1.0)
    return measure_from_gram(ADVERSARIAL_GRAM, np.full(3, 1 / 3), grid,
                             kind="adversarial")


# ---------------------------------------------------------------------------
# Hierarchical tree measures
# ---------------------------------------------------------------------------

class TreeStructure:
    """Seed-independent part of a tree measure: geometry, level lookup and
    the grid (0, q_1, ..., q_k) that every measure on it shares."""

    def __init__(self, q: tuple, branching: int):
        k = len(q)
        B = branching
        m = B**k
        if m > ATOM_COUNT_GUARD:
            raise TooManyAtoms(f"B^k = {m} exceeds {ATOM_COUNT_GUARD}")
        self.q = tuple(q)
        self.B = B
        self.k = k
        self.m = m
        self.grid = OverlapGrid((0.0, *q), q[-1])
        # row d: each leaf's ancestor at depth d + 1; the last row is the leaf
        radix = B ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self.codes = (np.arange(m, dtype=np.int64) // radix[:, None]).astype(np.int32)
        self.codes.flags.writeable = False
        # every measure on this structure shares these arrays; a leaf's
        # coordinate at depth l is sqrt(q_l - q_(l-1))
        coefs = np.sqrt(np.diff(np.array([0.0, *q])))
        self.norms_sq = np.full(m, float(np.sum(coefs**2)))
        self.norms_sq.flags.writeable = False


# The purpose key of the tree weight stream, counter_stream(seed, key).
_WEIGHTS_KEY = 0x7EE5


def tree_leaf_weights(structure: TreeStructure, zetas: tuple, seed: int,
                      start: int = 0, stop: int = 1) -> np.ndarray:
    """Leaf weights of draws start, ..., stop - 1 of a seed's tree, one row
    each: path products of unnormalized power-law points, normalized once
    across all leaves.

    Global (not per-vertex) normalization is what makes the overlap array
    of the measure approach the replica identities as branching grows:
    the effective mass of a subtree is then biased by its own partition
    function, exactly as in the classical cascade.

    Draw j reads the V * B uniforms at [j * V * B, (j + 1) * V * B) of
    counter_stream(seed, _WEIGHTS_KEY), V the number of internal vertices:
    level by level, vertex by vertex, B per vertex. A vertex's points are
    the top B points of the power-law Poisson process, in descending
    order: partial sums of B exponentials, raised to -1/zeta. Its B
    uniforms become those exponentials by -log1p(-u) (standard_exponential's
    ziggurat takes a varying number of words, so its output cannot be
    addressed by position). A block of draws is one advance, one random
    call, and one cumulative sum and one power per level; each draw is bit
    for bit the one drawn alone.
    """
    B, count = structure.B, stop - start
    size = B * (structure.m - 1) // (B - 1)  # V * B = B + B**2 + ... + B**k
    E = counter_stream(seed, _WEIGHTS_KEY, start * size).random((count, size))
    np.negative(E, out=E)
    np.log1p(E, out=E)
    np.negative(E, out=E)
    W = np.ones((count, 1))
    offset = 0
    for zeta in zetas:
        width = W.shape[1] * B
        # in place: fewer block-sized temporaries keep the heap compact
        points = E[:, offset:offset + width].reshape(count, -1, B)
        np.cumsum(points, axis=2, out=points)
        np.power(points, -1.0 / zeta, out=points)
        W = (W[:, :, None] * points).reshape(count, width)
        offset += width
    W /= W.sum(axis=1, keepdims=True)
    return W


def _tree_level_probs(W: np.ndarray, B: int) -> np.ndarray:
    """Exact level probabilities for two independent leaves, one row per
    row of leaf weights W (or one vector for a vector W).

    Index j (0-based into the emitted grid) is the chance the leaves agree
    on exactly j path digits; the last index is the same-leaf collision
    mass. Computed as sums of cross products between sibling subtree
    masses: all terms are positive, so a dominant subtree cannot cancel a
    probability down to zero the way a difference of near-equal square
    sums would.
    """
    lead = W.shape[:-1]
    probs = [np.sum(W**2, axis=-1)]
    child = W
    while child.shape[-1] > 1:
        grp = child.reshape(*lead, -1, B)
        cross = grp[..., 1:] * np.cumsum(grp, axis=-1)[..., :-1]
        probs.append(2.0 * np.sum(cross.reshape(*lead, -1), axis=-1))
        child = grp.sum(axis=-1)
    return np.stack(probs[::-1], axis=-1)


def build_tree_measures(spec: TreeMeasureSpec, start: int, stop: int,
                        structure: Optional[TreeStructure] = None) -> list:
    """Draws start, ..., stop - 1 of spec's tree measure, built as one block
    from tree_leaf_weights; each is bit for bit the one built alone.

    Only the weights are checked here, every row at once. A measure's level
    probabilities are a function of them, computed only by pair_level_probs:
    no check of a run reads them.
    """
    st = structure if structure is not None else TreeStructure(spec.q, spec.branching)
    W = tree_leaf_weights(st, spec.zetas, spec.seed, start, stop)
    _check_weights(W)  # DiscreteMeasure's checks, on every row at once
    cum = np.cumsum(W, axis=1, out=W)
    cum[:, -1] = 1.0
    cum.flags.writeable = False  # a model may hand these measures to every check
    return [DiscreteMeasure(None, st.grid, "tree", tree=st, cum=c, draw=(spec, j))
            for j, c in zip(range(start, stop), cum)]

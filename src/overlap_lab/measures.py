"""Discrete directing measures on a finite-dimensional sphere.

Three families:
  * hierarchical tree measures driven by normalized power-law point weights
    (the positive controls: their overlap arrays are ultrametric by
    construction and satisfy the replica identities as branching grows),
  * explicit user-specified atom/weight measures,
  * a fixed 3-atom adversarial measure whose overlap pattern is PSD and
    exchangeable but not ultrametric (the negative control).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .errors import BadWeights, BadZeta, OffGridOverlap, TooManyAtoms
from .grid import LEVEL_MATCH_TOL, OverlapGrid

ATOM_COUNT_GUARD = 10**6
TABLE_CAP = 3200          # materialize the m x m pair-level table below this
DENSE_ATOM_CAP = 8_000_000  # materialize (m, d) atom array when m*d stays below

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


# SeedSequence's hashes (numpy/random/bit_generator.pyx) each keep a running
# multiplier: call t of the entropy hash `hashmix` xors its word with
# INIT_A * MULT_A**t, multiplies it by INIT_A * MULT_A**(t + 1) and
# xor-shifts it right by 16; word i of generate_state's output hash does the
# same to pool[i % 4] with INIT_B and MULT_B. `mix(x, y)` is
# MIX_L * x - MIX_R * y, xor-shifted right by 16. The arrays below hold one
# word per row and one key tuple per column.
def _running_multiplier(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**t mod 2**32 for t < count, one per row."""
    values = [init]
    while len(values) < count:
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


_POOL = 4
_HASHMIX = _running_multiplier(0x43B0D7E5, 0x931E8875, 256)  # up to 63 words
_OUTPUT_HASH = _running_multiplier(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """hashmix calls on the rows of words (or on words itself, repeated):
    xor and mul hold each call's two multiplier values, one per row."""
    out = words ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x
    out -= _MIX_R * y
    out ^= out >> 16
    return out


def _calls(first: int) -> tuple:
    """_hashmix's xor and mul for the four hashmix calls from first on."""
    return _HASHMIX[first:first + _POOL], _HASHMIX[first + 1:first + _POOL + 1]


# mix_entropy's all-pairs pass hashes pool word src once for each other pool
# word d, by call 4 + 3 * src + (d - (d > src)). Row src of each step is a
# placeholder; its result is put back unmixed.
_PAIR_T = [np.array([_POOL + (_POOL - 1) * src + d - (d > src)
                    for d in range(_POOL)]) for src in range(_POOL)]
_PAIR_CALLS = [(_HASHMIX[t], _HASHMIX[t + 1]) for t in _PAIR_T]


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy of every column of a (L, N) uint32 array,
    L >= 4: the (4, N) pools.

    numpy hashes a key shorter than the pool as if it were padded with
    zero words, so short tuples come padded. The pool words that one
    source word is mixed into do not depend on each other, so one vector
    pass serves them all.
    """
    if _POOL * len(entropy) >= len(_HASHMIX):
        raise ValueError("key tuple too long")
    pool = _hashmix(entropy[:_POOL], *_calls(0))
    for src, calls in enumerate(_PAIR_CALLS):
        word = pool[src].copy()
        pool = _mix(pool, _hashmix(word, *calls))
        pool[src] = word
    for i, word in enumerate(entropy[_POOL:]):
        pool = _mix(pool, _hashmix(word, *_calls(_POOL * (_POOL + i))))
    return pool


def seed_words(*keys) -> np.ndarray:
    """PCG64's four uint64 seed words for each key tuple, bit for bit those
    np.random.SeedSequence([k & (2**64 - 1) for k in keys]) generates.

    Each key is an int or an int array; they broadcast against each other
    to the shape S of the tuples, and the result has shape (*S, 4). Word 0
    of a tuple is derive_seed(*tuple). numpy splits a key into one uint32
    word below 2**32 and two from there on, so tuples are grouped by which
    of their keys are wide, and each group is hashed in one numpy pass.
    """
    arrays = [np.asarray(k) for k in keys if not isinstance(k, int)]
    shape = np.broadcast(*arrays).shape if arrays else ()
    # per tuple: lo_0, hi_0, lo_1, hi_1, ..., then a zero word for padding
    split = np.zeros((*shape, 2 * len(keys) + 1), dtype=np.uint32)
    for c, key in enumerate(keys):
        if isinstance(key, int):
            key &= 0xFFFFFFFFFFFFFFFF
            split[..., 2 * c:2 * c + 2] = key & 0xFFFFFFFF, key >> 32
        else:
            key = np.ascontiguousarray(key, dtype="<u8")
            split[..., 2 * c:2 * c + 2] = key[..., None].view("<u4")
    split = split.reshape(-1, split.shape[-1])
    groups = (split[:, 1:-1:2] != 0) @ (1 << np.arange(len(keys)))
    distinct = np.flatnonzero(np.bincount(groups))  # np.unique imports numpy.ma
    pool = np.empty((_POOL, len(split)), dtype=np.uint32)
    for g in distinct:
        # the words of this group's tuples: every low word, the high word
        # of each wide key, zero words up to the pool size
        words = [w for c in range(len(keys))
                 for w in (2 * c, 2 * c + 1)[:1 + (g >> c & 1)]]
        words += [split.shape[1] - 1] * (_POOL - len(words))
        rows = slice(None) if len(distinct) == 1 else groups == g
        pool[:, rows] = _mix_entropy(split[rows].T[words])
    state = np.concatenate((pool, pool))  # pool words, cycled
    state ^= _OUTPUT_HASH[:8]
    state *= _OUTPUT_HASH[1:]
    state ^= state >> 16
    # pair the uint32 words into uint64 words little-endian, as numpy does
    words = np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8")
    return words.astype(np.uint64, copy=False).reshape(*shape, 4)


@cache
def _words_seed_class():
    """A seed source handing PCG64 precomputed state words; defined on first
    use so that importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds only PCG64's four uint64 seed words")
            return self.words

    return WordsSeed


def rngs_from(*prefix, lasts):
    """rng_from(*prefix, v) for each v of the int array lasts, in order.

    Each stream is bit for bit the one rng_from derives: seed_words hashes
    all the key tuples in one numpy pass, and each generator is handed its
    four words. Prefix keys may be arrays too; they broadcast against
    lasts, and the streams come in the row-major order of the result.
    Returns an iterator, so only the seed words are held at once.
    """
    lasts = np.asarray(lasts)
    if (lasts >> 32).any():
        raise ValueError("last keys must lie in [0, 2**32)")
    words = seed_words(*prefix, lasts).reshape(-1, 4)
    seed_class = _words_seed_class()
    pcg, gen = np.random.PCG64, np.random.Generator
    return (gen(pcg(seed_class(w))) for w in words)


def pd_points(zeta: float, B: int, rng: np.random.Generator) -> np.ndarray:
    """Top-B unnormalized points of the power-law Poisson process,
    descending: partial exponential sums raised to -1/zeta."""
    if not 0.0 < zeta < 1.0:
        raise BadZeta(f"zeta must be in (0,1), got {zeta}")
    if B < 1:
        raise ValueError("B must be >= 1")
    arrivals = np.cumsum(rng.exponential(1.0, size=B))
    return arrivals ** (-1.0 / zeta)


def sample_pd_weights(zeta: float, B: int, seed) -> np.ndarray:
    """Top-B normalized points of the power-law Poisson process.

    The normalized sequence approximates the classical random weight
    sequence with E sum(w_i^2) -> 1 - zeta as B grows.
    """
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    points = pd_points(zeta, B, rng)
    return points / points.sum()


@dataclass(frozen=True)
class TreeMeasureSpec:
    """Depth-k B-ary hierarchy; probs are emergent, not prescribed."""

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
        if q[0] <= 0.0 or any(b <= a for a, b in zip(q, q[1:])) or q[-1] > 1.0:
            raise ValueError("q must be strictly increasing in (0, 1]")
        if len(zetas) != len(q):
            raise ValueError("need one zeta per depth")
        if any(not 0.0 < z < 1.0 for z in zetas):
            raise BadZeta("zetas must lie in (0,1)")
        if any(b <= a for a, b in zip(zetas, zetas[1:])):
            raise ValueError("zetas must be strictly increasing")
        if self.branching < 2:
            raise ValueError("branching must be >= 2")

    @property
    def depth(self) -> int:
        return len(self.q)


class DiscreteMeasure:
    """Finitely many atoms with positive weights summing to one.

    Overlap levels of atom pairs are precomputed: either as an m x m
    int16 table (small m) or derived on the fly from tree path digits
    (large hierarchical measures). A table entry of -1 marks an inner
    product matching no grid level; drawing such a pair raises. A tree
    measure takes its table, digits, norms and atoms from its TreeStructure,
    which every measure on that structure shares.
    """

    def __init__(self, weights: np.ndarray, grid: OverlapGrid, kind: str,
                 atoms: Optional[np.ndarray] = None,
                 table: Optional[np.ndarray] = None,
                 tree: Optional["TreeStructure"] = None):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or len(weights) == 0:
            raise BadWeights("weights must be a nonempty vector")
        if np.any(weights <= 0.0):
            raise BadWeights("weights must be positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise BadWeights(f"weights sum to {weights.sum()!r}, not 1")
        self.weights = weights
        self.grid = grid
        self.kind = kind
        self._atoms = atoms
        self._tree = tree
        if tree is not None:
            self._table, self._digits = tree.table, tree.digits
            self.norms_sq = tree.norms_sq
        elif table is None:
            raise ValueError("need a pair-level table or a tree structure")
        elif atoms is None:
            raise ValueError("need atom norms")
        else:
            self._table, self._digits = table, None
            self.norms_sq = np.einsum("ij,ij->i", atoms, atoms)
        self._cum = np.cumsum(weights)
        self._cum[-1] = 1.0
        self._cum.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def atoms(self) -> Optional[np.ndarray]:
        """(m, d) atom coordinates; None for a tree too large to materialize."""
        return self._tree.atoms if self._tree is not None else self._atoms

    @property
    def table(self) -> Optional[np.ndarray]:
        return self._table

    def shares_levels(self, other: "DiscreteMeasure") -> bool:
        """True when other reads pair levels and level values from the same
        arrays and grid levels, so one levels_from_indices serves both."""
        return (self._table is other._table and self._digits is other._digits
                and self.grid.levels == other.grid.levels
                and self.grid.self_overlap == other.grid.self_overlap)

    def require_table(self) -> np.ndarray:
        if self._table is None:
            raise TooManyAtoms("pair-level table not materialized for this measure")
        return self._table

    def sample_indices(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((count, n))
        return np.searchsorted(self._cum, u).astype(np.int64)

    def pair_level(self, i: int, j: int) -> int:
        if self._table is not None:
            lv = int(self._table[i, j])
        else:
            eq = self._digits[i] == self._digits[j]
            stop = int(np.argmin(eq)) if not eq.all() else len(eq)
            lv = stop + 1
        if lv < 1:
            raise OffGridOverlap(f"atoms ({i},{j}) have an off-grid inner product")
        return lv

    def levels_from_indices(self, idx: np.ndarray) -> np.ndarray:
        """(T, n) atom indices -> (T, n, n) symmetric level matrices, DIAG=0."""
        idx = np.asarray(idx)
        if self._table is not None:
            lv = self._table[idx[:, :, None], idx[:, None, :]].astype(np.int16)
            if np.any(lv < 0):
                raise OffGridOverlap("drawn pair has an off-grid inner product")
        else:
            dg = self._digits[idx]  # (T, n, k)
            eq = dg[:, :, None, :] == dg[:, None, :, :]
            lv = (np.cumprod(eq, axis=3).sum(axis=3) + 1).astype(np.int16)
        n = idx.shape[1]
        lv[:, np.arange(n), np.arange(n)] = 0
        return lv

    def pair_level_probs(self) -> np.ndarray:
        """Exact two-replica level probabilities, index 1..k (index 0 unused)."""
        k = self.grid.k
        out = np.zeros(k + 1)
        if self._table is not None:
            outer = np.outer(self.weights, self.weights)
            flat = np.bincount(self._table.ravel() + 1,
                               weights=outer.ravel(), minlength=k + 2)
            if flat[0] > 0:
                raise OffGridOverlap("measure has off-grid pairs")
            out[:] = flat[1:]
        else:
            probs = _tree_level_probs(self.weights, self._digits)
            out[1:] = probs
        return out

    def to_json_dict(self) -> dict:
        if self.atoms is None:
            raise TooManyAtoms("atoms not materialized; measure too large to serialize")
        return {
            "kind": self.kind,
            "grid": self.grid.to_json_dict(),
            "weights": [float(w) for w in self.weights],
            "atoms": [[float(x) for x in a] for a in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DiscreteMeasure":
        grid = OverlapGrid.from_json_dict(d["grid"])
        atoms = np.asarray(d["atoms"], dtype=np.float64)
        kind = d.get("kind", "explicit")
        return explicit_measure(atoms, np.asarray(d["weights"]), grid,
                                kind=kind, on_sphere=False)


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
            f"inner product {gram[i, j]!r} of atoms ({i},{j}) matches no grid level")
    return table


def explicit_measure(atoms, weights, grid: OverlapGrid, kind: str = "explicit",
                     on_sphere: bool = True) -> DiscreteMeasure:
    """Measure from explicit atoms; validates weights and (optionally) support.

    on_sphere demands every squared norm equal the top grid level and every
    inner product sit on the grid; disable it for deliberately broken inputs.
    """
    atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if len(atoms) != len(weights):
        raise BadWeights("one weight per atom required")
    gram = atoms @ atoms.T
    table = _level_table_from_gram(gram, grid, strict=on_sphere)
    measure = DiscreteMeasure(weights, grid, kind, atoms=atoms, table=table)
    if on_sphere:
        dev = np.max(np.abs(measure.norms_sq - grid.levels[-1]))
        if dev > SPHERE_TOL:
            raise OffGridOverlap(
                f"atom norms deviate from the top level by {dev:.3e}")
    return measure


def measure_from_gram(gram: np.ndarray, weights, grid: OverlapGrid,
                      kind: str = "explicit") -> DiscreteMeasure:
    """Atoms realized by Cholesky factorization of a PSD Gram matrix."""
    gram = np.asarray(gram, dtype=np.float64)
    atoms = np.linalg.cholesky(gram)
    return explicit_measure(atoms, weights, grid, kind=kind)


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
    grid = OverlapGrid((0.3, 0.7, 1.0), (2 / 9, 4 / 9, 3 / 9), 1.0)
    return measure_from_gram(ADVERSARIAL_GRAM, np.full(3, 1 / 3), grid,
                             kind="adversarial")


# ---------------------------------------------------------------------------
# Hierarchical tree measures
# ---------------------------------------------------------------------------

class TreeStructure:
    """Seed-independent part of a tree measure: geometry and level lookup."""

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
        self.grid_levels = (0.0, *q)
        self.coefs = np.sqrt(np.diff(np.array([0.0, *q])))
        # leaf path digits, most significant first
        radix = B ** np.arange(k - 1, -1, -1, dtype=np.int64)
        leaves = np.arange(m, dtype=np.int64)
        self.digits = ((leaves[:, None] // radix[None, :]) % B).astype(np.int32)
        self.d = int((B ** np.arange(1, k + 1)).sum())
        # every measure on this structure shares these arrays
        self.norms_sq = np.full(m, float(np.sum(self.coefs**2)))
        self.norms_sq.flags.writeable = False
        if m <= TABLE_CAP:
            # pair level = 1 + number of ancestors the two leaves share
            table = np.ones((m, m), dtype=np.int16)
            for prefix in self._prefixes():
                table += prefix[:, None] == prefix[None, :]
            self.table = table
        else:
            self.table = None

    def _prefixes(self):
        """Per depth j + 1, the index of each leaf's ancestor at that depth."""
        leaves = np.arange(self.m, dtype=np.int64)
        return [leaves // self.B ** (self.k - 1 - j) for j in range(self.k)]

    @cached_property
    def atoms(self) -> Optional[np.ndarray]:
        """(m, d) leaf coordinates, built on first read; None above
        DENSE_ATOM_CAP. No check reads them, only serialization and tests."""
        if self.m * self.d > DENSE_ATOM_CAP:
            return None
        atoms = np.zeros((self.m, self.d))
        leaves = np.arange(self.m)
        offset = 0
        for j, prefix in enumerate(self._prefixes()):
            atoms[leaves, offset + prefix] = self.coefs[j]
            offset += self.B ** (j + 1)
        atoms.flags.writeable = False  # shared by every measure
        return atoms


def tree_leaf_weights(structure: TreeStructure, zetas: tuple, seed: int) -> np.ndarray:
    """Leaf weights: path products of unnormalized power-law points,
    normalized once across all leaves.

    Global (not per-vertex) normalization is what makes the overlap array
    of the measure approach the replica identities as branching grows:
    the effective mass of a subtree is then biased by its own partition
    function, exactly as in the classical cascade. Each internal vertex
    gets its own derived seed stream, rng_from(seed, level, vertex index),
    so the result is independent of traversal order. The streams of all
    vertices are seeded in one numpy pass (rngs_from); build_tree_measures
    draws the weights of many trees in the same way, in one pass for all
    of them.
    """
    W = _leaf_weight_rows(structure, zetas, _seed_array([seed]))[0]
    return W / W.sum()


def _seed_array(seeds) -> np.ndarray:
    return np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)


def _leaf_weight_rows(structure: TreeStructure, zetas: tuple,
                      seeds: np.ndarray) -> np.ndarray:
    """Unnormalized leaf weights of one tree per uint64 seed, one row each.

    One rngs_from call seeds the vertex streams of every level of every
    tree, level by level; each stream fills its own row of an exponential
    block, so one cumulative sum and one power per level give pd_points of
    every vertex of every tree.
    """
    B, k = structure.B, structure.k
    sizes = [len(seeds) * B**level for level in range(k)]
    trees = np.concatenate([np.repeat(seeds, B**level) for level in range(k)])
    levels = np.repeat(np.arange(k), sizes)
    vertices = np.concatenate([np.tile(np.arange(B**level), len(seeds))
                               for level in range(k)])
    arrivals = np.empty((len(trees), B))
    for rng, row in zip(rngs_from(trees, levels, lasts=vertices), arrivals):
        rng.standard_exponential(out=row)
    W = np.ones((len(seeds), 1))
    for level, block in enumerate(np.split(arrivals, np.cumsum(sizes)[:-1])):
        points = np.cumsum(block, axis=1) ** (-1.0 / zetas[level])
        W = (W[:, :, None] * points.reshape(len(seeds), -1, B)).reshape(len(seeds), -1)
    return W


def _tree_level_probs(W: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Exact level probabilities for two independent leaves.

    Index j (0-based into the emitted grid) is the chance the leaves agree
    on exactly j path digits; the last index is the same-leaf collision
    mass. Computed as sums of cross products between sibling subtree
    masses: all terms are positive, so a dominant subtree cannot cancel a
    probability down to zero the way a difference of near-equal square
    sums would.
    """
    m, k = digits.shape
    B = int(digits[:, -1].max()) + 1
    probs = np.empty(k + 1)
    probs[k] = float(np.sum(W**2))
    child = W
    for j in range(k - 1, -1, -1):
        grp = child.reshape(B**j, B)
        csum = np.cumsum(grp, axis=1)
        probs[j] = 2.0 * float(np.sum(grp[:, 1:] * csum[:, :-1]))
        child = grp.sum(axis=1)
    return probs


def build_tree_measures(spec: TreeMeasureSpec, seeds,
                        structure: Optional[TreeStructure] = None) -> list:
    """build_tree_measure(replace(spec, seed=s)) for each int s of seeds,
    bit for bit, with the leaf weights of all of them drawn together."""
    st = structure if structure is not None else TreeStructure(spec.q, spec.branching)
    measures = []
    for W in _leaf_weight_rows(st, spec.zetas, _seed_array(seeds)):
        W = W / W.sum()
        W.flags.writeable = False  # a model may hand this measure to every check
        probs = _tree_level_probs(W, st.digits)
        grid = OverlapGrid(st.grid_levels, tuple(probs), st.grid_levels[-1])
        measures.append(DiscreteMeasure(W, grid, "tree", tree=st))
    return measures


def build_tree_measure(spec: TreeMeasureSpec,
                       structure: Optional[TreeStructure] = None) -> DiscreteMeasure:
    """Assemble the measure: geometry + seeded weights + emergent grid probs."""
    return build_tree_measures(spec, [spec.seed], structure)[0]

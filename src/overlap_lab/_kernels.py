"""Hot numeric kernels, one numpy implementation each.

Callers look kernels up as module attributes (`_kernels.eval_stats`), so a
wrapper installed on this module sees every call.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

# kept for callers that report which backend ran; numpy is the only one
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Shared predicates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _pairs(n):
    """Row and column indices of the strict upper triangle of an n x n matrix."""
    iu, ju = np.triu_indices(int(n), k=1)
    iu.flags.writeable = ju.flags.writeable = False  # shared by every caller
    return iu, ju


@lru_cache(maxsize=64)
def _triples(n):
    """Index arrays (a, b, c) of every triple a < b < c of n replicas, in
    lexicographic order."""
    r = np.arange(int(n))
    abc = np.nonzero((r[:, None, None] < r[None, :, None])
                     & (r[None, :, None] < r[None, None, :]))
    for arr in abc:
        arr.flags.writeable = False  # shared by every caller
    return abc


def all_below(levels_batch, n, threshold):
    """Per matrix: are all pairwise levels among the first n replicas <= threshold?"""
    iu, ju = _pairs(n)
    return (levels_batch[:, iu, ju] <= threshold).all(axis=1)


def _unique_min(x, y, z):
    """True where the minimum of three pairwise levels is attained exactly once."""
    m3 = np.minimum(np.minimum(x, y), z)
    hits = (x == m3).astype(np.int8) + (y == m3) + (z == m3)
    return hits == 1


# ---------------------------------------------------------------------------
# Jacobi eigensolver (cyclic sweeps, two-sided rotations)
# ---------------------------------------------------------------------------

def _off_norm(A):
    # direct off-diagonal Frobenius norm; the sum-of-squares difference
    # trick cancels catastrophically once the iteration converges
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_raw(A, tol, max_sweeps):
    """Cyclic Jacobi on a symmetric matrix; numpy row/col rotations.

    Returns (diag, vecs, sweeps, off_residual); diag unsorted.
    """
    A = A.astype(np.float64).copy()
    n = A.shape[0]
    V = np.eye(n)
    scale = np.max(np.abs(A))
    if scale == 0.0 or n == 1:
        return np.diag(A).copy(), V, 0, 0.0
    sweeps = 0
    off = _off_norm(A)
    while off > tol * scale and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp = V[:, p].copy()
                V[:, p] = c * vp - s * V[:, q]
                V[:, q] = s * vp + c * V[:, q]
        sweeps += 1
        off = _off_norm(A)
    return np.diag(A).copy(), V, sweeps, off


# ---------------------------------------------------------------------------
# Ultrametric triple scan on level matrices
# ---------------------------------------------------------------------------
# A triple violates when the minimum of its three pairwise levels is unique.

# Most (matrix, triple) cells one pass of ultra_full gathers.
TRIPLE_BLOCK = 1 << 20


def ultra_full(levels):
    """Scan every triple of one (n, n) level matrix or of a (T, n, n) batch.

    Returns (triples checked, violations, witness). The witness is
    (a, b, c, level ab, level ac, level bc) of the first violating matrix's
    first violating triple in lexicographic order, or all -1.
    """
    batch = levels[None] if levels.ndim == 2 else levels
    a, b, c = _triples(batch.shape[1])
    step = max(1, TRIPLE_BLOCK // max(1, len(a)))
    violations = 0
    witness = np.full(6, -1, dtype=np.int64)
    for start in range(0, len(batch), step):
        block = batch[start : start + step]
        x, y, z = block[:, a, b], block[:, a, c], block[:, b, c]
        bad = _unique_min(x, y, z)
        cnt = int(np.count_nonzero(bad))
        if cnt and violations == 0:
            t, p = np.unravel_index(int(np.argmax(bad)), bad.shape)
            witness[:] = (a[p], b[p], c[p], x[t, p], y[t, p], z[t, p])
        violations += cnt
    return len(batch) * len(a), violations, witness


def top_tie_triples(levels, top):
    """Triples of a (T, n, n) level batch with exactly two pairs at level top."""
    a, b, c = _triples(levels.shape[1])
    hits = ((levels[:, a, b] == top).astype(np.int8) + (levels[:, a, c] == top)
            + (levels[:, b, c] == top))
    return int(np.count_nonzero(hits == 2))


# ---------------------------------------------------------------------------
# Packed-statistic evaluation
# ---------------------------------------------------------------------------
# A pack is (offsets, factors): statistic s is the product of the factor
# columns of the keys factors[offsets[s]:offsets[s + 1]], in that order, over
# one n x n level matrix (see observables.Statistic for the keys).

def eval_stats(levels_batch, vals, pack):
    """(T, S) statistic values. Each distinct factor column is computed once
    per call and multiplied into every statistic that has it, so a
    statistic's value does not depend on its neighbours. A product starts
    from its first column, which gives the bits of starting from ones
    (1.0 * x is x); a statistic without factors keeps its column of ones."""
    offsets, factors = pack
    bounds = offsets.tolist()
    T = levels_batch.shape[0]
    out = np.ones((T, len(bounds) - 1))
    cols = {}
    tri = None
    for s in range(len(bounds) - 1):
        v = None
        for key in factors[bounds[s] : bounds[s + 1]]:
            col = cols.get(key)
            if col is None:
                kind, *args = key
                if kind == "pattern":
                    i, j, level = args
                    col = levels_batch[:, i, j] == level
                elif kind == "threshold":
                    col = all_below(levels_batch, *args)
                elif kind == "sorted3":
                    if tri is None:  # sorted (e01, e02, e12) of each matrix
                        tri = np.sort(levels_batch[:, [0, 0, 1], [1, 2, 2]], axis=1)
                    col = (tri == args[0]).all(axis=1)
                else:
                    i, j, power = args
                    col = vals[levels_batch[:, i, j]] ** float(power)
                cols[key] = col
            v = col if v is None else v * col
        if v is not None:
            out[:, s] = v
    return out


# Enumeration calls the evaluator through this name, so a wrapper installed
# on `eval_stats` counts sampled batches only, not enumeration chunks.
_eval_stats = eval_stats


# ---------------------------------------------------------------------------
# Exact enumeration over twin-atom patterns
# ---------------------------------------------------------------------------
# Atoms a != b are twins when they have the same self level and the same
# level to and from every other atom. Twins form classes, and all pairs
# inside one class share one level, so the level matrix of an atom tuple
# depends only on the class of each replica and on which replicas share an
# atom. Such a pattern is enumerated once, by its canonical tuple: the
# blocks of replicas that share an atom take their class's atoms in order
# of first appearance. There are at most m**n patterns, exactly m**n when
# no atoms are twins. A block of T patterns of r replicas is (weights,
# atoms, levels) with shapes (T,), (r, T) and (r, r, T): pattern index
# last, so that every levels[i, j] row is contiguous.

def _twin_leaders(table):
    """Per atom, the smallest atom of its twin class.

    Atoms a and b are twins at pair level L when their self levels agree
    and their rows and columns agree once their own entries read L; an atom
    has twins at one level at most. Atoms are grouped by a hash of
    (L, self level, row, column), and every grouping is then checked entry
    by entry, so a hash collision can only split a class, never put atoms
    that are not twins into one.
    """
    m = len(table)
    # fixed pseudo-random multipliers; sums wrap modulo 2**64
    mix = np.frombuffer(hashlib.shake_128(b"twins").digest(16 * m + 16),
                        dtype=np.int64)
    t = table.astype(np.int64)
    own = np.diagonal(t)
    low = int(t.min())
    levels = np.flatnonzero(np.bincount((t - low).ravel())) + low
    base = own * mix[0] + t @ mix[1 : m + 1] + t.T @ mix[m + 1 : -1]
    keys = (base + (mix[1 : m + 1] + mix[m + 1 : -1]) * (levels[:, None] - own)
            + levels[:, None] * mix[-1])
    _, first, inv = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    row = np.flatnonzero(first[inv] != np.arange(keys.size))
    level, a, g = levels[row // m], row % m, first[inv][row] % m
    ok = own[a] == own[g]
    for lv in (table, table.T):
        ra, rg = lv[a], lv[g]
        ra[np.arange(len(a)), a] = rg[np.arange(len(a)), g] = level
        ok &= (ra == rg).all(axis=1)
    leader = np.arange(m)
    leader[a[ok]] = g[ok]
    return leader


def twin_classes(table):
    """Twin classes of a pair-level table, as sorted atom tuples ordered by
    their first atom; an atom without twins is a class of its own."""
    leader = _twin_classes_of(table).leader
    return [tuple(np.flatnonzero(leader == a).tolist())
            for a in np.flatnonzero(leader == np.arange(len(table)))]


@lru_cache(maxsize=4096)
def _injective_sum(w, sizes):
    """Sum over injective maps f of blocks into atoms of
    prod_b w[f(b)] ** sizes[b], for a tuple of atom weights w.

    Subset DP over the atoms: dp[S] sums over the maps of the blocks in S
    into the atoms seen so far, each atom taking one block at most. Every
    term is nonnegative, so nothing cancels.
    """
    sets = np.arange(1 << len(sizes))
    with_b = [(sets[sets >> b & 1 == 1], 1 << b) for b in range(len(sizes))]
    dp = np.zeros(len(sets))
    dp[0] = 1.0
    for row in np.asarray(w)[:, None] ** np.asarray(sizes, dtype=np.float64):
        new = dp.copy()
        for (has, bit), p in zip(with_b, row):
            new[has] += dp[has ^ bit] * p
        dp = new
    return float(dp[-1])


def _compositions(total, parts):
    """Tuples of at most `parts` positive integers summing to at most total."""
    yield ()
    if parts:
        for first in range(1, total + 1):
            for rest in _compositions(total - first, parts - 1):
                yield (first, *rest)


@lru_cache(maxsize=256)
def _class_sums(w, n):
    """(codes, injective sums) of one twin class with atom weights w, for
    every way its blocks can split up to n replicas; codes sorted."""
    by_code = {sum(s * (n + 1) ** r for r, s in enumerate(sizes)):
               _injective_sum(w, tuple(sorted(sizes)))
               for sizes in _compositions(n, min(len(w), n))}
    codes = np.array(sorted(by_code), dtype=np.int64)
    sums = np.array([by_code[c] for c in codes.tolist()])
    codes.flags.writeable = sums.flags.writeable = False  # shared
    return codes, sums


class _TwinClasses:
    """Twin classes of one table, with the order in which their atoms may
    extend a pattern: an atom may follow a prefix once its class
    predecessor is in it. Column m of a `seen` row stands for "no
    predecessor". Built once per table content (see _twin_classes_of)."""

    def __init__(self, table):
        m = len(table)
        self.leader = _twin_leaders(table)
        cls = np.unique(self.leader, return_inverse=True)[1]
        self.twin = np.bincount(cls)[cls] > 1
        order = np.argsort(cls, kind="stable")
        self.rank = np.empty(m, dtype=np.int64)
        self.rank[order] = np.arange(m) - np.searchsorted(cls[order], cls[order])
        self.prev = np.full(m, m)
        self.prev[order[1:]] = np.where(self.rank[order[1:]] > 0, order[:-1], m)
        self.cols = np.append(np.flatnonzero(self.twin), m)
        self.members = [np.flatnonzero(cls == c)
                        for c in np.flatnonzero(np.bincount(cls) > 1)]
        self.of = np.zeros(m, dtype=np.int64)
        for i, atoms in enumerate(self.members):
            self.of[atoms] = i


# _TwinClasses by table content, oldest first: one measure is enumerated
# at several n and thresholds, and small tables cost more to classify than
# to enumerate.
_TWIN_CLASSES = {}
TWIN_CLASSES_CACHED = 16


def _twin_classes_of(table):
    digest = hashlib.blake2b(str((table.dtype.str, table.shape)).encode(),
                             digest_size=16)
    digest.update(np.ascontiguousarray(table))
    key = digest.digest()
    if key not in _TWIN_CLASSES:
        if len(_TWIN_CLASSES) >= TWIN_CLASSES_CACHED:
            del _TWIN_CLASSES[next(iter(_TWIN_CLASSES))]
        _TWIN_CLASSES[key] = _TwinClasses(table)
    return _TWIN_CLASSES[key]


class _Twins:
    """What a table's twin classes mean for the patterns of n replicas.

    A class's blocks are coded by their sizes in rank order, as base n + 1
    digits; codes add when two parts of a pattern are joined. The weight of
    a class is the injective sum over its atoms for the code's block sizes,
    tabulated for every code up front. An atom without twins is its own
    class and multiplies its weight in per replica (`solo`).
    """

    def __init__(self, weights, table, n):
        classes = _twin_classes_of(table)
        self.prev, self.of, self.twin_cols = classes.prev, classes.of, classes.cols
        self.k = len(classes.members)
        self.solo = np.where(classes.twin, 1.0, weights)
        # an atom without twins has digit 0 and adds to no code
        self.digit = np.where(classes.twin,
                              (n + 1) ** np.minimum(classes.rank, n), 0)
        self.sums = [_class_sums(tuple(weights[atoms].tolist()), n)
                     for atoms in classes.members]

    def grow(self, seen, replicas, table, threshold):
        """Every pattern of `replicas` replicas that may follow a prefix
        whose atoms are marked in `seen`, in lexicographic order, as
        (solo weights (T,), atoms (replicas, T), levels (replicas,
        replicas, T)); with threshold >= 0, patterns with a pair level above
        it are dropped, replica by replica."""
        m = len(self.prev)
        w, atoms = np.ones(1), np.zeros((0, 1), dtype=np.int64)
        lv = np.zeros((0, 0, 1), dtype=table.dtype)
        for r in range(replicas):
            K = len(w)
            marks = np.empty((K, len(seen)), dtype=bool)
            marks[:] = seen
            marks[np.arange(K), atoms] = True
            ok = marks[:, self.prev]
            cross = table[atoms]  # (r, K, m): prefix replica i against atom a
            if threshold >= 0 and r:
                ok &= (cross <= threshold).all(axis=0)
            grown = np.empty((r + 1, r + 1, K, m), dtype=table.dtype)
            grown[:r, :r] = lv[:, :, :, None]
            grown[:r, r] = grown[r, :r] = cross
            grown[r, r] = np.diagonal(table)
            lv = grown.reshape(r + 1, r + 1, K * m)
            w = (w[:, None] * self.solo).ravel()
            atoms = np.vstack([np.repeat(atoms, m, axis=1), np.tile(np.arange(m), K)])
            if not ok.all():
                keep = ok.ravel()
                lv = np.compress(keep, lv, axis=2)
                w, atoms = w[keep], np.compress(keep, atoms, axis=1)
        return w, atoms, lv

    def class_codes(self, atoms):
        """(k, T) code of each twin class in each pattern of a block."""
        T = atoms.shape[1]
        if not self.k:
            return np.zeros((0, T), dtype=np.int64)
        # an atom without twins has digit 0 and adds nothing to class 0
        bins = self.of[atoms] * T + np.arange(T)
        codes = np.bincount(bins.ravel(), weights=self.digit[atoms].ravel(),
                            minlength=self.k * T)
        return codes[: self.k * T].reshape(self.k, T).astype(np.int64)

    def weight(self, codes):
        """Product over twin classes of their injective sums."""
        out = np.ones(codes.shape[1])
        for c, (keys, sums) in zip(codes, self.sums):
            out *= sums[np.searchsorted(keys, c)]
        return out


def pattern_chunks(weights, table, n, threshold, chunk):
    """Yield (pattern weights, (T, n, n) level matrices) over every pattern.

    A pattern's weight is the summed weight of its tuples. At most `chunk`
    patterns come per block. With threshold >= 0, patterns with a pair
    level above it are skipped, prefix by prefix. The tail is the last s
    replicas, the largest s with m**s <= chunk. The patterns a tail can
    take depend on a head only through the twin atoms the head uses, so
    heads are sorted by those; the tails of each run of equal heads are
    built once and joined to each of its heads in turn.
    """
    m = len(weights)
    s = 0
    while s < n and m ** (s + 1) <= chunk:
        s += 1
    r = n - s
    twins = _Twins(weights, table, n)
    seen = np.zeros(m + 1, dtype=bool)
    seen[m] = True
    hw, ha, hl = twins.grow(seen, r, table, threshold)
    marks = np.empty((len(hw), m + 1), dtype=bool)
    marks[:] = seen
    marks[np.arange(len(hw)), ha] = True
    used = marks[:, twins.twin_cols]
    order = np.lexsort(used.T)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (used[order[1:]] != used[order[:-1]]).any(axis=1)
    hcodes = twins.class_codes(ha)
    for h, new_tail in zip(order.tolist(), first.tolist()):
        if new_tail:
            tw, ta, tl = twins.grow(marks[h], s, table, threshold)
            tcodes = twins.class_codes(ta)
        a = ha[:, h]
        cross = np.take(table[a], ta, axis=1)  # (r, s, T)
        w, codes, lv_cross, lv_tail = hw[h] * tw, tcodes, cross, tl
        if threshold >= 0 and r:
            keep = (cross <= threshold).all(axis=(0, 1))
            w, codes = w[keep], np.compress(keep, codes, axis=1)
            lv_cross = np.compress(keep, cross, axis=2)
            lv_tail = np.compress(keep, tl, axis=2)
        if not len(w):
            continue
        if twins.k:
            w = w * twins.weight(codes + hcodes[:, h : h + 1])
        lv = np.empty((n, n, len(w)), dtype=table.dtype)
        lv[:r, :r] = hl[:, :, h, None]
        lv[:r, r:] = lv_cross
        lv[r:, :r] = lv_cross.transpose(1, 0, 2)
        lv[r:, r:] = lv_tail
        yield w, lv.transpose(2, 0, 1)


def enum_stats(weights, table, n, threshold, vals, pack, chunk=200_000):
    """Event mass and weighted statistic sums over all m**n atom tuples,
    read one twin pattern at a time."""
    event_mass = 0.0
    sums = np.zeros(len(pack[0]) - 1)
    for w, lv in pattern_chunks(weights, table, n, threshold, chunk):
        event_mass += float(w.sum())
        sums += _eval_stats(lv, vals, pack).T @ w
    return event_mass, sums


def enum_law(weights, table, n, threshold, n_levels, chunk=200_000):
    """Realized upper-triangle level tuples and the mass of each.

    Returns (keys, mass): the sorted distinct level_keys of the tuples in
    the event, and the summed weight of each.
    """
    keys = np.zeros(0, dtype=np.int64)
    mass = np.zeros(0)
    for w, lv in pattern_chunks(weights, table, n, threshold, chunk):
        keys, inv = np.unique(np.concatenate([keys, level_keys(lv, n_levels)]),
                              return_inverse=True)
        mass = np.bincount(inv, weights=np.concatenate([mass, w]),
                           minlength=len(keys))
    return keys, mass


def _key_radix(n, n_levels):
    """Place values of the upper-triangle pairs of n replicas in base
    n_levels + 1, the first pair the most significant."""
    pairs = n * (n - 1) // 2
    if (n_levels + 1) ** pairs > np.iinfo(np.int64).max:
        raise OverflowError(f"level tuples of {n} replicas overflow an int64 key")
    return (n_levels + 1) ** np.arange(pairs - 1, -1, -1, dtype=np.int64)


def level_keys(levels, n_levels):
    """One int64 key per matrix of a (T, n, n) level batch: its row-major
    upper-triangle level tuple in base n_levels + 1, the first pair the most
    significant digit, so that sorted keys are sorted tuples."""
    n = levels.shape[-1]
    iu, ju = _pairs(n)
    return levels[:, iu, ju] @ _key_radix(n, n_levels)


def level_tuples(keys, n, n_levels):
    """The level tuple of each of level_keys' keys."""
    digits = keys[:, None] // _key_radix(n, n_levels) % (n_levels + 1)
    return list(map(tuple, digits.tolist()))


def warmup():
    """Run every kernel once on tiny inputs."""
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    jacobi_raw(a, 1e-12, 30)
    batch = np.zeros((1, 3, 3), dtype=np.int16)
    ultra_full(batch)
    top_tie_triples(batch, 1)
    table = np.zeros((2, 2), dtype=np.int16)
    pack = (np.zeros(1, np.int64), ())
    eval_stats(batch, np.zeros(3), pack)
    enum_stats(np.array([1.0]), table[:1, :1], 2, -1, np.zeros(3), pack)
    enum_law(np.array([1.0]), table[:1, :1], 2, -1, 2)


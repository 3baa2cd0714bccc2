"""Hot numeric kernels, one numpy implementation each.

Callers look kernels up as module attributes (`_kernels.eval_stats`), so a
wrapper installed on this module sees every call.
"""

from __future__ import annotations

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
# Rejection filter: keep index tuples whose pairwise levels stay <= threshold
# ---------------------------------------------------------------------------

def accept_mask(idx, table, threshold):
    return all_below(table[idx[:, :, None], idx[:, None, :]], idx.shape[1],
                     threshold)


# ---------------------------------------------------------------------------
# Packed-statistic evaluation
# ---------------------------------------------------------------------------
# A statistic is a product of factors over one n x n level matrix:
#   * pattern indicators  I(levels[i,j] == req)
#   * monomials           vals[levels[i,j]] ** power
#   * prefix thresholds   I(levels[i,j] <= t for all i<j<r)
#   * sorted-triple match I(sorted(e01,e02,e12) == given sorted levels)
# S statistics are packed side by side with ptr offset arrays.

def eval_stats(levels_batch, vals, pack):
    (pat_ptr, pat_i, pat_j, pat_req, mono_ptr, mono_i, mono_j, mono_pow,
     thr_ptr, thr_r, thr_t, srt_ptr, srt_lvl) = pack
    T = levels_batch.shape[0]
    S = len(pat_ptr) - 1
    out = np.ones((T, S))
    tri = None  # sorted (e01, e02, e12) of each matrix, built on first use
    for s in range(S):
        v = np.ones(T)
        for p in range(pat_ptr[s], pat_ptr[s + 1]):
            v = v * (levels_batch[:, pat_i[p], pat_j[p]] == pat_req[p])
        for r in range(thr_ptr[s], thr_ptr[s + 1]):
            v = v * all_below(levels_batch, thr_r[r], thr_t[r])
        for w in range(srt_ptr[s], srt_ptr[s + 1]):
            if tri is None:
                tri = np.sort(np.stack([levels_batch[:, 0, 1], levels_batch[:, 0, 2],
                                        levels_batch[:, 1, 2]], axis=1), axis=1)
            want = srt_lvl[3 * w : 3 * w + 3]
            v = v * (tri == want[None, :]).all(axis=1)
        for q in range(mono_ptr[s], mono_ptr[s + 1]):
            base = vals[levels_batch[:, mono_i[q], mono_j[q]]]
            v = v * base ** float(mono_pow[q])
        out[:, s] = v
    return out


# Enumeration calls the evaluator through this name, so a wrapper installed
# on `eval_stats` counts sampled batches only, not enumeration chunks.
_eval_stats = eval_stats


# ---------------------------------------------------------------------------
# Exact enumeration over all m**n atom tuples
# ---------------------------------------------------------------------------
# A block of T tuples of r replicas is (weights, atoms, levels) with shapes
# (T,), (r, T) and (r, r, T): tuple index last, so that every per-pair row a
# join writes, and every levels[:, i, j] the evaluator reads, is contiguous.

def _join(head, tail, weights, table, threshold):
    """Every head tuple followed by every tail tuple, in lexicographic order.

    Returns the weights and level matrices of the joined tuples, and the mask
    of the head-major (head, tail) pairs kept (None when all are kept).
    Weights multiply left to right, as np.prod over the joined tuple would.
    With threshold >= 0, joins with a head-tail level above it are dropped:
    they lie outside the event, and each block's own pairs were checked when
    it was built.
    """
    hw, hi, hl = head
    _, ti, tl = tail
    (r, K), (s, T) = hi.shape, ti.shape
    # cross[i, j, k, t]: level of head replica i of k and tail replica j of t
    cross = np.take(table[hi], ti, axis=2).transpose(0, 2, 1, 3)
    w = hw[:, None]
    for col in weights[ti]:
        w = w * col
    lv = np.empty((r + s, r + s, K, T), dtype=table.dtype)
    lv[:r, :r] = hl[:, :, :, None]
    lv[:r, r:] = cross
    lv[r:, :r] = cross.transpose(1, 0, 2, 3)
    lv[r:, r:] = tl[:, :, None, :]
    w, lv = w.ravel(), lv.reshape(r + s, r + s, K * T)
    keep = None
    if threshold >= 0:
        keep = (cross <= threshold).all(axis=(0, 1)).ravel()
        w, lv = w[keep], np.compress(keep, lv, axis=2)
    return w, lv, keep


def _tuple_chunks(weights, table, n, threshold, chunk):
    """Yield (tuple weights, level matrices) over all m**n tuples, in order.

    Tuples come in lexicographic order, at most `chunk` per block. With
    threshold >= 0, tuples outside the event are skipped, prefix by prefix.
    The tail is the last s replicas, the largest s with m**s <= chunk; it is
    built once and joined to each surviving head prefix in turn.
    """
    m = len(weights)
    s = 0
    while s < n and m ** (s + 1) <= chunk:
        s += 1
    atoms = np.arange(m)
    unit = (weights, atoms[None, :], table[atoms, atoms][None, None, :])

    def grow(block, replicas):
        for _ in range(replicas):
            w, lv, keep = _join(block, unit, weights, table, threshold)
            hi = block[1]
            grown = np.concatenate([np.repeat(hi, m, axis=1),
                                    np.tile(atoms, (1, hi.shape[1]))])
            block = (w, grown if keep is None else grown[:, keep], lv)
        return block

    empty = (np.ones(1), np.zeros((0, 1), dtype=np.int64),
             np.zeros((0, 0, 1), dtype=table.dtype))
    tail, heads = grow(empty, s), grow(empty, n - s)
    hw, hi, hl = heads
    for h in range(len(hw)):
        w, lv, _ = _join((hw[h : h + 1], hi[:, h : h + 1], hl[:, :, h : h + 1]),
                         tail, weights, table, threshold)
        if len(w):
            yield w, lv.transpose(2, 0, 1)


def enum_stats(weights, table, n, threshold, vals, pack, chunk=200_000):
    """Event mass and weighted statistic sums over all m**n atom tuples."""
    event_mass = 0.0
    sums = np.zeros(len(pack[0]) - 1)
    for w, lv in _tuple_chunks(weights, table, n, threshold, chunk):
        event_mass += float(w.sum())
        sums += _eval_stats(lv, vals, pack).T @ w
    return event_mass, sums


def enum_law(weights, table, n, threshold, n_levels, chunk=200_000):
    """Realized upper-triangle level tuples and the mass of each.

    Returns (keys, mass): the sorted distinct keys of the row-major level
    tuples of the tuples in the event, in base n_levels + 1 with the first
    pair as the lowest digit, and the summed weight of each.
    """
    iu, ju = _pairs(n)
    if (n_levels + 1) ** len(iu) > np.iinfo(np.int64).max:
        raise OverflowError(f"level tuples of {n} replicas overflow an int64 key")
    key_radix = (n_levels + 1) ** np.arange(len(iu), dtype=np.int64)
    keys = np.zeros(0, dtype=np.int64)
    mass = np.zeros(0)
    for w, lv in _tuple_chunks(weights, table, n, threshold, chunk):
        keys, inv = np.unique(np.concatenate([keys, lv[:, iu, ju] @ key_radix]),
                              return_inverse=True)
        mass = np.bincount(inv, weights=np.concatenate([mass, w]),
                           minlength=len(keys))
    return keys, mass


def warmup():
    """Run every kernel once on tiny inputs."""
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    jacobi_raw(a, 1e-12, 30)
    batch = np.zeros((1, 3, 3), dtype=np.int16)
    ultra_full(batch)
    top_tie_triples(batch, 1)
    table = np.zeros((2, 2), dtype=np.int16)
    accept_mask(np.zeros((2, 2), dtype=np.int64), table, np.int16(1))
    pack = empty_pack()
    eval_stats(batch, np.zeros(3), pack)
    enum_stats(np.array([1.0]), table[:1, :1], 2, -1, np.zeros(3), pack)
    enum_law(np.array([1.0]), table[:1, :1], 2, -1, 2)


def empty_pack():
    """Packed representation of zero statistics (see eval_stats)."""
    z32 = np.zeros(0, dtype=np.int32)
    z16 = np.zeros(0, dtype=np.int16)
    ptr = np.zeros(1, dtype=np.int32)
    return (ptr, z32, z32, z16, ptr, z32, z32, z32, ptr, z32, z16, ptr, z16)

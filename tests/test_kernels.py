"""The numpy kernels against plain-python reference implementations."""

import itertools

import numpy as np
import pytest

from overlap_lab import _kernels
from overlap_lab.grid import OverlapGrid
from overlap_lab.measures import (TreeStructure, adversarial_measure,
                                  measure_from_gram)
from overlap_lab.observables import Statistic, pack_statistics
from overlap_lab.sampler import enumerate_statistics
from tree_reference import tree_table


def random_stats(rng, n, k):
    stats = []
    s = Statistic(n).with_pattern(0, 1, int(rng.integers(1, k + 1)))
    stats.append(s)
    mono = Statistic(n).with_monomial(0, 1, 2)
    stats.append(mono.with_monomial(1, 2, 1) if n >= 3 else mono)
    stats.append(Statistic(n).with_threshold(n, k - 1))
    if n >= 3:
        stats.append(Statistic(n).with_sorted_triple((1, 1, min(2, k))))
    stats.append(Statistic(n))
    return stats


def symmetric_levels(rng, shape, k):
    lv = rng.integers(1, k + 1, size=shape).astype(np.int16)
    upper = np.triu(lv, 1)
    return upper + np.swapaxes(upper, -1, -2)


def ultra_reference(levels, triples):
    """(checked, violations, first witness) over (t, a, b, c) rows, in order."""
    violations = 0
    witness = [-1] * 6
    for t, a, b, c in triples:
        x, y, z = (int(levels[t][a, b]), int(levels[t][a, c]),
                   int(levels[t][b, c]))
        if [x, y, z].count(min(x, y, z)) == 1:
            if violations == 0:
                witness = [a, b, c, x, y, z]
            violations += 1
    return len(triples), violations, witness


def top_tie_reference(levels, top):
    """Triples with two top-level pairs whose closing pair is below top,
    counted as ordered (b, c) pairs around each apex a and halved."""
    A = (levels == top).astype(np.int64)
    pairs = np.einsum("tab,tac->tbc", A, A)
    viol2 = pairs * ((levels != top) & (levels != 0))
    n = levels.shape[1]
    viol2[:, np.arange(n), np.arange(n)] = 0
    return int(viol2.sum()) // 2


class TestStatisticReference:
    """Kernel evaluation matches the plain-python Statistic oracle."""

    def test_matches_evaluate_one(self):
        rng = np.random.default_rng(6)
        n, k = 4, 3
        lv = symmetric_levels(rng, (25, n, n), k)
        vals = np.array([0.9, 0.0, 0.3, 0.7])
        stats = random_stats(rng, n, k)
        pack = pack_statistics(stats)
        fast = _kernels.eval_stats(np.ascontiguousarray(lv), vals, pack)
        for t in range(lv.shape[0]):
            for s, st in enumerate(stats):
                assert np.isclose(fast[t, s], st.evaluate_one(lv[t], vals),
                                  atol=1e-14)

    def test_shared_factors_match_each_statistic_alone(self):
        # every factor kind repeats across statistics, some twice in one
        rng = np.random.default_rng(8)
        n, k = 5, 3
        lv = np.ascontiguousarray(symmetric_levels(rng, (40, n, n), k))
        vals = np.array([0.9, 0.0, 0.3, 0.7])
        f = Statistic(n).with_pattern(0, 1, 1)
        stats = [f.with_monomial(0, 4, 1), f, f.with_monomial(0, 2, 1),
                 f.with_monomial(0, 4, 2).with_monomial(0, 4, 1),
                 Statistic(n).with_threshold(4, 2).with_sorted_triple((1, 1, 2)),
                 Statistic(n).with_sorted_triple((1, 1, 2)).with_threshold(5, 2),
                 f.with_threshold(4, 2).with_pattern(0, 1, 1),
                 *random_stats(rng, n, k), *random_stats(rng, n, k)]
        together = _kernels.eval_stats(lv, vals, pack_statistics(stats))
        for s, st in enumerate(stats):
            alone = _kernels.eval_stats(lv, vals, pack_statistics([st]))
            assert together[:, s].tobytes() == alone[:, 0].tobytes()

    def test_kind_order_does_not_change_bits(self):
        # the pack multiplies a statistic's factors kind by kind, and its
        # monomials in the order they were added
        rng = np.random.default_rng(9)
        n, k = 3, 3
        lv = np.ascontiguousarray(symmetric_levels(rng, (40, n, n), k))
        vals = np.array([0.9, -0.7, 0.3, 0.55])
        built = [Statistic(n).with_monomial(0, 2, 3).with_pattern(0, 1, 1)
                 .with_monomial(1, 2, 1),
                 Statistic(n).with_pattern(0, 1, 1).with_monomial(0, 2, 3)
                 .with_monomial(1, 2, 1),
                 Statistic(n).with_monomial(0, 2, 3).with_monomial(1, 2, 1)
                 .with_pattern(0, 1, 1)]
        want = (("pattern", 0, 1, 1), ("monomial", 0, 2, 3),
                ("monomial", 1, 2, 1))
        cols = []
        for st in built:
            offsets, factors = pack_statistics([st])
            assert offsets.tolist() == [0, 3] and factors == want
            cols.append(_kernels.eval_stats(lv, vals, (offsets, factors)))
        assert cols[0].tobytes() == cols[1].tobytes() == cols[2].tobytes()
        assert np.count_nonzero(cols[0])


def twin_classes_reference(table):
    """Twin classes straight from the definition: a != b are twins when
    their self levels agree and table[a, x] == table[b, x] and
    table[x, a] == table[x, b] for every x outside {a, b}."""
    m = len(table)
    leader = list(range(m))
    for a in range(m):
        for b in range(a):
            others = [x for x in range(m) if x not in (a, b)]
            if (table[a, a] == table[b, b]
                    and all(table[a, x] == table[b, x] for x in others)
                    and all(table[x, a] == table[x, b] for x in others)):
                leader[a] = min(leader[a], leader[b])
    return [tuple(a for a in range(m) if leader[a] == g)
            for g in sorted(set(leader))]


class TestTwinClasses:
    def test_tree_bottom_clusters(self):
        for q, B in (((0.3, 0.6), 3), ((0.2, 0.5, 0.8), 2)):
            table = tree_table(TreeStructure(q, B))
            want = [tuple(range(c * B, (c + 1) * B)) for c in range(len(table) // B)]
            assert _kernels.twin_classes(table) == want
            assert twin_classes_reference(table) == want

    def test_adversarial_measure(self):
        assert _kernels.twin_classes(adversarial_measure().table) == [(0,), (1, 2)]

    def test_enumeration_tables(self):
        assert _kernels.twin_classes(TestEnumerationReference.tables["twins"]) \
            == [(0, 2), (1, 3), (4,)]
        assert _kernels.twin_classes(TestEnumerationReference.tables["no_twins"]) \
            == [(a,) for a in range(5)]

    def test_random_tables_match_definition(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            m = int(rng.integers(1, 12))
            # copies of a few base atoms, each copy group at its own pair level
            base = rng.integers(1, 4, size=(m, m))
            src = rng.integers(0, max(1, m - trial % 3), size=m)
            table = np.maximum(base, base.T)[np.ix_(src, src)].astype(np.int16)
            same = src[:, None] == src[None, :]
            table[same] = (1 + src % 2)[:, None].repeat(m, axis=1)[same]
            np.fill_diagonal(table, 4 - (trial % 2) * (np.arange(m) % 2))
            assert _kernels.twin_classes(table) == twin_classes_reference(table)

    def test_random_table_without_twins(self):
        rng = np.random.default_rng(9)
        table = rng.integers(1, 6, size=(30, 30))
        table = np.maximum(table, table.T).astype(np.int16)
        np.fill_diagonal(table, 6)
        assert twin_classes_reference(table) == [(a,) for a in range(30)]
        assert _kernels.twin_classes(table) == [(a,) for a in range(30)]


class TestEnumerationReference:
    """Enumeration matches a brute-force sum over itertools.product.

    chunk=1 runs the head loop over every replica, chunk=7 and chunk=m a
    one-replica tail, chunk=m**2 a two-replica tail and chunk=10**6 the
    whole enumeration as one block. Atom 1 has zero weight. t=2 keeps the
    tuples of distinct atoms; t=1 prunes hardest and leaves no tuple at
    n=4. The "twins" table has twin classes {0, 2}, {1, 3} and {4}; the
    "no_twins" table has none, so each of its patterns is one tuple.
    """

    m, k = 5, 3
    chunks = [1, 7, m, m**2, 10**6]
    tables = {
        "twins": np.array([[3, 1, 1, 1, 2],
                           [1, 3, 1, 2, 1],
                           [1, 1, 3, 1, 2],
                           [1, 2, 1, 3, 1],
                           [2, 1, 2, 1, 3]], dtype=np.int16),
        "no_twins": np.array([[3, 1, 1, 2, 2],
                              [1, 3, 2, 1, 2],
                              [1, 2, 3, 2, 1],
                              [2, 1, 2, 3, 1],
                              [2, 2, 1, 1, 3]], dtype=np.int16),
    }

    def setup_method(self):
        w = np.random.default_rng(5).random(self.m)
        w[1] = 0.0
        self.w = w / w.sum()
        self.vals = np.array([1.0, 0.1, 0.4, 0.9])

    def tuples(self, n, t, table):
        """(weight, level matrix) of every tuple inside the event."""
        for tup in itertools.product(range(self.m), repeat=n):
            lv = table[np.ix_(tup, tup)]
            if t >= 0 and any(lv[i, j] > t for i, j in
                              itertools.combinations(range(n), 2)):
                continue
            yield float(np.prod(self.w[list(tup)])), lv

    @pytest.mark.parametrize("t", [-1, 1, 2])
    def test_enum_stats(self, t):
        for (name, table), n in itertools.product(self.tables.items(),
                                                  (2, 3, 4, 5)):
            stats = random_stats(np.random.default_rng(n), n, self.k)
            if n >= 3:  # a second statistic on the same sorted triple
                stats.append(Statistic(n).with_sorted_triple((2, 3, 3)))
            mass = 0.0
            sums = np.zeros(len(stats))
            for w, lv in self.tuples(n, t, table):
                mass += w
                sums += w * np.array([st.evaluate_one(lv, self.vals)
                                      for st in stats])
            for chunk in self.chunks:
                got_mass, got_sums = _kernels.enum_stats(
                    self.w, table, n, t, self.vals,
                    pack_statistics(stats), chunk=chunk)
                assert np.isclose(got_mass, mass, rtol=0, atol=1e-14), \
                    (name, n, chunk)
                assert np.allclose(got_sums, sums, rtol=0, atol=1e-14), \
                    (name, n, chunk)

    @pytest.mark.parametrize("t", [-1, 1, 2])
    def test_enum_law(self, t):
        base = self.k + 1
        for (name, table), n in itertools.product(self.tables.items(),
                                                  (2, 3, 4, 5)):
            law = {}
            for w, lv in self.tuples(n, t, table):
                # the first pair is the most significant digit
                key = 0
                for i, j in itertools.combinations(range(n), 2):
                    key = key * base + int(lv[i, j])
                law[key] = law.get(key, 0.0) + w
            for chunk in self.chunks:
                keys, mass = _kernels.enum_law(self.w, table, n, t,
                                               self.k, chunk=chunk)
                assert keys.tolist() == sorted(law), (name, n, chunk)
                assert np.allclose(mass, [law[key] for key in sorted(law)],
                                   rtol=0, atol=1e-14), (name, n, chunk)

    @pytest.mark.parametrize("name", ["twins", "no_twins"])
    def test_pattern_count(self, name):
        table = self.tables[name]
        for n in (2, 3, 4, 5):
            for chunk in self.chunks:
                blocks = [len(w) for w, _ in _kernels.pattern_chunks(
                    self.w, table, n, -1, chunk)]
                assert max(blocks) <= chunk
                if name == "no_twins":
                    assert sum(blocks) == self.m**n
                else:
                    assert sum(blocks) < self.m**n

    def test_enum_law_holds_realized_keys_only(self):
        # 3**15 possible keys at n=6, k=2; 3**6 tuples realize far fewer
        m, n, k = 3, 6, 2
        table = np.array([[2, 1, 1], [1, 2, 2], [1, 2, 2]], dtype=np.int16)
        w = np.array([0.5, 0.3, 0.2])
        realized = {tuple(int(table[a[i], a[j]]) for i, j in
                          itertools.combinations(range(n), 2))
                    for a in itertools.product(range(m), repeat=n)}
        keys, mass = _kernels.enum_law(w, table, n, -1, k)
        assert len(keys) == len(mass) == len(realized)
        place = (k + 1) ** np.arange(n * (n - 1) // 2 - 1, -1, -1)
        digits = (keys[:, None] // place) % (k + 1)
        assert {tuple(row) for row in digits.tolist()} == realized
        assert np.isclose(mass.sum(), 1.0, rtol=0, atol=1e-14)

    def test_level_keys_round_trip_in_tuple_order(self):
        # the key of both matrix laws: sorted keys are sorted tuples
        lv = np.random.default_rng(4).integers(1, 4, size=(50, 5, 5))
        iu, ju = np.triu_indices(5, 1)
        tuples = [tuple(row) for row in lv[:, iu, ju].tolist()]
        keys = _kernels.level_keys(lv.astype(np.int16), 3)
        assert _kernels.level_tuples(keys, 5, 3) == tuples
        assert _kernels.level_tuples(np.sort(keys), 5, 3) == sorted(tuples)

    def test_enum_law_key_overflow_raises(self):
        # 3**45 keys for the 45 pairs of n=10 replicas at k=2 exceed int64
        with pytest.raises(OverflowError):
            _kernels.enum_law(np.array([1.0]), np.full((1, 1), 2, np.int16),
                              10, -1, 2)

    def test_impossible_event_raises(self):
        grid = OverlapGrid((0.3, 0.7), 0.7)
        gram = np.array([[0.7, 0.3, 0.3], [0.3, 0.7, 0.3], [0.3, 0.3, 0.7]])
        measure = measure_from_gram(gram, np.array([0.5, 0.3, 0.2]), grid)
        # no level lies below level 1: the event has no mass, and the
        # oracle returns it unrefused with all-zero sums
        sums, mass = enumerate_statistics(measure, [Statistic(3)] * 2, 3, 0)
        assert mass == 0.0
        assert sums.tolist() == [0.0, 0.0]


class TestTripleScanReference:
    def test_ultra_full(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            lv = symmetric_levels(rng, (n, n), 3)
            triples = [(0, *abc) for abc in itertools.combinations(range(n), 3)]
            checked, violations, witness = _kernels.ultra_full(lv)
            want = ultra_reference([lv], triples)
            assert (checked, violations) == want[:2]
            assert list(witness) == want[2]

    def test_ultra_full_batch(self):
        rng = np.random.default_rng(2)
        batch = symmetric_levels(rng, (6, 5, 5), 3)
        triples = [(t, *abc) for t in range(6)
                   for abc in itertools.combinations(range(5), 3)]
        checked, violations, witness = _kernels.ultra_full(batch)
        want = ultra_reference(batch, triples)
        assert violations > 0
        assert (checked, violations) == want[:2]
        assert list(witness) == want[2]

    @pytest.mark.parametrize("T", [1, 5])
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_ultra_full_batch_sizes(self, T, n):
        rng = np.random.default_rng(10 * T + n)
        triples = [(t, *abc) for t in range(T)
                   for abc in itertools.combinations(range(n), 3)]
        for _ in range(5):
            batch = symmetric_levels(rng, (T, n, n), 3)
            checked, violations, witness = _kernels.ultra_full(batch)
            want = ultra_reference(batch, triples)
            assert (checked, violations) == want[:2]
            assert list(witness) == want[2]

    def test_ultra_full_witness_from_first_violating_matrix(self):
        n = 6
        batch = np.full((5, n, n), 2, dtype=np.int16)  # all ties: ultrametric
        batch[3, 2, 4] = batch[3, 4, 2] = 1  # unique minimum in matrix 3
        batch[4, 0, 1] = batch[4, 1, 0] = 1  # and earlier triples in matrix 4
        triples = [(t, *abc) for t in range(5)
                   for abc in itertools.combinations(range(n), 3)]
        checked, violations, witness = _kernels.ultra_full(batch)
        want = ultra_reference(batch, triples)
        assert (checked, violations) == want[:2]
        assert list(witness) == want[2] == [0, 2, 4, 2, 2, 1]

    def test_ultra_full_blocks_agree(self, monkeypatch):
        rng = np.random.default_rng(4)
        batch = symmetric_levels(rng, (7, 6, 6), 3)
        whole = _kernels.ultra_full(batch)
        monkeypatch.setattr(_kernels, "TRIPLE_BLOCK", 50)  # 2 matrices a block
        blocked = _kernels.ultra_full(batch)
        assert whole[:2] == blocked[:2]
        assert list(whole[2]) == list(blocked[2])


    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_top_tie_triples(self, n, K):
        rng = np.random.default_rng(10 * n + K)
        batch = symmetric_levels(rng, (200, n, n), K)
        want = top_tie_reference(batch, K)
        assert want > 0 or K == 1  # one level: every triple has three ties
        assert _kernels.top_tie_triples(batch, K) == want
        assert _kernels.top_tie_triples(batch[:0], K) == 0


class TestAllBelowReference:
    def test_per_tuple_rule(self):
        # all_below is the one event predicate: a matrix is inside the event
        # when every pair among its first n replicas is at level <= t
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            batch = symmetric_levels(rng, (300, 7, 7), 4)
            for t in (1, 2, 3, 4):
                want = [all(lv[i, j] <= t
                            for i, j in itertools.combinations(range(n), 2))
                        for lv in batch]
                assert _kernels.all_below(batch, n, t).tolist() == want
                assert _kernels.all_below(batch[:0], n, t).tolist() == []

"""The numpy kernels against plain-python reference implementations."""

import itertools

import numpy as np
import pytest

from overlap_lab import _kernels
from overlap_lab.observables import Statistic, pack_statistics


def random_stats(rng, n, k):
    stats = []
    s = Statistic(n).with_pattern(0, 1, int(rng.integers(1, k + 1)))
    stats.append(s)
    stats.append(Statistic(n).with_monomial(0, 1, 2).with_monomial(1, 2, 1))
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


class TestEnumerationReference:
    """Chunked enumeration matches a brute-force sum over itertools.product."""

    m, n, k = 4, 3, 3

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.w = rng.random(self.m)
        self.w /= self.w.sum()
        table = symmetric_levels(rng, (self.m, self.m), self.k)
        np.fill_diagonal(table, self.k)
        self.table = table
        self.vals = np.array([1.0, 0.1, 0.4, 0.9])
        self.stats = random_stats(rng, self.n, self.k)

    def tuples(self, t):
        """(weight, level matrix) of every tuple inside the event."""
        for tup in itertools.product(range(self.m), repeat=self.n):
            lv = self.table[np.ix_(tup, tup)]
            if t >= 0 and any(lv[i, j] > t for i, j in
                              itertools.combinations(range(self.n), 2)):
                continue
            yield float(np.prod(self.w[list(tup)])), lv

    @pytest.mark.parametrize("t", [-1, 2])
    def test_enum_stats(self, t):
        mass = 0.0
        sums = np.zeros(len(self.stats))
        for w, lv in self.tuples(t):
            mass += w
            sums += w * np.array([st.evaluate_one(lv, self.vals)
                                  for st in self.stats])
        got_mass, got_sums = _kernels.enum_stats(
            self.w, self.table, self.n, t, self.vals,
            pack_statistics(self.stats), chunk=7)
        assert mass > 0.0
        assert np.isclose(got_mass, mass, rtol=0, atol=1e-14)
        assert np.allclose(got_sums, sums, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("t", [-1, 2])
    def test_enum_law(self, t):
        base = self.k + 1
        law = np.zeros(base ** 3)
        for w, lv in self.tuples(t):
            law[lv[0, 1] + base * lv[0, 2] + base**2 * lv[1, 2]] += w
        got = _kernels.enum_law(self.w, self.table, self.n, t, self.k, chunk=7)
        assert np.allclose(got, law, rtol=0, atol=1e-14)


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

    def test_ultra_triples_all(self):
        rng = np.random.default_rng(2)
        batch = symmetric_levels(rng, (6, 5, 5), 3)
        triples = np.array([(t, *abc) for t in range(6)
                            for abc in itertools.combinations(range(5), 3)],
                           dtype=np.int64)
        checked, violations, witness = _kernels.ultra_triples(batch, triples)
        want = ultra_reference(batch, triples.tolist())
        assert violations > 0
        assert (checked, violations) == want[:2]
        assert list(witness) == want[2]


class TestAcceptMaskReference:
    def test_per_tuple_rule(self):
        rng = np.random.default_rng(3)
        table = rng.integers(1, 5, size=(20, 20)).astype(np.int16)
        table = np.maximum(table, table.T)
        idx = rng.integers(0, 20, size=(300, 4))
        for t in (1, 2, 3, 4):
            want = [all(table[r[i], r[j]] <= t
                        for i, j in itertools.combinations(range(4), 2))
                    for r in idx]
            assert _kernels.accept_mask(idx, table, t).tolist() == want

import numpy as np
import pytest

from overlap_lab import _kernels
from overlap_lab.observables import (ObservableSpec, Psi, Statistic,
                                     default_gg_observables, pack_statistics)


class TestPsi:
    def test_validation(self):
        with pytest.raises(ValueError):
            Psi("monomial", 0)
        with pytest.raises(ValueError):
            Psi("monomial", 9)
        with pytest.raises(ValueError):
            Psi("indicator", 0)
        with pytest.raises(ValueError):
            Psi("other", 1)

    def test_labels(self):
        assert Psi("monomial", 2).label() == "x^2"
        assert Psi("indicator", 3).label() == "1[q3]"


class TestObservableSpec:
    def test_positions_in_bounds(self):
        with pytest.raises(ValueError):
            ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 3), 1),))
        with pytest.raises(ValueError):
            ObservableSpec(2, Psi("monomial", 1), f_pattern=(((2, 1), 1),))

    def test_pattern_xor_monomial(self):
        with pytest.raises(ValueError):
            ObservableSpec(2, Psi("monomial", 1),
                           f_pattern=(((1, 2), 1),),
                           f_monomial=(((1, 2), 1),))

    def test_n_lower_bound(self):
        with pytest.raises(ValueError):
            ObservableSpec(1, Psi("monomial", 1))

    def test_ids_are_distinct(self):
        obs = default_gg_observables()
        ids = [o.observable_id() for o in obs]
        assert len(set(ids)) == len(ids) == 12


class TestStatistic:
    def test_factor_product(self):
        g_values = np.array([0.9, 0.2, 0.5])
        lv = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int16)
        st = Statistic(3).with_pattern(0, 1, 1).with_monomial(0, 2, 2)
        assert np.isclose(st.evaluate_one(lv, g_values), 0.5**2)
        st2 = Statistic(3).with_pattern(0, 1, 2)
        assert st2.evaluate_one(lv, g_values) == 0.0
        st3 = Statistic(3).with_threshold(3, 1)
        assert st3.evaluate_one(lv, g_values) == 0.0  # entry (0,2) is 2
        st4 = Statistic(3).with_sorted_triple((1, 1, 2))
        assert st4.evaluate_one(lv, g_values) == 1.0

    def test_batch_evaluation_matches(self):
        rng = np.random.default_rng(0)
        lv = rng.integers(1, 3, size=(10, 3, 3)).astype(np.int16)
        lv = np.triu(lv, 1) + np.transpose(np.triu(lv, 1), (0, 2, 1))
        vals = np.array([0.9, 0.2, 0.5])
        stats = [Statistic(3).with_pattern(0, 1, 1),
                 Statistic(3).with_monomial(1, 2, 3)]
        out = _kernels.eval_stats(lv, vals, pack_statistics(stats))
        for t in range(10):
            for s, st in enumerate(stats):
                assert np.isclose(out[t, s], st.evaluate_one(lv[t], vals))

    def test_conflicting_pattern_is_zero(self):
        lv = np.array([[0, 1], [1, 0]], dtype=np.int16)
        vals = np.array([0.9, 0.2])
        st = Statistic(2).with_pattern(0, 1, 1).with_pattern(0, 1, 2)
        assert st.evaluate_one(lv, vals) == 0.0

    def test_builders_do_not_mutate(self):
        base = Statistic(3)
        a = base.with_pattern(0, 1, 1)
        assert base.factors == () and a.factors == (("pattern", 0, 1, 1),)

import weakref

import numpy as np
import pytest

from overlap_lab import _kernels, sampler
from overlap_lab.errors import EventMassTooSmall, OffGridOverlap, TooLarge
from overlap_lab.cli import build_model
from overlap_lab.grid import OverlapGrid
from overlap_lab.measures import (ADVERSARIAL_GRAM, DiscreteMeasure,
                                  TreeMeasureSpec, adversarial_measure,
                                  build_tree_measures, counter_stream,
                                  explicit_measure, measure_from_gram)
from overlap_lab.models import (DescendedModel, FrozenModel, TreeModel,
                                as_model)
from overlap_lab.observables import Statistic, pack_statistics
from overlap_lab.sampler import (OUTER_BLOCK_ROWS, SCAN_BLOCK_DRAWS, Estimate,
                                 EventSpec, MCConfig, combined_threshold,
                                 empirical_matrix_law, enumerate_matrix_law,
                                 enumerate_statistics, filtered_level_batches,
                                 mean_and_se, outer_stat_means,
                                 ratio_from_means, sweep, total_variation)

from perfbench_load import load
from tree_reference import digit_levels, explicit_tree


def single_atom():
    g = OverlapGrid((0.7,), 0.7)
    return explicit_measure([[np.sqrt(0.7)]], [1.0], g)


def two_orthogonal(w0=0.5):
    g = OverlapGrid((0.0, 0.7), 0.7)
    a = np.sqrt(0.7)
    return explicit_measure([[a, 0.0], [0.0, a]], [w0, 1.0 - w0], g,
                            on_sphere=False)


def three_atoms(weights=(1 / 3, 1 / 3, 1 / 3)):
    gram = np.array([[0.7, 0.3, 0.3], [0.3, 0.7, 0.3], [0.3, 0.3, 0.7]])
    g = OverlapGrid((0.3, 0.7), 0.7)
    return measure_from_gram(gram, np.array(weights), g)


def kept_levels(measure, n, mc, seed, threshold=None):
    """The level matrices filtered_level_batches keeps, one batch per draw."""
    return [lv for _, lv in filtered_level_batches(measure, n, mc, seed,
                                                   threshold, key=0x5CA)]


class TestDrawReplicas:
    def test_single_atom_all_top(self):
        m = single_atom()
        idx = m.sample_indices(np.random.default_rng(1).random((50, 3)))
        assert (idx == 0).all()
        for lv in kept_levels(m, 3, MCConfig(4, 5), 1):
            assert lv.shape == (5, 3, 3)
            assert (lv[:, [0, 0, 1], [1, 2, 2]] == 1).all()

    def test_deterministic(self):
        m = three_atoms()
        a, b, c = (np.stack(kept_levels(m, 4, MCConfig(5, 20), seed))
                   for seed in (9, 9, 10))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_collision_probability(self):
        m = two_orthogonal(0.3)
        rng = np.random.default_rng(2)
        n_pairs = 100_000
        idx = m.sample_indices(rng.random((n_pairs, 2)))
        p_hat = np.mean(idx[:, 0] == idx[:, 1])
        p = 0.3**2 + 0.7**2
        se = np.sqrt(p * (1 - p) / n_pairs)
        assert abs(p_hat - p) <= 3 * se

    def test_matrix_matches_indices(self):
        for m in (three_atoms(), build_tree_measures(
                TreeMeasureSpec((0.3, 0.7), 3, (0.3, 0.6), seed=3), 0, 1)[0]):
            idx = m.sample_indices(np.random.default_rng(3).random((40, 5)))
            lv = m.levels_from_indices(idx)
            for t in range(len(idx)):
                for a in range(5):
                    for b in range(a + 1, 5):
                        want = m.pair_level(idx[t, a], idx[t, b])
                        assert lv[t, a, b] == lv[t, b, a] == want

    def test_off_grid_draw_raises(self):
        g = OverlapGrid((1.0,), 1.0)
        atoms = np.array([[1.0, 0.0], [0.6, 0.8]])  # inner product 0.6 off grid
        m = explicit_measure(atoms, [0.5, 0.5], g, on_sphere=False)
        with pytest.raises(OffGridOverlap):
            kept_levels(m, 2, MCConfig(5, 10), 1)


class TestConditionalDraw:
    """filtered_level_batches keeps exactly the drawn tuples inside the
    event, and none when the event is impossible on the grid."""

    def test_distinct_event(self):
        m = three_atoms()
        t = EventSpec("A_n", 3).threshold(m.grid)
        kept = kept_levels(m, 3, MCConfig(10, 30), 4, t)
        assert sum(map(len, kept)) > 0
        for lv in kept:
            # distinct atoms of three_atoms sit at level 1, equal ones at 2
            assert (lv[:, [0, 0, 1], [1, 2, 2]] == 1).all()
        # the dropped tuples are the others of the same draws
        every = kept_levels(m, 3, MCConfig(10, 30), 4)
        for lv, all_lv in zip(kept, every):
            inside = (all_lv[:, [0, 0, 1], [1, 2, 2]] == 1).all(axis=1)
            assert lv.tobytes() == all_lv[inside].tobytes()

    def test_impossible_event(self):
        m = single_atom()
        t = EventSpec("A_n", 2).threshold(m.grid)
        assert t == 0
        kept = kept_levels(m, 2, MCConfig(6, 50), 1, t)
        assert len(kept) == 6 and all(len(lv) == 0 for lv in kept)

    def test_below_threshold_event(self):
        m = three_atoms()
        t = EventSpec("A_nq", 3, q=0.5).threshold(m.grid)
        kept = kept_levels(m, 3, MCConfig(10, 30), 5, t)
        assert sum(map(len, kept)) > 0
        for lv in kept:
            off = lv[:, [0, 0, 1], [1, 2, 2]]
            assert (off == 1).all()  # only level q1=0.3 lies below 0.5


class TestEstimateExpectation:
    """Nested Monte Carlo estimates: the mean and se of one statistic's
    column of outer_stat_means, or the ratio of its event-weighted means."""

    def test_constant_statistic(self):
        means = outer_stat_means(three_atoms(), [Statistic(2)], 2,
                                 MCConfig(20, 10), seed=1)
        est, se = mean_and_se(means[:, 0])
        assert est == 1.0 and se == 0.0

    def test_single_atom_top_indicator(self):
        stat = Statistic(2).with_pattern(0, 1, 1)
        means = outer_stat_means(single_atom(), [stat], 2, MCConfig(10, 10), 1)
        est, _ = mean_and_se(means[:, 0])
        assert est == 1.0

    def test_against_enumeration(self):
        m = three_atoms()
        stat = Statistic(2).with_pattern(0, 1, 1)
        exact = enumerate_statistics(m, [stat], 2)[0][0]
        assert np.isclose(exact, 2 / 3, atol=1e-14)  # 6 of 9 pairs distinct
        means = outer_stat_means(m, [stat], 2, MCConfig(200, 100), seed=5)
        est, se = mean_and_se(means[:, 0])
        assert abs(est - exact) <= 3 * se + 1e-9

    def test_conditional_acceptance_rate(self):
        # E-level acceptance of distinctness matches the mass formula shape
        model = TreeModel(TreeMeasureSpec((0.5,), 300, (0.5,), seed=3))
        stat = Statistic(3).with_pattern(0, 1, 1)
        t = EventSpec("A_n", 3).threshold(model.grid)
        means = outer_stat_means(model, [stat], 3, MCConfig(300, 100), seed=6,
                                 event_threshold=t)
        _, _, acceptance_rate = ratio_from_means(means)
        assert combined_threshold(model, t) is not None  # the ratio form
        # infinite-cascade value: E<I(A_3)> = zeta^2
        assert abs(acceptance_rate - 0.25) <= 0.03


class TestEnumeration:
    def test_single_atom(self):
        stat = Statistic(2).with_pattern(0, 1, 1)
        assert enumerate_statistics(single_atom(), [stat], 2)[0][0] == 1.0

    def test_two_orthogonal_collision(self):
        m = two_orthogonal(0.5)
        stat = Statistic(2).with_pattern(0, 1, 2)
        assert np.isclose(enumerate_statistics(m, [stat], 2)[0][0], 0.5,
                          atol=1e-14)

    def test_conditional_removes_collisions(self):
        m = two_orthogonal(0.5)
        stat = Statistic(2).with_pattern(0, 1, 1)
        t = EventSpec("A_n", 2).threshold(m.grid)
        sums, mass = enumerate_statistics(m, [stat], 2, t)
        assert np.isclose(sums[0] / mass, 1.0, atol=1e-14)

    def test_event_null(self):
        # an event without mass is returned, not refused: ratio_from_means
        # refuses it
        m = single_atom()
        sums, mass = enumerate_statistics(
            m, [Statistic(2), Statistic(2).with_pattern(0, 1, 1)], 2,
            EventSpec("A_n", 2).threshold(m.grid))
        assert mass == 0.0
        assert sums.tolist() == [0.0, 0.0]

    def test_too_large(self):
        # 30 orthogonal atoms with distinct self levels: no twins, 30^5 tuples
        levels = tuple(np.linspace(0.0, 1.0, 31))
        atoms = np.diag(np.sqrt(levels[1:]))
        m = explicit_measure(atoms, np.full(30, 1 / 30),
                             OverlapGrid(levels, 1.0), on_sphere=False)
        assert len(_kernels.twin_classes(m.table)) == 30
        with pytest.raises(TooLarge):
            enumerate_statistics(m, [Statistic(5)], 5)

    def test_guard_counts_atoms_tried_per_pattern(self):
        # 2,500 leaves in 50 twin classes: the 7,017,550 patterns of 4
        # replicas fit the guard, but each of the 132,550 patterns of 3
        # replicas tries all 2,500 atoms
        m = explicit_tree(build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 50, (0.3, 0.6), seed=7), 0, 1)[0])
        assert len(_kernels.twin_classes(m.table)) == 50
        with pytest.raises(TooLarge):
            enumerate_statistics(m, [Statistic(4)], 4)

    def test_tree_measure_refused(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 2, (0.3, 0.6), seed=7), 0, 1)[0]
        no_table = "a tree measure reads its levels from ancestor codes"
        with pytest.raises(ValueError, match=no_table):
            sampler._enum_guard(m, 2)
        with pytest.raises(ValueError, match=no_table):
            enumerate_statistics(m, [Statistic(2)], 2)

    def test_twin_classes_lift_the_guard(self):
        # 40 atoms in 4 twin classes of 10: 40^5 tuples, at most 5,428 patterns
        cls = np.repeat(np.arange(4), 10)
        gram = np.where(cls[:, None] == cls[None, :], 0.5, 0.0)
        np.fill_diagonal(gram, 1.0)
        w = np.random.default_rng(3).random(40) + 0.5
        m = measure_from_gram(gram, w / w.sum(),
                              OverlapGrid((0.0, 0.5, 1.0), 1.0))
        assert m.m**5 > sampler.ENUM_GUARD
        assert len(_kernels.twin_classes(m.table)) == 4
        vals, mass = sampler.enumerate_statistics(m, [Statistic(5)], 5)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # equal weights: P(R12 = 0.3 level) = 6/9 * ... pairwise distinct = 2/3
        m = three_atoms()
        stat = Statistic(2).with_pattern(0, 1, 1)
        assert np.isclose(enumerate_statistics(m, [stat], 2)[0][0], 2 / 3,
                          atol=1e-14)
        # conditional on distinctness it is 1: E[stat; A_2] / P(A_2)
        t = EventSpec("A_n", 2).threshold(m.grid)
        sums, mass = enumerate_statistics(m, [stat], 2, t)
        assert np.isclose(mass, 2 / 3, atol=1e-14)
        assert np.isclose(sums[0] / mass, 1.0, atol=1e-14)


class TestConditionalLaw:
    @pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2)])
    def test_adversarial_pattern_law(self, weights):
        m = measure_from_gram(ADVERSARIAL_GRAM, np.array(weights),
                              OverlapGrid((0.3, 0.7, 1.0), 1.0))
        law = enumerate_matrix_law(m, 3, event_threshold=2)
        emp = empirical_matrix_law(m, 3, MCConfig(40, 1000), seed=4,
                                   event_threshold=2)
        assert total_variation(law, emp) <= 0.02

    def test_empirical_law_matches_row_sort(self):
        """Keys, their order and the frequencies equal those of sorting the
        kept level tuples as rows (np.unique over axis 0)."""
        four = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 2, (0.3, 0.6), 4), 0, 1)[0]
        mc = MCConfig(5, 1_000)
        for m, n, t in ((four, 4, None), (four, 3, 2), (four, 2, 1),
                        (adversarial_measure(), 5, None)):
            emp = empirical_matrix_law(m, n, mc, seed=3, event_threshold=t)
            iu, ju = np.triu_indices(n, k=1)
            kept = np.concatenate([lv[:, iu, ju] for _, lv in
                                   filtered_level_batches(
                                       m, n, mc, 3, t, key=sampler._LAW_KEY)])
            assert len(kept) == mc.outer * mc.inner or t is not None
            rows, counts = np.unique(kept, axis=0, return_counts=True)
            want = {tuple(int(v) for v in r): c / len(kept)
                    for r, c in zip(rows, counts)}
            assert list(emp.items()) == list(want.items())

    def test_empirical_law_of_impossible_event_raises(self):
        with pytest.raises(EventMassTooSmall):
            empirical_matrix_law(single_atom(), 2, MCConfig(3, 10), seed=1,
                                 event_threshold=0)

    def test_law_probabilities_sum_to_one(self):
        m = three_atoms((0.6, 0.25, 0.15))
        law = enumerate_matrix_law(m, 3)
        assert np.isclose(sum(law.values()), 1.0, atol=1e-12)


class TestRatioEngine:
    def test_plain_means_have_unit_denominator(self):
        m = three_atoms()
        means = outer_stat_means(FrozenModel(m),
                                 [Statistic(2).with_pattern(0, 1, 1)], 2,
                                 MCConfig(10, 20), seed=1)
        assert means.shape == (10, 2)
        assert np.allclose(means[:, -1], 1.0)

    def test_descended_model_composes_threshold(self):
        model = DescendedModel(FrozenModel(three_atoms()), 1)
        assert model.threshold == 1
        assert model.grid.levels == (0.3,)
        means = outer_stat_means(model, [Statistic(2).with_pattern(0, 1, 1)],
                                 2, MCConfig(20, 50), seed=2)
        r, h, dbar = ratio_from_means(means)
        # conditioned on no collisions every pair sits at level 1
        assert np.isclose(r[0], 1.0, atol=1e-12)
        assert 0.4 < dbar < 0.9  # event mass ~ 2/3


class TestExchangeability:
    def test_relabeling_invariance(self):
        model = TreeModel(TreeMeasureSpec((0.3, 0.7), 30, (0.3, 0.6), seed=8))
        f12 = Statistic(3).with_pattern(0, 1, 2)
        f23 = Statistic(3).with_pattern(1, 2, 2)
        a, a_se = mean_and_se(outer_stat_means(model, [f12], 3,
                                               MCConfig(400, 100), seed=3)[:, 0])
        b, b_se = mean_and_se(outer_stat_means(model, [f23], 3,
                                               MCConfig(400, 100), seed=4)[:, 0])
        comb = np.hypot(a_se, b_se)
        assert abs(a - b) <= 3 * comb


def outer_stat_means_per_draw(model, stats, n, mc, seed, event_threshold=None):
    """Reference: one stream, level batch and eval_stats call per outer
    draw; draw j reads n * inner uniforms at offset j * n * inner."""
    model = as_model(model)
    threshold = combined_threshold(model, event_threshold)
    if threshold is None:
        cols = list(stats) + [Statistic(n)]
    else:
        cols = [s.with_threshold(n, threshold) for s in stats]
        cols.append(Statistic(n).with_threshold(n, threshold))
    pack = pack_statistics(cols)
    means = np.empty((mc.outer, len(cols)))
    for j in range(mc.outer):
        measure = model.measure_at(j)
        rng = counter_stream(seed, sampler._INNER_KEY, j * n * mc.inner)
        idx = measure.sample_indices(rng.random((mc.inner, n)))
        lv = measure.levels_from_indices(idx)
        vals = measure.grid.values_by_index()
        means[j] = _kernels.eval_stats(lv, vals, pack).mean(axis=0)
    return means


def prefix_means_per_draw(model, stats, n, mc, seed, event_threshold,
                          counts):
    """Reference for outer_stat_means with replica counts: statistic i is
    evaluated on the leading counts[i] x counts[i] block of each level
    matrix, under the event on those replicas only, and the denominator of
    each distinct count c (increasing) is the event on the first c."""
    model = as_model(model)
    threshold = combined_threshold(model, event_threshold)
    cols = list(zip(stats, counts))
    cols += [(Statistic(c), c) for c in sorted(set(counts))]
    means = np.empty((mc.outer, len(cols)))
    for j in range(mc.outer):
        measure = model.measure_at(j)
        rng = counter_stream(seed, sampler._INNER_KEY, j * n * mc.inner)
        lv = measure.levels_from_indices(
            measure.sample_indices(rng.random((mc.inner, n))))
        vals = measure.grid.values_by_index()
        values = np.empty((mc.inner, len(cols)))
        for i, (st, c) in enumerate(cols):
            if threshold is not None:
                st = st.with_threshold(c, threshold)
            values[:, i] = _kernels.eval_stats(lv[:, :c, :c], vals,
                                               pack_statistics([st]))[:, 0]
        means[j] = values.mean(axis=0)
    return means


class TestOuterBlocksReference:
    """Blocked outer_stat_means equals the per-draw loop bit for bit."""

    STATS = [Statistic(3).with_pattern(0, 1, 1),
             Statistic(3).with_monomial(0, 2, 2).with_monomial(1, 2, 1),
             Statistic(3).with_sorted_triple((1, 1, 2))]

    @staticmethod
    def models():
        tree = TreeModel(TreeMeasureSpec((0.3, 0.7), 6, (0.3, 0.6), seed=5))
        digits = TreeModel(TreeMeasureSpec((0.3, 0.7), 60, (0.3, 0.6), seed=6))
        return {"tree": tree, "tree_digits": digits,
                "frozen": FrozenModel(three_atoms((0.5, 0.3, 0.2))),
                "descended": DescendedModel(tree, 1)}

    @pytest.mark.parametrize("name", ["tree", "tree_digits", "frozen",
                                      "descended"])
    @pytest.mark.parametrize("threshold", [None, 1])
    @pytest.mark.parametrize("block_rows, outer, inner", [
        (None, 12, 30),  # the module's block: one block
        (64, 10, 20),    # three draws a block, outer not a multiple of it
        (64, 4, 100),    # inner above the block's rows: one draw a block
    ])
    def test_matches_per_draw_loop(self, monkeypatch, name, threshold,
                                   block_rows, outer, inner):
        if block_rows is not None:
            monkeypatch.setattr(sampler, "OUTER_BLOCK_ROWS", block_rows)
        self.assert_matches(name, threshold, outer, inner)

    @pytest.mark.parametrize("name", ["tree", "tree_digits", "frozen",
                                      "descended"])
    @pytest.mark.parametrize("draws", [1, 7, 13])
    def test_block_sizes_match_per_draw_loop(self, monkeypatch, name, draws):
        monkeypatch.setattr(sampler, "OUTER_BLOCK_ROWS", draws * 10)
        self.assert_matches(name, None, 30, 10)

    def assert_matches(self, name, threshold, outer, inner):
        model = self.models()[name]
        mc = MCConfig(outer, inner)
        got = outer_stat_means(model, self.STATS, 3, mc, 9, threshold)
        want = outer_stat_means_per_draw(model, self.STATS, 3, mc, 9, threshold)
        assert got.shape == (outer, len(self.STATS) + 1)
        assert got.tobytes() == want.tobytes()

    PREFIX_STATS = [Statistic(4).with_pattern(0, 1, 1),
                    Statistic(4).with_monomial(0, 2, 2).with_monomial(1, 2, 1),
                    Statistic(4).with_sorted_triple((1, 1, 2)),
                    Statistic(4).with_pattern(2, 3, 1)]

    @pytest.mark.parametrize("name", ["tree", "frozen", "descended"])
    @pytest.mark.parametrize("threshold", [None, 1])
    def test_prefix_counts_read_each_statistics_own_replicas(self, name,
                                                             threshold):
        model = self.models()[name]
        mc = MCConfig(9, 20)
        counts = [2, 3, 3, 4]
        got = outer_stat_means(model, self.PREFIX_STATS, 4, mc, 9, threshold,
                               counts)
        want = prefix_means_per_draw(model, self.PREFIX_STATS, 4, mc, 9,
                                     threshold, counts)
        assert got.shape == (9, 4 + 3)  # one denominator per count
        assert got.tobytes() == want.tobytes()

    def test_prefix_counts_above_n_rejected(self):
        with pytest.raises(ValueError, match="replica count"):
            outer_stat_means(self.models()["frozen"], [Statistic(2)], 2,
                             MCConfig(2, 2), 1, counts=[3])

    def test_measures_with_other_levels_rejected(self):
        class Mixed:
            frozen = False
            threshold = None
            grid = three_atoms().grid

            def measure_at(self, j):
                return three_atoms() if j % 2 else three_atoms((0.5, 0.3, 0.2))

            def measures(self, start, stop):
                return map(self.measure_at, range(start, stop))

        with pytest.raises(ValueError, match="share"):
            outer_stat_means(Mixed(), [Statistic(2)], 2, MCConfig(4, 5), 1)


class TestSweepReference:
    """sweep serves several estimates from one pass over the outer draws,
    each bit for bit its per-draw reference, whatever the window."""

    STATS4 = TestOuterBlocksReference.PREFIX_STATS

    @classmethod
    def estimates(cls):
        """Estimates of other outer, inner, n, seeds, thresholds and counts;
        the farthest reads 17 draws, and one reads a single draw."""
        stats3 = TestOuterBlocksReference.STATS
        return [Estimate(stats3, 3, MCConfig(10, 20), 9),
                Estimate(stats3, 3, MCConfig(17, 7), 4, 1),
                Estimate(cls.STATS4, 4, MCConfig(8, 30), 5, None, [2, 3, 3, 4]),
                Estimate(cls.STATS4, 4, MCConfig(13, 11), 6, 1, [3, 3, 4, 4]),
                Estimate([Statistic(2).with_pattern(0, 1, 1)], 2, MCConfig(1, 50),
                         7)]

    @staticmethod
    def reference(model, est):
        if est.counts is None:
            return outer_stat_means_per_draw(model, est.stats, est.n, est.mc,
                                             est.seed, est.event_threshold)
        return prefix_means_per_draw(model, est.stats, est.n, est.mc, est.seed,
                                     est.event_threshold, est.counts)

    @pytest.mark.parametrize("name", ["tree", "tree_digits", "frozen",
                                      "descended"])
    @pytest.mark.parametrize("window, block_rows", [  # None: the module's
        (1, None), (3, None), (None, None),
        (5, 64), (None, 64),  # several blocks of an estimate in a window
    ])
    def test_matches_per_draw_loop(self, monkeypatch, name, window,
                                   block_rows):
        model = TestOuterBlocksReference.models()[name]
        if window is not None:
            monkeypatch.setattr(sampler, "SWEEP_ATOMS",
                                window * model.measure_at(0).m)
        if block_rows is not None:
            monkeypatch.setattr(sampler, "OUTER_BLOCK_ROWS", block_rows)
        ests = self.estimates()
        got = sweep(model, ests)
        assert len(got) == len(ests)
        for est, means in zip(ests, got):
            want = self.reference(model, est)
            assert means.shape == want.shape == (est.mc.outer, means.shape[1])
            assert means.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [3, 5])
    def test_reads_each_draw_once_a_window_at_a_time(self, monkeypatch,
                                                     window):
        """One model.measures call over draws 0 .. 16, read in windows of
        `window` draws: each window's measures are read before any block of
        it is drawn, and no measure of an earlier window is read again."""
        model = TestOuterBlocksReference.models()["tree"]
        monkeypatch.setattr(sampler, "SWEEP_ATOMS", window * model.structure.m)
        calls, events = [], []
        measures, sample = type(model).measures, DiscreteMeasure.sample_indices

        def recording(self, start, stop):
            calls.append((start, stop))
            for j, measure in enumerate(measures(self, start, stop), start):
                events.append(("read", j))
                yield measure

        def sampling(self, u):
            events.append(("draw", None))
            return sample(self, u)

        monkeypatch.setattr(type(model), "measures", recording)
        monkeypatch.setattr(DiscreteMeasure, "sample_indices", sampling)
        sweep(model, self.estimates())
        assert calls == [(0, 17)]
        reads = [j for kind, j in events if kind == "read"]
        assert reads == list(range(17))
        # a window's reads all come before its draws, and its draws before
        # the next window's reads
        for start in range(0, 17, window):
            stop = min(start + window, 17)
            first, last = (events.index(("read", j)) for j in (start, stop - 1))
            assert ("draw", None) not in events[first:last]
            end = events.index(("read", stop)) if stop < 17 else len(events)
            assert ("draw", None) in events[last:end]

    def test_columns_refused_before_any_draw(self, monkeypatch):
        def refuse(self, u):
            raise AssertionError("drew before every estimate was checked")

        monkeypatch.setattr(DiscreteMeasure, "sample_indices", refuse)
        model = TestOuterBlocksReference.models()["frozen"]
        bad = Estimate([Statistic(2)], 2, MCConfig(2, 2), 1, counts=[3])
        with pytest.raises(ValueError, match="replica count"):
            sweep(model, [self.estimates()[0], bad])


@pytest.mark.parametrize("name", ["tree", "tree_digits", "frozen"])
def test_outer_stat_means_holds_one_block(monkeypatch, name):
    """outer_stat_means holds one block at a time: a block's uniforms are
    freed before its level fill, and its indices, levels and statistic
    values before the next block's uniforms are read."""
    monkeypatch.setattr(sampler, "OUTER_BLOCK_ROWS", 3 * 20)  # 3 draws a block
    uniforms, block = [], []

    def dead(refs):
        return all(ref() is None for ref in refs)

    real_sample = DiscreteMeasure.sample_indices
    real_levels = DiscreteMeasure.levels_from_indices
    real_eval = _kernels.eval_stats

    def sample_indices(self, u):
        assert dead(block)  # the previous block is gone
        uniforms.append(weakref.ref(u.base))
        return real_sample(self, u)

    def levels_from_indices(self, idx):
        assert dead(uniforms)
        lv = real_levels(self, idx)
        block.extend([weakref.ref(idx), weakref.ref(lv.base)])
        return lv

    def eval_stats(lv, vals, pack):
        out = real_eval(lv, vals, pack)
        block.append(weakref.ref(out))
        return out

    monkeypatch.setattr(DiscreteMeasure, "sample_indices", sample_indices)
    monkeypatch.setattr(DiscreteMeasure, "levels_from_indices",
                        levels_from_indices)
    monkeypatch.setattr(_kernels, "eval_stats", eval_stats)
    model = TestOuterBlocksReference.models()[name]
    outer_stat_means(model, TestOuterBlocksReference.STATS, 3,
                     MCConfig(10, 20), 9)
    assert len(block) == 3 * 4  # four blocks: 3, 3, 3 and 1 draws
    assert dead(block)


class TestTreeRejection:
    """The block sampler drops a tree's tuples outside an event on the
    levels its ancestor codes give; it keeps exactly the drawn tuples whose
    pair levels on the m x m table are all <= t."""

    @pytest.mark.parametrize("B, k", [(3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_table_mask(self, B, k, n):
        m = build_tree_measures(TreeMeasureSpec(
            tuple(np.linspace(0.2, 0.8, k)), B,
            tuple(np.linspace(0.2, 0.8, k)), seed=B + k), 0, 1)[0]
        mc = MCConfig(3, 1000)
        iu, ju = np.triu_indices(n, k=1)
        for t in range(1, k + 2):
            got = [lv for _, lv in filtered_level_batches(m, n, mc, n, t,
                                                          key=0x5CA)]
            for j, lv in enumerate(got):
                rng = counter_stream(n, 0x5CA, j * n * mc.inner)
                idx = m.sample_indices(rng.random((mc.inner, n)))
                levels = digit_levels(B, k, idx[:, iu], idx[:, ju])
                inside = (levels <= t).all(axis=1)
                assert np.array_equal(lv[:, iu, ju], levels[inside])
        assert inside.all()  # t = k + 1 admits every tuple

    def test_never_reads_table(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 6, (0.3, 0.6), seed=2), 0, 1)[0]
        kept = kept_levels(m, 4, MCConfig(4, 50), 1, 1)
        assert "table" not in vars(m.tree)
        assert sum(map(len, kept)) > 0
        for lv in kept:
            assert _kernels.all_below(lv, 4, 1).all()


def filtered_level_batches_per_draw(model, n, mc, seed, threshold, key):
    """Reference for filtered_level_batches: one draw at a time, draw j from
    measure j and its own slice of counter_stream(seed, key), then filtered."""
    model = as_model(model)
    t = combined_threshold(model, threshold)
    for j in range(mc.outer):
        measure = model.measure_at(j)
        rng = counter_stream(seed, key, j * n * mc.inner)
        lv = measure.levels_from_indices(
            measure.sample_indices(rng.random((mc.inner, n))))
        if t is not None:
            lv = lv[_kernels.all_below(lv, n, t)]
        yield measure, lv


class TestScanBlocksReference:
    """The scans' blocked draws equal the per-draw loop bit for bit."""

    @pytest.mark.parametrize("name", ["tree", "tree_digits", "frozen",
                                      "descended"])
    @pytest.mark.parametrize("threshold", [None, 1])
    @pytest.mark.parametrize("draws", [1, 7, 13])
    @pytest.mark.parametrize("n", [4, 10])  # n > 8 shrinks the blocks
    def test_matches_per_draw_loop(self, monkeypatch, name, threshold, draws,
                                   n):
        monkeypatch.setattr(sampler, "OUTER_BLOCK_ROWS", draws * 10)
        self.assert_matches(name, threshold, n)

    @pytest.mark.parametrize("name", ["tree", "frozen", "descended"])
    @pytest.mark.parametrize("threshold", [None, 1])
    @pytest.mark.parametrize("n", [4, 10])
    def test_draw_cap_sets_the_blocks(self, monkeypatch, name, threshold, n):
        # OUTER_BLOCK_ROWS would hold all 30 draws; the cap groups 3
        monkeypatch.setattr(sampler, "SCAN_BLOCK_DRAWS", 3)
        rows = block_rows(monkeypatch)
        self.assert_matches(name, threshold, n)
        assert rows == [3 * 10] * 10 + [10] * 30  # then the per-draw loop

    @staticmethod
    def assert_matches(name, threshold, n):
        model = TestOuterBlocksReference.models()[name]
        mc = MCConfig(30, 10)
        got = list(filtered_level_batches(model, n, mc, 9, threshold,
                                          key=0x5CA))
        want = list(filtered_level_batches_per_draw(model, n, mc, 9,
                                                    threshold, 0x5CA))
        assert len(got) == len(want) == mc.outer
        for (measure, lv), (ref_measure, ref) in zip(got, want):
            assert measure.shares_levels(ref_measure)
            assert lv.dtype == ref.dtype and lv.shape == ref.shape
            assert lv.tobytes() == ref.tobytes()


def block_rows(monkeypatch) -> list:
    """The rows of each index block turned into levels from now on."""
    rows = []
    real = DiscreteMeasure.levels_from_indices

    def counting(self, idx):
        rows.append(len(idx))
        return real(self, idx)

    monkeypatch.setattr(DiscreteMeasure, "levels_from_indices", counting)
    return rows


def test_scan_blocks_hold_at_most_the_draw_cap(monkeypatch):
    """On the benchmark's 12-atom frozen measure, a scan's blocks hold at
    most SCAN_BLOCK_DRAWS draws, while outer_stat_means on the same sizes
    still groups whole draws up to its row bound."""
    model, _ = build_model(load("workloads").exact_config(0)["measure"])
    assert model.frozen and model.measure_at(0).m == 12
    n, mc = 6, MCConfig(200, 100)
    rows = block_rows(monkeypatch)
    for _ in filtered_level_batches(model, n, mc, 1, key=0xA11):
        pass
    cap = SCAN_BLOCK_DRAWS * mc.inner
    assert max(rows) == cap and sum(rows) == mc.outer * mc.inner
    rows.clear()
    outer_stat_means(model, [Statistic(n)], n, mc, 1)
    bound = OUTER_BLOCK_ROWS // mc.inner * mc.inner
    assert max(rows) == bound > cap and sum(rows) == mc.outer * mc.inner

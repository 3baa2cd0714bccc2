import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab.errors import GridTooSmall
from overlap_lab.eigen import is_psd_dense
from overlap_lab.grid import DIAG, OverlapGrid, check_ultrametric_batch
from level_matrices import from_offdiag


def grid2():
    return OverlapGrid((0.3, 0.7), 0.7)


class TestOverlapGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverlapGrid((0.7, 0.3))
        with pytest.raises(ValueError):
            OverlapGrid((0.3, 0.7), 0.5)  # self below top
        with pytest.raises(ValueError):
            OverlapGrid((0.3, 1.2))
        with pytest.raises(ValueError):
            OverlapGrid(())

    @pytest.mark.parametrize("levels, self_overlap", [
        ((np.nan,), 1.0),
        ((0.3, np.nan), 1.0),
        ((0.3, 0.7), np.nan),
    ], ids=["only_level", "top_level", "self_overlap"])
    def test_nan_rejected(self, levels, self_overlap):
        with pytest.raises(ValueError):
            OverlapGrid(levels, self_overlap)

    def test_threshold_below(self):
        g = grid2()
        assert g.threshold_below(0.1) == 0
        assert g.threshold_below(0.3) == 0  # strict inequality
        assert g.threshold_below(0.5) == 1
        assert g.threshold_below(0.9) == 2

    def test_truncated(self):
        g = OverlapGrid((0.1, 0.3, 0.7), 1.0)
        t = g.truncated()
        assert t.levels == (0.1, 0.3)
        assert t.self_overlap == 0.3
        with pytest.raises(GridTooSmall):
            OverlapGrid((0.5,)).truncated()


class TestRealize:
    """A grid's values_by_index()[levels] is a level matrix's values."""

    def test_two_by_two(self):
        vals = grid2().values_by_index()
        assert np.allclose(vals[from_offdiag(2, [1])], [[0.7, 0.3], [0.3, 0.7]])

    def test_one_by_one(self):
        vals = grid2().values_by_index()
        assert vals[np.array([[DIAG]])].tolist() == [[0.7]]

    def test_constant_top_level(self):
        g = OverlapGrid((0.7,), 0.7)
        assert np.allclose(g.values_by_index()[from_offdiag(3, [1, 1, 1])],
                           np.full((3, 3), 0.7))


class TestCheckUltrametric:
    def test_unique_min_violates(self):
        rep = check_ultrametric_batch(from_offdiag(3, [2, 2, 1]))
        assert (rep.triples_checked, rep.violations) == (1, 1)
        assert rep.first_witness == ((0, 1, 2), (2, 2, 1))

    def test_min_twice_passes(self):
        rep = check_ultrametric_batch(from_offdiag(3, [2, 1, 1]))
        assert (rep.triples_checked, rep.violations) == (1, 0)
        assert rep.first_witness is None

    def test_small_matrix_no_triples(self):
        rep = check_ultrametric_batch(from_offdiag(2, [1]))
        assert rep.triples_checked == 0

    def test_tree_sample_has_no_violations(self):
        from overlap_lab.measures import TreeMeasureSpec, build_tree_measures
        from overlap_lab.sampler import MCConfig, filtered_level_batches

        measure = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), 5), 0, 1)[0]
        [(_, lv)] = filtered_level_batches(measure, 8, MCConfig(1, 1), 1,
                                           key=0x5CA)
        rep = check_ultrametric_batch(lv[0])
        assert rep.triples_checked == 56
        assert rep.violations == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 10**6))
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        m = from_offdiag(n, rng.integers(1, 4, size=n * (n - 1) // 2))
        perm = rng.permutation(n)
        assert (check_ultrametric_batch(m).violations
                == check_ultrametric_batch(m[np.ix_(perm, perm)]).violations)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        mats = [from_offdiag(5, rng.integers(1, 4, 10)) for _ in range(7)]
        rep = check_ultrametric_batch(np.stack(mats))
        assert rep.violations == sum(
            check_ultrametric_batch(m).violations for m in mats)
        assert rep.triples_checked == 7 * 10


class TestTruncate:
    def test_truncated_tree_sample_stays_psd(self):
        """descend's truncation: samples without top-level ties, read
        through the truncated grid's values."""
        from overlap_lab.measures import TreeMeasureSpec, build_tree_measures
        from overlap_lab.sampler import MCConfig, filtered_level_batches

        measure = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), 2), 0, 1)[0]
        K = measure.grid.k
        vals = measure.grid.truncated().values_by_index()
        seen = 0
        for _, lv in filtered_level_batches(measure, 4, MCConfig(5, 200), 0,
                                            event_threshold=K - 1, key=0x5CA):
            for levels in lv:
                assert levels.max() <= K - 1
                ok, lo = is_psd_dense(vals[levels])
                assert ok and lo >= -1e-8
                seen += 1
        assert seen > 0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab.errors import GridTooSmall
from overlap_lab.eigen import is_psd_dense
from overlap_lab.grid import (DIAG, LevelMatrix, OverlapGrid,
                              check_ultrametric_batch, matrix_from_offdiag,
                              truncate)


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
    def test_two_by_two(self):
        m = matrix_from_offdiag(2, [1], grid2())
        assert np.allclose(m.realize(), [[0.7, 0.3], [0.3, 0.7]])

    def test_one_by_one(self):
        m = LevelMatrix(np.array([[DIAG]]), grid2())
        assert m.realize().tolist() == [[0.7]]

    def test_constant_top_level(self):
        g = OverlapGrid((0.7,), 0.7)
        m = matrix_from_offdiag(3, [1, 1, 1], g)
        assert np.allclose(m.realize(), np.full((3, 3), 0.7))


class TestLevelMatrix:
    def test_symmetry_required(self):
        e = np.array([[0, 1], [2, 0]], dtype=np.int16)
        with pytest.raises(ValueError):
            LevelMatrix(e, grid2())

    def test_diagonal_required(self):
        e = np.array([[1, 1], [1, 1]], dtype=np.int16)
        with pytest.raises(ValueError):
            LevelMatrix(e, grid2())

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            matrix_from_offdiag(2, [3], grid2())

    def test_entries_frozen(self):
        m = matrix_from_offdiag(2, [1], grid2())
        with pytest.raises(ValueError):
            m.entries[0, 1] = 2


class TestCheckUltrametric:
    def test_unique_min_violates(self):
        m = matrix_from_offdiag(3, [2, 2, 1], grid2())
        rep = check_ultrametric_batch(m.entries)
        assert (rep.triples_checked, rep.violations) == (1, 1)
        assert rep.first_witness == ((0, 1, 2), (2, 2, 1))

    def test_min_twice_passes(self):
        m = matrix_from_offdiag(3, [2, 1, 1], grid2())
        rep = check_ultrametric_batch(m.entries)
        assert (rep.triples_checked, rep.violations) == (1, 0)
        assert rep.first_witness is None

    def test_small_matrix_no_triples(self):
        m = matrix_from_offdiag(2, [1], grid2())
        assert check_ultrametric_batch(m.entries).triples_checked == 0

    def test_tree_sample_has_no_violations(self):
        from overlap_lab.measures import TreeMeasureSpec, build_tree_measures
        from overlap_lab.sampler import MCConfig, filtered_level_batches

        measure = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), 5), 0, 1)[0]
        [(_, lv)] = filtered_level_batches(measure, 8, MCConfig(1, 1), 1,
                                           key=0x5CA)
        rep = check_ultrametric_batch(LevelMatrix(lv[0], measure.grid).entries)
        assert rep.triples_checked == 56
        assert rep.violations == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7), st.integers(0, 10**6))
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        g = OverlapGrid((0.1, 0.4, 0.9), 1.0)
        offdiag = rng.integers(1, 4, size=n * (n - 1) // 2)
        m = matrix_from_offdiag(n, offdiag, g)
        perm = rng.permutation(n)
        m2 = LevelMatrix(m.entries[np.ix_(perm, perm)], g)
        assert (check_ultrametric_batch(m.entries).violations
                == check_ultrametric_batch(m2.entries).violations)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        g = OverlapGrid((0.1, 0.4, 0.9), 1.0)
        mats = [matrix_from_offdiag(5, rng.integers(1, 4, 10), g) for _ in range(7)]
        batch = np.stack([m.entries for m in mats])
        rep = check_ultrametric_batch(batch)
        assert rep.violations == sum(
            check_ultrametric_batch(m.entries).violations for m in mats)
        assert rep.triples_checked == 7 * 10


class TestTruncate:
    def test_entrywise_min(self):
        m = matrix_from_offdiag(3, [2, 1, 2], grid2())
        t = truncate(m)
        assert t.grid.levels == (0.3,)
        assert t.grid.self_overlap == 0.3
        off = t.realize()[np.triu_indices(3, 1)]
        assert np.allclose(off, 0.3)

    def test_no_top_entries_only_diagonal_drops(self):
        g = OverlapGrid((0.1, 0.3, 0.7), 0.7)
        m = matrix_from_offdiag(3, [1, 2, 1], g)
        t = truncate(m)
        assert np.array_equal(t.entries, m.entries)
        assert t.grid.self_overlap == 0.3

    def test_double_truncation_composes(self):
        rng = np.random.default_rng(8)
        g = OverlapGrid((0.1, 0.3, 0.5, 0.7), 1.0)
        m = matrix_from_offdiag(5, rng.integers(1, 5, 10), g)
        twice = truncate(truncate(m))
        direct = np.minimum(m.entries, 2)
        direct[np.diag_indices(5)] = DIAG
        assert np.array_equal(twice.entries, direct)
        assert twice.grid.levels == (0.1, 0.3)

    def test_single_level_grid_rejected(self):
        g = OverlapGrid((0.5,), 0.5)
        m = matrix_from_offdiag(2, [1], g)
        with pytest.raises(GridTooSmall):
            truncate(m)

    def test_truncated_tree_sample_stays_psd(self):
        from overlap_lab.measures import TreeMeasureSpec, build_tree_measures
        from overlap_lab.sampler import MCConfig, filtered_level_batches

        measure = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), 2), 0, 1)[0]
        for _, lv in filtered_level_batches(measure, 6, MCConfig(5, 1), 0,
                                            key=0x5CA):
            m = LevelMatrix(lv[0], measure.grid)
            ok, lo = is_psd_dense(truncate(m).realize())
            assert lo >= -1e-8

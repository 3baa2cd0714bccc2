import numpy as np
import pytest

from overlap_lab.errors import NullConditioning
from overlap_lab import models
from overlap_lab.grid import OverlapGrid
from overlap_lab.measures import (TreeMeasureSpec, adversarial_measure,
                                  build_tree_measures, explicit_measure)
from overlap_lab.models import DescendedModel, FrozenModel, TreeModel
from overlap_lab.pipeline import (DescendConfig, collision_identity_check,
                                  criterion_run, descend)
from overlap_lab.sampler import MCConfig
from test_verify import clustered_model
from tree_reference import explicit_tree


def k1_tree(seed=5):
    return TreeModel(TreeMeasureSpec((0.5,), 200, (0.5,), seed=seed))


def k2_tree(seed=11):
    return TreeModel(TreeMeasureSpec((0.3, 0.7), 50, (0.3, 0.6), seed=seed))


class TestCollisionIdentity:
    def test_tree_passes(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), 2), 0, 1)[0]
        ok, witness = collision_identity_check(m)
        assert ok and witness is None

    @pytest.mark.parametrize("B, k", [(2, 1), (3, 2), (60, 2)])
    def test_tree_reads_codes_not_table(self, B, k):
        m = build_tree_measures(TreeMeasureSpec(
            tuple(np.linspace(0.2, 0.8, k)), B,
            tuple(np.linspace(0.2, 0.8, k)), seed=4), 0, 1)[0]
        assert collision_identity_check(m) == (True, None)
        assert "table" not in vars(m.tree)
        if m.m <= 100:  # the table scan of its explicit twin agrees
            assert collision_identity_check(explicit_tree(m)) == (True, None)

    def test_tree_with_shared_leaf_code_fails_with_pair(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 3, (0.3, 0.6), 2), 0, 1)[0]
        codes = m.tree.codes.copy()
        codes[-1, 5] = codes[-1, 4]
        m.tree.codes = codes
        assert collision_identity_check(m) == (False, (4, 5))

    def test_duplicate_atoms_fail_with_pair(self):
        g = OverlapGrid((0.7,), 0.7)
        a = np.sqrt(0.7)
        m = explicit_measure([[a], [a]], [0.5, 0.5], g)
        ok, witness = collision_identity_check(m)
        assert not ok and witness == (0, 1)

    def test_single_atom_passes(self):
        g = OverlapGrid((0.7,), 0.7)
        m = explicit_measure([[np.sqrt(0.7)]], [1.0], g)
        ok, witness = collision_identity_check(m)
        assert ok and witness is None

    def test_off_sphere_diagonal_fails(self):
        g = OverlapGrid((0.3, 0.7), 0.7)
        atoms = np.array([[np.sqrt(0.3), 0.0], [0.0, np.sqrt(0.7)]])
        m = explicit_measure(atoms, [0.5, 0.5], g, on_sphere=False)
        ok, witness = collision_identity_check(m)
        assert not ok and witness == (0, 0)


class TestDescend:
    def test_single_level_leaf_report(self):
        rep = descend(k1_tree(), DescendConfig(mc=MCConfig(30, 30),
                                               psd_outer=5, psd_inner=5), 1)
        assert rep.level == 2  # emitted grid is {0, q1}
        assert rep.child is not None
        leaf = rep.child
        assert leaf.level == 1 and leaf.child is None
        assert leaf.all_passed

    def test_k2_tree_full_pass(self):
        cfg = DescendConfig(mc=MCConfig(80, 60), psd_outer=20, psd_inner=10)
        rep = descend(k2_tree(), cfg, seed=3)
        levels = []
        node = rep
        while node is not None:
            levels.append(node.level)
            assert node.all_passed
            node = node.child
        assert levels == [3, 2, 1]
        assert rep.details["min_eigenvalue"] >= -1e-8

    @pytest.mark.parametrize("seed", [2, 9])
    def test_k3_tree_full_pass(self, seed):
        model = TreeModel(TreeMeasureSpec((0.2, 0.5, 0.8), 8, (0.2, 0.4, 0.6),
                                          seed=seed))
        cfg = DescendConfig(mc=MCConfig(50, 50), psd_outer=15, psd_inner=8)
        rep = descend(model, cfg, seed=seed)
        levels = []
        node = rep
        while node is not None:
            levels.append(node.level)
            assert node.all_passed
            assert node.details["min_eigenvalue"] >= -1e-8
            node = node.child
        assert levels == [4, 3, 2, 1]

    def test_report_independent_of_held_bytes(self, monkeypatch):
        """descend holds what models.HELD_BYTES allows and rebuilds the
        rest: its report is the same, bit for bit, with one draw held."""
        cfg = DescendConfig(mc=MCConfig(12, 20), psd_outer=6, psd_inner=5)
        model = k2_tree()
        held = descend(model, cfg, seed=3).to_json_dict()
        built = model.built
        monkeypatch.setattr(models, "HELD_BYTES", 1)
        assert descend(model, cfg, seed=3).to_json_dict() == held
        assert model.built > 2 * built

    def test_adversarial_stops_at_failing_level(self):
        cfg = DescendConfig(mc=MCConfig(10, 20), psd_outer=5, psd_inner=5,
                            abs_tol=1e-12, method="enumerate")
        rep = descend(FrozenModel(adversarial_measure()), cfg, seed=3)
        assert rep.level == 3
        assert rep.collision_identity_pass
        assert rep.ultra_violations_at_level == 0
        assert not rep.conditioned_gg_pass
        # conditional indicator observable residual is exactly -2/9
        assert np.isclose(rep.details["max_gg_residual"], 2 / 9, atol=1e-12)
        assert rep.child is None

    def test_conditioned_gg_row_reports_worst_observables_se(self):
        rep = descend(k2_tree(), DescendConfig(mc=MCConfig(40, 40),
                                               psd_outer=4, psd_inner=5), 2)
        row = rep.rows("model")[2]
        assert row.check == "descend/conditioned_gg"
        assert row.residual == rep.details["max_gg_residual"]
        assert row.se == rep.details["max_gg_residual_se"] > 0.0

    def test_force_descends_past_failures(self):
        cfg = DescendConfig(mc=MCConfig(10, 20), psd_outer=5, psd_inner=5,
                            abs_tol=1e-12, method="enumerate", force=True)
        rep = descend(FrozenModel(adversarial_measure()), cfg, seed=3)
        assert rep.child is not None

    def test_rows_cover_levels(self):
        rep = descend(k1_tree(), DescendConfig(mc=MCConfig(20, 20),
                                               psd_outer=4, psd_inner=5), 1)
        rows = rep.rows("model")
        assert len(rows) == 8  # 4 checks x 2 levels
        assert {r.n for r in rows} == {1, 2}


class TestCriterion:
    def test_tree_sequences_consistent(self):
        reports = criterion_run(k2_tree(), 0.5,
                                [[[1, 1, 1]], [[1, 1, 2]], [[2, 2, 2]]],
                                5, MCConfig(400, 100), seed=9)
        assert len(reports) == 3
        for rep in reports:
            assert rep.consistent_within_noise
            assert all(0.0 <= est <= 1.0 for _, est, _ in rep.sequence)

    def test_impossible_pattern_zero_everywhere(self):
        # a unique-minimum triple cannot appear in an ultrametric ensemble
        reports = criterion_run(k2_tree(), 0.5, [[[1, 2, 2]]], 5,
                                MCConfig(100, 60), seed=3)
        rep = reports[0]
        assert rep.p3 == 0.0
        assert all(est == 0.0 for _, est, _ in rep.sequence)

    def test_lower_gap_is_degenerate(self):
        reports = criterion_run(k2_tree(), 0.15, [[[1, 1, 1]]], 4,
                                MCConfig(200, 100), seed=3)
        rep = reports[0]
        assert np.isclose(rep.p3, 1.0, atol=1e-12)
        assert rep.consistent_within_noise

    def test_adversarial_pattern_positive(self):
        model = FrozenModel(adversarial_measure())
        reports = criterion_run(model, 1.0, [[[1, 2, 2]]], 4, MCConfig(2, 2),
                                seed=1, method="enumerate")
        rep = reports[0]
        # conditioned on three distinct atoms the pattern is certain, and
        # the sequence truncates at n=3: four distinct atoms do not exist
        assert np.isclose(rep.p3, 1.0, atol=1e-12)
        assert [n for n, _, _ in rep.sequence] == [3]

    def test_null_conditioning(self):
        with pytest.raises(NullConditioning):
            criterion_run(k2_tree(), 0.0, [[[1, 1, 1]]], 4, MCConfig(20, 20), 1)
        with pytest.raises(NullConditioning):
            g = OverlapGrid((0.7,), 0.7)
            m = explicit_measure([[np.sqrt(0.7)]], [1.0], g)
            criterion_run(FrozenModel(m), 0.5, [[[1, 1, 1]]], 4,
                          MCConfig(20, 20), 1)

    def test_rows_use_the_checks_z(self):
        # at z = 0 any nonzero difference from p3 fails, and each row
        # must say so, as the check's verdict does
        model = TreeModel(TreeMeasureSpec((0.3, 0.7), 8, (0.3, 0.6), seed=1))
        reports = criterion_run(model, 0.5, [[[1, 1, 1]]], 5, MCConfig(40, 30),
                                seed=2, z=0.0)
        rep = reports[0]
        rows = rep.rows("model")
        assert not rep.consistent_within_noise
        assert rows[0].passed  # n = 3 is the reference row
        assert not all(r.passed for r in rows[1:])
        assert rep.to_json_dict()["consistent_within_noise"] is False

    @pytest.mark.parametrize("descended", [False, True])
    def test_prefix_reads_match_enumeration(self, descended):
        # n = 4..6 come from one 6-replica pass, each n reading its prefix
        model = clustered_model()
        if descended:
            model = DescendedModel(model, 1)
        patterns = [[[1, 1, 1]], [[1, 1, 2]], [[2, 2, 2]]]
        mc = criterion_run(model, 0.6, patterns, 6, MCConfig(200, 50), seed=4)
        exact = criterion_run(model, 0.6, patterns, 6, MCConfig(1, 1), seed=0,
                              method="enumerate")
        for mc_rep, ex in zip(mc, exact):
            assert [n for n, _, _ in mc_rep.sequence] == [3, 4, 5, 6]
            for (n, est, se), (_, want, _) in zip(mc_rep.sequence[1:],
                                                  ex.sequence[1:]):
                assert se > 0.0
                assert abs(est - want) <= 4 * se, (n, est, want, se)

    def test_descended_model_criterion(self):
        model = DescendedModel(k2_tree(), 1)
        reports = criterion_run(model, 0.5, [[[1, 1, 1]]], 4,
                                MCConfig(150, 80), seed=4)
        assert reports[0].consistent_within_noise


def test_descended_support_never_shows_dropped_levels():
    from overlap_lab.sampler import filtered_level_batches

    model = DescendedModel(k2_tree(), 1)
    seen = set()
    iu, ju = np.triu_indices(4, 1)
    for _, lv in filtered_level_batches(model, 4, MCConfig(30, 40), seed=6,
                                        key=0x51):
        if len(lv):
            seen.update(np.unique(lv[:, iu, ju]).tolist())
    assert seen and max(seen) <= model.threshold

import numpy as np
import pytest

from overlap_lab.errors import AcceptanceTooLow, EventMassTooSmall, GridTooSmall
from overlap_lab.grid import OverlapGrid
from overlap_lab.measures import (TreeMeasureSpec, adversarial_measure,
                                  build_tree_measures, explicit_measure,
                                  measure_from_gram)
from overlap_lab.models import DescendedModel, FrozenModel, TreeModel
from overlap_lab.observables import (ObservableSpec, Psi, Statistic,
                                     default_gg_observables, statistic_for_f)
from overlap_lab.sampler import (Estimate, EventSpec, MCConfig, influence_se,
                                 outer_stat_means, ratio_from_means)
from overlap_lab.verify import (conditional_marginal_check, consistency_check,
                                distinct_mass_check, gg_residual, lemma1_check,
                                positivity_check, served_means, support_check,
                                ultrametricity_check)

# exact values for the fixed 3-atom adversarial measure, worked out by
# direct enumeration over replica tuples (equal weights 1/3):
#   obs n=2, f = I(R12 = 0.3 level), psi = x:
#     lhs = 4/27, rhs = 9.1/81, residual = 2.9/81
ADV_RESIDUAL_X = 2.9 / 81


def single_atom_model():
    g = OverlapGrid((0.7,), 0.7)
    return FrozenModel(explicit_measure([[np.sqrt(0.7)]], [1.0], g))


def duplicated_atom_model():
    # two identical atoms listed separately: a single off-diagonal level
    g = OverlapGrid((0.7,), 0.7)
    a = np.sqrt(0.7)
    return FrozenModel(explicit_measure([[a], [a]], [0.3, 0.7], g))


def three_atom_model(weights=(1 / 3, 1 / 3, 1 / 3)):
    gram = np.array([[0.7, 0.3, 0.3], [0.3, 0.7, 0.3], [0.3, 0.3, 0.7]])
    g = OverlapGrid((0.3, 0.7), 0.7)
    return FrozenModel(measure_from_gram(gram, np.array(weights), g))


def k1_tree_model(seed=42):
    return TreeModel(TreeMeasureSpec((0.5,), 500, (0.5,), seed=seed))


def k2_tree_model(seed=11):
    return TreeModel(TreeMeasureSpec((0.3, 0.7), 50, (0.3, 0.6), seed=seed))


class TestGGResidual:
    def test_single_level_models_are_exact(self):
        for model in (single_atom_model(), duplicated_atom_model()):
            for obs in default_gg_observables():
                rep = gg_residual(model, obs, MCConfig(30, 40), seed=3,
                                  abs_tol=1e-12)
                assert abs(rep.residual) <= 1e-12
                assert rep.passed

    def test_adversarial_enumerated_value(self):
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        rep = gg_residual(FrozenModel(adversarial_measure()), obs,
                          MCConfig(4, 4), seed=1, method="enumerate",
                          abs_tol=1e-12)
        assert np.isclose(rep.residual, ADV_RESIDUAL_X, atol=1e-12)
        assert rep.residual_se == 0.0
        assert not rep.passed

    def test_mc_matches_enumeration_on_frozen_measure(self):
        model = three_atom_model((0.5, 0.3, 0.2))
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        exact = gg_residual(model, obs, MCConfig(4, 4), seed=0,
                            method="enumerate").residual
        hits = 0
        for seed in range(20):
            rep = gg_residual(model, obs, MCConfig(150, 80), seed=seed)
            if abs(rep.residual - exact) <= 3 * rep.residual_se:
                hits += 1
        assert hits >= 18

    def test_conditioned_event_must_cover_tuple(self):
        obs = ObservableSpec(2, Psi("monomial", 1))
        with pytest.raises(ValueError):
            gg_residual(k1_tree_model(), obs, MCConfig(5, 5), seed=1,
                        conditioned=EventSpec("A_n", 2))

    def test_conditioned_on_tree_is_exact_zero(self):
        # conditioning away collisions leaves a single off-diagonal level
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        rep = gg_residual(k1_tree_model(), obs, MCConfig(60, 60), seed=2,
                          conditioned=EventSpec("A_n", 3), abs_tol=1e-12)
        assert abs(rep.residual) <= 1e-12
        assert rep.lhs.acceptance_rate is not None

    def test_report_row_shape(self):
        obs = ObservableSpec(3, Psi("indicator", 1), f_pattern=(((1, 2), 1),))
        rep = gg_residual(k1_tree_model(), obs, MCConfig(40, 40), seed=5)
        assert len(rep.rhs_terms) == 3  # product term + two cross terms
        row = rep.row()
        assert row.check == "gg" and row.n == 3
        assert np.isclose(row.residual, row.estimate - row.reference, atol=1e-12)


def clustered_model(seed=0):
    """Frozen ultrametric measure: 3 clusters of 4 unit atoms, Gram 0.5
    within a cluster and 0 across, Dirichlet(1) weights."""
    gram = np.kron(np.eye(3), np.full((4, 4), 0.5)) + 0.5 * np.eye(12)
    weights = np.random.default_rng(seed).dirichlet(np.ones(12))
    g = OverlapGrid((0.0, 0.5, 1.0), 1.0)
    return FrozenModel(measure_from_gram(gram, weights, g))


def one_pass_reference(model, obs, mc, seed, event=None):
    """Residual and se of one observable from its own n + 1 replica pass."""
    n = obs.n
    f = statistic_for_f(obs)
    stats = [f.with_psi(obs.psi, 0, n), f,
             Statistic(n + 1).with_psi(obs.psi, 0, 1)]
    stats += [f.with_psi(obs.psi, 0, l) for l in range(1, n)]
    t = event.threshold(model.grid) if event is not None else None
    r, h, _ = ratio_from_means(outer_stat_means(model, stats, n + 1, mc, seed,
                                                t))
    residual = float(r[0] - (r[1] * r[2]) / n - r[3:].sum() / n)
    h_resid = h[:, 0] - (r[2] * h[:, 1] + r[1] * h[:, 2]) / n \
        - h[:, 3:].sum(axis=1) / n
    return residual, influence_se(h_resid)


class TestGGSharedPass:
    """A list of observables is estimated on one pass of max(n) + 1
    replicas, each observable reading its own leading n + 1."""

    @pytest.mark.parametrize("name", ["tree", "descended", "frozen"])
    @pytest.mark.parametrize("conditioned", [False, True])
    def test_one_observable_list_matches_own_pass_bit_for_bit(
            self, name, conditioned):
        tree = TreeModel(TreeMeasureSpec((0.3, 0.7), 20, (0.3, 0.6), seed=3))
        model = {"tree": tree, "descended": DescendedModel(tree, 1),
                 "frozen": three_atom_model((0.5, 0.3, 0.2))}[name]
        mc = MCConfig(30, 20)
        for obs in default_gg_observables():
            event = EventSpec("A_n", obs.n + 1) if conditioned else None
            [got] = gg_residual(model, [obs], mc, 5,
                                conditioned=[event] if conditioned else None)
            try:
                want = one_pass_reference(model, obs, mc, 5, event)
            except EventMassTooSmall:  # n + 1 distinct atoms of three
                assert isinstance(got, AcceptanceTooLow)
                with pytest.raises(AcceptanceTooLow):
                    gg_residual(model, obs, mc, 5, conditioned=event)
                continue
            alone = gg_residual(model, obs, mc, 5, conditioned=event)
            assert (got.residual, got.residual_se) == want
            assert (alone.residual, alone.residual_se) == want

    @pytest.mark.parametrize("case", ["plain", "conditioned", "descended"])
    def test_prefix_reads_match_enumeration(self, case):
        model = clustered_model()
        if case == "descended":
            model = DescendedModel(model, 1)
        observables = default_gg_observables()
        events = ([EventSpec("A_n", obs.n + 1) for obs in observables]
                  if case == "conditioned" else None)
        mc_reps = gg_residual(model, observables, MCConfig(200, 50), 7,
                              conditioned=events)
        exact = gg_residual(model, observables, MCConfig(1, 1), 0,
                            conditioned=events, method="enumerate")
        for mc_rep, ex in zip(mc_reps, exact):
            assert mc_rep.observable_id == ex.observable_id
            assert mc_rep.residual_se > 0.0
            assert abs(mc_rep.residual - ex.residual) <= 4 * mc_rep.residual_se
            assert abs(mc_rep.lhs.estimate - ex.lhs.estimate) <= \
                4 * mc_rep.lhs.std_error

    def test_event_without_mass_leaves_other_observables(self):
        # four replicas cannot sit on distinct atoms of three
        pat = (((1, 2), 1),)
        observables = [ObservableSpec(2, Psi("monomial", 1), f_pattern=pat),
                       ObservableSpec(3, Psi("monomial", 1), f_pattern=pat)]
        events = [EventSpec("A_n", 3), EventSpec("A_n", 4)]
        first, second = gg_residual(FrozenModel(adversarial_measure()),
                                    observables, MCConfig(2, 2), 1,
                                    conditioned=events, method="enumerate")
        assert first.observable_id == observables[0].observable_id()
        # three distinct replicas of three equal-weight atoms: 3! / 3**3
        assert abs(first.lhs.acceptance_rate - 2 / 9) <= 1e-15
        assert isinstance(second, AcceptanceTooLow)
        assert str(second) == "event mass 0 (se 0) too close to zero"
        with pytest.raises(AcceptanceTooLow):
            gg_residual(FrozenModel(adversarial_measure()), observables[1],
                        MCConfig(2, 2), 1, conditioned=events[1],
                        method="enumerate")

    def test_events_of_one_pass_share_a_threshold(self):
        observables = default_gg_observables((2, 3))
        events = [EventSpec("A_nq", obs.n + 1, q=0.2 if obs.n == 2 else 0.9)
                  for obs in observables]
        with pytest.raises(ValueError, match="one threshold"):
            gg_residual(k2_tree_model(), observables, MCConfig(5, 5), 1,
                        conditioned=events)


class TestServedMeans:
    def test_exact_row_is_the_means_layout(self):
        """The exact path yields outer_stat_means' layout: E[stat; event],
        then the event mass, unconditioned."""
        est = Estimate([Statistic(2).with_pattern(0, 1, 1)], 2,
                       MCConfig(2, 2), 1, event_threshold=2)
        (means,) = served_means(adversarial_measure(), [est], "enumerate")
        assert means.shape == (1, 2)
        assert np.allclose(means[0], [2 / 9, 2 / 3], rtol=0.0, atol=1e-15)


class TestDistinctMass:
    def test_n2_is_exact(self):
        rep = distinct_mass_check(k1_tree_model(), 4, MCConfig(100, 50), seed=1)
        first = rep.rows[0]
        assert first.n == 2
        assert abs(first.residual) <= 1e-12 and first.se <= 1e-12

    def test_single_atom_degenerate(self):
        rep = distinct_mass_check(single_atom_model(), 3, MCConfig(10, 10), 1)
        for row in rep.rows:
            assert row.estimate == 0.0 and row.reference == 0.0 and row.passed
        assert rep.p_top == 1.0

    def test_tree_k1_within_tolerance(self):
        rep = distinct_mass_check(k1_tree_model(), 5, MCConfig(1000, 150), 7)
        assert rep.passed
        # estimates must be non-increasing in n
        ests = [r.estimate for r in rep.rows]
        assert all(b <= a + 1e-12 for a, b in zip(ests, ests[1:]))

    def test_enumerate_on_frozen(self):
        rep = distinct_mass_check(three_atom_model(), 3, MCConfig(2, 2), 1,
                                  method="enumerate", abs_tol=1e-12)
        # m=3 equal weights: E I(A_2) = 2/3, E I(A_3) = 6/27
        assert np.isclose(rep.rows[0].estimate, 2 / 3, atol=1e-12)
        assert np.isclose(rep.rows[1].estimate, 6 / 27, atol=1e-12)
        assert np.isclose(rep.p_top, 1 / 3, atol=1e-12)
        # frozen measures need not satisfy the identity: (1-p)^2 = 4/9 != 2/9
        assert not rep.rows[1].passed


class TestLemma1:
    def test_constant_f_single_atom(self):
        rep = lemma1_check(single_atom_model(), None, 2, MCConfig(10, 10), 1)
        assert rep.lhs.estimate == 0.0 and rep.residual == 0.0

    def test_constant_f_reduces_to_mass_step(self):
        model = k1_tree_model()
        rep = lemma1_check(model, None, 2, MCConfig(400, 100), seed=3)
        assert rep.passed

    def test_tree_with_pattern_f(self):
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        rep = lemma1_check(k1_tree_model(), obs, 2, MCConfig(600, 150), seed=4)
        assert abs(rep.residual) <= 3 * rep.residual_se + 0.01

    def test_enumerated_frozen_fails(self):
        # the lemma is a consequence of the identities; a frozen 3-atom
        # measure violates it: with f = I(R12 = q1) = I(distinct pair),
        # E f I(A_3) = 6/27 while (1 - p_top) E f I(A_2) = (2/3)(2/3)
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        rep = lemma1_check(three_atom_model(), obs, 2, MCConfig(2, 2), 1,
                           method="enumerate", abs_tol=1e-12)
        assert np.isclose(rep.lhs.estimate, 6 / 27, atol=1e-12)
        assert np.isclose(rep.rhs_terms[0].estimate, 4 / 9, atol=1e-12)
        assert np.isclose(rep.residual, 6 / 27 - 4 / 9, atol=1e-12)
        assert not rep.passed


class TestConsistency:
    def test_constant_f_exact(self):
        rep = consistency_check(k1_tree_model(), None, 2, MCConfig(60, 60), 1)
        assert rep.residual == 0.0

    def test_equal_weight_frozen_is_consistent(self):
        # equal weights make all distinct-tuple laws uniform, so the
        # conditional ratios coincide exactly despite the identity failing
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        for model in (three_atom_model(), FrozenModel(adversarial_measure())):
            rep = consistency_check(model, obs, 2, MCConfig(2, 2), 1,
                                    method="enumerate", abs_tol=1e-12)
            assert abs(rep.residual) <= 1e-12

    def test_unequal_weight_frozen_is_inconsistent(self):
        # the adversarial overlap pattern with unequal weights: the pair
        # ratio is 2 w2 w3 / (1 - sum w^2) under distinct pairs but exactly
        # 1/3 under distinct triples
        from overlap_lab.measures import ADVERSARIAL_GRAM

        w = np.array([0.5, 0.3, 0.2])
        g = OverlapGrid((0.3, 0.7, 1.0), 1.0)
        model = FrozenModel(measure_from_gram(ADVERSARIAL_GRAM, w, g))
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        rep = consistency_check(model, obs, 2, MCConfig(2, 2), 1,
                                method="enumerate", abs_tol=1e-12)
        r2 = 2 * w[1] * w[2] / (1 - np.sum(w**2))
        assert np.isclose(rep.lhs.estimate, 1 / 3, atol=1e-12)
        assert np.isclose(rep.rhs_terms[0].estimate, r2, atol=1e-12)
        assert abs(rep.residual) > 1e-2
        assert not rep.passed

    def test_tree_consistent(self):
        obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
        rep = consistency_check(k2_tree_model(), obs, 2, MCConfig(500, 120), 5)
        assert abs(rep.residual) <= 3 * rep.residual_se + 0.01

    def test_zero_mass_raises(self):
        with pytest.raises(EventMassTooSmall):
            consistency_check(single_atom_model(), None, 2, MCConfig(5, 5), 1)


class TestConditionalMarginal:
    def test_needs_two_levels(self):
        with pytest.raises(GridTooSmall):
            conditional_marginal_check(single_atom_model(), MCConfig(5, 5), 1)

    def test_two_orthogonal_atoms_conditional_is_certain(self):
        g = OverlapGrid((0.0, 0.7), 0.7)
        a = np.sqrt(0.7)
        m = explicit_measure([[a, 0.0], [0.0, a]], [0.4, 0.6], g,
                             on_sphere=False)
        rep = conditional_marginal_check(FrozenModel(m), MCConfig(50, 80), 3)
        assert np.isclose(rep.rows[0].estimate, 1.0, atol=1e-12)

    def test_frozen_exact(self):
        rep = conditional_marginal_check(three_atom_model((0.5, 0.3, 0.2)),
                                         MCConfig(2, 2), 1,
                                         method="enumerate", abs_tol=1e-12)
        assert all(abs(r.residual) <= 1e-12 for r in rep.rows)
        assert rep.passed

    def test_tree_k2(self):
        rep = conditional_marginal_check(k2_tree_model(), MCConfig(600, 120), 9)
        assert rep.passed
        assert rep.acceptance_rate is not None


class TestSupport:
    def test_tree_passes_exactly(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 5, (0.3, 0.6), 3), 0, 1)[0]
        rep = support_check(m)
        assert rep.passed and rep.max_deviation <= 1e-12

    def test_broken_norm_reports_deviation(self):
        g = OverlapGrid((0.3, 0.7), 0.7)
        atoms = np.array([[np.sqrt(0.6), 0.0], [0.0, np.sqrt(0.7)]])
        m = explicit_measure(atoms, [0.5, 0.5], g, on_sphere=False)
        rep = support_check(m)
        assert not rep.passed
        assert np.isclose(rep.max_deviation, 0.1, atol=1e-12)

    def test_adversarial_on_sphere(self):
        assert support_check(adversarial_measure()).passed


class TestPositivity:
    def test_tree_min_is_zero(self):
        rep = positivity_check(k1_tree_model(), MCConfig(50, 100), 2)
        assert rep.passed and rep.min_overlap == 0.0

    def test_single_atom_min_is_top(self):
        rep = positivity_check(single_atom_model(), MCConfig(5, 20), 2)
        assert rep.min_overlap == 0.7

    def test_negative_overlap_flagged(self):
        g = OverlapGrid((-0.5, 1.0), 1.0)
        atoms = np.array([[1.0, 0.0], [-0.5, np.sqrt(0.75)]])
        m = explicit_measure(atoms, [0.5, 0.5], g, on_sphere=False)
        rep = positivity_check(FrozenModel(m), MCConfig(20, 50), 2)
        assert not rep.passed
        assert rep.min_overlap == -0.5


class TestUltrametricityCheck:
    def test_tree_clean(self):
        rep = ultrametricity_check(k2_tree_model(), MCConfig(40, 30), 3, n=6)
        assert rep.passed and rep.violations == 0

    def test_adversarial_rate(self):
        rep = ultrametricity_check(FrozenModel(adversarial_measure()),
                                   MCConfig(60, 60), 4, n=3)
        assert not rep.passed
        # exactly the all-distinct probability 3! / 27
        assert abs(rep.rate - 2 / 9) <= 3 * rep.rate_se
        assert rep.first_witness is not None

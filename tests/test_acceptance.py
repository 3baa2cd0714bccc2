"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line When green; tolerances are pinned here and
nowhere else. Run with -s to see the lines and timings.
"""

import math
import time
import zlib

import numpy as np
import pytest

import overlap_lab as ol
from overlap_lab.eigen import jacobi_decompose
from overlap_lab.grid import OverlapGrid
from overlap_lab.measures import (TreeMeasureSpec, adversarial_measure,
                                  build_tree_measures, explicit_measure,
                                  measure_from_gram)
from overlap_lab.models import FrozenModel, TreeModel
from overlap_lab.pipeline import DescendConfig, criterion_run, descend
from overlap_lab.observables import (ObservableSpec, Psi, Statistic,
                                    default_gg_observables)
from overlap_lab.sampler import (EventSpec, MCConfig, empirical_matrix_law,
                                 enumerate_matrix_law, enumerate_statistics,
                                 total_variation)
from overlap_lab.verify import (conditional_marginal_check,
                                distinct_mass_check, gg_residual,
                                ultrametricity_check)

from test_eigen import cubic_roots_symmetric
from tree_reference import explicit_tree


@pytest.fixture(scope="module", autouse=True)
def _warm():
    ol.warmup()


def report(name, elapsed, detail=""):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s) {detail}")


def single_atom_model():
    g = OverlapGrid((0.7,), 0.7)
    return FrozenModel(explicit_measure([[np.sqrt(0.7)]], [1.0], g))


def duplicated_atom_model():
    g = OverlapGrid((0.7,), 0.7)
    a = np.sqrt(0.7)
    return FrozenModel(explicit_measure([[a], [a]], [0.3, 0.7], g))


def test_01_exact_identities_on_degenerate_families():
    t0 = time.time()
    observables = default_gg_observables(n_values=(2, 3, 4))
    assert len(observables) >= 12
    worst = 0.0
    for model in (single_atom_model(), duplicated_atom_model()):
        for i, obs in enumerate(observables):
            rep = gg_residual(model, obs, MCConfig(40, 50), seed=100 + i,
                              abs_tol=1e-12)
            worst = max(worst, abs(rep.residual))
            assert rep.passed, obs.observable_id()
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report("1 exact-degenerate-gg", elapsed, f"worst |residual| = {worst:.2e}")


def test_02_distinct_mass_formula_k1_tree():
    t0 = time.time()
    passes = 0
    worst = 0.0
    for s in range(20):
        model = TreeModel(TreeMeasureSpec((0.5,), 500, (0.5,), seed=1000 + s))
        rep = distinct_mass_check(model, 5, MCConfig(2000, 200), seed=77 + s,
                                  abs_tol=0.01, z=3.0)
        worst = max(worst, max(abs(r.residual) for r in rep.rows))
        passes += rep.passed
    elapsed = time.time() - t0
    assert passes >= 18, f"only {passes}/20 seeds passed"
    assert elapsed < 300.0
    report("2 mass-formula", elapsed, f"{passes}/20 seeds, worst residual {worst:.4f}")


def test_03_conditional_marginal():
    t0 = time.time()
    gram = np.array([[0.7, 0.3, 0.3], [0.3, 0.7, 0.3], [0.3, 0.3, 0.7]])
    g = OverlapGrid((0.3, 0.7), 0.7)
    frozen = FrozenModel(measure_from_gram(gram, np.array([0.5, 0.3, 0.2]), g))
    exact = conditional_marginal_check(frozen, MCConfig(2, 2), seed=1,
                                       method="enumerate", abs_tol=1e-12)
    assert all(abs(r.residual) <= 1e-12 for r in exact.rows)

    tree = TreeModel(TreeMeasureSpec((0.3, 0.7), 50, (0.3, 0.6), seed=17))
    mc = conditional_marginal_check(tree, MCConfig(800, 150), seed=5,
                                    abs_tol=0.01, z=3.0)
    assert mc.passed
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("3 conditional-marginal", elapsed,
           f"tree residuals {[round(r.residual, 4) for r in mc.rows]}")


def _frozen_family():
    a = np.sqrt(0.7)
    g2 = OverlapGrid((0.0, 0.7), 0.7)
    two = explicit_measure([[a, 0.0], [0.0, a]], [0.4, 0.6], g2,
                           on_sphere=False)
    gram3 = np.array([[0.7, 0.3, 0.3], [0.3, 0.7, 0.3], [0.3, 0.3, 0.7]])
    g3 = OverlapGrid((0.3, 0.7), 0.7)
    three = measure_from_gram(gram3, np.array([0.5, 0.3, 0.2]), g3)
    adv = adversarial_measure()
    four = build_tree_measures(
        TreeMeasureSpec((0.3, 0.7), 2, (0.3, 0.6), 4), 0, 1)[0]
    return {"two": two, "three": three, "adversarial": adv, "tree4": four}


def test_04_sampler_versus_oracle_total_variation():
    t0 = time.time()
    draws = 100_000
    # budget of proposed tuples, and the inner size of their outer draws
    budget, inner = 10**8, 1_000
    cases = 0
    skipped = []
    worst = 0.0
    for name, m in _frozen_family().items():
        # the oracle sums over a table: a tree's is the reference one
        exact = m if m.tree is None else explicit_tree(m)
        k = m.grid.k
        levels = np.array(m.grid.levels)
        qs = [float((levels[i] + levels[i + 1]) / 2) for i in range(k - 1)][:2]
        for n in (2, 3, 4):
            if m.m**n > 10**6:
                continue
            events = [EventSpec("A_n", n)]
            events += [EventSpec("A_nq", n, q=q) for q in qs]
            for ev in events:
                t = ev.threshold(m.grid)
                try:
                    law = enumerate_matrix_law(exact, n, event_threshold=t)
                except ol.EventNull:
                    continue
                # rule fixed before any draw: the block sampler keeps about
                # draws of draws / mass proposals, so a case whose exact
                # event mass puts that past the budget is skipped, not
                # re-seeded
                _, mass = enumerate_statistics(exact, [Statistic(n)], n, t)
                proposals = math.ceil(draws / mass)
                if proposals > budget:
                    skipped.append(f"{name} n={n} {ev.label()} mass {mass:.3g}")
                    continue
                # crc32, unlike hash(), is not salted per process
                seed = zlib.crc32(f"{name}:{n}:{t}".encode())
                # whole outer draws of the same fixed measure, so at least
                # ceil(draws / mass) proposals
                mc = MCConfig(math.ceil(proposals / inner), inner)
                emp = empirical_matrix_law(m, n, mc, seed=seed,
                                           event_threshold=t)
                tv = total_variation(law, emp)
                worst = max(worst, tv)
                cases += 1
                assert tv <= 0.02, (name, n, ev.label(), tv)
    elapsed = time.time() - t0
    assert cases >= 12
    assert elapsed < 120.0
    report("4 sampler-vs-oracle", elapsed,
           f"{cases} cases, worst TV {worst:.4f}, skipped {skipped}")


def test_05_ultrametricity_controls():
    t0 = time.time()
    specs = {
        1: TreeMeasureSpec((0.5,), 500, (0.5,), seed=3),
        2: TreeMeasureSpec((0.3, 0.7), 50, (0.3, 0.6), seed=3),
        3: TreeMeasureSpec((0.2, 0.5, 0.8), 10, (0.2, 0.4, 0.6), seed=3),
    }
    for k, spec in specs.items():
        rep = ultrametricity_check(TreeModel(spec), MCConfig(100, 20),
                                   seed=50 + k, n=8)
        assert rep.triples_checked >= 100_000
        assert rep.violations == 0, f"k={k}"

    adv = FrozenModel(adversarial_measure())
    rep = ultrametricity_check(adv, MCConfig(100, 60), seed=9, n=3)
    assert abs(rep.rate - 2 / 9) <= 3 * rep.rate_se

    obs = ObservableSpec(2, Psi("monomial", 1), f_pattern=(((1, 2), 1),))
    rr = gg_residual(adv, obs, MCConfig(2, 2), seed=1, method="enumerate",
                     abs_tol=1e-12)
    assert rr.residual_se == 0.0
    assert abs(rr.residual) > 10 * max(rr.residual_se, 1e-3)
    assert not rr.passed
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("5 ultrametricity-controls", elapsed,
           f"adversarial rate {rep.rate:.4f} vs 2/9, gg residual {rr.residual:.4f}")


def test_06_truncation_positivity():
    t0 = time.time()
    worst = 0.0
    for s in range(20):
        model = TreeModel(TreeMeasureSpec((0.3, 0.7), 50, (0.3, 0.6),
                                          seed=2000 + s))
        cfg = DescendConfig(n_condition=4, mc=MCConfig(40, 40),
                            psd_outer=25, psd_inner=12)
        rep = descend(model, cfg, seed=31 + s)
        node = rep
        while node is not None:
            if "min_eigenvalue" in node.details and node.details["psd_samples"]:
                worst = min(worst, node.details["min_eigenvalue"])
            assert node.truncated_psd_pass
            node = node.child
    elapsed = time.time() - t0
    assert worst >= -1e-8
    assert elapsed < 180.0
    report("6 truncation-positivity", elapsed, f"min eigenvalue {worst:.2e}")


def test_07_conditioned_identities_k1_tree():
    t0 = time.time()
    observables = default_gg_observables(n_values=(2, 3))
    passes = 0
    for s in range(20):
        model = TreeModel(TreeMeasureSpec((0.5,), 500, (0.5,), seed=3000 + s))
        ok = True
        for i, obs in enumerate(observables):
            cond = gg_residual(model, obs, MCConfig(150, 80), seed=900 + i + s,
                               conditioned=EventSpec("A_n", obs.n + 1),
                               abs_tol=0.01, z=3.0)
            plain = gg_residual(model, obs, MCConfig(150, 80),
                                seed=900 + i + s, abs_tol=0.01, z=3.0)
            ok &= cond.passed and plain.passed
        passes += ok
    elapsed = time.time() - t0
    assert passes >= 18, f"only {passes}/20 seeds passed"
    report("7 conditioned-identities", elapsed, f"{passes}/20 seeds")


def test_08_criterion_consistency():
    t0 = time.time()
    model = TreeModel(TreeMeasureSpec((0.3, 0.7), 120, (0.3, 0.6), seed=21))
    # one threshold per gap of the emitted grid (0, 0.3, 0.7)
    upper = criterion_run(model, 0.5, [[[1, 1, 1]], [[1, 1, 2]], [[2, 2, 2]]],
                          6, MCConfig(800, 100), seed=13)
    lower = criterion_run(model, 0.15, [[[1, 1, 1]]], 6,
                          MCConfig(800, 100), seed=14)
    drift = 0.0
    for rep in (*upper, *lower):
        assert len(rep.sequence) == 4
        assert rep.consistent_within_noise, rep.B_descriptor
        drift = max(drift, max(abs(e - rep.p3) for _, e, _ in rep.sequence))
    elapsed = time.time() - t0
    report("8 criterion-consistency", elapsed, f"max drift {drift:.4f}")


def test_09_eigensolver_correctness():
    t0 = time.time()
    rng = np.random.default_rng(77)
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        A = (A + A.T) / 2
        vals, _, _, _ = jacobi_decompose(A, tol=1e-12)
        assert np.allclose(vals, cubic_roots_symmetric(A), atol=1e-9)
    for n in (8, 16, 32, 64):
        X = rng.normal(size=(n, 2 * n))
        G = X @ X.T / (2 * n)
        assert jacobi_decompose(G)[0][0] >= -1e-10 * n
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("9 eigensolver", elapsed)


def test_10_deterministic_reports(tmp_path):
    import json

    from overlap_lab.cli import parse_config, run_experiment

    t0 = time.time()
    cfg_dict = {
        "measure": {"type": "tree", "branching": 40, "zetas": [0.3, 0.6],
                    "q": [0.3, 0.7], "seed": 7},
        "checks": [
            {"name": "mass", "n_max": 4, "mc": {"outer": 150, "inner": 80}},
            {"name": "gg", "observables": "default",
             "mc": {"outer": 60, "inner": 60}},
            {"name": "criterion", "q": 0.5, "patterns": [[[1, 1, 1]]],
             "n_max": 4, "mc": {"outer": 60, "inner": 60}},
        ],
        "seed": 99,
    }
    blobs = set()
    for jobs in (1, 4, 8):
        out = tmp_path / f"out{jobs}"
        cfg_dict["output"] = {"dir": str(out), "formats": ["csv", "json"]}
        path = tmp_path / f"c{jobs}.json"
        path.write_text(json.dumps(cfg_dict))
        assert run_experiment(parse_config(path), jobs=jobs) == 0
        blobs.add((out / "report.csv").read_bytes()
                  + (out / "plot_data.csv").read_bytes())
    elapsed = time.time() - t0
    assert len(blobs) == 1
    report("10 determinism", elapsed)

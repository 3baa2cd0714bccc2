import itertools
from collections import Counter
from dataclasses import replace

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab.errors import (BadWeights, BadZeta, OffGridOverlap,
                                TooManyAtoms)
from overlap_lab.grid import DIAG, OverlapGrid
from overlap_lab import cli, measures, models, sampler
from overlap_lab.measures import (ADVERSARIAL_GRAM, TreeMeasureSpec,
                                  TreeStructure, adversarial_measure,
                                  build_tree_measures, counter_stream,
                                  derive_seed, explicit_measure,
                                  measure_from_gram, rng_from,
                                  tree_leaf_weights)
from overlap_lab.models import (DescendedModel, FrozenModel, HeldModel,
                                TreeModel)
from overlap_lab.observables import Statistic
from overlap_lab.pipeline import collision_identity_check
from overlap_lab.sampler import MCConfig, outer_stat_means

from tree_reference import digit_levels, tree_atoms, tree_table


def pd_weights(zeta, B, seed, draws=1):
    """Draws 0, ..., draws - 1 of a depth-1 tree's leaf weights, one row
    each: the top B normalized points of the power-law Poisson process."""
    return tree_leaf_weights(TreeStructure((0.5,), B), (zeta,), seed, 0, draws)


class TestPdWeights:
    def test_normalized_and_decreasing(self):
        [w] = pd_weights(0.3, 200, seed=5)
        assert np.isclose(w.sum(), 1.0, atol=1e-12)
        assert (np.diff(w) < 0).all()
        assert (w > 0).all()

    def test_deterministic(self):
        a = pd_weights(0.7, 50, seed=9)
        b = pd_weights(0.7, 50, seed=9)
        assert np.array_equal(a, b)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.05, 0.95), st.integers(2, 400), st.integers(0, 2**32))
    def test_properties_hold_for_any_parameters(self, zeta, B, seed):
        [w] = pd_weights(zeta, B, seed=seed)
        assert len(w) == B
        assert np.isclose(w.sum(), 1.0, atol=1e-12)
        assert (w > 0).all()
        assert (np.diff(w) <= 0).all()
        assert np.array_equal(np.sort(w)[::-1], w)

    def test_collision_mass_identity(self):
        # E sum w_i^2 = 1 - zeta for the limiting weight sequence
        zeta, B, reps, block = 0.5, 1000, 10_000, 1000
        st = TreeStructure((0.5,), B)
        vals = np.concatenate([
            np.sum(tree_leaf_weights(st, (zeta,), 0, a, a + block) ** 2, axis=1)
            for a in range(0, reps, block)])
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - (1 - zeta)) <= 3 * se


class TestTreeMeasureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeMeasureSpec((0.7, 0.3), 2, (0.3, 0.6))
        with pytest.raises(ValueError):
            TreeMeasureSpec((-0.1, 0.3), 2, (0.3, 0.6))
        with pytest.raises(ValueError):
            TreeMeasureSpec((0.3, 0.7), 2, (0.6, 0.3))
        with pytest.raises(BadZeta):
            TreeMeasureSpec((0.3, 0.7), 2, (0.3, 1.2))
        with pytest.raises(ValueError):
            TreeMeasureSpec((0.3, 0.7), 1, (0.3, 0.6))

    @pytest.mark.parametrize("q, branching, zetas", [
        ((np.nan,), 2, (0.5,)),
        ((0.3, np.nan), 2, (0.3, 0.6)),
        ((0.3, 0.7), np.nan, (0.3, 0.6)),
    ], ids=["q_only", "q_top", "branching"])
    def test_nan_rejected(self, q, branching, zetas):
        with pytest.raises(ValueError):
            TreeMeasureSpec(q, branching, zetas)

    def test_atom_count_guard(self):
        with pytest.raises(TooManyAtoms):
            TreeStructure((0.2, 0.4, 0.6), 101)  # 101^3 > 1e6


class TestTreeMeasure:
    def test_depth_one_orthogonal_atoms(self):
        m = build_tree_measures(TreeMeasureSpec((0.5,), 3, (0.5,), seed=1),
                                0, 1)[0]
        assert m.m == 3
        assert m.grid.levels == (0.0, 0.5)
        assert m.grid.self_overlap == 0.5
        atoms = tree_atoms(m.tree)
        gram = atoms @ atoms.T
        assert np.allclose(np.diag(gram), 0.5, atol=1e-12)
        assert np.allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-12)

    def test_depth_two_overlaps(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 2, (0.3, 0.6), seed=2), 0, 1)[0]
        assert m.m == 4
        atoms = tree_atoms(m.tree)
        gram = atoms @ atoms.T
        assert np.allclose(np.diag(gram), 0.7, atol=1e-12)
        # same parent: leaves (0,1) and (2,3)
        assert np.isclose(gram[0, 1], 0.3, atol=1e-12)
        assert np.isclose(gram[2, 3], 0.3, atol=1e-12)
        assert np.isclose(gram[0, 2], 0.0, atol=1e-12)

    def test_pairwise_products_hit_grid_exactly(self):
        m = build_tree_measures(TreeMeasureSpec(
            (0.2, 0.5, 0.9), 3, (0.2, 0.4, 0.8), seed=7), 0, 1)[0]
        atoms = tree_atoms(m.tree)
        assert np.allclose(np.einsum("ij,ij->i", atoms, atoms), m.norms_sq,
                           rtol=0, atol=1e-15)
        gram = atoms @ atoms.T
        values = np.array(m.grid.levels)
        # every pair lands within 1e-12 of the level its digits predict
        lv = m.levels_from_indices(np.arange(m.m)[None, :])[0]
        for i in range(m.m):
            for j in range(m.m):
                want = m.grid.self_overlap if i == j else values[lv[i, j] - 1]
                assert abs(gram[i, j] - want) <= 1e-12

    def test_weights_normalized_and_deterministic(self):
        spec = TreeMeasureSpec((0.3, 0.7), 5, (0.3, 0.6), seed=11)
        a = build_tree_measures(spec, 0, 1)[0]
        b = build_tree_measures(spec, 0, 1)[0]
        assert np.isclose(a.weights.sum(), 1.0, atol=1e-12)
        assert np.array_equal(a.weights, b.weights)
        c = build_tree_measures(replace(spec, seed=12), 0, 1)[0]
        assert not np.array_equal(a.weights, c.weights)

    def test_emergent_probs_sum_to_one(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 6, (0.3, 0.6), seed=3), 0, 1)[0]
        probs = m.pair_level_probs()
        assert probs[0] == 0.0 and np.isclose(probs.sum(), 1.0, atol=1e-12)
        assert all(p > 0 for p in probs[1:])

    def test_digit_path_pair_levels(self):
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 200, (0.4, 0.8), seed=4), 0, 1)[0]
        assert m.table is None
        # leaves 0 and 1 share the first digit; 0 and 200 do not
        assert m.pair_level(0, 1) == 2
        assert m.pair_level(0, 200) == 1
        assert m.pair_level(5, 5) == 3

    def test_emergent_probs_match_sampled_pairs(self):
        # large tree exercises the digit path (no table)
        m = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 200, (0.4, 0.8), seed=4), 0, 1)[0]
        assert m.table is None
        probs = m.pair_level_probs()
        rng = np.random.default_rng(10)
        n_pairs = 100_000
        idx = m.sample_indices(rng.random((n_pairs, 2)))
        lv = m.levels_from_indices(idx)[:, 0, 1]
        for level in (1, 2, 3):
            p_hat = np.mean(lv == level)
            se = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_pairs)
            assert abs(p_hat - probs[level]) <= 3 * se + 1e-6

    def test_structure_reuse_matches_fresh_build(self):
        spec = TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), seed=21)
        st = TreeStructure(spec.q, spec.branching)
        a = build_tree_measures(spec, 0, 1, st)[0]
        b = build_tree_measures(spec, 0, 1)[0]
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.tree.codes, b.tree.codes)

    def test_leaf_weights_heavier_subtrees_win(self):
        # global normalization: leaf weights sum to 1, per-vertex sums do not
        st = TreeStructure((0.3, 0.7), 4)
        W = tree_leaf_weights(st, (0.3, 0.6), seed=5)
        assert np.isclose(W.sum(), 1.0, atol=1e-12)
        assert (W > 0).all()

    def test_probs_survive_degenerate_weight_draws(self):
        # heavy-tailed draws can put ~all mass on one leaf; the emergent
        # probabilities must stay positive (no cancellation to zero)
        tm = TreeModel(TreeMeasureSpec((0.3, 0.7), 30, (0.3, 0.6), seed=7))
        smallest = 1.0
        for j in range(300):
            m = tm.measure_at(j)
            smallest = min(smallest, min(m.pair_level_probs()[1:]))
        assert smallest > 0.0


TREE_K2 = Path(__file__).resolve().parent.parent / "configs" / "tree_k2.json"


def leaf_weights_reference(st, zetas, seed, j):
    """Draw j of a seed's tree, one vertex at a time: its V * B uniforms at
    offset j * V * B of the weight stream, B per vertex, level by level."""
    B = st.B
    size = B * sum(B**level for level in range(st.k))
    u = counter_stream(seed, measures._WEIGHTS_KEY, j * size).random(size)
    W, pos = np.ones(1), 0
    for zeta in zetas:
        child = []
        for _ in W:
            arrivals = np.cumsum(-np.log1p(-u[pos:pos + B]))
            child.append(arrivals ** (-1.0 / zeta))
            pos += B
        W = (W[:, None] * np.array(child)).ravel()
    assert pos == size
    return W / W.sum()


class TestCounterStream:
    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1, -3])
    def test_offset_reads_the_stream_from_there(self, seed):
        whole = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed & (2**64 - 1), 0x51]))).random(40)
        for offset in (0, 1, 13, 39):
            got = counter_stream(seed, 0x51, offset).random(40 - offset)
            assert got.tobytes() == whole[offset:].tobytes()

    def test_short_key_is_rng_from_with_a_zero_key(self):
        # SeedSequence pads short keys with zero words: the reason a
        # counter stream's key must be one no rng_from call uses
        a = counter_stream(5, 0x51, 0).random(8)
        assert a.tobytes() == rng_from(5, 0x51, 0).random(8).tobytes()
        assert a.tobytes() == rng_from(5, 0x51).random(8).tobytes()

    def test_no_derived_stream_uses_a_counter_key(self, monkeypatch, tmp_path):
        # record, during a run of all ten checks, every stream seeded
        # through rng_from (counter_stream seeds there) and every key tuple
        # seed_sequence mixes; those left once the streams' are taken out
        # are derive_seed's
        streams, seeded = [], []
        rng_from, seed_sequence = measures.rng_from, measures.seed_sequence

        def masked(keys):
            return tuple(int(k) & (2**64 - 1) for k in keys)

        def recording_rng_from(*keys):
            streams.append(masked(keys))
            return rng_from(*keys)

        def recording_seed_sequence(*keys):
            seeded.append(masked(keys))
            return seed_sequence(*keys)

        monkeypatch.setattr(measures, "rng_from", recording_rng_from)
        monkeypatch.setattr(measures, "seed_sequence", recording_seed_sequence)
        cfg = json.loads(TREE_K2.read_text())
        cfg["measure"]["branching"] = 6
        for check in cfg["checks"]:
            if "mc" in check:
                check["mc"] = {"outer": 40, "inner": 20}
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["--out", str(tmp_path), "--format", "csv", "run",
                         str(path)])
        assert code in (0, 2)
        # the purposes: tree weights, inner draws, positivity's and ultra's
        # scans, and the descent's tie and PSD scans
        purposes = [measures._WEIGHTS_KEY, sampler._INNER_KEY, 0x90F, 0x3B1,
                    0xA11, 0xBD]
        assert len(set(purposes)) == len(purposes)
        # every stream is one (seed, key) tuple of one purpose, so no two
        # purposes share a tuple, and every purpose is read
        assert all(len(t) == 2 and t[1] in purposes for t in streams)
        assert {t[1] for t in streams} == set(purposes)
        derived = Counter(seeded) - Counter(streams)
        assert derived
        stream_set = set(streams)
        for t in derived:
            # SeedSequence pads a short tuple with zero words
            stripped = t
            while stripped and stripped[-1] == 0:
                stripped = stripped[:-1]
            assert t not in stream_set and stripped not in stream_set
            assert (*t, 0) not in stream_set


class TestTreeLeafWeightsReference:
    @pytest.mark.parametrize("B, k", [(3, 1), (4, 2), (3, 3)])
    def test_matches_per_vertex_pd_points(self, B, k):
        st = TreeStructure(tuple(np.linspace(0.2, 0.8, k)), B)
        zetas = tuple(np.linspace(0.25, 0.75, k))
        for seed in (17, 2**63 + 5):
            for j in (0, 1, 6):
                got = tree_leaf_weights(st, zetas, seed, j, j + 1)
                assert got.shape == (1, st.m)
                want = leaf_weights_reference(st, zetas, seed, j)
                assert got[0].tobytes() == want.tobytes()
            assert tree_leaf_weights(st, zetas, seed)[0].tobytes() == \
                leaf_weights_reference(st, zetas, seed, 0).tobytes()

    def test_build_tree_measure_is_draw_zero(self):
        # models.build_tree_measure, through which a TreeModel builds, gives
        # for (0, 1) the per-vertex draw 0 and the model's first measure
        spec = TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), seed=8)
        st = TreeStructure(spec.q, spec.branching)
        (a,) = models.build_tree_measure(spec, st, 0, 1)
        b = TreeModel(spec).measure_at(0)
        want = leaf_weights_reference(st, spec.zetas, spec.seed, 0)
        assert a.weights.tobytes() == want.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.pair_level_probs().tobytes() == b.pair_level_probs().tobytes()


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1,
         *(int(s) for s in np.random.default_rng(2024).integers(
             0, 2**64, 4, dtype=np.uint64))]


def seed_sequence_words(keys):
    masked = [int(k) & (2**64 - 1) for k in keys]
    return np.random.SeedSequence(masked).generate_state(4, np.uint64)


class TestRngsFromReference:
    """rng_from(*prefix, v), the stream of outer draw v in a scan, is
    numpy's SeedSequence stream of the masked key tuple, bit for bit."""

    LASTS = [0, 1, 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("middle", [(), (3,), (2**40,)])
    def test_matches_seed_sequence_and_rng_from(self, seed, middle):
        prefix = (seed, *middle)
        firsts = set()
        for v in self.LASTS:
            masked = [k & (2**64 - 1) for k in (*prefix, v)]
            want = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(masked)))
            rng = rng_from(*prefix, v)
            assert rng.bit_generator.state == want.bit_generator.state
            assert derive_seed(*prefix, v) == \
                int(seed_sequence_words(masked)[0])
            first = rng.random(8)
            assert first.tobytes() == want.random(8).tobytes()
            assert rng.standard_exponential(5).tobytes() == \
                want.standard_exponential(5).tobytes()
            firsts.add(first.tobytes())
        assert len(firsts) == len(self.LASTS)


KEYS = [0, 2**32 - 1, 2**32, 2**64 - 1, -1]


class TestSeedWordsReference:
    """seed_sequence gives numpy's pools and seed words for key tuples."""

    @pytest.mark.parametrize("length", range(1, 8))
    def test_mix_entropy_matches_pool(self, length):
        # more than four words runs the mixer's tail loop; fewer are
        # hashed as if padded with zero words, which is why a counter
        # stream's key tuple (seed, key) is also (seed, key, 0)
        rows = np.random.default_rng(length).integers(
            0, 2**32, (6, length), dtype=np.uint32)
        rows[0], rows[1] = 0, 2**32 - 1
        padded = np.zeros((len(rows), max(length, 4)), dtype=np.uint32)
        padded[:, :length] = rows
        for row, pad in zip(rows, padded):
            want = np.random.SeedSequence(row)
            got = measures.seed_sequence(*pad)
            assert got.pool.tobytes() == want.pool.tobytes()
            assert got.generate_state(4, np.uint64).tobytes() == \
                want.generate_state(4, np.uint64).tobytes()

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_key_tuples_of_one_to_seven_words(self, length):
        # every tuple of KEYS of this length: each key is one or two
        # words, so word counts mix across the tuples
        tuples = [t for t in itertools.product(KEYS, repeat=length)
                  if sum(1 + (k & (2**64 - 1) >= 2**32) for k in t) <= 7]
        assert tuples
        for t in tuples:
            want = seed_sequence_words(t)
            words = measures.seed_sequence(*t).generate_state(4, np.uint64)
            assert words.tobytes() == want.tobytes()
            assert derive_seed(*t) == int(want[0])

    @pytest.mark.parametrize("keys", [(5,), (-1, 3), (2**32, 7, 2**64 - 1),
                                      (1, 2, 3, 4, 5, 6, 7)])
    def test_int_keys_and_derive_seed(self, keys):
        want = seed_sequence_words(keys)
        got = measures.seed_sequence(*keys).generate_state(4, np.uint64)
        assert got.shape == (4,)
        assert got.tobytes() == want.tobytes()
        assert derive_seed(*keys) == int(want[0])
        ref = np.random.PCG64(np.random.SeedSequence(
            [int(k) & (2**64 - 1) for k in keys]))
        assert rng_from(*keys).bit_generator.state == ref.state


class TestTreeModelBlocks:
    """Range-built outer measures equal a build of each draw alone."""

    SPEC = TreeMeasureSpec((0.3, 0.7), 5, (0.3, 0.6), seed=2**63 + 11)

    def fresh(self, j):
        return build_tree_measures(self.SPEC, j, j + 1)[0]

    def assert_fresh(self, got, j):
        want = self.fresh(j)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.pair_level_probs().tobytes() == \
            want.pair_level_probs().tobytes()
        assert not got.weights.flags.writeable

    def test_blocks_across_boundaries_and_cap(self, monkeypatch):
        """Ranges that start, end and cross inside the 4-draw blocks that
        BLOCK_ATOMS caps are built in those blocks, each draw the one built
        alone; every range read is built again."""
        m = self.SPEC.branching**2
        monkeypatch.setattr(models, "BLOCK_ATOMS", 4 * m)
        built = self.counting(monkeypatch)
        model = TreeModel(self.SPEC)
        asked = []
        for start, stop in [(0, 7), (5, 20), (18, 25), (3, 4), (30, 31)]:
            got = list(model.measures(start, stop))
            assert len(got) == stop - start
            for j, measure in enumerate(got, start=start):
                self.assert_fresh(measure, j)
            asked.extend(range(start, stop))
        for j in (3, 12, 19, 30):
            self.assert_fresh(model.measure_at(j), j)
            asked.append(j)
        assert built == asked and model.built == len(asked)
        assert list(model.measures(9, 9)) == [] and model.built == len(asked)

    def counting(self, monkeypatch):
        built = []
        block_builder = models.build_tree_measure

        def counting(spec, structure, start, stop):
            assert stop - start <= max(1, models.BLOCK_ATOMS // structure.m)
            built.extend(range(start, stop))
            return block_builder(spec, structure, start, stop)

        monkeypatch.setattr(models, "build_tree_measure", counting)
        return built

    def test_build_tree_measures_matches_single_builds(self):
        # blocks of 1, 7 and 13 draws give the weights of the per-vertex
        # reference and the level probabilities of a draw built alone
        for B, k in [(3, 1), (5, 2), (3, 3)]:
            st = TreeStructure(tuple(np.linspace(0.2, 0.8, k)), B)
            spec = TreeMeasureSpec(st.q, B, tuple(np.linspace(0.25, 0.75, k)),
                                   seed=2**64 - 9)
            alone = [build_tree_measures(spec, j, j + 1, st)[0]
                     for j in range(30)]
            for block in (1, 7, 13):
                for start in range(3, 30, block):
                    stop = min(start + block, 30)
                    got = build_tree_measures(spec, start, stop, st)
                    for j, measure in enumerate(got, start=start):
                        want = leaf_weights_reference(st, spec.zetas,
                                                      spec.seed, j)
                        assert measure.weights.tobytes() == want.tobytes()
                        assert measure.pair_level_probs().tobytes() == \
                            alone[j].pair_level_probs().tobytes()
            assert all(measure.grid is st.grid for measure in alone)

    def test_block_cum_rows_match_single_builds(self):
        # a block-built measure keeps only its cumulative weights: the
        # cumsum of the same draw built alone, ending exactly at 1.0
        for B, k in [(3, 1), (5, 2), (3, 3)]:
            st = TreeStructure(tuple(np.linspace(0.2, 0.8, k)), B)
            spec = TreeMeasureSpec(st.q, B, tuple(np.linspace(0.25, 0.75, k)),
                                   seed=2**64 - 9)
            for block in (1, 7, 13):
                got = build_tree_measures(spec, 3, 3 + block, st)
                for j, measure in enumerate(got, start=3):
                    assert "weights" not in vars(measure)
                    alone = build_tree_measures(spec, j, j + 1, st)[0]
                    want = np.cumsum(alone.weights)
                    assert measure._cum[:-1].tobytes() == want[:-1].tobytes()
                    assert measure._cum[-1] == 1.0
                    assert not measure._cum.flags.writeable
                    u = np.random.default_rng(j).random((300, 4))
                    a, b = (m.sample_indices(u) for m in (measure, alone))
                    assert np.array_equal(a, b)
                    assert "weights" not in vars(measure)

    @pytest.mark.parametrize("outer, inner", [(1000, 150), (37, 100), (5, 1)])
    def test_scan_builds_no_draw_past_outer(self, monkeypatch, outer, inner):
        built = self.counting(monkeypatch)
        model = TreeModel(self.SPEC)
        outer_stat_means(model, [Statistic(2)], 2, MCConfig(outer, inner), 3)
        assert built == list(range(outer))


class TestTreeCodeLevels:
    """Tree pair levels come from per-depth ancestor codes; a tree measure
    has no m x m table, and tree_reference.digit_levels is the reference."""

    @staticmethod
    def measure(B, k, seed=3):
        spec = TreeMeasureSpec(tuple(np.linspace(0.2, 0.8, k)), B,
                               tuple(np.linspace(0.2, 0.8, k)), seed=seed)
        return build_tree_measures(spec, 0, 1)[0]

    def test_codes_are_ancestors_by_depth(self):
        st = TreeStructure((0.2, 0.5, 0.8), 3)
        assert st.codes.shape == (3, 27) and st.codes.dtype == np.int32
        leaves = np.arange(27)
        for d in range(3):
            assert np.array_equal(st.codes[d], leaves // 3 ** (2 - d))
        assert "table" not in vars(st)

    @pytest.mark.parametrize("B, k", [(2, 1), (3, 2), (2, 3), (5, 2)])
    def test_levels_match_table(self, B, k):
        m = self.measure(B, k)
        assert m.table is None
        table = tree_table(m.tree)
        leaves = np.arange(m.m)
        lv = m.levels_from_indices(leaves[None, :])[0]
        want = table.copy()
        np.fill_diagonal(want, 0)
        assert lv.dtype == np.int16 and np.array_equal(lv, want)
        for i, j in itertools.product(range(m.m), repeat=2):
            assert m.pair_level(i, j) == table[i, j]
        idx = m.sample_indices(np.random.default_rng(B * k).random((500, 4)))
        lv = m.levels_from_indices(idx)
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(lv[:, off], table[idx[:, :, None],
                                                idx[:, None, :]][:, off])
        assert (lv[:, ~off] == 0).all()

    def test_levels_above_table_cap_match_digits(self):
        B, k = 60, 2
        m = self.measure(B, k)
        idx = m.sample_indices(np.random.default_rng(4).random((2000, 5)))
        # pairs that share one or two ancestors, and distinct leaves
        idx[:10, 1] = idx[:10, 0]
        idx[10:20, 1] = idx[10:20, 0] // B * B + (idx[10:20, 0] + 1) % B
        lv = m.levels_from_indices(idx)
        want = digit_levels(B, k, idx[:, :, None], idx[:, None, :])
        want[:, np.arange(5), np.arange(5)] = 0
        assert lv.dtype == np.int16 and np.array_equal(lv, want)
        assert set(lv[:, 0, 1].tolist()) == {1, 2, 3}
        for i, j in idx[:40, :2].tolist():
            assert m.pair_level(i, j) == digit_levels(B, k, i, j)

    def test_level_probs_keep_their_bits(self):
        # a measure's law is computed from its redrawn weights: bit for bit
        # its row of the block's, and the law of the draw built alone
        spec = TreeMeasureSpec((0.3, 0.7), 5, (0.3, 0.6), seed=8)
        block = build_tree_measures(spec, 0, 6)
        st = block[0].tree
        P = measures._tree_level_probs(np.stack([m.weights for m in block]),
                                       st.B)
        for j, m in enumerate(block):
            alone = build_tree_measures(spec, j, j + 1)[0]
            assert m.grid is st.grid and alone.grid == st.grid
            assert m.pair_level_probs()[1:].tobytes() == P[j].tobytes()
            assert m.pair_level_probs().tobytes() == \
                alone.pair_level_probs().tobytes()

    @pytest.mark.parametrize("bad, match", [
        (lambda W: W * (np.arange(W.shape[1]) != 3), "weights must be positive"),
        (lambda W: W * (1.0 + 1e-9), r"weights sum to .*, not 1"),
    ], ids=["nonpositive", "sum_off"])
    def test_block_weights_validated_at_build(self, monkeypatch, bad, match):
        real = measures.tree_leaf_weights
        monkeypatch.setattr(measures, "tree_leaf_weights",
                            lambda *args: bad(real(*args)))
        spec = TreeMeasureSpec((0.3, 0.7), 5, (0.3, 0.6), seed=8)
        with pytest.raises(BadWeights, match=match):
            build_tree_measures(spec, 0, 4)

    def test_shares_levels_by_structure(self):
        spec = TreeMeasureSpec((0.3, 0.7), 5, (0.3, 0.6), seed=8)
        a, b = build_tree_measures(spec, 0, 2)
        other = build_tree_measures(spec, 0, 1)[0]
        assert a.shares_levels(b) and not a.shares_levels(other)
        assert not a.shares_levels(adversarial_measure())
        assert not adversarial_measure().shares_levels(a)


class TestLevelBlockLayout:
    """levels_from_indices hands back (T, n, n) views of one pair-major
    (n, n, T) block, for tree and explicit measures alike."""

    MEASURES = {
        "tree": lambda: build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 4, (0.3, 0.6), seed=5), 0, 1)[0],
        "explicit": adversarial_measure,
    }

    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    @pytest.mark.parametrize("kind", ["tree", "explicit"])
    def test_levels_are_table_gathers_in_pair_major_block(self, kind, n):
        m = self.MEASURES[kind]()
        idx = m.sample_indices(np.random.default_rng(n).random((400, n)))
        idx[:5, 1] = idx[:5, 0]  # replicas on one atom
        lv = m.levels_from_indices(idx)
        table = m.table if m.tree is None else tree_table(m.tree)
        want = table[idx[:, :, None], idx[:, None, :]]
        want[:, np.arange(n), np.arange(n)] = DIAG
        assert lv.shape == (400, n, n) and lv.dtype == np.int16
        assert np.array_equal(lv, want)
        assert lv.transpose(1, 2, 0).flags.c_contiguous

    @staticmethod
    def off_grid_measure():
        # atom 0's self overlap 0.6 and the pair (1, 2)'s 0.35 are off the
        # grid; pairs (0, 1) and (0, 2) sit at 0, atom 1 and 2 at 0.7
        g = OverlapGrid((0.0, 0.7), 0.7)
        a = np.sqrt(0.7)
        atoms = np.array([[np.sqrt(0.6), 0.0, 0.0], [0.0, a, 0.0],
                          [0.0, 0.5 * a, np.sqrt(0.75) * a]])
        m = explicit_measure(atoms, [0.2, 0.4, 0.4], g, on_sphere=False)
        assert m.table[0, 0] == m.table[1, 2] == -1
        return m

    @pytest.mark.parametrize("bad", [[1, 2], [1, 1, 2], [0, 1], [1, 1, 0],
                                     [0, 0]], ids=["pair", "pair_later",
                                                   "self", "self_later",
                                                   "self_twice"])
    def test_off_grid_draw_raises(self, bad):
        m = self.off_grid_measure()
        n = len(bad)
        on_grid = np.ones((1, n), dtype=np.int64)
        assert (m.levels_from_indices(on_grid)[0] == 2 - 2 * np.eye(n)).all()
        with pytest.raises(OffGridOverlap, match="off-grid"):
            m.levels_from_indices(np.concatenate([on_grid, [bad]]))


class TestTreeModel:
    SPEC = TreeMeasureSpec((0.3, 0.7), 6, (0.3, 0.6), seed=13)

    def assert_fresh(self, measure, j):
        fresh = build_tree_measures(self.SPEC, j, j + 1)[0]
        assert np.array_equal(measure.weights, fresh.weights)
        assert measure.pair_level_probs().tobytes() == \
            fresh.pair_level_probs().tobytes()

    def test_repeat_calls_match_fresh_build(self):
        """A tree model keeps nothing: each read builds its draw again."""
        model = TreeModel(self.SPEC)
        for j in (0, 5, 0, 5):
            self.assert_fresh(model.measure_at(j), j)
        assert model.measure_at(5) is not model.measure_at(5)
        self.assert_fresh(DescendedModel(model).measure_at(5), 5)
        assert model.built == 7

    def test_measures_share_the_model_grid(self):
        model = TreeModel(self.SPEC)
        assert model.grid is model.structure.grid
        assert model.grid.levels == (0.0, *self.SPEC.q)
        assert model.grid.self_overlap == self.SPEC.q[-1]
        for measure in [*model.measures(0, 9), model.measure_at(12)]:
            assert measure.grid is model.grid

    def test_stored_arrays_read_only(self):
        measure = TreeModel(self.SPEC).measure_at(0)
        for arr in (measure.weights, measure.norms_sq):
            with pytest.raises(ValueError):
                arr[0] = 0.5


class TestHeldModel:
    SPEC = TestTreeModel.SPEC
    assert_fresh = TestTreeModel.assert_fresh

    def test_serves_held_draws_as_the_same_objects(self):
        """Draws 0 .. count - 1 are built once, at the wrap, and every read
        of them, in any pass and through a descent, is the held object."""
        base = TreeModel(self.SPEC)
        model = HeldModel(base, 6)
        assert base.built == 6 and len(model.held) == 6
        for _ in range(3):
            assert all(a is b for a, b in zip(model.measures(0, 6), model.held))
        assert list(model.measures(2, 4)) == model.held[2:4]
        assert model.measure_at(5) is model.held[5]
        assert DescendedModel(model).measure_at(3) is model.held[3]
        assert [*DescendedModel(model).measures(1, 3)] == model.held[1:3]
        assert base.built == 6
        for j, measure in enumerate(model.held):
            self.assert_fresh(measure, j)
        assert (model.grid, model.model_id) == (base.grid, base.model_id)
        assert (model.frozen, model.threshold) == (False, None)

    @pytest.mark.parametrize("start, stop", [(4, 10), (6, 9), (8, 8),
                                             (11, 13)])
    def test_serves_draws_past_count_fresh(self, start, stop):
        """Past count, reads go to the base, which builds each draw anew,
        bit for bit the one built alone."""
        base = TreeModel(self.SPEC)
        model = HeldModel(base, 6)
        got = list(model.measures(start, stop))
        assert len(got) == stop - start
        for j, measure in enumerate(got, start=start):
            assert any(measure is held for held in model.held) == (j < 6)
            self.assert_fresh(measure, j)
        assert base.built == 6 + max(0, stop - max(start, 6))
        assert model.measure_at(7) is not model.measure_at(7)
        assert base.built == 8 + max(0, stop - max(start, 6))

    def test_frozen_base(self):
        measure = adversarial_measure()
        model = HeldModel(FrozenModel(measure), 4)
        assert model.frozen and model.held == [measure] * 4
        assert list(model.measures(2, 7)) == [measure] * 5

    @pytest.mark.parametrize("budget, held", [(3, 3), (1, 1), (0.5, 1)])
    def test_holds_within_byte_budget(self, monkeypatch, budget, held):
        """At most HELD_BYTES of draws are held, 8 bytes an atom, and at
        least one; the draws past them are built again when read, bit for
        bit the ones built alone."""
        m = TreeModel(self.SPEC).structure.m
        monkeypatch.setattr(models, "HELD_BYTES", int(budget * 8 * m))
        base = TreeModel(self.SPEC)
        model = HeldModel(base, 6)
        assert len(model.held) == held and base.built == held
        for _ in range(2):
            got = list(model.measures(0, 6))
            for j, measure in enumerate(got):
                assert any(measure is h for h in model.held) == (j < held)
                self.assert_fresh(measure, j)
        assert base.built == held + 2 * (6 - held)


class TestExplicitMeasure:
    def test_single_atom(self):
        g = OverlapGrid((0.7,), 0.7)
        m = explicit_measure([[np.sqrt(0.7)]], [1.0], g)
        assert m.m == 1
        assert m.pair_level(0, 0) == 1

    def test_two_orthogonal_atoms_pair_probs(self):
        g = OverlapGrid((0.0, 0.7), 0.7)
        a = np.sqrt(0.7)
        m = explicit_measure([[a, 0.0], [0.0, a]], [0.5, 0.5], g)
        probs = m.pair_level_probs()
        assert np.isclose(probs[1], 0.5, atol=1e-12)  # different atoms
        assert np.isclose(probs[2], 0.5, atol=1e-12)  # collision

    def test_singular_gram_with_equal_atoms_builds(self):
        """Two equal atoms make the Gram matrix singular: Cholesky refuses
        it, the PSD test does not, and the collision scan names the pair."""
        gram = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        m = measure_from_gram(gram, [0.25, 0.25, 0.5],
                              OverlapGrid((0.0, 1.0), 1.0))
        assert np.array_equal(m.table, [[2, 2, 1], [2, 2, 1], [1, 1, 2]])
        assert m.norms_sq.tolist() == [1.0, 1.0, 1.0]
        assert collision_identity_check(m) == (False, (0, 1))

    def test_non_psd_gram_refused(self):
        # three unit vectors pairwise at -0.7: smallest eigenvalue -0.4
        gram = np.array([[1.0, -0.7, -0.7], [-0.7, 1.0, -0.7],
                         [-0.7, -0.7, 1.0]])
        with pytest.raises(ValueError, match="not positive semidefinite") \
                as err:
            measure_from_gram(gram, np.full(3, 1 / 3),
                              OverlapGrid((-0.7, 1.0), 1.0))
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_cholesky_three_atoms(self):
        gram = np.array([[0.7, 0.3, 0.3], [0.3, 0.7, 0.3], [0.3, 0.3, 0.7]])
        g = OverlapGrid((0.3, 0.7), 0.7)
        m = measure_from_gram(gram, np.full(3, 1 / 3), g)
        assert np.allclose(m.norms_sq, np.diag(gram), rtol=0, atol=1e-12)
        assert np.array_equal(m.table, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])

    def test_bad_weights(self):
        g = OverlapGrid((0.7,), 0.7)
        a = [[np.sqrt(0.7)]]
        with pytest.raises(BadWeights):
            explicit_measure(a, [0.9], g)
        with pytest.raises(BadWeights):
            explicit_measure([[np.sqrt(0.7)], [np.sqrt(0.7)]], [1.2, -0.2], g)

    @pytest.mark.parametrize("weights", [[0.5, np.nan], [np.nan, np.nan]])
    def test_nan_weights_rejected(self, weights):
        g = OverlapGrid((0.0, 1.0), 1.0)
        with pytest.raises(BadWeights):
            explicit_measure(np.eye(2), weights, g)

    def test_off_grid_rejected_on_sphere(self):
        g = OverlapGrid((0.3, 0.7), 0.7)
        atoms = np.array([[np.sqrt(0.7), 0.0], [0.0, np.sqrt(0.7)]])  # product 0
        with pytest.raises(OffGridOverlap):
            explicit_measure(atoms, [0.5, 0.5], g)

    def test_off_sphere_allowed_when_disabled(self):
        g = OverlapGrid((0.3, 0.7), 0.7)
        atoms = np.array([[np.sqrt(0.6), 0.0], [0.0, np.sqrt(0.7)]])
        m = explicit_measure(atoms, [0.5, 0.5], g, on_sphere=False)
        assert m.table[0, 0] == -1  # norm 0.6 matches no level
        with pytest.raises(OffGridOverlap):
            m.pair_level(0, 0)

    def test_norm_deviation_rejected_on_sphere(self):
        g = OverlapGrid((0.3, 0.7), 0.7)
        atoms = np.array([[np.sqrt(0.3), 0.0], [0.0, np.sqrt(0.7)]])
        with pytest.raises(OffGridOverlap):
            explicit_measure(atoms, [0.5, 0.5], g)


class TestAdversarialMeasure:
    def test_gram_and_grid(self):
        m = adversarial_measure()
        # the Gram matrix's entries 0.3, 0.7, 1.0 are the grid's levels 1, 2, 3
        assert np.array_equal(m.table, [[3, 2, 2], [2, 3, 1], [2, 1, 3]])
        assert np.allclose(m.norms_sq, np.diag(ADVERSARIAL_GRAM), rtol=0,
                           atol=1e-12)
        assert m.grid.levels == (0.3, 0.7, 1.0)
        assert np.allclose(m.pair_level_probs(), (0, 2 / 9, 4 / 9, 3 / 9),
                           rtol=0, atol=1e-15)
        assert m.kind == "adversarial"

    def test_table_and_norms_keep_their_bits(self):
        """Built from the Gram matrix, the table and norms are bit for bit
        those of the atoms a Cholesky factor realizes."""
        m = adversarial_measure()
        atoms = np.linalg.cholesky(ADVERSARIAL_GRAM)
        ref = explicit_measure(atoms, np.full(3, 1 / 3), m.grid)
        assert m.table.dtype == ref.table.dtype
        assert np.array_equal(m.table, ref.table)
        assert m.norms_sq.tobytes() == ref.norms_sq.tobytes()

    def test_distinct_triple_always_violates(self):
        from overlap_lab.grid import check_ultrametric_batch

        m = adversarial_measure()
        lv = m.levels_from_indices(np.array([[0, 1, 2]]))
        rep = check_ultrametric_batch(lv)
        assert rep.violations == 1


class TestSampleIndicesIntegerSearch:
    """sample_indices searches the cumulative weights' bit patterns as int64;
    every key gets the index of the float search."""

    @staticmethod
    def measures():
        tree = build_tree_measures(
            TreeMeasureSpec((0.3, 0.7), 6, (0.3, 0.6), seed=5), 0, 1)[0]
        # a subnormal weight and one below the sum's last bit repeat a
        # cumulative value
        explicit = explicit_measure(np.eye(5), [0.25, 5e-324, 0.25, 1e-300,
                                                0.5], OverlapGrid((0.0, 1.0), 1.0))
        return {"tree": tree, "explicit": explicit}

    @pytest.mark.parametrize("name", ["tree", "explicit"])
    def test_matches_float_search(self, name):
        m = self.measures()[name]
        cum = m._cum
        if name == "explicit":
            assert len(np.unique(cum)) < len(cum)  # repeated values
        edges = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -0.5, -1e-300,
                 -5e-324, 5e-324, np.finfo(float).tiny]
        keys = np.concatenate([cum, np.nextafter(cum, -np.inf),
                               np.nextafter(cum, np.inf), edges,
                               np.random.default_rng(1).random(500)])
        got = m.sample_indices(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(cum, keys))
        # a (rows, n) block keeps its shape
        block = keys[:len(keys) // 4 * 4].reshape(-1, 4)
        assert np.array_equal(m.sample_indices(block),
                              np.searchsorted(cum, block))

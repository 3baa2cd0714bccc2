import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from overlap_lab import cli, measures, models, verify
from overlap_lab.cli import (build_model, emit_plot_data, main, parse_config,
                             run_experiment)
from overlap_lab.errors import ParseError, ValidationError
from overlap_lab.measures import tree_leaf_weights
from overlap_lab.verify import CheckRow

from perfbench_load import load


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg))
    return path


def tree_config(out_dir, checks=None, seed=99):
    return {
        "measure": {"type": "tree", "branching": 40, "zetas": [0.3, 0.6],
                    "q": [0.3, 0.7], "seed": 7},
        "checks": checks or [
            {"name": "mass", "n_max": 4, "mc": {"outer": 200, "inner": 80}},
            {"name": "support"},
            {"name": "ultra", "n": 5, "mc": {"outer": 40, "inner": 40}},
        ],
        "seed": seed,
        "output": {"dir": str(out_dir), "formats": ["csv", "json"]},
    }


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        p = write_config(tmp_path / "c.json", {
            "measure": {"type": "tree", "branching": 3, "zetas": [0.5],
                        "q": [0.5], "seed": 1},
            "checks": [{"name": "gg"}],
            "seed": 4,
        })
        cfg = parse_config(p)
        assert cfg.seed == 4
        assert cfg.checks[0]["name"] == "gg"

    def test_broken_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"measure": }')
        with pytest.raises(ParseError) as err:
            parse_config(p)
        assert "bad.json:1" in str(err.value)

    def test_unknown_check_lists_allowed(self, tmp_path):
        p = write_config(tmp_path / "c.json", {
            "measure": {"type": "adversarial"},
            "checks": [{"name": "nonsense"}],
        })
        with pytest.raises(ValidationError) as err:
            parse_config(p)
        msg = "".join(err.value.problems)
        assert "nonsense" in msg and "descend" in msg and "criterion" in msg

    def test_collects_all_problems(self, tmp_path):
        p = write_config(tmp_path / "c.json", {
            "measure": {"type": "wat"},
            "checks": [{"name": "gg", "mc": {"outer": 0}},
                       {"name": "criterion"}],
            "seed": "nope",
        })
        with pytest.raises(ValidationError) as err:
            parse_config(p)
        assert len(err.value.problems) >= 3

    @pytest.mark.parametrize("cfg, field", [
        ([{"measure": {"type": "adversarial"}}], "config: must be a JSON object"),
        ({"output": {"formats": "csv"}}, "output.formats: must be a list"),
        ({"checks": [{"name": "ultra", "n": 2}]}, "checks[0].n"),
        ({"checks": [{"name": "ultra", "n": 3.5}]}, "checks[0].n"),
        ({"checks": [{"name": "gg", "mc": {"outer": True}}]}, "checks[0].mc.outer"),
        ({"seed": True}, "seed"),
        ({"checks": [{"name": "criterion", "q": "abc"}]}, "checks[0].q"),
        ({"checks": [{"name": "mass", "n_max": 0}]}, "checks[0].n_max"),
        ({"checks": [{"name": "criterion", "q": 0.5, "n_max": 1}]},
         "checks[0].n_max"),
        ({"checks": [{"name": "descend", "psd_outer": 0}]}, "checks[0].psd_outer"),
        ({"checks": [{"name": "descend", "psd_inner": "x"}]}, "checks[0].psd_inner"),
        ({"checks": [{"name": "gg", "abs_tol": "x"}]}, "checks[0].abs_tol"),
        ({"checks": [{"name": "gg", "z": "x"}]}, "checks[0].z"),
        ({"output": "out"}, "output: must be an object"),
        ({"checks": [{"name": "gg", "observables": [
            {"n": "x", "psi": {"monomial": 1}}]}]}, "checks[0].observables[0].n"),
        ({"checks": [{"name": "gg", "observables": [
            {"n": 2, "psi": {"monomial": 9}}]}]}, "checks[0].observables[0].psi"),
        ({"checks": [{"name": "gg", "observables": [
            {"n": 2, "psi": {"indicator": 1}, "f_pattern": [[1, 3, 1]]}]}]},
         "checks[0].observables[0].f_pattern"),
        ({"checks": [{"name": "gg", "observables": [
            {"n": 2, "psi": {"indicator": 1}, "f_monomial": [[1, 2, "x"]]}]}]},
         "checks[0].observables[0].f_monomial"),
        ({"checks": [{"name": "gg", "observables": "all"}]},
         "checks[0].observables"),
        ({"checks": [{"name": "gg", "conditioned": {"kind": "B_n"}}]},
         "checks[0].conditioned.kind"),
        ({"checks": [{"name": "gg", "conditioned": {"kind": "A_n", "n": "x"}}]},
         "checks[0].conditioned.n"),
        ({"checks": [{"name": "gg", "conditioned": {"kind": "A_nq"}}]},
         "checks[0].conditioned.q"),
        ({"checks": [{"name": "gg", "conditioned": "A_n"}]},
         "checks[0].conditioned"),
        ({"checks": [{"name": "criterion", "q": 0.5, "patterns": [[[1, 1]]]}]},
         "checks[0].patterns"),
        ({"checks": [{"name": "criterion", "q": 0.5, "patterns": [[1, 1, 1]]}]},
         "checks[0].patterns"),
        ({"checks": [{"name": "lemma1", "f_pattern": [["a", 2, 1]]}]},
         "checks[0].f_pattern"),
        ({"checks": [{"name": "gg", "conditioned": {"kind": "A_n", "n": 4}}]},
         "checks[0].conditioned.n"),
        ({"checks": [{"name": "gg", "observables": [
            {"n": 2, "psi": {"monomial": 1}}, {"n": 3, "psi": {"monomial": 1}}],
            "conditioned": {"kind": "A_n", "n": 3}}]},
         "checks[0].conditioned.n"),
        ({"checks": [{"name": "lemma1", "n": "x"}]}, "checks[0].n"),
        ({"checks": [{"name": "consistency", "n": 1}]}, "checks[0].n"),
        ({"checks": [{"name": "gg", "method": "foo"}]}, "checks[0].method"),
        ({"checks": [{"name": "descend", "force": "no"}]}, "checks[0].force"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [1.0], "self_overlap": 1.0},
                      "atoms": [[1.0]], "weights": "ab"}}, "measure.weights"),
        ({"checks": [{"name": "ultra", "n": 101}]}, "checks[0].n"),
        ({"checks": [{"name": "mass", "n_mx": 3}]}, "checks[0].n_mx"),
        ({"checks": [{"name": "ultra", "nn": 4, "mc": {"outr": 5}}]},
         "checks[0].nn"),
        ({"checks": [{"name": "ultra", "nn": 4, "mc": {"outr": 5}}]},
         "checks[0].mc.outr"),
        ({"checks": [{"name": "support", "n": 3}]}, "checks[0].n"),
        ({"checks": [{"name": "gg", "n_max": 3}]}, "checks[0].n_max"),
        ({"measure": {"type": "tree", "branching": 3, "zetas": [0.5],
                      "q": [0.5], "sed": 7}}, "measure.sed"),
        ({"measure": {"type": "adversarial", "seed": 7}}, "measure.seed"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [1.0], "self_overlap": 1.0},
                      "atoms": [[1.0]], "weights": [1.0], "on_spehre": False}},
         "measure.on_spehre"),
        ({"checks": [{"name": "gg", "observables": [
            {"n": 2, "psi": {"monomial": 1}, "f_patern": [[1, 2, 1]]}]}]},
         "checks[0].observables[0].f_patern"),
        ({"checks": [{"name": "gg", "conditioned": {"kind": "A_n", "qq": 0.5}}]},
         "checks[0].conditioned.qq"),
        ({"output": {"dir": "out", "fromats": ["csv"]}}, "output.fromats"),
        ({"outptu": {"dir": "out"}}, "outptu: unknown field"),
        ({"measure": {"type": ["tree"]}}, "measure.type: unknown type"),
        ({"output": {"dir": 5}}, "output.dir"),
        ({"measure": {"type": "tree", "branching": "3", "zetas": [0.5],
                      "q": [0.5]}}, "measure.branching"),
        ({"measure": {"type": "tree", "branching": 3.7, "zetas": [0.5],
                      "q": [0.5]}}, "measure.branching"),
        ({"measure": {"type": "tree", "branching": 3, "zetas": [0.5],
                      "q": [0.5], "seed": 1.5}}, "measure.seed"),
        ({"measure": {"type": "tree", "branching": 3, "zetas": [0.5],
                      "q": ["0.5"]}}, "measure.q"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [1.0], "self_overlap": 1.0},
                      "atoms": [[1.0]], "weights": [1.0], "on_sphere": "no"}},
         "measure.on_sphere"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [1.0], "self_overlap": 1.0},
                      "atoms": [[None]], "weights": [1.0],
                      "on_sphere": False}}, "measure.atoms"),
        ({"checks": [{"name": "gg", "conditioned": {}}]},
         "checks[0].conditioned.kind"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": ["1.0"], "self_overlap": "1"},
                      "atoms": [[1.0]], "weights": [1.0]}},
         "measure.grid.levels: must be a nonempty list of numbers"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [1.0], "self_overlap": 1.0,
                               "probs": [1.0]},
                      "atoms": [[1.0]], "weights": [1.0]}},
         "measure.grid.probs: unknown field for a grid"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [1.0], "self_overlap": 1.0,
                               "extra": 1},
                      "atoms": [[1.0]], "weights": [1.0]}},
         "measure.grid.extra: unknown field"),
        ({"measure": {"type": "explicit", "grid": {"levels": [1.0]},
                      "atoms": [[1.0]], "weights": [1.0]}},
         "measure.grid.self_overlap: must be a number"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": 1.0, "self_overlap": 1.0},
                      "atoms": [[1.0]], "weights": [1.0]}},
         "measure.grid.levels: must be a nonempty list of numbers"),
        ({"checks": [{"name": "support", "mc": {"outer": 5}}]},
         "checks[0].mc: unknown field"),
        ({"checks": [{"name": "positivity", "method": "enumerate"}]},
         "checks[0].method: unknown field"),
        ({"checks": [{"name": "ultra", "n": 4, "abs_tol": 5.0, "z": 100,
                      "method": "enumerate"}]}, "checks[0].abs_tol: unknown field"),
        ({"measure": {"type": "explicit",
                      "grid": {"levels": [0.0, 1.0], "self_overlap": 1.0},
                      "atoms": [[1.0, 0.0], [1.0]], "weights": [0.5, 0.5]}},
         "measure.atoms: must be a nonempty list of lists of numbers, all of "
         "one length"),
    ])
    def test_malformed_field_named(self, tmp_path, cfg, field):
        if isinstance(cfg, dict):
            cfg = {"measure": {"type": "adversarial"},
                   "checks": [{"name": "support"}], **cfg}
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(tmp_path / "c.json", cfg))
        assert any(p.startswith(field) for p in err.value.problems), \
            err.value.problems

    @pytest.mark.parametrize("measure, problem", [
        (5, "measure: must be an object"),
        (None, "measure: required object missing"),
        ({"type": "explicit", "grid": [1.0], "atoms": [[1.0]],
          "weights": [1.0]}, "measure.grid: must be an object"),
        ({"type": "explicit", "atoms": [[1.0]], "weights": [1.0]},
         "measure.grid: required for explicit measures"),
    ], ids=["measure_wrong_type", "measure_missing", "grid_wrong_type",
            "grid_missing"])
    def test_wrong_type_told_from_missing(self, tmp_path, measure, problem):
        cfg = {"checks": [{"name": "support"}]}
        if measure is not None:
            cfg["measure"] = measure
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(tmp_path / "c.json", cfg))
        assert err.value.problems == [problem]

    @pytest.mark.parametrize("text, token", [
        ('{"measure": {"type": "adversarial"}, '
         '"checks": [{"name": "gg", "z": 1e999}]}', "1e999"),
        ('{"measure": {"type": "tree", "branching": 3, "zetas": [0.5], '
         '"q": [NaN]}, "checks": [{"name": "support"}]}', "NaN"),
        ('{"measure": {"type": "explicit", "grid": {"levels": [1.0], '
         '"self_overlap": 1.0}, "atoms": [[1.0]], "weights": [NaN]}, '
         '"checks": [{"name": "support"}]}', "NaN"),
        ('{"measure": {"type": "adversarial"}, '
         '"checks": [{"name": "gg", "abs_tol": Infinity}]}', "Infinity"),
        ('{"measure": {"type": "adversarial"}, '
         '"checks": [{"name": "criterion", "q": -Infinity}]}', "-Infinity"),
        ('{"measure": {"type": "tree", "branching": 3, "zetas": [0.5], '
         '"q": [1' + "0" * 400 + ']}, "checks": [{"name": "support"}]}',
         "1" + "0" * 400),
    ], ids=["overflow", "tree_q_nan", "weights_nan", "inf", "minus_inf",
            "int_overflow"])
    def test_non_finite_number_refused(self, tmp_path, capsys, text, token):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_config(p)
        assert f": {token} is not a finite number" in str(err.value)
        assert main(["validate", str(p)]) == 1
        assert token in capsys.readouterr().err

    def test_conditioned_n_matching_every_observable_accepted(self, tmp_path):
        obs = [{"n": 3, "psi": {"monomial": 1}},
               {"n": 3, "psi": {"indicator": 1}}]
        cfg = parse_config(write_config(tmp_path / "c.json", {
            "measure": {"type": "adversarial"},
            "checks": [{"name": "gg", "observables": obs,
                        "conditioned": {"kind": "A_n", "n": 4}}]}))
        assert cfg.checks[0]["conditioned"]["n"] == 4

    def test_hash_stable_under_key_reordering(self, tmp_path):
        a = {"measure": {"type": "adversarial"}, "checks": [{"name": "support"}],
             "seed": 1}
        b = {"seed": 1, "checks": [{"name": "support"}],
             "measure": {"type": "adversarial"}}
        ca = parse_config(write_config(tmp_path / "a.json", a))
        cb = parse_config(write_config(tmp_path / "b.json", b))
        assert ca.config_hash() == cb.config_hash()


class TestBuildModel:
    def test_negative_levels_warn(self):
        measure = {"type": "explicit",
                   "grid": {"levels": [-0.5, 1.0], "self_overlap": 1.0},
                   "weights": [0.5, 0.5],
                   "atoms": [[1.0, 0.0], [-0.5, 0.8660254037844386]],
                   "on_sphere": False}
        model, warnings = build_model(measure)
        assert warnings and "negative" in warnings[0]


ROOT = Path(__file__).resolve().parents[1]


def test_setup_does_not_import_numpy_random():
    """Set-up (import, parse_config, build_model, kernel warm-up) leaves
    numpy.random unimported; its import would add to every invocation."""
    code = ("import sys\n"
            "from overlap_lab import _kernels\n"
            "from overlap_lab.cli import build_model, parse_config\n"
            "build_model(parse_config(sys.argv[1]).measure)\n"
            "_kernels.warmup()\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "configs" / "tree_k2.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def small_tree_run(tmp_path, monkeypatch):
    """Every check of configs/tree_k2.json at B = 8 and outer budgets / 10;
    returns the run's tree model."""
    cfg = json.loads((ROOT / "configs" / "tree_k2.json").read_text())
    cfg["measure"]["branching"] = 8
    for chk in cfg["checks"]:
        if "mc" in chk:
            chk["mc"]["outer"] = max(20, chk["mc"]["outer"] // 10)
    cfg["output"]["dir"] = str(tmp_path / "out")
    models = []

    def keep(measure):
        model, warnings = build_model(measure)
        models.append(model)
        return model, warnings

    monkeypatch.setattr(cli, "build_model", keep)
    run_experiment(parse_config(write_config(tmp_path / "c.json", cfg)))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["checks"]) == 10
    assert all(c["status"] != "error" for c in manifest["checks"])
    (model,) = models
    return model


def test_tree_run_never_builds_pair_table(tmp_path, monkeypatch):
    """Every check of a run on a small tree reads pair levels from ancestor
    codes: no measure of it has an m x m table."""
    model = small_tree_run(tmp_path, monkeypatch)
    assert "table" not in model.structure.__dict__
    assert model.measure_at(0).table is None


def recording_builds(monkeypatch) -> list:
    """Per step of a run, the sweep and then each check in order: each
    (draw, measure) that models.build_tree_measure built in it, in order."""
    steps = []
    real = models.build_tree_measure

    def entering(step):
        def recording(*args):
            steps.append([])
            return step(*args)
        return recording

    def recording_build(spec, structure, start, stop):
        built = real(spec, structure, start, stop)
        steps[-1].extend(zip(range(start, stop), built))
        return built

    monkeypatch.setattr(cli, "sweep_checks", entering(cli.sweep_checks))
    monkeypatch.setattr(cli, "_run_check", entering(cli._run_check))
    monkeypatch.setattr(models, "build_tree_measure", recording_build)
    return steps


def test_tree_run_keeps_only_cumulative_weights(tmp_path, monkeypatch):
    """Every measure a run builds holds its cumulative weights alone; only
    the support check reads a measure's weights, those of its draw 0."""
    steps = recording_builds(monkeypatch)
    small_tree_run(tmp_path, monkeypatch)
    assert [(i, j) for i, step in enumerate(steps) for j, measure in step
            if "weights" in vars(measure)] == [(6, 0)]


def test_tree_run_computes_no_level_probs(tmp_path, monkeypatch):
    """A run reads no measure's level probabilities, so it computes none;
    pair_level_probs read afterwards computes its measure's row, bit for bit
    the row of the block that built it."""
    real = measures._tree_level_probs
    calls = []

    def counting(W, B):
        calls.append(W.shape)
        return real(W, B)

    monkeypatch.setattr(measures, "_tree_level_probs", counting)
    steps = recording_builds(monkeypatch)
    model = small_tree_run(tmp_path, monkeypatch)
    assert calls == []
    held = steps[9]  # the draws descend held across its levels
    assert [j for j, _ in held] == list(range(25))
    assert [j for j, measure in held if "weights" in vars(measure)] == []
    assert all(measure.grid is model.grid for _, measure in held)
    st, spec = model.structure, model.spec
    block = tree_leaf_weights(st, spec.zetas, spec.seed, 0, len(held))
    P = real(block, st.B)
    read = held[::7]
    for j, measure in read:
        probs = measure.pair_level_probs()[1:]
        assert probs.tobytes() == P[j].tobytes()
    assert calls == [(st.m,)] * len(read)


def test_each_step_builds_its_range_once(tmp_path, monkeypatch):
    """Each step of small_tree_run builds exactly the draws it reads, once:
    the sweep draws 0 .. 99 (mass reaches farthest), support draw 0,
    positivity and ultra 0 .. 19 each, and descend 0 .. 24
    (max(mc.outer, psd_outer)) once across both its levels; the checks the
    sweep serves build none. The manifest counts the same builds."""
    steps = recording_builds(monkeypatch)
    small_tree_run(tmp_path, monkeypatch)
    built = [[j for j, _ in step] for step in steps]
    assert built == [list(range(100)), [], [], [], [], [], [0],
                     list(range(20)), list(range(20)), list(range(25)), []]
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert [manifest["sweep"]["measures_built"],
            *(c["measures_built"] for c in manifest["checks"])] == \
        [len(b) for b in built]
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][8]["summary"]["child"] is not None


def test_check_table_states_what_each_check_reads(tmp_path, monkeypatch):
    """The sweep of small_tree_run builds draws 0, 1, ... once each, as far
    as its farthest estimate; a check that states its estimates in its
    CHECKS entry builds no draw; every other check builds draws 0, 1, ...
    from the first, and at least one of them."""
    steps = recording_builds(monkeypatch)
    small_tree_run(tmp_path, monkeypatch)
    cfg = json.loads((tmp_path / "c.json").read_text())
    swept, *steps = [[j for j, _ in step] for step in steps]
    assert len(steps) == len(cfg["checks"])
    outer = []
    for chk, built in zip(cfg["checks"], steps):
        v = cli._read_check(chk, "check", [])
        if cli.CHECKS[v["name"]].estimates:
            assert built == [], v["name"]
            outer.append(v["mc"].outer)
            continue
        assert built == list(range(len(built))) != [], v["name"]
    assert len(outer) == 6
    assert swept == list(range(max(outer)))


def test_tree_run_builds_each_measure_once(tmp_path, monkeypatch):
    """No step of small_tree_run builds a draw twice, and the run builds
    draws 0 .. 99 and no other (mass reaches farthest)."""
    steps = recording_builds(monkeypatch)
    small_tree_run(tmp_path, monkeypatch)
    built = [[j for j, _ in step] for step in steps]
    assert all(len(set(step)) == len(step) for step in built)
    assert sorted({j for step in built for j in step}) == list(range(100))


def test_deep_run_descent_builds_its_draws_once(tmp_path, monkeypatch):
    """perfbench's depth-3 config: descend builds draws 0 .. 39
    (max(mc.outer, psd_outer)) once across all its levels."""
    steps = recording_builds(monkeypatch)
    config = write_config(tmp_path / "deep.json",
                          load("workloads").deep_config(0))
    assert main(["--out", str(tmp_path / "out"), "run", str(config)]) == 0
    built = [[j for j, _ in step] for step in steps]
    # the sweep reads criterion's 80 draws; gg and criterion are served
    assert built == [list(range(80)), list(range(40)), [], list(range(40)),
                     []]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    levels = {row["n"] for row in report["checks"][0]["rows"]}
    assert len(levels) > 1


@pytest.fixture(scope="module")
def tree_k2_run(tmp_path_factory):
    """run configs/tree_k2.json, the benchmark's tree workload, once for
    the tests that read its outputs; returns its output directory."""
    out = tmp_path_factory.mktemp("tree_k2")
    assert main(["--out", str(out), "run",
                 str(ROOT / "configs" / "tree_k2.json")]) == 0
    return out


def test_tree_k2_manifest_counts_measures_built(tree_k2_run):
    """The outer tree measures each step of a tree_k2 run builds: the sweep
    its 1,000 draws, support one, positivity and ultra 100 each and descend
    max(80, 25) held across its levels; the served checks none."""
    manifest = json.loads((tree_k2_run / "manifest.json").read_text())
    assert manifest["sweep"]["measures_built"] == 1000
    assert {c["name"]: c["measures_built"] for c in manifest["checks"]} == {
        "gg": 0, "mass": 0, "lemma1": 0, "consistency": 0, "marginal": 0,
        "support": 1, "positivity": 100, "ultra": 100, "descend": 80,
        "criterion": 0}


def test_frozen_run_builds_no_measures(tmp_path):
    """A frozen model builds no outer measure, under run and oracle."""
    for command in ("run", "oracle"):
        out = tmp_path / command
        assert main(["--out", str(out), command,
                     str(ROOT / "configs" / "adversarial.json")]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        sweep = manifest["sweep"] or {"measures_built": 0}  # oracle: none
        assert sweep["measures_built"] == 0
        assert {c["measures_built"] for c in manifest["checks"]} == {0}


# sha256 of each run's report.csv. A change to a random stream or to the
# report format updates its digest and says so in CHANGES.md.
REPORT_SHA256 = {
    "small_tree_run":
        "b8809e5321356e52f1f6e769d7924712b82773d654ec01b5597869f7e621a819",
    "oracle_adversarial":
        "0288dfaffe3ee47e4029d61d2d2ee22057935165e9f391a045ef05eb9c7fe6e3",
    "oracle_exact":
        "16c6135fad05f5d90582f88f30474aba79024fdfd2eed8d05b78e17b9f7bd9e7",
    "run_adversarial":
        "d3075911fa1001aa62172fbd7e984f42af09703f54b7dd4dc1febd9d2fefde40",
    "run_deep":
        "48adbed2f48ea4d8dc87f085f6e67a117f4a29f2be7a3e1d0f72935253169a61",
    "run_tree_k2":
        "a7dd88aa7241af113fceedd8344c9772357b02ba498cd6fdf3e88a19f48ff4ab",
}


def test_report_bytes_pinned(tmp_path, monkeypatch, tree_k2_run):
    """The report.csv of small_tree_run, of oracle on the adversarial config
    and of oracle on the benchmark's exact config (seed 0), of run on the
    adversarial config (frozen-model Monte Carlo), of run on the
    benchmark's depth-3 config (seed 0; conditioned gg and criterion beside
    descend and ultra) and of run on configs/tree_k2.json (the benchmark's
    tree workload) are byte for byte the pinned ones."""
    small_tree_run(tmp_path, monkeypatch)
    adv = tmp_path / "adv"
    assert main(["--out", str(adv), "oracle",
                 str(ROOT / "configs" / "adversarial.json")]) == 2
    exact = tmp_path / "exact"
    config = write_config(tmp_path / "exact.json",
                          load("workloads").exact_config(0))
    assert main(["--out", str(exact), "oracle", str(config)]) == 2
    run_adv = tmp_path / "run_adv"
    assert main(["--out", str(run_adv), "run",
                 str(ROOT / "configs" / "adversarial.json")]) == 2
    deep = tmp_path / "deep"
    config = write_config(tmp_path / "deep.json",
                          load("workloads").deep_config(0))
    assert main(["--jobs", "1", "--out", str(deep), "run", str(config)]) == 0
    reports = {"small_tree_run": tmp_path / "out" / "report.csv",
               "oracle_adversarial": adv / "report.csv",
               "oracle_exact": exact / "report.csv",
               "run_adversarial": run_adv / "report.csv",
               "run_deep": deep / "report.csv",
               "run_tree_k2": tree_k2_run / "report.csv"}
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in reports.items()} == REPORT_SHA256


SWEPT_CHECKS = [
    {"name": "gg", "observables": "default", "mc": {"outer": 30, "inner": 20}},
    {"name": "gg", "conditioned": {"kind": "A_n"},
     "mc": {"outer": 40, "inner": 20}},
    {"name": "mass", "n_max": 4, "mc": {"outer": 50, "inner": 30}},
    {"name": "lemma1", "n": 2, "mc": {"outer": 30, "inner": 40}},
    {"name": "consistency", "n": 2, "mc": {"outer": 30, "inner": 40}},
    {"name": "marginal", "mc": {"outer": 45, "inner": 30}},
    {"name": "criterion", "q": 0.5, "n_max": 5,
     "patterns": [[[1, 1, 1]], [[1, 1, 2]]], "mc": {"outer": 35, "inner": 30}},
]


class TestSweptChecks:
    """The sweep serves every Monte Carlo estimate of a run; a check finishes
    from the means served to it as it would from its own."""

    @pytest.mark.parametrize("measure", [
        {"type": "tree", "q": [0.3, 0.7], "branching": 10,
         "zetas": [0.3, 0.6], "seed": 2},
        {"type": "adversarial"}], ids=["tree", "frozen"])
    @pytest.mark.parametrize("chk", SWEPT_CHECKS,
                             ids=[c["name"] for c in SWEPT_CHECKS])
    def test_same_report_served_and_unserved(self, monkeypatch, measure, chk):
        """The rows and summary, or the error (the frozen model's conditioned
        gg and criterion find no mass), are the same either way."""
        def refuse(*args, **kwargs):
            raise AssertionError("a served check estimated on its own")

        def outcome(*served):
            try:
                return cli._run_check(chk, model, seed, False, *served)
            except Exception as e:  # noqa: BLE001 - compared below
                return type(e), str(e)

        model, _ = build_model(measure)
        got, entry = cli.sweep_checks([chk], model, 3)
        assert entry["estimates"] == len(got[0]) >= 1
        assert entry["outer_draws"] == chk["mc"]["outer"]
        seed = measures.derive_seed(3, 0)
        alone = outcome()
        monkeypatch.setattr(verify, "outer_stat_means", refuse)
        assert outcome(got[0]) == alone

    def test_refusals_stay_with_their_check(self, tmp_path):
        """A check that cannot state its estimates is not swept, and fails
        with its own error; the others are served and pass."""
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", tree_config(
            out, checks=[
                {"name": "mass", "n_max": 3, "mc": {"outer": 40, "inner": 20}},
                # grid_rule: level 4 is above the grid's top level 3
                {"name": "gg", "observables": [
                    {"n": 2, "psi": {"indicator": 4},
                     "f_pattern": [[1, 2, 1]]}],
                 "mc": {"outer": 30, "inner": 20}},
                # method_rule: a tree redraws its measure
                {"name": "lemma1", "method": "enumerate"},
                # criterion: no grid level lies below q
                {"name": "criterion", "q": 0.0,
                 "mc": {"outer": 30, "inner": 20}},
                {"name": "consistency", "mc": {"outer": 30, "inner": 20}},
            ])))
        assert run_experiment(cfg) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep"]["estimates"] == 2  # mass and consistency
        assert manifest["sweep"]["outer_draws"] == 40
        assert manifest["sweep"]["error"] is None
        status = [(c["status"], (c["error"] or "").split(":")[0])
                  for c in manifest["checks"]]
        assert status == [("pass", ""), ("error", "GridTooSmall"),
                          ("error", "ValueError"),
                          ("error", "NullConditioning"), ("pass", "")]

    def test_failed_sweep_leaves_each_check_its_own_error(self, tmp_path,
                                                          monkeypatch):
        """An explicit measure whose two atoms meet off the grid: the sweep
        raises, no check is served, and each swept check draws on its own and
        reports the error, as the scan does."""
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", {
            "measure": {"type": "explicit", "on_sphere": False,
                        "grid": {"levels": [1.0], "self_overlap": 1.0},
                        "atoms": [[1.0, 0.0], [0.6, 0.8]],
                        "weights": [0.5, 0.5]},
            "checks": [{"name": "gg", "mc": {"outer": 5, "inner": 10}},
                       {"name": "mass", "n_max": 3,
                        "mc": {"outer": 5, "inner": 10}},
                       {"name": "ultra", "n": 3,
                        "mc": {"outer": 5, "inner": 10}}],
            "seed": 1,
            "output": {"dir": str(out)}}))
        seen = []
        run_check = cli._run_check

        def recording(chk, model, seed, oracle, served=None):
            seen.append(served)
            return run_check(chk, model, seed, oracle, served)

        monkeypatch.setattr(cli, "_run_check", recording)
        assert run_experiment(cfg) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        sweep = manifest["sweep"]
        assert sweep["error"].startswith("OffGridOverlap")
        assert (sweep["estimates"], sweep["outer_draws"]) == (0, 0)
        assert seen == [None] * 3
        assert [c["error"].split(":")[0] for c in manifest["checks"]] == [
            "OffGridOverlap"] * 3

    def test_oracle_takes_no_sweep(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("oracle swept")

        monkeypatch.setattr(cli, "sweep_checks", refuse)
        out = tmp_path / "out"
        assert main(["--out", str(out), "oracle",
                     str(ROOT / "configs" / "adversarial.json")]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep"] is None


class TestRunExperiment:
    def test_passing_run_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", tree_config(out)))
        assert run_experiment(cfg, jobs=2) == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "plot_data.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(c["status"] == "pass" for c in manifest["checks"])

    def test_manifest_records_peak_rss_after_each_check(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", tree_config(out)))
        before = cli.peak_rss_mb()
        assert run_experiment(cfg) == 0
        after = cli.peak_rss_mb()
        manifest = json.loads((out / "manifest.json").read_text())
        peaks = [c["peak_rss_mb"] for c in manifest["checks"]]
        assert len(peaks) == len(cfg.checks)
        assert before <= manifest["sweep"]["peak_rss_mb"] <= peaks[0]
        assert peaks == sorted(peaks)
        assert peaks[-1] <= after
        report = json.loads((out / "report.json").read_text())
        assert all("peak_rss_mb" not in c for c in report["checks"])
        assert "sweep" not in report

    def test_manifest_records_the_sweep(self, tmp_path):
        """tree_config's one estimating check, mass, is served by the sweep:
        one estimate over its 200 outer draws."""
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", tree_config(out)))
        assert run_experiment(cfg) == 0
        sweep = json.loads((out / "manifest.json").read_text())["sweep"]
        assert sorted(sweep) == ["error", "estimates", "measures_built",
                                 "outer_draws", "peak_rss_mb", "wall_time_s"]
        assert (sweep["estimates"], sweep["outer_draws"]) == (1, 200)
        assert sweep["measures_built"] == 200
        assert sweep["error"] is None and sweep["wall_time_s"] >= 0.0

    def test_failing_check_exit_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", {
            "measure": {"type": "adversarial"},
            "checks": [{"name": "ultra", "n": 4,
                        "mc": {"outer": 30, "inner": 30}}],
            "seed": 3,
            "output": {"dir": str(out)},
        }))
        assert run_experiment(cfg) == 2
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[1].endswith("false")

    def test_oracle_on_redrawn_measure_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", tree_config(out)))
        assert run_experiment(cfg, oracle=True) == 1
        assert not (out / "report.csv").exists()
        assert not (out / "manifest.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: oracle: enumeration needs a frozen "
                       "(fixed-measure) model"]

    def test_error_exit_one(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", {
            "measure": {"type": "adversarial"},
            # marginal + enumeration is fine, but criterion with a q below
            # every level raises NullConditioning -> check error
            "checks": [{"name": "criterion", "q": 0.1,
                        "patterns": [[[1, 1, 1]]],
                        "mc": {"outer": 10, "inner": 10}}],
            "seed": 3,
            "output": {"dir": str(out)},
        }))
        assert run_experiment(cfg) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"][0]["status"] == "error"
        assert "NullConditioning" in manifest["checks"][0]["error"]

    def test_missing_parent_dir_exit_one(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path / "c.json",
            tree_config(tmp_path / "no" / "such" / "dir")))
        assert run_experiment(cfg) == 1

    def test_output_dir_created_when_parent_exists(self, tmp_path):
        out = tmp_path / "fresh"
        cfg = parse_config(write_config(tmp_path / "c.json", tree_config(out)))
        assert run_experiment(cfg) == 0
        assert out.is_dir()

    def test_byte_identical_across_jobs(self, tmp_path):
        blobs = {}
        for jobs in (1, 4, 8):
            out = tmp_path / f"out{jobs}"
            cfg = parse_config(write_config(tmp_path / f"c{jobs}.json",
                                            tree_config(out)))
            assert run_experiment(cfg, jobs=jobs) == 0
            blobs[jobs] = ((out / "report.csv").read_bytes(),
                           (out / "plot_data.csv").read_bytes())
        assert blobs[1] == blobs[4] == blobs[8]

    def test_seed_override_changes_output(self, tmp_path):
        outs = []
        for i, seed in enumerate((None, 1234)):
            out = tmp_path / f"s{i}"
            cfg = parse_config(write_config(tmp_path / f"c{i}.json",
                                            tree_config(out)))
            run_experiment(cfg, seed=seed)
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_oracle_on_frozen_measure(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", {
            "measure": {"type": "adversarial"},
            "checks": [{"name": "gg", "abs_tol": 1e-12,
                        "observables": [{"n": 2, "psi": {"monomial": 1},
                                         "f_pattern": [[1, 2, 1]]}]}],
            "seed": 3,
            "output": {"dir": str(out)},
        }))
        assert run_experiment(cfg, oracle=True) == 2
        report = json.loads((out / "report.json").read_text())
        resid = report["checks"][0]["summary"]["observables"][0]["residual"]
        assert abs(resid - 2.9 / 81) < 1e-12

    def test_oracle_marginal_acceptance_rate_is_the_event_mass(self, tmp_path):
        """The rate of an exact estimate is its event's mass: distinct atoms
        of the benchmark's exact measure never share the top level, so no
        top-level tie among two replicas has mass 1 - sum w_i^2."""
        out = tmp_path / "out"
        cfg = load("workloads").exact_config(0)
        cfg["checks"] = [c for c in cfg["checks"] if c["name"] == "marginal"]
        cfg["output"] = {"dir": str(out)}
        assert run_experiment(parse_config(
            write_config(tmp_path / "c.json", cfg)), oracle=True) == 0
        report = json.loads((out / "report.json").read_text())
        rate = report["checks"][0]["summary"]["acceptance_rate"]
        w = cfg["measure"]["weights"]
        assert abs(rate - (1.0 - sum(x * x for x in w))) <= 1e-15


class TestOnePassPerCheck:
    """gg reads every observable from one outer_stat_means pass; criterion
    makes three: P(R12 < q), n = 3, and n = 4..n_max together."""

    @pytest.mark.parametrize("chk, passes", [
        ({"name": "gg", "mc": {"outer": 10, "inner": 10}}, 1),
        ({"name": "gg", "conditioned": {"kind": "A_n"},
          "mc": {"outer": 40, "inner": 20}}, 1),
        ({"name": "criterion", "q": 0.5, "n_max": 6,
          "patterns": [[[1, 1, 1]], [[1, 1, 2]]],
          "mc": {"outer": 60, "inner": 40}}, 3),
    ])
    def test_outer_stat_means_calls(self, monkeypatch, chk, passes):
        from overlap_lab import verify

        calls = []
        real = verify.outer_stat_means

        def counting(*args, **kwargs):
            calls.append(args[2])  # the replica count of the pass
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "outer_stat_means", counting)
        model, _ = build_model({"type": "tree", "q": [0.3, 0.7],
                                "branching": 10, "zetas": [0.3, 0.6],
                                "seed": 2})
        rows, _ = cli._run_check(chk, model, 3, oracle=False)
        assert len(calls) == passes
        assert max(calls) == (5 if chk["name"] == "gg" else 6)
        assert len(rows) == (12 if chk["name"] == "gg" else 8)


class TestEmitPlotData:
    def test_mass_rows(self, tmp_path):
        rows = [CheckRow("mass", "m", n, f"A_{n}", 0.5, 0.4, 0.1, 0.01, True)
                for n in range(2, 6)]
        path = tmp_path / "plot.csv"
        emit_plot_data(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0] == "series,n,estimate,reference,se"
        assert lines[1].startswith("mass:A_2,2,0.5,0.4")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data([], tmp_path / "plot.csv")


class TestMainEntry:
    def test_validate_command(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json",
                         tree_config(tmp_path / "out"))
        assert main(["validate", str(p)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", {
            "measure": {"type": "tree", "branching": 1, "zetas": [0.5],
                        "q": [0.5]},
            "checks": [{"name": "gg"}],
        })
        assert main(["validate", str(p)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_validate_off_grid_inner_product_reads_as_a_number(
            self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", {
            "measure": {"type": "explicit",
                        "grid": {"levels": [0.5, 1.0], "self_overlap": 1.0},
                        "atoms": [[1, 0], [0.6, 0.8]], "weights": [0.5, 0.5]},
            "checks": [{"name": "support"}],
        })
        assert main(["validate", str(p)]) == 1
        assert "inner product 0.6 of atoms (0,1) matches no grid level" in (
            capsys.readouterr().err)

    def test_describe_measure(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", tree_config(tmp_path / "out"))
        assert main(["describe-measure", str(p)]) == 0
        out = capsys.readouterr().out
        assert "atoms:        1600" in out
        assert "levels:       [0.0, 0.3, 0.7]" in out

    def test_describe_measure_computes_explicit_law(self, tmp_path, capsys):
        # two orthogonal atoms: R12 = 0 unless both replicas pick one atom
        p = write_config(tmp_path / "c.json", {
            "measure": {"type": "explicit",
                        "grid": {"levels": [0.0, 1.0], "self_overlap": 1.0},
                        "atoms": [[1.0, 0.0], [0.0, 1.0]],
                        "weights": [0.25, 0.75]},
            "checks": [{"name": "support"}]})
        assert main(["describe-measure", str(p)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "level probs:  q1=0.375, q2=0.625   (first outer draw)"

    def test_run_with_flags(self, tmp_path):
        p = write_config(tmp_path / "c.json", tree_config(tmp_path / "cfgout"))
        out = tmp_path / "flagout"
        code = main(["--seed", "5", "--jobs", "2", "--out", str(out),
                     "--format", "csv", "run", str(p)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert not (out / "report.json").exists()

    def test_jobs_recorded_in_manifest(self, tmp_path):
        p = write_config(tmp_path / "c.json", tree_config(tmp_path / "out"))
        for argv, jobs in (([], 1), (["--jobs", "3"], 3)):
            assert main([*argv, "run", str(p)]) == 0
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["jobs"] == jobs

    def test_every_check_dispatch(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path / "c.json", {
            "measure": {"type": "tree", "branching": 30, "zetas": [0.3, 0.6],
                        "q": [0.3, 0.7], "seed": 7},
            "checks": [
                {"name": "gg", "observables": [
                    {"n": 2, "psi": {"monomial": 1}, "f_pattern": [[1, 2, 1]]},
                    {"n": 2, "psi": {"indicator": 1},
                     "f_monomial": [[1, 2, 1]]}],
                 "conditioned": {"kind": "A_n"},
                 "mc": {"outer": 60, "inner": 60}},
                {"name": "mass", "n_max": 3, "mc": {"outer": 100, "inner": 60}},
                {"name": "lemma1", "n": 2, "mc": {"outer": 150, "inner": 80}},
                {"name": "consistency", "n": 2,
                 "mc": {"outer": 150, "inner": 80}},
                {"name": "marginal", "mc": {"outer": 150, "inner": 80}},
                {"name": "support"},
                {"name": "positivity", "mc": {"outer": 40, "inner": 40}},
                {"name": "ultra", "n": 5, "mc": {"outer": 30, "inner": 30}},
                {"name": "descend", "n_condition": 4,
                 "mc": {"outer": 40, "inner": 40},
                 "psd_outer": 10, "psd_inner": 8},
                {"name": "criterion", "q": 0.5,
                 "patterns": [[[1, 1, 1]], [[2, 2, 2]]], "n_max": 4,
                 "mc": {"outer": 150, "inner": 80}},
            ],
            "seed": 31,
            "output": {"dir": str(out)},
        }))
        assert run_experiment(cfg, jobs=4) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["status"] for c in manifest["checks"]] == ["pass"] * 10
        csv_rows = (out / "report.csv").read_text().splitlines()
        names = {line.split(",")[0] for line in csv_rows[1:]}
        assert {"gg", "mass", "lemma1", "consistency", "marginal", "support",
                "positivity", "ultra", "descend/collision",
                "criterion"} <= names

    @pytest.mark.parametrize("jobs", ["0", "-3", "abc", "1.5"])
    def test_jobs_below_one_refused_at_parse(self, tmp_path, capsys, jobs):
        p = write_config(tmp_path / "c.json", tree_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "run", str(p)])
        assert exc.value.code == 2  # argparse's usage error, as for --format
        assert "--jobs: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


ONE_LEVEL = {"type": "explicit", "atoms": [[1.0]], "weights": [1.0],
             "grid": {"levels": [1.0], "self_overlap": 1.0}}


class TestValidateGridRules:
    """validate refuses a check that can never run on the measure's grid,
    by the rule the check itself raises under run."""

    CASES = {
        "marginal": (ONE_LEVEL, {"name": "marginal"},
                     "marginal needs at least two levels", "GridTooSmall"),
        "consistency": (ONE_LEVEL, {"name": "consistency"},
                        "consistency needs at least two levels",
                        "EventMassTooSmall"),
        "criterion": (None, {"name": "criterion", "q": 0.0},
                      "no grid level lies below q=0.0", "NullConditioning"),
        # a level above the grid's top is never drawn: the identity would
        # hold vacuously, with a passing all-zero row
        "gg_indicator": ({"type": "adversarial"}, {
            "name": "gg", "abs_tol": 1e-12,
            "observables": [{"n": 2, "psi": {"indicator": 9}}]},
            "gg names level 9, above the top level 3 of the grid",
            "GridTooSmall"),
        "gg_pattern": (None, {"name": "gg", "observables": [
            {"n": 2, "psi": {"monomial": 1}, "f_pattern": [[1, 2, 4]]}]},
            "gg names level 4, above the top level 3 of the grid",
            "GridTooSmall"),
        "lemma1": (None, {"name": "lemma1", "f_pattern": [[1, 2, 9]]},
                   "lemma1 names level 9, above the top level 3 of the grid",
                   "GridTooSmall"),
        "consistency_pattern": (None, {"name": "consistency",
                                       "f_pattern": [[1, 2, 4]]},
                                "consistency names level 4, above the top "
                                "level 3 of the grid", "GridTooSmall"),
        "criterion_pattern": (None, {"name": "criterion", "q": 0.5,
                                     "patterns": [[[1, 1, 1]], [[1, 2, 4]]]},
                              "criterion names level 4, above the top level "
                              "3 of the grid", "GridTooSmall"),
        # gg's conditioning event holds only below a level the grid lacks
        "gg_event_q": (None, {"name": "gg", "conditioned": {
            "kind": "A_nq", "q": 0.0}}, "no grid level lies below q=0.0",
            "NullConditioning"),
        "gg_event_top": (ONE_LEVEL, {"name": "gg",
                                     "conditioned": {"kind": "A_n"}},
                         "no grid level lies below the top level",
                         "NullConditioning"),
        # a tree model redraws its measure: there is no one measure to sum
        "enumerate_tree": (None, {"name": "mass", "method": "enumerate"},
                           "enumeration needs a frozen (fixed-measure) model",
                           "ValueError"),
    }

    @staticmethod
    def config(tmp_path, measure, check):
        cfg = json.loads((ROOT / "configs" / "tree_k2.json").read_text())
        if measure is not None:
            cfg["measure"] = measure
        cfg["checks"] = [{"name": "support"}, {**check, "mc": {"outer": 10,
                                                            "inner": 10}}]
        cfg["output"]["dir"] = str(tmp_path / "out")
        return write_config(tmp_path / "c.json", cfg)

    @pytest.mark.parametrize("case", list(CASES))
    def test_check_that_cannot_run_named(self, tmp_path, capsys, case):
        measure, check, reason, error = self.CASES[case]
        p = self.config(tmp_path, measure, check)
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr()
        assert out.err.splitlines() == [f"invalid: checks[1]: {reason}"]
        assert "config ok" not in out.out
        # run raises the same rule from the check
        assert main(["run", str(p)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["checks"][1]["error"] == f"{error}: {reason}"

    def test_top_level_named_passes(self, tmp_path, capsys):
        p = self.config(tmp_path, None, {"name": "lemma1",
                                         "f_pattern": [[1, 2, 3]]})
        assert main(["validate", str(p)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_q_just_above_the_lowest_level_passes(self, tmp_path, capsys):
        p = self.config(tmp_path, None, {"name": "criterion", "q": 1e-9})
        assert main(["validate", str(p)]) == 0
        assert "config ok" in capsys.readouterr().out

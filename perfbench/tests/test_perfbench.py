"""The benchmark's own checks, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import csv
import io
import json
from pathlib import Path

import pytest

import gate
import tracer
from overlap_lab import cli, verify
from workloads import exact_measure

ROOT = Path(__file__).resolve().parents[2]


def run_cli(tmp_path, name, cfg, command):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    out.mkdir()
    rc = cli.main(["--out", str(out), command, str(config)])
    return cfg["checks"], gate.read_reports(rc, out)


@pytest.fixture
def exact_run(tmp_path):
    cfg = {"measure": exact_measure(0),
           "checks": [{"name": "mass", "n_max": 3, "abs_tol": 1e-12},
                      {"name": "marginal", "abs_tol": 1e-12},
                      {"name": "support"},
                      {"name": "ultra", "n": 4, "mc": {"outer": 3, "inner": 5}},
                      {"name": "descend", "n_condition": 3, "psd_outer": 2,
                       "psd_inner": 3, "mc": {"outer": 2, "inner": 5},
                       "abs_tol": 1e-12}],
           "seed": 1}
    checks, reports = run_cli(tmp_path, "exact", cfg, "oracle")
    reference = {"rows": gate.reference_rows(reports.rows)}
    return checks, reports, reference


def with_rows(reports, edit):
    """A copy of the reports whose CSV rows went through edit(rows)."""
    rows = reports.rows
    edit(rows)
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return gate.Reports(reports.returncode, text.getvalue().encode(),
                        reports.manifest, reports.report)


def pick(rows, check, n):
    return next(r for r in rows if r["check_name"] == check and r["n"] == n)


def test_exact_run_passes_the_gate(exact_run):
    checks, reports, reference = exact_run
    v = gate.judge("exact", checks, reports, reference)
    assert (v.failed, v.attempted) == (0, 5), list(v.messages())
    assert any(r["check_name"] == "mass" and r["n"] == "3"
               for r in reference["rows"])


def test_gate_catches_a_flipped_verdict(exact_run):
    checks, reports, reference = exact_run

    def flip(rows):
        r = pick(rows, "mass", "3")
        r["pass"] = "true" if r["pass"] == "false" else "false"
    v = gate.judge("exact", checks, with_rows(reports, flip), reference)
    assert v.failed == 1 and "mass" in v.problems


def test_gate_catches_a_flipped_positive_control(tmp_path):
    cfg = {"measure": {"type": "tree", "branching": 6, "q": [0.5],
                       "zetas": [0.5], "seed": 1},
           "checks": [{"name": "support"},
                      {"name": "positivity", "mc": {"outer": 3, "inner": 5}}],
           "seed": 2}
    checks, reports = run_cli(tmp_path, "tree", cfg, "run")
    assert gate.judge("positive", checks, reports).failed == 0
    reports.manifest["checks"][1]["status"] = "fail"
    reports.returncode = 2
    v = gate.judge("positive", checks, reports)
    assert v.failed == 1 and "positivity" in v.calibration
    assert not v.problems


@pytest.mark.parametrize("check,n,column", [("mass", "3", "estimate"),
                                            ("mass", "3", "reference")])
def test_gate_catches_an_exact_value_off_by_1e6(exact_run, check, n, column):
    checks, reports, reference = exact_run

    def nudge(scale):
        def edit(rows):
            r = pick(rows, check, n)
            r[column] = repr(float(r[column]) * (1 + scale))
        return edit
    off = gate.judge("exact", checks, with_rows(reports, nudge(1e-6)),
                     reference)
    assert off.failed == 1 and check in off.problems
    # a kernel that sums in another order stays well inside the tolerance
    near = gate.judge("exact", checks, with_rows(reports, nudge(1e-12)),
                      reference)
    assert near.failed == 0, list(near.messages())


def test_gate_catches_an_exactly_true_row_off_by_1e6(exact_run):
    checks, reports, reference = exact_run

    def edit(rows):
        pick(rows, "marginal", "2")["residual"] = "1e-06"
    v = gate.judge("exact", checks, with_rows(reports, edit), reference)
    assert v.failed == 1 and "marginal" in v.problems


def test_gate_catches_nondeterministic_reports(exact_run):
    checks, reports, reference = exact_run

    def edit(rows):
        r = pick(rows, "mass", "3")
        r["estimate"] = repr(float(r["estimate"]) + 1e-3)
    v = gate.Verdict([c["name"] for c in checks])
    gate.compare_runs(v, reports, with_rows(reports, edit), "the first run")
    assert list(v.problems) == ["mass"]


def test_tracer_reports_a_renamed_entry_point(monkeypatch):
    monkeypatch.delattr(cli, "ultrametricity_check")
    monkeypatch.setattr(cli, "ultrametricity_scan",
                        verify.ultrametricity_check, raising=False)
    with pytest.raises(tracer.TraceError, match="cli:ultrametricity_check"):
        tracer.install(tracer.Tracer())


def test_tracer_reports_an_entry_point_never_called():
    summary = {"kernels.eval_stats": {"calls": 3.0}}
    with pytest.raises(tracer.TraceError, match="kernels.enum_stats"):
        tracer.require_reached(summary, {"kernels.eval_stats",
                                         "kernels.enum_stats"})


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    outer = t.span(lambda: inner(), "outer")
    inner = t.span(lambda: sum(range(1000)), "inner",
                   lambda args, kwargs, out: {"rows": 2})
    outer()
    outer()
    summary = tracer.summarize({"spans": t.spans, "counts": {}})
    assert summary["outer"]["calls"] == 2 and summary["inner"]["rows"] == 4
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["s"] - summary["inner"]["s"])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracer.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

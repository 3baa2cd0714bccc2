"""The traced CLI reaches every layer the benchmark's workloads require.

`perfbench/run.py --trace 1` fails when a workload never calls one of the
entry points its `reaches` set in `perfbench/workloads.py` names. This runs
`perfbench/traced_cli.py` on small versions of both workloads' configs and
applies the same check, so a change that leaves a layer unreached fails here
too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench_load import PERFBENCH, load

ROOT = Path(__file__).resolve().parents[1]
tracer = load("tracer")
workloads = load("workloads")


def traced_summary(tmp_path, command, cfg):
    """Span summary of one traced `overlap-lab command` run on cfg."""
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(cfg))
    spans = tmp_path / f"{command}-spans.json"
    out = tmp_path / f"{command}-out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans),
         "--out", str(out), "--format", "csv", command, str(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 2), proc.stderr
    return tracer.summarize(json.loads(spans.read_text()))


def test_tree_run_reaches_tree_mc_layers(tmp_path):
    reaches = workloads.tree_mc(ROOT, tmp_path, 0).reaches
    cfg = json.loads((ROOT / "configs" / "tree_k2.json").read_text())
    cfg["measure"]["branching"] = 6
    for check in cfg["checks"]:
        if "mc" in check:
            check["mc"] = {"outer": 20, "inner": 20}
    tracer.require_reached(traced_summary(tmp_path, "run", cfg), reaches)


def test_exact_oracle_reaches_exact_oracle_layers(tmp_path):
    reaches = workloads.exact_oracle(ROOT, tmp_path, 0).reaches
    summary = traced_summary(tmp_path, "oracle", workloads.exact_config(0))
    tracer.require_reached(summary, reaches)

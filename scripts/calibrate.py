"""Measure the false-failure rate of the tree positive control.

    python3 scripts/calibrate.py --runs 100 --label change [--src DIR]
                                 [--out CALIBRATION.json]

Reruns configs/tree_k2.json at seed offsets 0 .. runs - 1. Offset s adds s
to the measure seed and to the config seed together, as the benchmark's
tree_mc workload does: --seed alone would keep the outer measures fixed.
Every check of that config is a positive control, so every failure is a
false failure.

Per check it records failures / runs (a check fails when any of its rows
fails or it errors) with a 95% Clopper-Pearson interval, and per report
row the mean residual beside the mean standard error and the residuals'
standard deviation across runs: a mean residual several times
residual_sd / sqrt(runs) is a bias, not noise. The result is
stored under --label in --out, beside the results of other labels, so one
file can compare two versions of the program over the same offsets; --src
picks the src/ tree to import (default: this checkout's).

A measurement, not a test: it takes about 2 s a run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import platform
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "tree_k2.json"
LEVEL = 0.95


def clopper_pearson(failures: int, runs: int, level: float = LEVEL) -> list:
    """Exact two-sided interval for a binomial proportion."""
    from scipy.stats import beta

    alpha = 1.0 - level
    lo = beta.ppf(alpha / 2, failures, runs - failures + 1) if failures else 0.0
    hi = (beta.ppf(1 - alpha / 2, failures + 1, runs - failures)
          if failures < runs else 1.0)
    return [float(lo), float(hi)]


def _mean(values):
    return sum(values) / len(values) if values else None


def _sd(values):
    """Sample standard deviation across runs: mean_residual is a bias when
    it is several times residual_sd / sqrt(runs)."""
    if len(values) < 2:
        return None
    mean = _mean(values)
    return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def _number(text: str):
    return float(text) if text not in ("", "None") else None


def run_offset(cli, base: dict, offset: int, tmp: Path):
    """(check statuses, report rows) of one run at this seed offset."""
    cfg = json.loads(json.dumps(base))
    cfg["measure"]["seed"] += offset
    cfg["seed"] += offset
    path = tmp / f"tree_{offset}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / f"out_{offset}"
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(out), "--format", "csv", "run", str(path)])
    if code not in (0, 2):
        raise RuntimeError(f"offset {offset}: exit code {code}")
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = [(c["name"], c["status"]) for c in manifest["checks"]]
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return statuses, rows


def calibrate(runs: int) -> dict:
    from overlap_lab import cli

    base = json.loads(CONFIG.read_text())
    fails = defaultdict(list)
    row_stats = defaultdict(lambda: {"residual": [], "se": [], "failures": 0})
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for offset in range(runs):
            statuses, rows = run_offset(cli, base, offset, Path(tmp))
            for name, status in statuses:
                fails[name]  # every check appears, failed or not
                if status != "pass":
                    fails[name].append(offset)
            for r in rows:
                key = f"{r['check_name']}|n={r['n']}|{r['observable_id']}"
                stats = row_stats[key]
                for field in ("residual", "se"):
                    value = _number(r[field])
                    if value is not None:
                        stats[field].append(value)
                stats["failures"] += r["pass"] != "true"
    checks = {name: {"failures": len(offsets), "runs": runs,
                     "rate": len(offsets) / runs,
                     "ci95": clopper_pearson(len(offsets), runs),
                     "failed_offsets": offsets}
              for name, offsets in fails.items()}
    rows = {key: {"mean_residual": _mean(s["residual"]),
                  "residual_sd": _sd(s["residual"]),
                  "mean_se": _mean(s["se"]), "failures": s["failures"]}
            for key, s in row_stats.items()}
    return {"checks": checks, "rows": rows,
            "seconds": round(time.perf_counter() - t0, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "CALIBRATION.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    result = calibrate(args.runs)
    result.update(offsets=[0, args.runs], numpy=np.__version__,
                  python=platform.python_version())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("config", str(CONFIG.relative_to(ROOT)))
    doc.setdefault("level", LEVEL)
    doc.setdefault("results", {})[args.label] = result
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = {k: v["failures"] for k, v in result["checks"].items()}
    print(f"{args.label}: {args.runs} runs in {result['seconds']} s, "
          f"failures {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

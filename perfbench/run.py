"""End-to-end and per-layer benchmark of the overlap-lab command line.

    python3 perfbench/run.py --workload {tree_mc,exact_oracle,deep_conditioned}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a source checkout; the program is imported from its src/ tree.
Every CLI invocation is a fresh interpreter, as a user pays a cold start on
each call. With --trace 0 the workload's invocations are repeated until
--seconds have passed (at least twice) and the end-to-end metrics are
medians over those samples: wall_s (whole invocation), setup_s (import,
parse_config, build_model and kernel warm-up, in separate processes) and
peak_rss_mb. With --trace 1 one untraced and one traced sample give the
per-layer metrics and the tracing overhead. Every invocation's outputs go
through the correctness gate (gate.py). The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import tracer
from workloads import EXTRA_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "exact_reference.json"
MIN_SAMPLES = 2
SETUP_REPEATS = 9
# every run must end within 180 s; children are killed past this point
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


@dataclass
class Result:
    """One finished CLI invocation."""

    label: str
    wall_s: float
    peak_rss_mb: float
    reports: gate.Reports


class Runner:
    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.n = 0

    def spawn(self, argv):
        """Run a child to completion: (exit code, wall s, peak RSS MB, stdout)."""
        self.n += 1
        out_path = self.tmp / f"child{self.n}.out"
        err_path = self.tmp / f"child{self.n}.err"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -9:
            raise BenchError(f"killed after {timeout:.0f} s: {argv}")
        if proc.returncode not in (0, 1, 2):
            raise BenchError(f"exit code {proc.returncode}: {argv}\n"
                             + err_path.read_text())
        # ru_maxrss is in KiB on Linux
        return proc.returncode, wall, usage.ru_maxrss / 1024, \
            out_path.read_text()

    def invoke(self, inv, traced_to: Path = None) -> Result:
        out = self.tmp / f"out{self.n + 1}-{inv.label}"
        out.mkdir()
        cli = ["--jobs", str(inv.jobs), "--out", str(out), inv.command,
               str(inv.config)]
        if traced_to is None:
            argv = [sys.executable, "-m", "overlap_lab.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(traced_to), *cli]
        rc, wall, rss, _ = self.spawn(argv)
        return Result(inv.label, wall, rss, gate.read_reports(rc, out))

    def setup(self, config: Path) -> dict:
        rc, _, _, stdout = self.spawn(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)])
        if rc != 0:
            raise BenchError(f"set-up probe failed on {config}")
        return json.loads(stdout.strip().splitlines()[-1])


def judge_all(wl, results: list, reference) -> tuple:
    """Gate every invocation; the first result of each config is the one
    all later results of that config must equal byte for byte."""
    by_label = {inv.label: inv for inv in wl.timed + wl.untimed}
    first = {}
    attempted = failed = 0
    hard = []
    soft = []
    for r in results:
        inv = by_label[r.label]
        checks = json.loads(inv.config.read_text())["checks"]
        ref = reference if inv.expect == "exact" else None
        verdict = gate.judge(inv.expect, checks, r.reports, ref)
        if inv.config in first:
            gate.compare_runs(verdict, first[inv.config], r.reports,
                              f"the first {inv.config.stem} run")
        else:
            first[inv.config] = r.reports
        attempted += verdict.attempted
        failed += verdict.failed
        for msg in verdict.messages():
            (soft if msg.startswith("calibration") else hard).append(
                f"{r.label}: {msg}")
    return attempted, failed, hard, soft


def environment(using_numba) -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"USING_NUMBA {using_numba}, nproc {os.cpu_count()}, cpu {cpu}")


def describe(name, values, unit) -> str:
    return (f"  {name:<12} median {statistics.median(values):.4f} {unit} "
            f"(n={len(values)}, min {min(values):.4f}, max {max(values):.4f})")


def timed_run(wl, runner: Runner, seconds: float):
    samples = []
    t0 = time.perf_counter()
    # stop before a sample that would end past `seconds`, after MIN_SAMPLES
    while len(samples) < MIN_SAMPLES or (
            (time.perf_counter() - t0) * (len(samples) + 1) / len(samples)
            <= seconds):
        samples.append([runner.invoke(inv) for inv in wl.timed])
    untimed = [runner.invoke(inv) for inv in wl.untimed]
    probes = [[runner.setup(inv.config) for inv in wl.timed]
              for _ in range(SETUP_REPEATS)]
    series = {
        "wall_s": ([sum(r.wall_s for r in s) for s in samples], "s"),
        "setup_s": ([sum(p["setup_s"] for p in ps) for ps in probes], "s"),
        "peak_rss_mb": ([max(r.peak_rss_mb for r in s) for s in samples],
                        "MB"),
    }
    lines = [describe(k, v, u) for k, (v, u) in series.items()]
    metrics = {k: (statistics.median(v), u) for k, (v, u) in series.items()}
    results = [r for s in samples for r in s] + untimed
    return results, metrics, lines, probes[0][0]["using_numba"]


def traced_run(wl, runner: Runner):
    untraced = [runner.invoke(inv) for inv in wl.timed]
    spans = [runner.tmp / f"spans-{inv.label}.json" for inv in wl.timed]
    traced = []
    for inv, path in zip(wl.timed, spans):
        r = runner.invoke(inv, traced_to=path)
        if not path.exists():
            raise tracer.TraceError(
                f"traced {inv.label} run wrote no spans (exit code "
                f"{r.reports.returncode})")
        traced.append(r)
    untimed = [runner.invoke(inv) for inv in wl.untimed]
    summary = tracer.merge(tracer.summarize(json.loads(p.read_text()))
                           for p in spans)
    tracer.require_reached(summary, wl.reaches)
    overhead = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
    metrics = tracer.layer_metrics(
        summary, [r.reports.manifest for r in untraced], overhead)
    lines = [f"  {name:<44} {value:.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    using_numba = runner.setup(wl.timed[0].config)["using_numba"]
    return untraced + traced + untimed, metrics, lines, using_numba


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS | EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "overlap_lab" / "cli.py",
              ROOT / "configs" / "tree_k2.json",
              ROOT / "configs" / "adversarial.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print("error: not an overlap-lab checkout, missing "
              + ", ".join(missing), file=sys.stderr)
        return 1

    deadline = time.perf_counter() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    tmp = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        wl = (WORKLOADS | EXTRA_WORKLOADS)[args.workload](ROOT, tmp,
                                                          args.seed)
        runner = Runner(tmp, deadline)
        # untimed: fills the bytecode and file caches every later call uses
        runner.spawn([sys.executable, "-c", "import overlap_lab.cli"])
        if args.trace:
            results, metrics, lines, numba = traced_run(wl, runner)
        else:
            results, metrics, lines, numba = timed_run(wl, runner,
                                                       args.seconds)
        reference = json.loads(REFERENCE.read_text()) if args.seed == 0 \
            else None
        attempted, failed, hard, soft = judge_all(wl, results, reference)
    except (BenchError, tracer.TraceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} invocations")
    print("\n".join(lines))
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f} "
          f"(checks erred, gave the wrong verdict or differed between runs)")
    for msg in hard + soft:
        print(f"  {msg}")
    print(f"  env: {environment(numba)}")
    print(json.dumps({
        "correct": not hard,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

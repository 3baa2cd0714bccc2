"""Correctness gate: judges the reports of one CLI invocation.

Every invocation yields one verdict per configured check. A check fails
the gate when it errs, when its verdict is not the expected one, when a row
that is exactly true misses by more than EXACT_TOL, when an exact estimate
drifts from the stored reference, or when its report rows differ from an
earlier invocation of the same config. A positive control whose check
fails statistically is still counted, and listed as a calibration finding.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

EXACT_TOL = 1e-12
# A later kernel may sum in another order; 1e-9 relative leaves room for it.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-15

# Rows of the exact workload that hold exactly for every ultrametric measure
# (check name, observable id or None for all rows of the check, n or None).
EXACT_ROWS = (
    ("marginal", None, None),
    ("mass", "A_2", "2"),
    ("support", None, None),
    ("ultra", None, None),
    ("descend/collision", None, None),
    ("descend/ultra_at_level", None, None),
    ("descend/truncated_psd", None, None),
)
# Checks whose estimates are exact enumerations, compared to the reference.
REFERENCE_CHECKS = ("gg", "mass", "lemma1", "consistency", "criterion",
                    "descend/conditioned_gg")


@dataclass
class Verdict:
    """The gate's findings for one invocation, keyed by check name."""

    checks: list
    problems: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)

    def fail(self, check: str, message: str, calibration: bool = False):
        target = self.calibration if calibration else self.problems
        target.setdefault(check, []).append(message)

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return len(set(self.problems) | set(self.calibration))

    def messages(self):
        for kind, found in (("error", self.problems),
                            ("calibration finding", self.calibration)):
            for check, msgs in sorted(found.items()):
                for m in msgs:
                    yield f"{kind}: {check}: {m}"


@dataclass
class Reports:
    """What one invocation left behind."""

    returncode: int
    csv_bytes: bytes
    manifest: dict
    report: dict

    @property
    def rows(self) -> list:
        return list(csv.DictReader(io.StringIO(self.csv_bytes.decode())))


def read_reports(returncode: int, out: Path) -> Reports:
    """Load report.csv, manifest.json and report.json; empty when missing."""
    def load(name):
        p = out / name
        return json.loads(p.read_text()) if p.exists() else {}
    csv_path = out / "report.csv"
    return Reports(returncode,
                   csv_path.read_bytes() if csv_path.exists() else b"",
                   load("manifest.json"), load("report.json"))


def check_of(row_name: str) -> str:
    """Configured check a report row belongs to ('descend/...' -> 'descend')."""
    return row_name.split("/")[0]


def judge(expect: str, config_checks: list, reports: Reports,
          reference: dict = None) -> Verdict:
    """Apply the gate for one invocation; expect is as in workloads.Invocation."""
    v = Verdict([c["name"] for c in config_checks])
    statuses = {c["name"]: c["status"]
                for c in reports.manifest.get("checks", [])}
    if set(statuses) != set(v.checks):
        for name in v.checks:
            v.fail(name, f"no manifest entry (exit code {reports.returncode})")
        return v
    for c in reports.manifest["checks"]:
        if c["status"] == "error":
            v.fail(c["name"], f"erred: {c['error']}")

    if expect == "positive":
        for name, status in statuses.items():
            if status == "fail":
                v.fail(name, "positive control failed", calibration=True)
        values = set(statuses.values())
        want = 1 if "error" in values else 2 if "fail" in values else 0
        if reports.returncode != want:
            v.fail(v.checks[0], f"exit code {reports.returncode}, want {want}")
    elif expect == "negative":
        if reports.returncode != 2:
            v.fail(v.checks[0], f"exit code {reports.returncode}, want 2")
        ultra = _summary(reports, "ultra")
        if ultra is not None and not ultra.get("violations", 0) > 0:
            v.fail("ultra", "negative control shows no violations")
    elif expect == "exact":
        if reports.returncode not in (0, 2):
            v.fail(v.checks[0], f"exit code {reports.returncode}")
        rows = reports.rows
        _check_exact_rows(v, rows, reports)
        if reference is not None:
            compare_reference(v, rows, reference)
    else:
        raise ValueError(f"unknown expectation {expect!r}")
    return v


def _summary(reports: Reports, name: str):
    for c in reports.report.get("checks", []):
        if c["name"] == name:
            return c["summary"]
    return None


def _selected(rows, check, obs, n):
    return [r for r in rows if r["check_name"] == check
            and (obs is None or r["observable_id"] == obs)
            and (n is None or r["n"] == n)]


def _check_exact_rows(v: Verdict, rows: list, reports: Reports):
    for check, obs, n in EXACT_ROWS:
        picked = _selected(rows, check, obs, n)
        if not picked:
            v.fail(check_of(check), f"missing exactly true row {check} {obs}")
        for r in picked:
            if r["pass"] != "true" or abs(float(r["residual"])) > EXACT_TOL:
                v.fail(check_of(check),
                       f"{check} {r['observable_id']} n={r['n']}: residual "
                       f"{r['residual']} pass={r['pass']}")
    ultra = _summary(reports, "ultra")
    if ultra is None or ultra.get("violations") != 0:
        v.fail("ultra", "ultrametric measure shows violations")


def reference_rows(rows: list) -> list:
    """The rows of an exact run that are stored as reference values."""
    keep = ("check_name", "n", "observable_id", "estimate", "reference",
            "pass")
    return [{k: r[k] for k in keep} for r in rows
            if r["check_name"] in REFERENCE_CHECKS]


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return abs(x - y) <= REFERENCE_RTOL * abs(y) + REFERENCE_ATOL


def compare_reference(v: Verdict, rows: list, reference: dict):
    got = reference_rows(rows)
    want = reference["rows"]
    key = ("check_name", "n", "observable_id")
    if [[r[k] for k in key] for r in got] != [[r[k] for k in key]
                                              for r in want]:
        v.fail(check_of(want[0]["check_name"]) if want else v.checks[0],
               "report rows differ from the reference layout")
        return
    for g, w in zip(got, want):
        where = f"{g['check_name']} {g['observable_id']} n={g['n']}"
        if g["pass"] != w["pass"]:
            v.fail(check_of(g["check_name"]),
                   f"{where}: verdict {g['pass']}, reference {w['pass']}")
        for col in ("estimate", "reference"):
            if not _close(g[col], w[col]):
                v.fail(check_of(g["check_name"]),
                       f"{where}: {col} {g[col]} != reference {w[col]}")


def compare_runs(v: Verdict, first: Reports, other: Reports, label: str):
    """Determinism: report.csv must be byte-identical across invocations."""
    if first.csv_bytes == other.csv_bytes:
        return
    a, b = first.rows, other.rows
    names = {check_of(r["check_name"]) for r in a + b}
    differing = [name for name in sorted(names)
                 if [r for r in a if check_of(r["check_name"]) == name]
                 != [r for r in b if check_of(r["check_name"]) == name]]
    for name in differing or v.checks[:1]:
        v.fail(name, f"report.csv differs from {label}")

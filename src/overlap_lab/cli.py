"""Config-driven experiment runner.

Subcommands:
  run <config>              execute the configured checks, write reports
  validate <config>         parse + validate, print every problem found
  describe-measure <config> print grid, emergent probabilities, atom count
  oracle <config>           run with the exact enumeration path forced

Exit codes: 0 all checks passed, 2 at least one check failed, 1 execution
or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import OverlapLabError, ParseError, ValidationError
from .grid import OverlapGrid
from .measures import (TreeMeasureSpec, adversarial_measure, derive_seed,
                       explicit_measure)
from .models import FrozenModel, TreeModel
from .observables import (MAX_MONOMIAL_POWER, ObservableSpec, Psi,
                          default_gg_observables)
from .pipeline import DescendConfig, criterion_run, descend
from .sampler import EventSpec, MCConfig
from .verify import (DEFAULT_ABS_TOL, DEFAULT_Z, conditional_marginal_check,
                     consistency_check, distinct_mass_check, gg_residual,
                     lemma1_check, positivity_check, support_check,
                     ultrametricity_check)

# The ultra scan caches three index arrays of 24 bytes a triple for each n:
# about 4 MB at n = 100, and 148 MB more at n = 300.
ULTRA_MAX_N = 100

# The fields a config may hold: at the top level, in the measure of each type,
# in the output object, in each gg observable and in a gg conditioning event
CONFIG_FIELDS = ("measure", "checks", "seed", "output")
MEASURE_FIELDS = {"tree": ("type", "q", "branching", "zetas", "seed"),
                  "explicit": ("type", "grid", "weights", "atoms", "on_sphere"),
                  "adversarial": ("type",)}
OUTPUT_FIELDS = ("dir", "formats")
OBSERVABLE_FIELDS = ("n", "psi", "f_pattern", "f_monomial")
CONDITIONED_FIELDS = ("kind", "n", "q")

# The fields _run_check reads: those of every check, then those of each type
COMMON_CHECK_FIELDS = ("name", "mc", "abs_tol", "z", "method")
CHECK_FIELDS = {"gg": ("observables", "conditioned"), "mass": ("n_max",),
                "lemma1": ("n", "f_pattern"), "consistency": ("n", "f_pattern"),
                "marginal": (), "support": (), "positivity": (), "ultra": ("n",),
                "descend": ("n_condition", "psd_outer", "psd_inner", "force"),
                "criterion": ("q", "patterns", "n_max")}
CHECK_NAMES = tuple(CHECK_FIELDS)
MC_FIELDS = ("outer", "inner")

# The level-triple pattern sets a criterion check scans when it names none
DEFAULT_PATTERNS = [[[1, 1, 1]]]

# integer fields of one check type: (check name, field, minimum, maximum)
CHECK_INT_FIELDS = (("mass", "n_max", 2, None), ("criterion", "n_max", 3, None),
                    ("ultra", "n", 3, ULTRA_MAX_N), ("lemma1", "n", 2, None),
                    ("consistency", "n", 2, None),
                    ("descend", "n_condition", 1, None),
                    ("descend", "psd_outer", 1, None),
                    ("descend", "psd_inner", 1, None))


@dataclass
class ExperimentConfig:
    measure: dict
    checks: list
    seed: int
    output_dir: str
    formats: list
    raw: dict

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file, collecting every problem at once."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e

    if not isinstance(raw, dict):
        raise ValidationError(["config: must be a JSON object"])

    problems = _unknown_fields(raw, CONFIG_FIELDS, "", "the config")
    measure = raw.get("measure")
    if not isinstance(measure, dict):
        problems.append("measure: required object missing")
        measure = {}
    else:
        problems.extend(_validate_measure(measure))

    checks = raw.get("checks")
    if not isinstance(checks, list) or not checks:
        problems.append("checks: need a nonempty list")
        checks = []
    for i, chk in enumerate(checks):
        name = chk.get("name") if isinstance(chk, dict) else None
        if name not in CHECK_NAMES:
            problems.append(
                f"checks[{i}].name: unknown check {name!r}; allowed: "
                + ", ".join(CHECK_NAMES))
            continue
        allowed = COMMON_CHECK_FIELDS + CHECK_FIELDS[name]
        problems.extend(_unknown_fields(chk, allowed, f"checks[{i}]",
                                        f"check {name!r}"))
        mc = chk.get("mc", {})
        if isinstance(mc, dict):
            problems.extend(_unknown_fields(mc, MC_FIELDS, f"checks[{i}].mc",
                                            "mc"))
            for key in MC_FIELDS:
                if key in mc and not _is_int(mc[key], 1):
                    problems.append(f"checks[{i}].mc.{key}: must be an integer >= 1")
        else:
            problems.append(f"checks[{i}].mc: must be an object")
        for check, key, minimum, maximum in CHECK_INT_FIELDS:
            if name != check or key not in chk:
                continue
            if not _is_int(chk[key], minimum) or (
                    maximum is not None and chk[key] > maximum):
                bound = "" if maximum is None else f" and <= {maximum}"
                problems.append(f"checks[{i}].{key}: must be an integer "
                                f">= {minimum}{bound}")
        if chk.get("method", "mc") not in ("mc", "enumerate"):
            problems.append(f'checks[{i}].method: must be "mc" or "enumerate"')
        if name == "descend" and not isinstance(chk.get("force", False), bool):
            problems.append(f"checks[{i}].force: must be true or false")
        for key in ("abs_tol", "z"):
            if key in chk and not (_is_number(chk[key]) and chk[key] >= 0):
                problems.append(f"checks[{i}].{key}: must be a number >= 0")
        if name == "criterion":
            if "q" not in chk:
                problems.append(f"checks[{i}]: criterion needs a threshold q")
            elif not _is_number(chk["q"]):
                problems.append(f"checks[{i}].q: must be a number")
            pats = chk.get("patterns", DEFAULT_PATTERNS)
            if not (isinstance(pats, list) and pats and all(
                    _is_int_triples(p, 1) and p for p in pats)):
                problems.append(
                    f"checks[{i}].patterns: must be a nonempty list of nonempty "
                    "lists of [a, b, c] integer level triples, levels >= 1")
        if name == "gg":
            problems.extend(_gg_problems(chk, f"checks[{i}]"))
        if name in ("lemma1", "consistency"):
            n = chk.get("n", 2)
            problems.extend(_f_problems({"f_pattern": chk.get("f_pattern", [])},
                                        n if _is_int(n, 2) else None,
                                        f"checks[{i}]"))

    seed = raw.get("seed", 0)
    if not _is_int(seed):
        problems.append("seed: must be an integer")
        seed = 0

    output = raw.get("output", {})
    if not isinstance(output, dict):
        problems.append("output: must be an object")
        output = {}
    problems.extend(_unknown_fields(output, OUTPUT_FIELDS, "output", "output"))
    out_dir = output.get("dir", "out")
    formats = output.get("formats", ["csv", "json"])
    if not isinstance(formats, list):
        problems.append("output.formats: must be a list")
        formats = []
    for f in formats:
        if f not in ("csv", "json"):
            problems.append(f"output.formats: unknown format {f!r}")

    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(measure, checks, seed, out_dir, list(formats), raw)


def _unknown_fields(d: dict, allowed: tuple, where: str, what: str) -> list:
    """One problem per key of d that is not in allowed, naming the field;
    where is the path of d ("" at the top level)."""
    return [(f"{where}.{key}" if where else key) + f": unknown field for "
            f"{what}; allowed: " + ", ".join(allowed)
            for key in d if key not in allowed]


def _is_int(v, minimum=None) -> bool:
    # bool is a subclass of int, but true/false is never a count or a seed
    return (isinstance(v, int) and not isinstance(v, bool)
            and (minimum is None or v >= minimum))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int_triples(v, minimum=None) -> bool:
    """A list of [a, b, c] integer triples, every entry >= minimum."""
    return isinstance(v, list) and all(
        isinstance(t, list) and len(t) == 3
        and all(_is_int(x, minimum) for x in t) for t in v)


def _f_problems(d: dict, n, where: str) -> list:
    """The f_pattern / f_monomial lists of one observable, on n replicas."""
    problems = []
    for key, what, top in (("f_pattern", "level >= 1", None),
                           ("f_monomial", f"power 1..{MAX_MONOMIAL_POWER}",
                            MAX_MONOMIAL_POWER)):
        v = d.get(key, [])
        if not (_is_int_triples(v, 1) and all(
                l < lp and (n is None or lp <= n) and (top is None or x <= top)
                for l, lp, x in v)):
            problems.append(f"{where}.{key}: must be a list of [l, l', x] "
                            f"integer triples, 1 <= l < l' <= n, {what}")
    if d.get("f_pattern") and d.get("f_monomial"):
        problems.append(f"{where}: choose f_pattern or f_monomial, not both")
    return problems


def _gg_problems(chk: dict, where: str) -> list:
    """The observables and the conditioning event of a gg check."""
    problems = []
    observables = chk.get("observables", "default")
    obs_ns = {obs.n for obs in default_gg_observables()}
    if observables != "default":
        obs_ns = set()
        if not (isinstance(observables, list) and observables):
            problems.append(f'{where}.observables: must be "default" or a '
                            "nonempty list of objects")
            observables = []
        for j, d in enumerate(observables):
            at = f"{where}.observables[{j}]"
            if not isinstance(d, dict):
                problems.append(f"{at}: must be an object")
                continue
            problems.extend(_unknown_fields(d, OBSERVABLE_FIELDS, at,
                                            "an observable"))
            n = d.get("n")
            if not _is_int(n, 2):
                problems.append(f"{at}.n: must be an integer >= 2")
                n = None
            else:
                obs_ns.add(n)
            psi = d.get("psi")
            if not (isinstance(psi, dict) and len(psi) == 1 and (
                    _is_int(psi.get("monomial"), 1)
                    and psi["monomial"] <= MAX_MONOMIAL_POWER
                    or _is_int(psi.get("indicator"), 1))):
                problems.append(f'{at}.psi: must be {{"monomial": 1..'
                                f'{MAX_MONOMIAL_POWER}}} or {{"indicator": '
                                "level >= 1}")
            problems.extend(_f_problems(d, n, at))
    cond = chk.get("conditioned")
    if cond and not isinstance(cond, dict):
        problems.append(f"{where}.conditioned: must be an object")
    elif cond:
        at = f"{where}.conditioned"
        problems.extend(_unknown_fields(cond, CONDITIONED_FIELDS, at,
                                        "a conditioning event"))
        if cond.get("kind") not in ("A_n", "A_nq"):
            problems.append(f'{at}.kind: must be "A_n" or "A_nq"')
        if "n" in cond and not _is_int(cond["n"], 3):
            problems.append(f"{at}.n: must be an integer >= 3")
        elif "n" in cond and any(cond["n"] != n + 1 for n in obs_ns):
            # each observable is conditioned on its own n + 1 replicas
            problems.append(f"{at}.n: must be omitted or equal n + 1 for "
                            f"every observable (n in {sorted(obs_ns)})")
        if ("q" in cond or cond.get("kind") == "A_nq") and not _is_number(
                cond.get("q")):
            problems.append(f"{at}.q: must be a number")
    return problems


def _validate_measure(measure: dict) -> list:
    mtype = measure.get("type")
    problems = []
    if isinstance(mtype, str) and mtype in MEASURE_FIELDS:
        problems = _unknown_fields(measure, MEASURE_FIELDS[mtype], "measure",
                                   f"measure type {mtype!r}")
    if mtype == "tree":
        try:
            TreeMeasureSpec(tuple(measure.get("q", ())),
                            int(measure.get("branching", 0)),
                            tuple(measure.get("zetas", ())),
                            int(measure.get("seed", 0)))
        except (ValueError, TypeError, OverlapLabError) as e:
            problems.append(f"measure: {e}")
    elif mtype == "explicit":
        grid = measure.get("grid")
        if not isinstance(grid, dict):
            problems.append("measure.grid: required for explicit measures")
        else:
            try:
                OverlapGrid.from_json_dict(grid)
            except (ValueError, KeyError, TypeError) as e:
                problems.append(f"measure.grid: {e}")
        weights = measure.get("weights")
        if not (isinstance(weights, list) and all(map(_is_number, weights))):
            problems.append("measure.weights: must be a list of numbers")
        elif abs(sum(weights) - 1.0) > 1e-9:
            problems.append(
                f"measure.weights: sum to {sum(weights)!r}, expected 1")
        if not measure.get("atoms"):
            problems.append("measure.atoms: required for explicit measures")
    elif mtype == "adversarial":
        pass
    else:
        problems.append(f"measure.type: unknown type {mtype!r}")
    return problems


def build_model(measure: dict):
    """Construct the model plus any advisory warnings."""
    warnings = []
    mtype = measure["type"]
    if mtype == "tree":
        spec = TreeMeasureSpec(tuple(measure["q"]), int(measure["branching"]),
                               tuple(measure["zetas"]),
                               int(measure.get("seed", 0)))
        model = TreeModel(spec)
    elif mtype == "explicit":
        grid = OverlapGrid.from_json_dict(measure["grid"])
        m = explicit_measure(np.asarray(measure["atoms"], dtype=np.float64),
                             np.asarray(measure["weights"], dtype=np.float64),
                             grid, on_sphere=bool(measure.get("on_sphere", True)))
        model = FrozenModel(m)
    else:
        model = FrozenModel(adversarial_measure())
    if any(q < 0 for q in model.grid.levels):
        warnings.append("grid has negative overlap levels; identity-satisfying "
                        "families keep overlaps nonnegative")
    return model, warnings


def _parse_observable(d: dict) -> ObservableSpec:
    psi_d = d["psi"]
    if "monomial" in psi_d:
        psi = Psi("monomial", int(psi_d["monomial"]))
    else:
        psi = Psi("indicator", int(psi_d["indicator"]))
    fpat = tuple(((int(l), int(lp)), int(v)) for l, lp, v in d.get("f_pattern", ()))
    fmono = tuple(((int(l), int(lp)), int(p)) for l, lp, p in d.get("f_monomial", ()))
    return ObservableSpec(int(d["n"]), psi, f_pattern=fpat, f_monomial=fmono)


def _run_check(chk: dict, model, seed: int, oracle: bool):
    """Dispatch one configured check. Returns (rows, json_obj, passed)."""
    name = chk["name"]
    mc = MCConfig(**{key: int(v) for key, v in chk.get("mc", {}).items()})
    abs_tol = float(chk.get("abs_tol", DEFAULT_ABS_TOL))
    z = float(chk.get("z", DEFAULT_Z))
    method = "enumerate" if oracle else chk.get("method", "mc")

    if name == "gg":
        obs_cfg = chk.get("observables", "default")
        if obs_cfg == "default":
            observables = default_gg_observables()
        else:
            observables = [_parse_observable(d) for d in obs_cfg]
        cond_cfg = chk.get("conditioned")
        # each observable is conditioned on its own n + 1 replicas
        conds = [EventSpec(cond_cfg["kind"], obs.n + 1, cond_cfg.get("q"))
                 for obs in observables] if cond_cfg else None
        reps = gg_residual(model, observables, mc, seed, conditioned=conds,
                           abs_tol=abs_tol, z=z, method=method)
        rows, objs, ok = [], [], True
        for obs, rep in zip(observables, reps):
            if isinstance(rep, Exception):
                raise rep
            rows.append(rep.row())
            objs.append({"observable": obs.observable_id(),
                         "residual": rep.residual, "se": rep.residual_se,
                         "pass": rep.passed, "conditioned": rep.conditioned})
            ok &= rep.passed
        return rows, {"observables": objs}, ok

    if name == "mass":
        rep = distinct_mass_check(model, int(chk.get("n_max", 5)), mc, seed,
                                  abs_tol=abs_tol, z=z, method=method)
        return list(rep.rows), {"p_top": rep.p_top}, rep.passed

    if name in ("lemma1", "consistency"):
        n = int(chk.get("n", 2))
        fpat = tuple(((int(l), int(lp)), int(v))
                     for l, lp, v in chk.get("f_pattern", ((1, 2, 1),)))
        f = ObservableSpec(n, Psi("monomial", 1), f_pattern=fpat)
        fn = lemma1_check if name == "lemma1" else consistency_check
        rep = fn(model, f, n, mc, seed, abs_tol=abs_tol, z=z, method=method)
        return [rep.row(name)], {"residual": rep.residual,
                                 "se": rep.residual_se}, rep.passed

    if name == "marginal":
        rep = conditional_marginal_check(model, mc, seed, abs_tol=abs_tol,
                                         z=z, method=method)
        return list(rep.rows), {"acceptance_rate": rep.acceptance_rate}, rep.passed

    if name == "support":
        rep = support_check(model.measure_at(0))
        return [rep.row(model.model_id)], {"max_deviation": rep.max_deviation}, \
            rep.passed

    if name == "positivity":
        rep = positivity_check(model, mc, seed)
        return [rep.row(model.model_id)], {"min_overlap": rep.min_overlap}, \
            rep.passed

    if name == "ultra":
        rep = ultrametricity_check(model, mc, seed, n=int(chk.get("n", 8)))
        return [rep.row(model.model_id)], {
            "triples": rep.triples_checked, "violations": rep.violations,
            "witness": rep.first_witness}, rep.passed

    if name == "descend":
        cfg = DescendConfig(mc=mc, abs_tol=abs_tol, z=z, method=method,
                            **{key: chk[key] for key in CHECK_FIELDS[name]
                               if key in chk})
        rep = descend(model, cfg, seed)
        passed = rep.all_passed
        node = rep.child
        while node is not None:
            passed &= node.all_passed
            node = node.child
        return rep.rows(model.model_id), rep.to_json_dict(), passed

    if name == "criterion":
        reports = criterion_run(model, float(chk["q"]),
                                chk.get("patterns", DEFAULT_PATTERNS),
                                int(chk.get("n_max", 6)), mc, seed, z=z,
                                method=method)
        rows = []
        ok = True
        for rep in reports:
            rows.extend(rep.rows(model.model_id))
            ok &= rep.consistent_within_noise
        return rows, {"patterns": [r.to_json_dict() for r in reports]}, ok

    raise ValueError(f"unhandled check {name!r}")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def write_rows_csv(rows, path: Path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["check_name", "model_id", "n", "observable_id",
                    "estimate", "reference", "residual", "se", "pass"])
        for r in rows:
            w.writerow([r.check, r.model_id, _format_value(r.n),
                        r.observable_id, _format_value(r.estimate),
                        _format_value(r.reference), _format_value(r.residual),
                        _format_value(r.se), _format_value(r.passed)])


def emit_plot_data(rows, path: Path):
    """Long-format CSV for external plotting; one row per (series, n)."""
    rows = [r for r in rows if r.n is not None]
    if not rows:
        raise ValueError("no plottable report rows")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["series", "n", "estimate", "reference", "se"])
        for r in rows:
            if r.check in ("mass", "criterion"):
                est, ref = r.estimate, r.reference
            else:
                est, ref = r.residual, 0.0
            series = f"{r.check}:{r.observable_id}"
            w.writerow([series, r.n, _format_value(est),
                        _format_value(ref), _format_value(r.se)])


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   out_dir=None, formats=None, seed=None,
                   oracle: bool = False) -> int:
    """Run the checks in config order, one at a time, and write the reports.

    jobs is only recorded in the manifest.
    """
    t0 = time.time()
    seed = config.seed if seed is None else seed
    formats = formats or config.formats
    out = Path(out_dir or config.output_dir)
    try:
        out.mkdir(parents=False, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory {out}: {e}",
              file=sys.stderr)
        return 1

    try:
        model, warnings = build_model(config.measure)
    except (OverlapLabError, ValueError) as e:
        print(f"error: cannot build measure: {e}", file=sys.stderr)
        return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    all_rows = []
    check_summaries = []
    statuses = []
    for i, chk in enumerate(config.checks):
        start = time.time()
        rows, obj, err = [], {}, None
        try:
            rows, obj, ok = _run_check(chk, model, derive_seed(seed, i), oracle)
            status = "pass" if ok else "fail"
        except Exception as e:  # noqa: BLE001 - gather all per-check errors
            status, err = "error", f"{type(e).__name__}: {e}"
            print(f"error in check {chk['name']}: {err}", file=sys.stderr)
        all_rows.extend(rows)
        statuses.append(status)
        check_summaries.append({
            "name": chk["name"], "status": status,
            "error": err, "wall_time_s": time.time() - start,
            "rows": [r.__dict__ for r in rows], "summary": obj,
        })

    manifest = {
        "config_hash": config.config_hash(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "jobs": jobs,
        "oracle": oracle,
        "checks": [{"name": s["name"], "status": s["status"],
                    "wall_time_s": s["wall_time_s"], "error": s["error"]}
                   for s in check_summaries],
        "total_wall_time_s": time.time() - t0,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    if "csv" in formats:
        write_rows_csv(all_rows, out / "report.csv")
        if any(r.n is not None for r in all_rows):
            emit_plot_data(all_rows, out / "plot_data.csv")
    if "json" in formats:
        with open(out / "report.json", "w") as fh:
            json.dump({"model_id": model.model_id,
                       "checks": check_summaries}, fh, indent=2)

    if "error" in statuses:
        return 1
    if "fail" in statuses:
        return 2
    return 0


def describe_measure(config: ExperimentConfig) -> int:
    try:
        model, warnings = build_model(config.measure)
    except (OverlapLabError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    measure = model.measure_at(0)
    grid = measure.grid
    print(f"model:        {model.model_id}")
    print(f"kind:         {measure.kind}")
    print(f"atoms:        {measure.m}")
    print(f"levels:       {list(grid.levels)}")
    print(f"self overlap: {grid.self_overlap}")
    if grid.probs is not None:
        probs = ", ".join(f"q{i + 1}={p:.6g}" for i, p in enumerate(grid.probs))
        print(f"level probs:  {probs}   (first outer draw)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="overlap-lab",
        description="verification lab for discrete replica overlap arrays")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="recorded in the manifest; checks always run "
                             "one at a time")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory override")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default=None, help="report format override")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "validate", "describe-measure", "oracle"):
        p = sub.add_parser(cmd)
        p.add_argument("config")
    args = parser.parse_args(argv)

    formats = None
    if args.format:
        formats = ["csv", "json"] if args.format == "both" else [args.format]

    try:
        config = parse_config(args.config)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        for p in e.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1

    if args.command == "validate":
        try:
            _, warnings = build_model(config.measure)
        except (OverlapLabError, ValueError) as e:
            print(f"invalid: measure: {e}", file=sys.stderr)
            return 1
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        print("config ok")
        return 0
    if args.command == "describe-measure":
        return describe_measure(config)
    oracle = args.command == "oracle"
    return run_experiment(config, jobs=args.jobs, out_dir=args.out,
                          formats=formats, seed=args.seed, oracle=oracle)


if __name__ == "__main__":
    sys.exit(main())

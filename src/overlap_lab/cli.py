"""Config-driven experiment runner.

Subcommands:
  run <config>              execute the configured checks, write reports
  validate <config>         parse + validate, print every problem found
  describe-measure <config> print grid, atom count and the law of R12
  oracle <config>           run with the exact enumeration path forced

Exit codes: 0 all checks passed, 2 at least one check failed, 1 execution
or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Optional

try:
    import resource
except ImportError:  # no getrusage (Windows): the manifest records null
    resource = None

import numpy as np

from . import __version__
from .errors import OverlapLabError, ParseError, ValidationError
from .grid import OverlapGrid
from .measures import (TreeMeasureSpec, adversarial_measure, derive_seed,
                       explicit_measure)
from .models import FrozenModel, TreeModel
from .observables import (MAX_MONOMIAL_POWER, ObservableSpec, Psi,
                          default_gg_observables)
from .pipeline import (DescendConfig, criterion_estimates, criterion_run,
                       descend)
from .sampler import EventSpec, MCConfig, sweep
from .verify import (DEFAULT_ABS_TOL, DEFAULT_Z, conditional_marginal_check,
                     consistency_check, consistency_estimates,
                     distinct_mass_check, gg_estimates, gg_residual,
                     lemma1_check, lemma1_estimates, marginal_estimates,
                     mass_estimates, method_rule, positivity_check,
                     support_check, ultrametricity_check)

REQUIRED = object()


class Field(NamedTuple):
    """One field of a config object: a test of its JSON value (type and
    bound), the problem reported after "<path>: " when the test fails, the
    value an omitted field takes, and the problem reported when a REQUIRED
    field is missing (message when None)."""

    test: Callable
    message: str
    default: object = REQUIRED
    missing: Optional[str] = None


def _is_int(v, minimum=None, maximum=None) -> bool:
    # bool is a subclass of int, but true/false is never a count or a seed
    return (isinstance(v, int) and not isinstance(v, bool)
            and (minimum is None or v >= minimum)
            and (maximum is None or v <= maximum))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _is_object(v) -> bool:
    return isinstance(v, dict)


def _is_int_triples(v, minimum=None) -> bool:
    """A list of [a, b, c] integer triples, every entry >= minimum."""
    return isinstance(v, list) and all(
        isinstance(t, list) and len(t) == 3
        and all(_is_int(x, minimum) for x in t) for t in v)


def _builds(make, *args, **kwargs) -> bool:
    """Whether a domain constructor, which holds the rule, accepts these."""
    try:
        make(*args, **kwargs)
    except (ValueError, OverlapLabError):
        return False
    return True


def _psi(d: dict) -> Psi:
    """The Psi of {"monomial": power} or {"indicator": level}."""
    (kind, value), = d.items()
    return Psi(kind, value)


def _int(default=REQUIRED, minimum=None, maximum=None) -> Field:
    bounds = (f" >= {minimum}" if minimum is not None else "") + (
        f" and <= {maximum}" if maximum is not None else "")
    return Field(lambda v: _is_int(v, minimum, maximum),
                 "must be an integer" + bounds, default)


_NAME = Field(lambda v: True, "", None)  # "type" and "name": already dispatched
_NUMBERS = Field(_is_numbers, "must be a list of numbers")
_TOLERANCE = "must be a number >= 0"
_BOOL = Field(lambda v: isinstance(v, bool), "must be true or false")

CONFIG = {"measure": Field(_is_object, "must be an object",
                           missing="required object missing"),
          "checks": Field(lambda v: isinstance(v, list) and len(v) > 0,
                          "need a nonempty list"),
          "seed": _int(0),
          "output": Field(_is_object, "must be an object", {})}
FORMATS = ("csv", "json")
OUTPUT = {"dir": Field(lambda v: isinstance(v, str), "must be a string", "out"),
          "formats": Field(lambda v: isinstance(v, list), "must be a list",
                           list(FORMATS))}
MEASURES = {
    "tree": {"type": _NAME, "q": _NUMBERS, "branching": _int(),
             "zetas": _NUMBERS, "seed": _int(TreeMeasureSpec.seed)},
    "explicit": {
        "type": _NAME,
        "grid": Field(_is_object, "must be an object",
                      missing="required for explicit measures"),
        "weights": _NUMBERS,
        "atoms": Field(lambda v: isinstance(v, list) and len(v) > 0 and all(
            map(_is_numbers, v)) and len({len(a) for a in v}) == 1,
            "must be a nonempty list of lists of numbers, all of one length"),
        "on_sphere": _BOOL._replace(default=True)},
    "adversarial": {"type": _NAME},
}
# OverlapGrid holds the ordering and range rules
GRID = {"levels": Field(lambda v: _is_numbers(v) and len(v) > 0,
                        "must be a nonempty list of numbers"),
        "self_overlap": Field(_is_number, "must be a number")}
# ObservableSpec bounds the f_pattern / f_monomial triples, given n
OBSERVABLE = {
    "n": Field(lambda v: _is_int(v) and _builds(ObservableSpec, v,
                                                Psi("monomial", 1)),
               "must be an integer >= 2"),
    "psi": Field(lambda v: isinstance(v, dict) and len(v) == 1 and all(
        map(_is_int, v.values())) and _builds(_psi, v),
        f'must be {{"monomial": 1..{MAX_MONOMIAL_POWER}}} or {{"indicator": '
        "level >= 1}"),
    "f_pattern": Field(_is_int_triples, "must be a list of [l, l', x] integer "
                       "triples, 1 <= l < l' <= n, level >= 1", []),
    "f_monomial": Field(_is_int_triples, "must be a list of [l, l', x] integer "
                        f"triples, 1 <= l < l' <= n, power 1..{MAX_MONOMIAL_POWER}",
                        [])}
CONDITIONED = {
    "kind": Field(lambda v: _builds(EventSpec, v, 2, 0.0),
                  'must be "A_n" or "A_nq"'),
    "n": _int(None, 3),  # omitted: each observable's own n + 1
    "q": Field(_is_number, "must be a number", None)}
MC = {"outer": Field(lambda v: _is_int(v) and _builds(MCConfig, outer=v),
                     "must be an integer >= 1", MCConfig.outer),
      "inner": Field(lambda v: _is_int(v) and _builds(MCConfig, inner=v),
                     "must be an integer >= 1", MCConfig.inner)}
# The fields of every check, then those of each check type: the checks that
# sample read mc, and those that estimate also the estimator's fields
CHECK = {"name": _NAME}
_SAMPLING = {"mc": Field(_is_object, "must be an object", {})}
_ESTIMATOR = {
    **_SAMPLING,
    "abs_tol": Field(lambda v: _is_number(v) and v >= 0, _TOLERANCE,
                     DEFAULT_ABS_TOL),
    "z": Field(lambda v: _is_number(v) and v >= 0, _TOLERANCE, DEFAULT_Z),
    "method": Field(lambda v: v in ("mc", "enumerate"),
                    'must be "mc" or "enumerate"', DescendConfig.method)}
# lemma1 and consistency: f is a level pattern on n replicas
_F_CHECK = {**_ESTIMATOR, "n": _int(2, 2),
            "f_pattern": OBSERVABLE["f_pattern"]._replace(default=[[1, 2, 1]])}
# the DescendConfig fields a descend check sets besides the estimator's
DESCEND = {"n_condition": _int(DescendConfig.n_condition, 1),
           "psd_outer": _int(DescendConfig.psd_outer, 1),
           "psd_inner": _int(DescendConfig.psd_inner, 1),
           "force": _BOOL._replace(default=DescendConfig.force)}


class Check(NamedTuple):
    """A check type: its fields (after CHECK's), and for a check that
    estimates by Monte Carlo the function that states its estimates, which
    it calls itself; run_experiment sweeps them for every such check before
    the first check runs (sweep_checks), and the check reads no measure."""

    fields: dict
    estimates: Optional[Callable] = None


CHECKS = {
    "gg": Check({
        **_ESTIMATOR,
        "observables": Field(
            lambda v: v == "default" or isinstance(v, list) and len(v) > 0,
            'must be "default" or a nonempty list of objects', "default"),
        "conditioned": Field(lambda v: v is None or isinstance(v, dict),
                             "must be an object", None)},
        estimates=gg_estimates),
    "mass": Check({**_ESTIMATOR, "n_max": _int(5, 2)},
                  estimates=mass_estimates),
    "lemma1": Check(_F_CHECK, estimates=lemma1_estimates),
    "consistency": Check(_F_CHECK, estimates=consistency_estimates),
    # two estimates, the conditioned one and the reference
    "marginal": Check(_ESTIMATOR, estimates=marginal_estimates),
    "support": Check({}),  # measure 0 alone
    "positivity": Check(_SAMPLING),
    # the ultra scan caches three index arrays of 24 bytes a triple for each
    # n: about 4 MB at n = 100, and 148 MB more at n = 300
    "ultra": Check({**_SAMPLING, "n": _int(8, 3, 100)}),
    # measure 0, then scans and estimates level after level. Its estimates
    # depend on the levels that pass, so it states them as it goes and
    # takes no sweep
    "descend": Check({**_ESTIMATOR, **DESCEND}),
    # three estimates; its rows compare two estimates by z alone, and
    # abs_tol is accepted and unread
    "criterion": Check({
        **_ESTIMATOR,
        "q": Field(_is_number, "must be a number"),
        "patterns": Field(
            lambda v: isinstance(v, list) and len(v) > 0 and all(
                _is_int_triples(p, 1) and p for p in v),
            "must be a nonempty list of nonempty lists of [a, b, c] integer "
            "level triples, levels >= 1", [[[1, 1, 1]]]),
        "n_max": _int(6, 3)}, estimates=criterion_estimates),
}


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


def _finite(token: str, kind=float):
    """A JSON number read as kind; NaN, Infinity and literals past the float
    range (1e999 reads as inf, as does a 400-digit integer) are refused."""
    if not math.isfinite(float(token)):
        raise ParseError(f"{token} is not a finite number")
    return kind(token)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file, collecting every problem at once."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        raw = json.loads(text, parse_constant=_finite, parse_float=_finite,
                         parse_int=lambda token: _finite(token, int))
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(["config: must be a JSON object"])

    problems = []
    top = _read(raw, CONFIG, "", "the config", problems)
    if "measure" in top:
        _read_measure(top["measure"], problems)
    for i, chk in enumerate(top.get("checks", ())):
        _read_check(chk, f"checks[{i}]", problems)
    output = _read(top.get("output", {}), OUTPUT, "output", "output", problems)
    problems.extend(f"output.formats: unknown format {f!r}"
                    for f in output.get("formats", ()) if f not in FORMATS)
    if problems:
        raise ValidationError(problems)
    return ExperimentConfig(top["measure"], top["checks"], top["seed"],
                            output["dir"], list(output["formats"]), raw)


def _read(d: dict, table: dict, where: str, what: str, problems: list) -> dict:
    """Each field of table that d gives and passes, or its default; appends
    a problem for every other field, and for each key table lacks. where is
    the path of d ("" at the top level); what names it in those problems."""
    def at(key):
        return f"{where}.{key}" if where else key

    problems.extend(at(key) + f": unknown field for {what}; allowed: "
                    + ", ".join(table) for key in d if key not in table)
    values = {}
    for key, field in table.items():
        if key in d and field.test(d[key]):
            values[key] = d[key]
        elif key in d:
            problems.append(f"{at(key)}: {field.message}")
        elif field.default is REQUIRED:
            problems.append(f"{at(key)}: {field.missing or field.message}")
        else:
            values[key] = field.default
    return values


def _read_measure(measure: dict, problems: list) -> dict:
    """The fields of the measure's type, with a tree's TreeMeasureSpec
    (spec) and an explicit measure's OverlapGrid (grid) built."""
    mtype = measure.get("type")
    if not isinstance(mtype, str) or mtype not in MEASURES:
        problems.append(f"measure.type: unknown type {mtype!r}")
        return {}
    table = MEASURES[mtype]
    v = _read(measure, table, "measure", f"measure type {mtype!r}", problems)
    if mtype == "tree" and len(v) == len(table):
        try:
            v["spec"] = TreeMeasureSpec(tuple(v["q"]), v["branching"],
                                        tuple(v["zetas"]), v["seed"])
        except (ValueError, OverlapLabError) as e:
            problems.append(f"measure: {e}")
    if "grid" in v:
        grid = _read(v["grid"], GRID, "measure.grid", "a grid", problems)
        if len(grid) == len(GRID):
            try:
                v["grid"] = OverlapGrid.from_json_dict(grid)
            except ValueError as e:
                problems.append(f"measure.grid: {e}")
    return v


def _read_check(chk, where: str, problems: list) -> dict:
    """The fields of a check (CHECK's, then its type's), with mc an
    MCConfig, gg's observables ObservableSpecs and the f of lemma1 and
    consistency one."""
    name = chk.get("name") if isinstance(chk, dict) else None
    if not isinstance(name, str) or name not in CHECKS:
        problems.append(f"{where}.name: unknown check {name!r}; allowed: "
                        + ", ".join(CHECKS))
        return {}
    v = _read(chk, {**CHECK, **CHECKS[name].fields}, where, f"check {name!r}",
              problems)
    if "mc" in v:
        v["mc"] = MCConfig(**_read(v["mc"], MC, f"{where}.mc", "mc", problems))
    if "n" in v and "f_pattern" in v:  # only lemma1 and consistency have both
        v["f"] = _read_observable({"n": v["n"], "psi": {"monomial": 1},
                                   "f_pattern": v["f_pattern"]}, where, problems)
    if v.get("observables") == "default":
        v["observables"] = default_gg_observables()
    elif "observables" in v:
        v["observables"] = [
            _read_observable(d, f"{where}.observables[{j}]", problems)
            for j, d in enumerate(v["observables"])]
    if v.get("conditioned") is not None:
        at = f"{where}.conditioned"
        v["conditioned"] = cond = _read(v["conditioned"], CONDITIONED, at,
                                        "a conditioning event", problems)
        # each observable is conditioned on its own n + 1 replicas
        ns = sorted({obs.n for obs in v.get("observables", ()) if obs})
        if cond.get("n") is not None and any(cond["n"] != n + 1 for n in ns):
            problems.append(f"{at}.n: must be omitted or equal n + 1 for "
                            f"every observable (n in {ns})")
        if "kind" in cond and "q" in cond and not _builds(
                EventSpec, cond["kind"], 2, cond["q"]):
            problems.append(f"{at}.q: {CONDITIONED['q'].message}")
    return v


def _read_observable(d, at: str, problems: list):
    """The ObservableSpec an observable object describes, or None. A triple
    list that ObservableSpec rejects for n is reported under its field."""
    if not isinstance(d, dict):
        problems.append(f"{at}: must be an object")
        return None
    v = _read(d, OBSERVABLE, at, "an observable", problems)
    if "n" not in v or "psi" not in v:
        return None
    n, psi = v["n"], _psi(v["psi"])
    f = {key: tuple(((l, lp), x) for l, lp, x in v[key])
         for key in ("f_pattern", "f_monomial") if key in v}
    bad = [key for key in f if not _builds(ObservableSpec, n, psi,
                                           **{key: f[key]})]
    problems.extend(f"{at}.{key}: {OBSERVABLE[key].message}" for key in bad)
    try:
        return None if bad else ObservableSpec(n, psi, **f)
    except ValueError as e:  # both forms of f given
        problems.append(f"{at}: {e}")


def build_model(measure: dict):
    """Construct the model plus any advisory warnings."""
    problems = []
    v = _read_measure(measure, problems)
    if problems:
        raise ValidationError(problems)
    if v["type"] == "tree":
        model = TreeModel(v["spec"])
    elif v["type"] == "explicit":
        m = explicit_measure(np.asarray(v["atoms"], dtype=np.float64),
                             np.asarray(v["weights"], dtype=np.float64),
                             v["grid"], on_sphere=v["on_sphere"])
        model = FrozenModel(m)
    else:
        model = FrozenModel(adversarial_measure())
    warnings = []
    if any(q < 0 for q in model.grid.levels):
        warnings.append("grid has negative overlap levels; identity-satisfying "
                        "families keep overlaps nonnegative")
    return model, warnings


def _estimator_args(v: dict, seed: int) -> tuple:
    """The arguments after the model that an estimating check's function and
    its CHECKS estimates function both take, from its parsed fields v."""
    name, mc = v["name"], v["mc"]
    if name == "gg":
        observables, cond = v["observables"], v["conditioned"]
        # each observable is conditioned on its own n + 1 replicas
        conds = [EventSpec(cond["kind"], obs.n + 1, cond["q"])
                 for obs in observables] if cond else None
        return observables, mc, seed, conds
    if name == "mass":
        return v["n_max"], mc, seed
    if name in ("lemma1", "consistency"):
        return v["f"], v["n"], mc, seed
    if name == "marginal":
        return mc, seed
    if name == "criterion":
        return float(v["q"]), v["patterns"], v["n_max"], mc, seed
    raise ValueError(f"check {name!r} states no estimates")


def sweep_checks(checks, model, seed: int):
    """Sweep the estimates of every check that estimates by Monte Carlo, in
    one pass over the outer draws. Returns {check index: the means served to
    it} and the manifest's sweep entry, which counts the outer measures the
    pass built (measures_built).

    A check whose estimates cannot be stated (grid_rule and its other
    refusals) is not served, and raises the refusal itself when it runs. If
    the sweep raises, no check is served, and each runs on its own and
    reports its own error.
    """
    start, built = time.time(), model.built
    owners, ests = [], []
    for i, chk in enumerate(checks):
        v = _read_check(chk, "check", [])
        estimates = CHECKS[v["name"]].estimates
        if estimates is None or v["method"] != "mc":
            continue
        try:
            got = estimates(model, *_estimator_args(v, derive_seed(seed, i)))
        except Exception:  # noqa: BLE001 - the check raises it when it runs
            continue
        owners.append((i, len(got)))
        ests += got
    err = None
    try:
        means = iter(sweep(model, ests))
    except Exception as e:  # noqa: BLE001 - each check reports its own
        owners, ests, err = [], [], f"{type(e).__name__}: {e}"
    served = {i: [next(means) for _ in range(count)] for i, count in owners}
    return served, {
        "wall_time_s": time.time() - start, "estimates": len(ests),
        "outer_draws": max((est.mc.outer for est in ests), default=0),
        "measures_built": model.built - built, "error": err,
        "peak_rss_mb": peak_rss_mb()}


def _run_check(chk: dict, model, seed: int, oracle: bool, served=None):
    """Dispatch one configured check, with the means swept for it if any
    (served). Returns (rows, json_obj); the check passes when every one of
    its rows does."""
    problems = []
    v = _read_check(chk, "check", problems)
    if problems:
        raise ValidationError(problems)
    name, mc, est = v["name"], v.get("mc"), None
    if "method" in v:  # the fields every estimating check reads alike
        est = {"abs_tol": float(v["abs_tol"]), "z": float(v["z"]),
               "method": "enumerate" if oracle else v["method"]}
    args = _estimator_args(v, seed) if CHECKS[name].estimates else None

    if name == "gg":
        reps = gg_residual(model, *args, **est, served=served)
        rows, objs = [], []
        for obs, rep in zip(v["observables"], reps):
            if isinstance(rep, Exception):
                raise rep
            rows.append(rep.row())
            objs.append({"observable": obs.observable_id(),
                         "residual": rep.residual, "se": rep.residual_se,
                         "pass": rep.passed, "conditioned": rep.conditioned})
        return rows, {"observables": objs}

    if name == "mass":
        rep = distinct_mass_check(model, *args, **est, served=served)
        return list(rep.rows), {"p_top": rep.p_top}

    if name in ("lemma1", "consistency"):
        fn = lemma1_check if name == "lemma1" else consistency_check
        rep = fn(model, *args, **est, served=served)
        return [rep.row(name)], {"residual": rep.residual,
                                 "se": rep.residual_se}

    if name == "marginal":
        rep = conditional_marginal_check(model, *args, **est, served=served)
        return list(rep.rows), {"acceptance_rate": rep.acceptance_rate}

    if name == "support":
        rep = support_check(model.measure_at(0))
        return [rep.row(model.model_id)], {"max_deviation": rep.max_deviation}

    if name == "positivity":
        rep = positivity_check(model, mc, seed)
        return [rep.row(model.model_id)], {"min_overlap": rep.min_overlap}

    if name == "ultra":
        rep = ultrametricity_check(model, mc, seed, n=v["n"])
        return [rep.row(model.model_id)], {
            "triples": rep.triples_checked, "violations": rep.violations,
            "witness": rep.first_witness}

    if name == "descend":
        cfg = DescendConfig(mc=mc, **est, **{key: v[key] for key in DESCEND})
        rep = descend(model, cfg, seed)
        return rep.rows(model.model_id), rep.to_json_dict()

    if name == "criterion":
        reports = criterion_run(model, *args, z=est["z"],
                                method=est["method"], served=served)
        rows = [row for rep in reports for row in rep.rows(model.model_id)]
        return rows, {"patterns": [r.to_json_dict() for r in reports]}

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


def peak_rss_mb() -> Optional[float]:
    """The process's peak resident set size so far, in MB (ru_maxrss counts
    KiB on Linux and bytes on macOS)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << (20 if sys.platform == "darwin" else 10))


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   out_dir=None, formats=None, seed=None,
                   oracle: bool = False) -> int:
    """Sweep the checks' Monte Carlo estimates (sweep_checks), then run the
    checks in config order, one at a time, and write the reports. oracle
    enumerates and takes no sweep.

    jobs is only recorded in the manifest, and so are the sweep's entry and
    each check's measures_built, the outer measures built while it ran, and
    peak_rss_mb, the process's peak RSS after it.
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
    if oracle:  # refused up front, not once per enumerating check
        try:
            method_rule(model, "enumerate")
        except ValueError as e:
            print(f"error: oracle: {e}", file=sys.stderr)
            return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    served, sweep_entry = ({}, None) if oracle else sweep_checks(
        config.checks, model, seed)
    all_rows = []
    check_summaries = []
    statuses = []
    counts = []  # (measures built, peak RSS after) per check, manifest only
    for i, chk in enumerate(config.checks):
        start, built = time.time(), model.built
        rows, obj, err = [], {}, None
        try:
            rows, obj = _run_check(chk, model, derive_seed(seed, i), oracle,
                                   served.get(i))
            status = "pass" if all(r.passed for r in rows) else "fail"
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
        counts.append((model.built - built, peak_rss_mb()))

    manifest = {
        "config_hash": config.config_hash(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "jobs": jobs,
        "oracle": oracle,
        "sweep": sweep_entry,
        "checks": [{"name": s["name"], "status": s["status"],
                    "wall_time_s": s["wall_time_s"], "error": s["error"],
                    "measures_built": built, "peak_rss_mb": peak}
                   for s, (built, peak) in zip(check_summaries, counts)],
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
    """Print the first outer measure: its grid and the law of R12 on it."""
    try:
        model, warnings = build_model(config.measure)
        measure = model.measure_at(0)
        probs = measure.pair_level_probs()[1:]
    except (OverlapLabError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    grid = measure.grid
    print(f"model:        {model.model_id}")
    print(f"kind:         {measure.kind}")
    print(f"atoms:        {measure.m}")
    print(f"levels:       {list(grid.levels)}")
    print(f"self overlap: {grid.self_overlap}")
    law = ", ".join(f"q{i}={p:.6g}" for i, p in enumerate(probs, 1))
    print(f"level probs:  {law}   (first outer draw)")
    return 0


def _jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="overlap-lab",
        description="verification lab for discrete replica overlap arrays")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--jobs", type=_jobs, default=1,
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
        formats = list(FORMATS) if args.format == "both" else [args.format]

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
            model, warnings = build_model(config.measure)
        except (OverlapLabError, ValueError) as e:
            print(f"invalid: measure: {e}", file=sys.stderr)
            return 1
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        invalid = False
        for i, chk in enumerate(config.checks):
            v = _read_check(chk, f"checks[{i}]", [])
            estimates = CHECKS[v["name"]].estimates
            try:
                # what the check states refuses what it can never run on
                if estimates is not None:
                    estimates(model, *_estimator_args(v, config.seed))
                method_rule(model, v.get("method"))
            except (OverlapLabError, ValueError) as e:
                print(f"invalid: checks[{i}]: {e}", file=sys.stderr)
                invalid = True
        if invalid:
            return 1
        print("config ok")
        return 0
    if args.command == "describe-measure":
        return describe_measure(config)
    oracle = args.command == "oracle"
    return run_experiment(config, jobs=args.jobs, out_dir=args.out,
                          formats=formats, seed=args.seed, oracle=oracle)


if __name__ == "__main__":
    sys.exit(main())

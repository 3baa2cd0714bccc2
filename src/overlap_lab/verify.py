"""Residual estimators for every identity the overlap laboratory checks.

Conditional expectations are always estimated as ratios of unconditioned
expectations (the event indicator multiplies the statistic and supplies
the denominator), with delta-method standard errors computed from outer-
level influence values. This matches the definition of the conditional
laws and keeps structurally-zero residuals exactly zero on paired draws.
Both paths fill one means layout (served_means): Monte Carlo with one row
per outer draw, the exact oracle with one row of exact expectations. Only
ratio_from_means conditions either, and it alone refuses an event without
mass.

Tolerance policy:
  * identity residuals (gg):        pass iff |r| <= max(abs_tol, z * se)
  * reference comparisons (rest):   pass iff |r| <= z * se + abs_tol

abs_tol defaults to 0.01 for statistical runs (it absorbs the finite-
branching bias of the hierarchical positive controls) and should be set
to ~1e-12 when the exact enumeration path is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AcceptanceTooLow, EventMassTooSmall, GridTooSmall,
                     NullConditioning)
from .grid import check_ultrametric_batch
from .measures import DiscreteMeasure, derive_seed
from .models import as_model
from .observables import ObservableSpec, Statistic, statistic_for_f
from .sampler import (Estimate, EstimateReport, MCConfig, combined_threshold,
                      count_columns, enumerate_statistics,
                      filtered_level_batches, influence_se, mean_and_se,
                      outer_stat_means, ratio_from_means)

DEFAULT_ABS_TOL = 0.01
DEFAULT_Z = 3.0

# support: atoms above the weight floor must have squared norm within
# SUPPORT_TOL of the top level; positivity: no sampled overlap below
# -POSITIVITY_TOL.
SUPPORT_WEIGHT_FLOOR = 1e-12
SUPPORT_TOL = 1e-10
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class CheckRow:
    """One line of the long-format report CSV."""

    check: str
    model_id: str
    n: Optional[int]
    observable_id: str
    estimate: float
    reference: float
    residual: float
    se: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    lhs: EstimateReport
    rhs_terms: tuple
    residual: float
    residual_se: float
    passed: bool
    observable_id: str = ""
    model_id: str = ""
    conditioned: str = ""
    n: Optional[int] = None

    def row(self, check: str = "gg") -> CheckRow:
        rhs_total = sum(t.estimate for t in self.rhs_terms)
        return CheckRow(check, self.model_id, self.n, self.observable_id,
                        self.lhs.estimate, rhs_total, self.residual,
                        self.residual_se, self.passed)


def grid_rule(check: str, grid, observables=(), patterns=(), events=()):
    """Raise why the named check can never run on grid, if it cannot: the
    checks read this one statement of each rule, and validate reads it
    through the estimates each check states. marginal and consistency
    condition on distinct replicas (no pair at the top level), which a
    one-level grid never draws. criterion conditions on an A_nq
    event, and gg may condition on events (EventSpec): an event holds only
    on levels below its bound, so never when no grid level lies below it.
    No pair is ever at a level above grid.k, so a check whose observables
    (f patterns, indicator psi) or criterion patterns name one would test
    an identity that holds vacuously."""
    if check in ("marginal", "consistency") and grid.k < 2:
        error = GridTooSmall if check == "marginal" else EventMassTooSmall
        raise error(f"{check} needs at least two levels")
    for event in events:
        if event.threshold(grid) < 1:
            bound = "the top level" if event.kind == "A_n" else f"q={event.q}"
            raise NullConditioning(f"no grid level lies below {bound}")
    top = max([l for obs in observables for l in obs.levels()]
              + [l for pat in patterns for tri in pat for l in tri], default=1)
    if top > grid.k:
        raise GridTooSmall(f"{check} names level {top}, above the top level "
                           f"{grid.k} of the grid")


def method_rule(model, method: str):
    """Raise why method can never run on model, if it cannot: served_means
    and validate read this rule. Enumeration sums over the atoms of one fixed
    measure, which a model that redraws its measure does not have."""
    if method == "enumerate" and not model.frozen:
        raise ValueError("enumeration needs a frozen (fixed-measure) model")


def _f_statistic(check: str, grid, f, n: int) -> Statistic:
    """f as a Statistic, once grid_rule passes the check and f's levels."""
    grid_rule(check, grid, observables=[f] if isinstance(f, ObservableSpec)
              else ())
    if f is None:
        return Statistic(n)
    if isinstance(f, ObservableSpec):
        return statistic_for_f(f)
    if isinstance(f, Statistic):
        return f
    raise TypeError("f must be a Statistic, an ObservableSpec, or None")


def served_means(model, ests, method: str, served=None):
    """Yield the means of each of a check's estimates in order, in the
    layout outer_stat_means returns: the means served to it (sweep's), or
    else each computed when it is asked for, so that a check that stops
    early computes no more than it reads.

    The exact path fills one row of that layout: each statistic's exact
    E[stat; event], enumerated at its own replica count only (est.counts,
    as in outer_stat_means), then each count's event mass.
    """
    if served is not None:
        if method != "mc" or len(served) != len(ests):
            raise ValueError("served means are the Monte Carlo means of "
                             "every estimate of the check")
        yield from served
        return
    model = as_model(model)
    method_rule(model, method)
    for est in ests:
        if method != "enumerate":
            yield outer_stat_means(model, est.stats, est.n, est.mc, est.seed,
                                   est.event_threshold, est.counts)
            continue
        t = combined_threshold(model, est.event_threshold)
        groups = count_columns([est.n] * len(est.stats) if est.counts is None
                               else est.counts)
        means = np.empty((1, len(est.stats) + len(groups)))
        for c, (*cols, den) in groups:
            means[0, cols], means[0, den] = enumerate_statistics(
                model.measure_at(0), [est.stats[i] for i in cols], c, t)
        yield means


def _gg_statistics(obs: ObservableSpec) -> list:
    """lhs, E<f>, E<psi(R12)> and the n - 1 cross terms of one observable,
    on its n + 1 replicas."""
    n = obs.n
    f_stat = statistic_for_f(obs)
    stats = [
        f_stat.with_psi(obs.psi, 0, n),           # lhs
        f_stat,                                    # E<f>
        Statistic(n + 1).with_psi(obs.psi, 0, 1),  # E<psi(R12)>
    ]
    return stats + [f_stat.with_psi(obs.psi, 0, l) for l in range(1, n)]


def _gg_events(obs, conditioned) -> tuple:
    """(observables, one event or None per observable) of gg_residual's
    obs and conditioned, refused unless each event covers its observable's
    full tuple."""
    single = isinstance(obs, ObservableSpec)
    observables = [obs] if single else list(obs)
    if conditioned is None:
        return observables, [None] * len(observables)
    events = [conditioned] if single else list(conditioned)
    if len(events) != len(observables):
        raise ValueError("need one conditioning event per observable")
    if any(e.n != o.n + 1 for o, e in zip(observables, events)):
        raise ValueError("conditioning event must cover all n+1 replicas")
    return observables, events


def gg_estimates(model, obs, mc: MCConfig, seed: int,
                 conditioned=None) -> list:
    """The one estimate of gg_residual: every group of every observable on
    max(n) + 1 replicas, under the events' one threshold."""
    model = as_model(model)
    observables, events = _gg_events(obs, conditioned)
    grid_rule("gg", model.grid, observables,
              events=[e for e in events if e is not None])
    thresholds = {e.threshold(model.grid) for e in events if e is not None}
    if len(thresholds) > 1:
        raise ValueError("the events of one pass must share one threshold")
    event_threshold = thresholds.pop() if thresholds else None
    stats, counts = [], []
    for o in observables:
        group = _gg_statistics(o)
        stats += group
        counts += [o.n + 1] * len(group)
    return [Estimate(stats, max(counts), mc, seed, event_threshold, counts)]


def gg_residual(model, obs, mc: MCConfig, seed: int,
                conditioned=None, abs_tol: float = DEFAULT_ABS_TOL,
                z: float = DEFAULT_Z, method: str = "mc", served=None):
    """Residual of the cavity identity for one observable or a list of them.

    lhs  = E<f(R^n) psi(R_{1,n+1})>
    rhs  = (1/n) E<f> E<psi(R_{1,2})> + (1/n) sum_{l=2..n} E<f psi(R_{1,l})>

    All groups of every observable are estimated on one draw of
    max(n) + 1 replicas, an observable of size n reading the first n + 1
    of them, so that degenerate single-level models give an exactly zero
    residual. With `conditioned` (an EventSpec, or one per observable for
    a list), every group becomes the corresponding conditional
    expectation; each event must cover its observable's full tuple
    (event.n == obs.n + 1), and the events of one list must share one
    threshold.

    One observable gives its ResidualReport. A list gives one entry per
    observable: its ResidualReport, or the AcceptanceTooLow its own event
    raised, so that an event without mass at one n leaves the others'
    reports standing. served is as in distinct_mass_check.
    """
    model = as_model(model)
    single = isinstance(obs, ObservableSpec)
    ests = gg_estimates(model, obs, mc, seed, conditioned)
    observables, events = _gg_events(obs, conditioned)
    (est,) = ests
    ends = np.cumsum([o.n + 2 for o in observables]).tolist()  # group sizes
    spans = list(zip([0] + ends, ends))
    (means,) = served_means(model, ests, method, served)
    conditioned_draws = combined_threshold(
        model, est.event_threshold) is not None
    inner = mc.inner if method != "enumerate" else 0
    per_count = {}
    for c, cols in count_columns(est.counts):
        try:
            r, h, dbar = ratio_from_means(np.take(means, cols, axis=1), z)
        except EventMassTooSmall as e:
            per_count[c] = AcceptanceTooLow(str(e))
            continue
        per_count[c] = (cols, r, h, dbar if conditioned_draws else None)

    reports = []
    for o, event, (a, b) in zip(observables, events, spans):
        got = per_count[o.n + 1]
        if isinstance(got, AcceptanceTooLow):
            reports.append(got)
            continue
        cols, r, h, rate = got
        k = cols.index(a)
        reports.append(_gg_report(model, o, event, r[k : k + b - a],
                                  h[:, k : k + b - a], rate, inner, abs_tol, z))
    if single and isinstance(reports[0], AcceptanceTooLow):
        raise reports[0]
    return reports[0] if single else reports


def _gg_report(model, obs, event, r, h, rate, inner, abs_tol, z):
    """One observable's ResidualReport from its ratios r and influence
    values h, in the order of _gg_statistics."""
    n = obs.n
    M = h.shape[0]
    residual = float(r[0] - (r[1] * r[2]) / n - r[3:].sum() / n)
    h_resid = h[:, 0] - (r[2] * h[:, 1] + r[1] * h[:, 2]) / n \
        - h[:, 3:].sum(axis=1) / n
    se = influence_se(h_resid)
    lhs = EstimateReport(float(r[0]), influence_se(h[:, 0]), inner, M, rate)
    prod_h = (r[2] * h[:, 1] + r[1] * h[:, 2]) / n
    rhs = [EstimateReport(float(r[1] * r[2] / n), influence_se(prod_h),
                          inner, M, rate)]
    rhs += [EstimateReport(float(r[3 + i] / n), influence_se(h[:, 3 + i]) / n,
                           inner, M, rate) for i in range(n - 1)]
    passed = abs(residual) <= max(abs_tol, z * se)
    return ResidualReport(lhs, tuple(rhs), residual, se, bool(passed),
                          obs.observable_id(), model.model_id,
                          event.label() if event is not None else "", n)


@dataclass(frozen=True)
class MassReport:
    rows: tuple
    p_top: float
    passed: bool


def mass_estimates(model, n_max: int, mc: MCConfig, seed: int) -> list:
    """The one estimate of distinct_mass_check: no top-level ties among the
    first j of n_max replicas, j = 2 .. n_max, and the top level of R12."""
    model = as_model(model)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    K = model.grid.k
    stats = [Statistic(n_max).with_threshold(j, K - 1) for j in range(2, n_max + 1)]
    stats.append(Statistic(n_max).with_pattern(0, 1, K))
    return [Estimate(stats, n_max, mc, seed)]


def distinct_mass_check(model, n_max: int, mc: MCConfig, seed: int,
                        abs_tol: float = DEFAULT_ABS_TOL, z: float = DEFAULT_Z,
                        method: str = "mc", served=None) -> MassReport:
    """E<I(no top-level ties among n replicas)> against (1 - p_top)^(n-1).

    served, when given, holds the per-draw means of mass_estimates' list,
    in order, as sweep returns them; without it the check computes them.
    """
    model = as_model(model)
    ests = mass_estimates(model, n_max, mc, seed)
    (means,) = served_means(model, ests, method, served)
    r, h, _ = ratio_from_means(means, z)
    pbar = float(r[-1])
    rows = []
    all_pass = True
    for i, n in enumerate(range(2, n_max + 1)):
        abar = float(r[i])
        ref = (1.0 - pbar) ** (n - 1)
        residual = abar - ref
        h_resid = h[:, i] + (n - 1) * (1.0 - pbar) ** (n - 2) * h[:, -1]
        se = influence_se(h_resid)
        passed = abs(residual) <= z * se + abs_tol
        all_pass &= passed
        rows.append(CheckRow("mass", model.model_id, n, f"A_{n}",
                             abar, ref, float(residual), se, bool(passed)))
    return MassReport(tuple(rows), pbar, bool(all_pass))


def lemma1_estimates(model, f, n: int, mc: MCConfig, seed: int) -> list:
    """The one estimate of lemma1_check."""
    model = as_model(model)
    K = model.grid.k
    f_stat = _f_statistic("lemma1", model.grid, f, n)
    stats = [
        f_stat.with_threshold(n + 1, K - 1),
        f_stat.with_threshold(n, K - 1),
        Statistic(n + 1).with_pattern(0, 1, K),
    ]
    return [Estimate(stats, n + 1, mc, seed)]


def lemma1_check(model, f, n: int, mc: MCConfig, seed: int,
                 abs_tol: float = DEFAULT_ABS_TOL, z: float = DEFAULT_Z,
                 method: str = "mc", served=None) -> ResidualReport:
    """E<f I(distinct among n+1)> - (1 - p_top) E<f I(distinct among n)>.
    served is as in distinct_mass_check."""
    model = as_model(model)
    ests = lemma1_estimates(model, f, n, mc, seed)
    (means,) = served_means(model, ests, method, served)
    r, h, _ = ratio_from_means(means, z)
    ubar, vbar, pbar = (float(v) for v in r)
    residual = ubar - (1.0 - pbar) * vbar
    h_resid = h[:, 0] - (1.0 - pbar) * h[:, 1] + vbar * h[:, 2]
    se = influence_se(h_resid)
    M = means.shape[0]
    inner = mc.inner if method != "enumerate" else 0
    lhs = EstimateReport(ubar, influence_se(h[:, 0]), inner, M, None)
    rhs = (EstimateReport((1.0 - pbar) * vbar, influence_se(h[:, 1]), inner,
                          M, None),)
    passed = abs(residual) <= z * se + abs_tol
    return ResidualReport(lhs, rhs, float(residual), se, bool(passed),
                          f"lemma1:n={n}", model.model_id, "", n)


def consistency_estimates(model, f, n: int, mc: MCConfig, seed: int) -> list:
    """The one estimate of consistency_check."""
    model = as_model(model)
    f_stat = _f_statistic("consistency", model.grid, f, n)
    K = model.grid.k
    stats = [
        f_stat.with_threshold(n + 1, K - 1),
        Statistic(n + 1).with_threshold(n + 1, K - 1),
        f_stat.with_threshold(n, K - 1),
        Statistic(n + 1).with_threshold(n, K - 1),
    ]
    return [Estimate(stats, n + 1, mc, seed)]


def consistency_check(model, f, n: int, mc: MCConfig, seed: int,
                      abs_tol: float = DEFAULT_ABS_TOL, z: float = DEFAULT_Z,
                      method: str = "mc", served=None) -> ResidualReport:
    """Conditional expectations of f under distinctness at sizes n+1 and n.
    served is as in distinct_mass_check."""
    model = as_model(model)
    ests = consistency_estimates(model, f, n, mc, seed)
    (means,) = served_means(model, ests, method, served)
    r, h, _ = ratio_from_means(means, z)
    ubar, abar, vbar, bbar = (float(v) for v in r)
    se_a = influence_se(h[:, 1])
    se_b = influence_se(h[:, 3])
    M = means.shape[0]
    if abar <= 0.0 or bbar <= 0.0 or (M > 1 and (abar <= z * se_a
                                                 or bbar <= z * se_b)):
        raise EventMassTooSmall(
            f"event masses {abar:.3g}, {bbar:.3g} too close to zero")
    r1 = ubar / abar
    r2 = vbar / bbar
    residual = r1 - r2
    h_resid = (h[:, 0] - r1 * h[:, 1]) / abar - (h[:, 2] - r2 * h[:, 3]) / bbar
    se = influence_se(h_resid)
    inner = mc.inner if method != "enumerate" else 0
    lhs = EstimateReport(r1, 0.0, inner, M, abar)
    rhs = (EstimateReport(r2, 0.0, inner, M, bbar),)
    passed = abs(residual) <= z * se + abs_tol
    return ResidualReport(lhs, rhs, float(residual), se, bool(passed),
                          f"consistency:n={n}", model.model_id, "", n)


@dataclass(frozen=True)
class MarginalReport:
    rows: tuple
    acceptance_rate: Optional[float]
    passed: bool


def marginal_estimates(model, mc: MCConfig, seed: int) -> list:
    """The two estimates of conditional_marginal_check: the pair levels
    below the top on distinct pairs, and every pair level, each on its own
    stream."""
    model = as_model(model)
    grid_rule("marginal", model.grid)
    K = model.grid.k
    cond_stats = [Statistic(2).with_pattern(0, 1, l) for l in range(1, K)]
    full_stats = [Statistic(2).with_pattern(0, 1, l) for l in range(1, K + 1)]
    return [Estimate(cond_stats, 2, mc, derive_seed(seed, 1), K - 1),
            Estimate(full_stats, 2, mc, derive_seed(seed, 2))]


def conditional_marginal_check(model, mc: MCConfig, seed: int,
                               abs_tol: float = DEFAULT_ABS_TOL,
                               z: float = DEFAULT_Z,
                               method: str = "mc",
                               served=None) -> MarginalReport:
    """Distinct-pair level frequencies against p_l / (1 - p_top).

    The conditional side keeps only accepted (tie-free) pairs from its own
    draw stream; the reference side estimates the level probabilities on
    an independent stream, so the comparison exercises the conditioning
    machinery instead of reducing to an algebraic identity. served is as
    in distinct_mass_check.
    """
    model = as_model(model)
    ests = marginal_estimates(model, mc, seed)
    K = model.grid.k
    got = served_means(model, ests, method, served)
    rc, hc, rate = ratio_from_means(next(got), z)
    rf, hf, _ = ratio_from_means(next(got), z)
    ptop = float(rf[-1])
    rows = []
    all_pass = True
    for i, l in enumerate(range(1, K)):
        freq = float(rc[i])
        pl = float(rf[i])
        ref = pl / (1.0 - ptop)
        residual = freq - ref
        g = hf[:, i] / (1.0 - ptop) + pl * hf[:, -1] / (1.0 - ptop) ** 2
        se = float(np.hypot(influence_se(hc[:, i]), influence_se(g)))
        passed = abs(residual) <= z * se + abs_tol
        all_pass &= passed
        rows.append(CheckRow("marginal", model.model_id, 2, f"P(Q12=q{l})",
                             freq, ref, float(residual), se, bool(passed)))
    return MarginalReport(tuple(rows), rate, bool(all_pass))


@dataclass(frozen=True)
class SupportReport:
    max_deviation: float
    passed: bool

    def row(self, model_id: str) -> CheckRow:
        return CheckRow("support", model_id, None, "norm_sq-q_top",
                        self.max_deviation, 0.0, self.max_deviation, 0.0,
                        self.passed)


def support_check(measure: DiscreteMeasure) -> SupportReport:
    """Max deviation of atom squared norms from the top grid level."""
    mask = measure.weights > SUPPORT_WEIGHT_FLOOR
    dev = np.abs(measure.norms_sq[mask] - measure.grid.levels[-1])
    max_dev = float(dev.max()) if dev.size else 0.0
    return SupportReport(max_dev, bool(max_dev <= SUPPORT_TOL))


@dataclass(frozen=True)
class PositivityReport:
    min_overlap: float
    passed: bool

    def row(self, model_id: str) -> CheckRow:
        return CheckRow("positivity", model_id, 2, "min R12",
                        self.min_overlap, 0.0, min(self.min_overlap, 0.0),
                        0.0, self.passed)


def positivity_check(model, mc: MCConfig, seed: int) -> PositivityReport:
    """Minimum sampled two-replica overlap across all draws."""
    model = as_model(model)
    K = model.grid.k
    counts = np.zeros(K + 1, dtype=np.int64)
    for _, lv in filtered_level_batches(model, 2, mc, seed, key=0x90F):
        if len(lv):
            counts += np.bincount(lv[:, 0, 1], minlength=K + 1)
    # a descended model's grid gives levels 1..K the base's values
    values = model.grid.values_by_index()
    observed = [l for l in range(1, K + 1) if counts[l] > 0]
    if not observed:
        raise EventMassTooSmall("no pairs observed")
    min_overlap = float(min(values[l] for l in observed))
    return PositivityReport(min_overlap, bool(min_overlap >= -POSITIVITY_TOL))


@dataclass(frozen=True)
class UltraReport:
    triples_checked: int
    violations: int
    rate: float
    rate_se: float
    first_witness: Optional[tuple]
    passed: bool

    def row(self, model_id: str) -> CheckRow:
        return CheckRow("ultra", model_id, None, "triple min unique",
                        self.rate, 0.0, self.rate, self.rate_se,
                        self.passed)


def ultrametricity_check(model, mc: MCConfig, seed: int,
                         n: int = 8) -> UltraReport:
    """Triple violations over sampled matrices; passes only at zero."""
    model = as_model(model)
    total = 0
    bad = 0
    witness = None
    rates = []
    for _, lv in filtered_level_batches(model, n, mc, seed, key=0x3B1):
        if not len(lv):
            continue
        rep = check_ultrametric_batch(lv)
        total += rep.triples_checked
        bad += rep.violations
        rates.append(rep.violations / rep.triples_checked)
        if witness is None and rep.first_witness is not None:
            witness = rep.first_witness
    if total == 0:
        raise EventMassTooSmall("no matrices available for the triple scan")
    rate, rate_se = mean_and_se(np.asarray(rates))
    return UltraReport(total, bad, rate, rate_se, witness, bad == 0)

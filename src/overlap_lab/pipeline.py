"""The constructive induction: verify, condition, truncate, recurse.

Each level of the hierarchy gets four checks: the collision identity
(top level ties happen exactly on equal atoms), absence of top-level
ultrametricity violations, the conditioned identity residuals, and
positive semidefiniteness of truncated conditional samples. Passing
levels descend into the conditioned-truncated ensemble until one level
remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .eigen import is_psd_dense
from .errors import AcceptanceTooLow, EventMassTooSmall, NullConditioning
from .measures import DiscreteMeasure, derive_seed
from .models import DescendedModel, HeldModel, as_model
from .observables import ObservableSpec, Psi, Statistic
# perfbench/tracer.py wraps outer_stat_means and enumerate_statistics here
from .sampler import (Estimate, EventSpec, MCConfig, count_columns,
                      enumerate_statistics, filtered_level_batches,
                      influence_se, outer_stat_means, ratio_from_means)
from .verify import (DEFAULT_ABS_TOL, DEFAULT_Z, CheckRow, gg_residual,
                     grid_rule, served_means)


def collision_identity_check(measure: DiscreteMeasure):
    """Top-level entries occur exactly between equal replicas.

    Scans the full pair-level table (every atom pair with positive weight),
    which covers all outcomes a sampled check could reach: distinct atoms
    must not overlap at the top level, and every atom must collide with
    itself at it. On a tree, leaves sharing a depth-k code would collide.
    """
    if measure.tree is not None:
        leaf = measure.tree.codes[-1]
        same = np.flatnonzero(leaf == leaf[np.argmax(np.bincount(leaf)[leaf])])
        return (True, None) if len(same) < 2 else (False, tuple(same[:2].tolist()))
    K = measure.grid.k
    table = measure.table
    bad_diag = np.flatnonzero(np.diag(table) != K)
    if bad_diag.size:
        i = int(bad_diag[0])
        return False, (i, i)
    off = table == K
    off[np.diag_indices(measure.m)] = False
    hits = np.argwhere(off)
    if len(hits):
        i, j = (int(v) for v in hits[0])
        return False, (i, j)
    return True, None


@dataclass(frozen=True)
class LevelReport:
    level: int
    collision_identity_pass: bool
    ultra_violations_at_level: int
    conditioned_gg_pass: bool
    truncated_psd_pass: bool
    child: Optional["LevelReport"] = None
    details: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return (self.collision_identity_pass
                and self.ultra_violations_at_level == 0
                and self.conditioned_gg_pass and self.truncated_psd_pass)

    def rows(self, model_id: str) -> list:
        out = [
            CheckRow("descend/collision", model_id, self.level, "table scan",
                     1.0 if self.collision_identity_pass else 0.0, 1.0,
                     0.0 if self.collision_identity_pass else 1.0, 0.0,
                     self.collision_identity_pass),
            CheckRow("descend/ultra_at_level", model_id, self.level,
                     "top-level ties", float(self.ultra_violations_at_level),
                     0.0, float(self.ultra_violations_at_level), 0.0,
                     self.ultra_violations_at_level == 0),
            CheckRow("descend/conditioned_gg", model_id, self.level,
                     "max |residual|",
                     self.details.get("max_gg_residual", 0.0), 0.0,
                     self.details.get("max_gg_residual", 0.0),
                     self.details.get("max_gg_residual_se", 0.0),
                     self.conditioned_gg_pass),
            CheckRow("descend/truncated_psd", model_id, self.level,
                     "min eigenvalue",
                     self.details.get("min_eigenvalue", 0.0), 0.0,
                     min(self.details.get("min_eigenvalue", 0.0), 0.0), 0.0,
                     self.truncated_psd_pass),
        ]
        if self.child is not None:
            out.extend(self.child.rows(model_id))
        return out

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "collision_identity_pass": self.collision_identity_pass,
            "ultra_violations_at_level": self.ultra_violations_at_level,
            "conditioned_gg_pass": self.conditioned_gg_pass,
            "truncated_psd_pass": self.truncated_psd_pass,
            "details": self.details,
            "child": self.child.to_json_dict() if self.child else None,
        }


@dataclass(frozen=True)
class DescendConfig:
    n_condition: int = 4
    mc: MCConfig = field(default_factory=MCConfig)
    psd_outer: int = 50
    psd_inner: int = 20
    abs_tol: float = DEFAULT_ABS_TOL
    z: float = DEFAULT_Z
    force: bool = False
    method: str = "mc"


# Fixed at every level: a truncated sample fails the PSD check below
# -PSD_TOL, top-level ties are scanned on ULTRA_N replicas, and the
# conditioned identities are checked on LEVEL_OBSERVABLES.
PSD_TOL = 1e-8
ULTRA_N = 6
_PAT = (((1, 2), 1),)
LEVEL_OBSERVABLES = (ObservableSpec(2, Psi("monomial", 1), f_pattern=_PAT),
                     ObservableSpec(2, Psi("indicator", 1), f_pattern=_PAT),
                     ObservableSpec(3, Psi("monomial", 1), f_pattern=_PAT))


def descend(model, config: DescendConfig, seed: int) -> LevelReport:
    """Run every level check, recursing while levels pass (or force is set)."""
    # the root reads measure 0, and each level draws 0 .. mc.outer - 1 (its
    # scan and estimates) and 0 .. psd_outer - 1 (its PSD scan) again, so
    # those draws are built once and held for every level, as many of them
    # as models.HELD_BYTES holds
    model = HeldModel(as_model(model), max(config.mc.outer, config.psd_outer))
    return _descend_level(model, config, seed, is_root=True)


def _descend_level(model, config: DescendConfig, seed: int,
                   is_root: bool) -> LevelReport:
    K = model.grid.k
    details = {}

    if is_root:
        collision_pass, witness = collision_identity_check(model.measure_at(0))
        if witness is not None:
            details["collision_witness"] = list(witness)
    else:
        # the directing measure of a conditioned ensemble is not
        # reconstructed, so there is nothing to scan at inner levels
        collision_pass = True

    violations = 0
    for _, lv in filtered_level_batches(model, ULTRA_N, config.mc, seed,
                                        key=0xA11):
        violations += _kernels.top_tie_triples(lv, K)

    gg_pass = True
    worst = None
    skipped = 0
    if K >= 2:
        events = [EventSpec("A_n", obs.n + 1) for obs in LEVEL_OBSERVABLES]
        reps = gg_residual(model, LEVEL_OBSERVABLES, config.mc,
                           derive_seed(seed, 0x66), conditioned=events,
                           abs_tol=config.abs_tol, z=config.z,
                           method=config.method)
        # an observable whose event has no mass is vacuous here
        done = [rep for rep in reps if not isinstance(rep, AcceptanceTooLow)]
        skipped = len(reps) - len(done)
        gg_pass = all(rep.passed for rep in done)
        worst = max(done, key=lambda rep: abs(rep.residual), default=None)
    details["max_gg_residual"] = abs(worst.residual) if worst else 0.0
    details["max_gg_residual_se"] = worst.residual_se if worst else 0.0
    if skipped:
        details["gg_observables_skipped"] = skipped

    psd_pass = True
    min_eig = float("inf")
    psd_samples = 0
    if K >= 2:
        trunc_grid = model.grid.truncated()
        vals = trunc_grid.values_by_index()
        psd_mc = MCConfig(config.psd_outer, config.psd_inner)
        for _, lv in filtered_level_batches(model, config.n_condition, psd_mc,
                                            seed, event_threshold=K - 1,
                                            key=0xBD):
            for t in range(lv.shape[0]):
                dense = vals[lv[t]]
                _, lo = is_psd_dense(dense)
                min_eig = min(min_eig, lo)
                psd_samples += 1
                if lo < -PSD_TOL:
                    psd_pass = False
    details["min_eigenvalue"] = min_eig if min_eig != float("inf") else 0.0
    details["psd_samples"] = psd_samples

    report = LevelReport(K, bool(collision_pass), violations, bool(gg_pass),
                         bool(psd_pass), None, details)
    if K > 1 and (report.all_passed or config.force):
        report = replace(report, child=_descend_level(
            DescendedModel(model, 1), config, derive_seed(seed, 0xC41D),
            is_root=False))
    return report


# ---------------------------------------------------------------------------
# Threshold-conditioned criterion sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionReport:
    q: float
    B_descriptor: str
    p3: float
    sequence: tuple          # ((n, estimate, se), ...)
    z: float = DEFAULT_Z

    def rows(self, model_id: str) -> list:
        """One row per n; the rows for n > 3 pass when the estimate is
        within z combined standard errors of p3."""
        out = []
        p3_se = self.sequence[0][2]
        for n, est, se in self.sequence:
            comb = float(np.hypot(se, p3_se))
            out.append(CheckRow("criterion", model_id, n, self.B_descriptor,
                                est, self.p3, est - self.p3, comb,
                                abs(est - self.p3) <= self.z * comb
                                if n > 3 else True))
        return out

    @property
    def consistent_within_noise(self) -> bool:
        return all(row.passed for row in self.rows(""))

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "B": self.B_descriptor,
            "p3": self.p3,
            "sequence": [list(t) for t in self.sequence],
            "consistent_within_noise": self.consistent_within_noise,
        }


def _pattern_sets(B_patterns) -> list:
    """Each pattern set as a list of sorted level triples."""
    return [[tuple(sorted(int(v) for v in tri)) for tri in pat]
            for pat in B_patterns]


def criterion_estimates(model, q: float,
                        B_patterns: Sequence[Sequence[Sequence[int]]],
                        n_max: int, mc: MCConfig, seed: int) -> list:
    """The estimates of criterion_run: P(R12 < q), then the pattern sets on
    three below-q replicas, then, when n_max > 3, on the first n of n_max
    for n = 4..n_max. n = 3 is the reference of every later row, so it has
    its own stream; n = 4..n_max read the prefixes of one n_max-replica
    pass."""
    model = as_model(model)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    event = EventSpec("A_nq", 3, q)
    grid_rule("criterion", model.grid, patterns=B_patterns, events=[event])
    t = event.threshold(model.grid)
    triples = [tri for pat in _pattern_sets(B_patterns) for tri in pat]

    def pattern_stats(n):
        return [Statistic(n).with_sorted_triple(tri) for tri in triples]

    ests = [Estimate([Statistic(2).with_threshold(2, t)], 2, mc,
                     derive_seed(seed, 0xB0)),
            Estimate(pattern_stats(3), 3, mc, derive_seed(seed, 0xB1, 3), t)]
    if n_max > 3:
        ns = range(4, n_max + 1)
        ests.append(Estimate([st for n in ns for st in pattern_stats(n)],
                             n_max, mc, derive_seed(seed, 0xB2), t,
                             [n for n in ns for _ in triples]))
    return ests


def criterion_run(model, q: float, B_patterns: Sequence[Sequence[Sequence[int]]],
                  n_max: int, mc: MCConfig, seed: int,
                  z: float = DEFAULT_Z, method: str = "mc",
                  served=None) -> list:
    """Conditional triple-pattern probabilities for n = 3..n_max.

    Each pattern set is a list of sorted level triples; its probability is
    the chance the first three replicas of a below-q conditioned n-tuple
    show one of those triples (as an unordered multiset of levels).
    served is as in verify.distinct_mass_check.
    """
    model = as_model(model)
    ests = criterion_estimates(model, q, B_patterns, n_max, mc, seed)
    got = served_means(model, ests, method, served)
    means = next(got)
    try:
        r, h, _ = ratio_from_means(means, z)
    except EventMassTooSmall as e:
        raise NullConditioning(str(e)) from e
    p_below, p_se = float(r[0]), influence_se(h[:, 0])
    if p_below <= z * p_se or p_below <= 0.0:
        raise NullConditioning(
            f"P(R12 < {q}) = {p_below:.3g} within noise of zero")

    sets = _pattern_sets(B_patterns)
    offsets = np.cumsum([0] + [len(pat) for pat in sets]).tolist()

    def sequence_entry(r, h):
        return [(float(r[a:b].sum()), influence_se(h[:, a:b].sum(axis=1)))
                for a, b in zip(offsets, offsets[1:])]

    try:
        means = next(got)
        r, h, _ = ratio_from_means(means, z)
    except EventMassTooSmall as e:
        raise NullConditioning(
            f"no mass left for three below-q replicas: {e}") from e
    per_n = {3: sequence_entry(r, h)}
    if n_max > 3:
        means = next(got)
        for n, cols in count_columns(ests[2].counts):
            try:
                r, h, _ = ratio_from_means(np.take(means, cols, axis=1), z)
            except EventMassTooSmall:
                break  # sequence truncates where the event mass runs out
            per_n[n] = sequence_entry(r, h)

    reports = []
    for s, pat in enumerate(sets):
        descriptor = "B={" + ";".join(",".join(f"q{v}" for v in tri)
                                      for tri in pat) + "}"
        seq = tuple((n, per_n[n][s][0], per_n[n][s][1]) for n in sorted(per_n))
        reports.append(CriterionReport(float(q), descriptor, seq[0][1], seq, z))
    return reports

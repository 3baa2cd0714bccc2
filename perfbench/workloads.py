"""The benchmark's workloads: CLI invocations, their configs and what they reach.

Every config is generated from the benchmark seed, so one seed always gives
the same inputs; seed 0 gives the repository config files their own values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Invocation:
    """One `overlap-lab <command> <config>` call and how its outputs are judged.

    expect is "positive" (exit 0, every check passes), "negative" (exit 2
    with ultrametricity violations) or "exact" (exactly true rows hold, and
    every exact estimate matches the stored reference at the default seed).
    """

    label: str
    command: str
    config: Path
    jobs: int
    expect: str


@dataclass
class Workload:
    # one timed sample runs all of these; wall_s is their summed wall time
    timed: list
    # run once per benchmark run, untimed; reports must equal the timed ones
    untimed: list = field(default_factory=list)
    # span names the traced run must record on this workload
    reaches: frozenset = frozenset()


# Layers every workload goes through, whichever checks it runs.
COMMON_LAYERS = {
    "cli.build_model", "cli.report_io", "sampler.ratio_from_means",
    "observables.pack_statistics", "sampler.filtered_level_batches",
    "grid.check_ultrametric_batch", "kernels.ultra_full",
    "eigen.is_psd_dense", "kernels.jacobi_raw", "pipeline.descend",
    "pipeline.criterion_run", "verify.gg_residual",
    "verify.ultrametricity_check",
}
TREE_LAYERS = {
    "measures.TreeStructure", "measures.build_tree_measure",
    "measures.rng_from", "models.measure_at", "sampler.outer_stat_means",
    "kernels.eval_stats",
}
ALL_CHECK_FNS = {
    "verify.distinct_mass_check", "verify.lemma1_check",
    "verify.consistency_check", "verify.conditional_marginal_check",
    "verify.support_check", "verify.positivity_check",
}
ENUM_LAYERS = {"sampler.enumerate_statistics", "kernels.enum_stats"}


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1))
    return path


def tree_mc(root: Path, tmp: Path, seed: int) -> Workload:
    """configs/tree_k2.json: B=50, k=2, all ten checks, one thread.

    About 80% of this run is tree-measure construction and most of the rest
    is small eval_stats calls, so tree-measure and outer-loop changes show
    here.
    """
    cfg = json.loads((root / "configs" / "tree_k2.json").read_text())
    cfg["measure"]["seed"] += seed
    cfg["seed"] += seed
    path = _write(tmp / "tree_mc.json", cfg)
    return Workload(
        [Invocation("tree_k2", "run", path, 1, "positive")],
        reaches=frozenset(COMMON_LAYERS | TREE_LAYERS | ALL_CHECK_FNS))


CLUSTERS = 3
CLUSTER_SIZE = 4


def exact_measure(seed: int) -> dict:
    """Frozen ultrametric measure: 3 clusters of 4 unit atoms.

    Gram entries are 1 on the diagonal, 0.5 within a cluster and 0 across
    clusters, so every overlap sits on the grid (0, 0.5, 1). Atoms come
    from a Cholesky factor; weights are Dirichlet(1) draws from the seed.
    """
    m = CLUSTERS * CLUSTER_SIZE
    gram = np.zeros((m, m))
    for c in range(CLUSTERS):
        block = slice(c * CLUSTER_SIZE, (c + 1) * CLUSTER_SIZE)
        gram[block, block] = 0.5
    np.fill_diagonal(gram, 1.0)
    weights = np.random.default_rng(seed).dirichlet(np.ones(m))
    return {"type": "explicit",
            "grid": {"levels": [0.0, 0.5, 1.0], "self_overlap": 1.0},
            "atoms": np.linalg.cholesky(gram).tolist(),
            "weights": weights.tolist()}


def exact_config(seed: int) -> dict:
    patterns = [[[1, 1, 1]], [[1, 1, 2]], [[2, 2, 2]]]
    tol = 1e-12
    return {
        "measure": exact_measure(seed),
        "checks": [
            {"name": "gg", "observables": "default", "abs_tol": tol},
            {"name": "mass", "n_max": 6, "abs_tol": tol},
            {"name": "lemma1", "n": 2, "abs_tol": tol},
            {"name": "consistency", "n": 2, "abs_tol": tol},
            {"name": "marginal", "abs_tol": tol},
            {"name": "support"},
            {"name": "positivity", "mc": {"outer": 20, "inner": 50}},
            {"name": "ultra", "n": 8, "mc": {"outer": 50, "inner": 30}},
            {"name": "descend", "n_condition": 4, "psd_outer": 20,
             "psd_inner": 10, "abs_tol": tol},
            {"name": "criterion", "q": 0.6, "patterns": patterns,
             "n_max": 6, "abs_tol": tol},
        ],
        "seed": 11 + seed,
    }


def exact_oracle(root: Path, tmp: Path, seed: int) -> Workload:
    """Exact enumeration on a fixed measure, plus the negative control.

    No tree is built and no outer Monte Carlo loop runs, so tree-measure and
    outer-batching changes predict no move here; enumeration changes do.
    """
    exact = _write(tmp / "exact.json", exact_config(seed))
    adv = json.loads((root / "configs" / "adversarial.json").read_text())
    adv["seed"] += seed
    adversarial = _write(tmp / "adversarial.json", adv)
    return Workload(
        [Invocation("exact", "oracle", exact, 1, "exact"),
         Invocation("adversarial", "oracle", adversarial, 1, "negative")],
        reaches=frozenset(COMMON_LAYERS | ALL_CHECK_FNS | ENUM_LAYERS))


def deep_config(seed: int) -> dict:
    return {
        "measure": {"type": "tree", "branching": 12, "q": [0.3, 0.6, 0.9],
                    "zetas": [0.25, 0.5, 0.75], "seed": 3 + seed},
        "checks": [
            {"name": "descend", "n_condition": 5,
             "mc": {"outer": 40, "inner": 40}, "psd_outer": 12,
             "psd_inner": 8},
            {"name": "gg", "observables": "default",
             "conditioned": {"kind": "A_n"},
             "mc": {"outer": 50, "inner": 70}},
            {"name": "ultra", "n": 10, "mc": {"outer": 40, "inner": 15}},
            {"name": "criterion", "q": 0.7,
             "patterns": [[[1, 1, 1]], [[1, 1, 2]], [[2, 2, 2]]],
             "n_max": 5, "mc": {"outer": 80, "inner": 60}},
        ],
        "seed": 17 + seed,
    }


def deep_conditioned(root: Path, tmp: Path, seed: int) -> Workload:
    """Depth-3 tree under conditioning, across two worker threads.

    Rejection filtering over three descent levels, PSD scans, triple scans
    and the thread pool: the only workload where --jobs matters. The jobs=1
    run is untimed and only checks that reports do not depend on --jobs.
    """
    path = _write(tmp / "deep.json", deep_config(seed))
    return Workload(
        [Invocation("deep_jobs2", "run", path, 2, "positive")],
        untimed=[Invocation("deep_jobs1", "run", path, 1, "positive")],
        reaches=frozenset(COMMON_LAYERS | TREE_LAYERS))


# The workloads BENCHMARK.json lists, in its order.
WORKLOADS = {f.__name__: f for f in (tree_mc, exact_oracle)}
# Runnable by name but left out of BENCHMARK.json: a benchmark session makes
# 4 + 22 runs per workload within 3420 s, and with three workloads the runs
# are too short for steady tree_mc figures (see README.md).
EXTRA_WORKLOADS = {f.__name__: f for f in (deep_conditioned,)}

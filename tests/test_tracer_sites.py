"""Every lookup site the benchmark's tracer wraps still exists in the package.

The traced benchmark run (`perfbench/run.py --trace 1`) wraps each site of
`perfbench/tracer.ENTRY_POINTS` and fails when one is missing, so a rename or
a deleted import here would only show there. This resolves the sites without
installing any wrapper.
"""

import json

import numpy as np
import pytest

from perfbench_load import PERFBENCH, load

tracer = load("tracer")
SITES = [site for sites, *_ in tracer.ENTRY_POINTS for site in sites]


@pytest.mark.parametrize("site", SITES)
def test_entry_point_resolves(site):
    owner, leaf = tracer._resolve(site)
    assert callable(getattr(owner, leaf))


ROOT = PERFBENCH.parent
CLI_SITES = [site.split(":")[1] for site in SITES if site.startswith("cli:")]


def test_run_reaches_every_cli_site_through_module_globals(tmp_path,
                                                           monkeypatch):
    """The tracer wraps the cli sites as module attributes, so a run must
    look each one up there when it calls it: one that holds a function
    object captured at import would skip the wrapper."""
    from overlap_lab import cli

    calls = dict.fromkeys(CLI_SITES, 0)
    for leaf in CLI_SITES:
        def counting(*args, _leaf=leaf, _real=getattr(cli, leaf), **kwargs):
            calls[_leaf] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, leaf, counting)
    cfg = json.loads((ROOT / "configs" / "tree_k2.json").read_text())
    cfg["measure"]["branching"] = 8
    for chk in cfg["checks"]:
        if "mc" in chk:
            chk["mc"] = {"outer": 20, "inner": 20}
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert len(cfg["checks"]) == 10
    cli.main(["run", str(path)])
    assert sorted(CLI_SITES) == sorted(
        ["build_model", "criterion_run", "descend", "emit_plot_data",
         "write_rows_csv", *tracer.VERIFY_FNS])
    assert [leaf for leaf, n in calls.items() if n == 0] == []


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_config_validates(config):
    from overlap_lab.cli import main

    assert main(["validate", str(config)]) == 0


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_config_described(config, capsys):
    from overlap_lab.cli import main

    assert main(["describe-measure", str(config)]) == 0
    assert "\nlevel probs:  q1=" in capsys.readouterr().out


def test_enum_stats_counts_the_statistics_of_a_pack():
    """The tracer reads an enumeration's statistic count from the offsets
    that lead a pack_statistics pack."""
    from overlap_lab.observables import Statistic, pack_statistics

    stats = [Statistic(2).with_pattern(0, 1, 1), Statistic(2),
             Statistic(2).with_monomial(0, 1, 2)]
    n, table = 2, np.zeros((3, 3), dtype=np.int16)
    args = (np.ones(3) / 3, table, n, -1, np.zeros(2), pack_statistics(stats))
    per_tuple = 8 * n + table.itemsize * n * n + 8 + 8 * len(stats)
    assert tracer._enum_stats(args, {}, None) == {"tuples": 3 ** n,
                                                  "bytes": 3 ** n * per_tuple}

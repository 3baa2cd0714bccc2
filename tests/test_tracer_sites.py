"""Every lookup site the benchmark's tracer wraps still exists in the package.

The traced benchmark run (`perfbench/run.py --trace 1`) wraps each site of
`perfbench/tracer.ENTRY_POINTS` and fails when one is missing, so a rename or
a deleted import here would only show there. This resolves the sites without
installing any wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
SITES = [site for sites, *_ in tracer.ENTRY_POINTS for site in sites]


@pytest.mark.parametrize("site", SITES)
def test_entry_point_resolves(site):
    owner, leaf = tracer._resolve(site)
    assert callable(getattr(owner, leaf))

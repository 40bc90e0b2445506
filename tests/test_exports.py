"""Public names and the benchmark's tracing boundaries resolve.

perfbench/tracing.py wraps shgff functions by module attribute; a rename in
shgff that it does not follow would only show up when the benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

import shgff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve_once():
    assert len(shgff.__all__) == len(set(shgff.__all__))
    for name in shgff.__all__:
        assert hasattr(shgff, name), name


def test_tracing_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checked = 0
    for path, attr, _, _ in tracing.BOUNDARIES:
        mod, _, cls = path.partition(":")
        if not mod.startswith("shgff."):
            continue
        owner = importlib.import_module(mod)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{path}.{attr}"
        checked += 1
    assert checked > 0

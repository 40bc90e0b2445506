"""Public names and the benchmark's tracing boundaries resolve.

perfbench/tracing.py wraps shgff functions by module attribute; a rename in
shgff that it does not follow would only show up when the benchmark runs.
"""
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import shgff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve_once():
    assert len(shgff.__all__) == len(set(shgff.__all__))
    for name in shgff.__all__:
        assert hasattr(shgff, name), name


def test_each_input_is_said_once():
    # an alpha-type S-product is the one rule on the swapped words, every
    # expansion has one term count, and the K-transform takes its seed's model
    for fn in (shgff.s_product, shgff.term_count, shgff.k_transform):
        assert not {"side", "flavor", "params"} & set(inspect.signature(fn).parameters), fn


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


# Blocks scipy, then runs log G, a small interacting pairing and the
# specfun command; prints the scipy modules that got loaded anyway
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
import shgff, shgff.cli
from shgff.formfactor import ExponentialPn, KTransformProvider, OperatorSpec
from shgff.kernelalg import expand_direct, pair_numeric
p = shgff.ModelParams(b=0.25)
op = OperatorSpec("kt", 0.0, 0.0, 0.0, KTransformProvider(ExponentialPn(p, t=0.3), p))
assert np.isfinite(shgff.log_barnes_g(-2.5 + 0.5j))
assert np.isfinite(pair_numeric(expand_direct(1, 2), [0.4],
                                lambda bs: np.exp(-sum(b * b for b in bs)), op, p, nodes=16))
try:
    shgff.cli.main(["specfun", "--b", "0.3", "--beta", "0.5"])
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None))
"""


def test_runs_without_scipy():
    src = str(Path(shgff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]", out.stdout

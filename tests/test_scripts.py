"""The scripts in scripts/ run: each, on a small input, exits 0.

They call the library the way a user would, so a change of a public
signature that they use shows up here rather than at their next manual run.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shgff

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["ladder_scan.py", "--ladders", "2", "--nodes", "32"],
    ["two_point_bessel.py", "--nodes", "32", "--rho", "1.0"],
    ["min_ff_profile.py", "--n", "5"],
    ["blas_stall.py", "--repeats", "2"],
    ["src_lines.py"],
], ids=lambda argv: argv[0])
def test_script_runs(argv, tmp_path):
    src = str(Path(shgff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip(), "no output"

"""One set-up in a fresh interpreter: import shgff and build the benchmark's
operators. Prints the seconds that took. run.py starts this script several
times per invocation and reports the median as setup_s."""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shgff  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_operators()
print(time.perf_counter() - T0)

#!/usr/bin/env python3
"""Benchmark of the shgff library: three workloads against its public API.

    python3 perfbench/run.py --workload kt3pt --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; shgff is imported from ``src/`` next to this
directory, never from an installed copy. One process, one thread (BLAS and
OpenMP pinned to 1), a closed loop with one caller: each pass runs the
workload's operations one after the other, and passes repeat until the next
one would end after ``--seconds`` (at least one pass). When there is more
than one pass, the first is a warm-up and is left out of the statistics.

``--trace 0`` prints the end-to-end metrics: the median pass time
``solve_s``, the process's ``peak_rss_mb``, the median of several fresh-
interpreter set-ups ``setup_s`` and the count of failing edge probes
``probe_failures``. ``solve_s`` and ``setup_s`` are divided by the machine's
slowdown while they were measured, which reference kernels timed through the
run give (see calibration.py), so that they read in seconds at a nominal
machine speed. ``--trace 1`` runs a warm-up pass, one untraced and one
traced pass, and prints the per-layer metrics derived from the spans of the
traced pass.
Either way the last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people. See README.md in this directory for every metric.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_RUNS = 5
# reference-kernel samples taken after each set-up, while no child runs
SETUP_SAMPLES = 4
SETUP_TIMEOUT_S = 60


def _die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_shgff():
    """Put this checkout's src/ first on sys.path and import shgff from it."""
    if not (SRC / "shgff" / "__init__.py").is_file():
        _die(f"no shgff package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import shgff
    if Path(shgff.__file__).resolve().parent != SRC / "shgff":
        _die(f"imported shgff from {shgff.__file__}, not from {SRC}")


def measure_setup(cal):
    """Median wall seconds to import shgff and build the operators, each time
    in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, str(HERE / "setup_once.py")],
                             capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        times.append(float(out.stdout.split()[-1]))
        for _ in range(SETUP_SAMPLES):
            cal.sample()
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, and the worst oracle error seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.oracle_err = 0.0
        self.failures = []

    def run(self, label, fn, call=lambda f: f()):
        self.attempted += 1
        try:
            checks = call(fn)
        except Exception as exc:  # an operation that raises counts as failed
            self.failed += 1
            self.failures.append(f"{label}: raised {exc!r}")
            return
        for kind, err, tol in checks:
            if kind == "oracle":
                self.oracle_err = max(self.oracle_err, err)
        bad = [f"{kind} {err:.3e} > {tol:.0e}" for kind, err, tol in checks if not err <= tol]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: " + ", ".join(bad))


def one_pass(ops, tally, call=lambda f: f()):
    t0 = time.perf_counter()
    for label, fn in ops:
        tally.run(label, fn, call)
    return time.perf_counter() - t0


def timed_passes(ops, tally, seconds, cal):
    """Wall seconds of each pass, less the reference-kernel samples taken
    during it, and the same divided by the slowdown of those samples and of
    one taken right after the pass. Passes repeat until the next would end
    after `seconds`. The first pass in a process is slower (allocator and
    first-call costs), so it is dropped when later passes follow it."""
    walls, nominal = [], []
    start = time.perf_counter()
    with cal.sampling():
        while True:
            first, spent_s = len(cal.samples), cal.spent_s
            wall = one_pass(ops, tally) - (cal.spent_s - spent_s)
            cal.sample()
            walls.append(wall)
            nominal.append(wall / calibration.slowdown(cal.samples[first:]))
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                return walls[1:] or walls, nominal[1:] or nominal


def end_to_end(args, tally):
    import probes
    import workloads

    cal = calibration.Calibration()
    setup_wall_s = measure_setup(cal)
    setup_s = setup_wall_s / calibration.slowdown(cal.samples)
    params, operators = workloads.build_operators()
    ops = workloads.make(args.workload, args.seed, params, operators)
    walls, times = timed_passes(ops, tally, args.seconds, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failing = probes.run_probes(params, operators)

    def quartiles(v):
        return statistics.quantiles(v, n=4) if len(v) > 1 else v * 3

    q1, med, q3 = quartiles(times)
    print(f"# {args.workload} seed={args.seed}: solve_s median {med:.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s, {len(times)} timed passes of {len(ops)} operations")
    q1, wall, q3 = quartiles(walls)
    print(f"# wall time of a pass: median {wall:.4f} s, quartiles {q1:.4f} / {q3:.4f} s "
          f"(slowdown {wall / med:.4f}); set-up wall time {setup_wall_s:.4f} s "
          f"(slowdown {setup_wall_s / setup_s:.4f}); {len(cal.samples)} reference-kernel samples")
    print(f"# ops_failed {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f} ratio; check.oracle_err {tally.oracle_err:.3e}")
    print(f"# probe_failures {len(failing)} count: {', '.join(failing) or 'none'}")
    return {"solve_s": med, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s,
            "probe_failures": len(failing)}


def per_layer(args, tally):
    import probes
    import tracing
    import workloads

    params, operators = workloads.build_operators()
    ops = workloads.make(args.workload, args.seed, params, operators)
    # the first pass in a process is slower (allocator and first-call costs);
    # warm up so the untraced and traced passes compare like with like
    one_pass(ops, tally)
    untraced_s = one_pass(ops, tally)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_s = one_pass(ops, tally, call=tracer.operation)
    metrics = tracing.layer_metrics(tracer.spans, traced_s)
    metrics.update({
        "trace.solve_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "check.oracle_err": tally.oracle_err,
        "specfun.mpmath_err": probes.mpmath_err(params, args.seed),
    })
    print(f"# {args.workload} seed={args.seed}: untraced pass {untraced_s:.4f} s, "
          f"traced pass {traced_s:.4f} s, {len(tracer.spans)} spans, "
          f"{metrics['trace.attributed_share']:.4f} of it in named layers")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _import_shgff()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    # the metric names and units printed are the ones BENCHMARK.json declares
    spec = json.loads(SPEC.read_text())
    tally = Tally()
    if args.trace:
        values, declared = per_layer(args, tally), spec["per_layer"]
    else:
        values, declared = end_to_end(args, tally), spec["end_to_end"]
    for line in tally.failures:
        print(f"# FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the 3-point K-transform correlator (three K-transform operators at
b = 1/4, t = 0.3, at (0,1), (0,0), (0,-1), r = (1,1), tol = 1e-7: the
benchmark's kt3pt request) in two fresh processes: one without the BLAS
and OpenMP thread-count variables, so that the libraries pick their own
counts (unpinned), and one with them pinned to 1. Each process makes one
warm-up call of compute_W_r and prints the best of --repeats more. A large
gap between the two is the BLAS stall: numpy's BLAS threads, started for
the einsum contractions, spinning against the computing thread on a
machine with few cores."""
import argparse
import os
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def best_call_seconds(repeats: int) -> float:
    """The best of `repeats` timed kt3pt compute_W_r calls, after one warm-up."""
    from shgff import (
        CorrelatorRequest, ExponentialPn, KTransformProvider, ModelParams, OperatorSpec,
        SpacetimePoint, compute_W_r,
    )

    params = ModelParams(b=0.25)
    op = OperatorSpec("kt", 0.0, 0.0, 0.0,
                      KTransformProvider(ExponentialPn(params, t=0.3), params))
    req = CorrelatorRequest(params=params, operators=[op] * 3, r=(1, 1), tol=1e-7,
                            points=[SpacetimePoint(0.0, x1) for x1 in (1.0, 0.0, -1.0)])
    compute_W_r(req)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        compute_W_r(req)
        best = min(best, time.perf_counter() - t0)
    return best


def run_child(repeats: int, pinned: bool) -> float:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if pinned:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, __file__, "--repeats", str(repeats), "--child"],
                         env=env, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=15, help="timed calls per process")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.child:
        print(best_call_seconds(args.repeats))
        return
    unpinned = run_child(args.repeats, pinned=False)
    pinned = run_child(args.repeats, pinned=True)
    print(f"# kt3pt compute_W_r, best of {args.repeats} calls per process")
    print(f"unpinned: {1e3 * unpinned:.2f} ms")
    print(f"pinned:   {1e3 * pinned:.2f} ms")
    print(f"ratio:    {unpinned / pinned:.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Scan admissible contour ladders for a three-point truncated correlator and
report the spread of each composition integral (a direct check that the
shifted-contour representation is contour-independent)."""
import argparse
import dataclasses

import numpy as np

from shgff import (
    ContourLadder, CorrelatorRequest, ModelParams, SpacetimePoint, blocks,
    compute_I_n, enumerate_compositions, eta_max, load_operator,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", type=float, default=0.25)
    ap.add_argument("--ladders", type=int, default=5)
    ap.add_argument("--nodes", type=int, default=96)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = ModelParams(b=args.b)
    unit = load_operator({"name": "u", "provider": {"kind": "unit"}}, params)
    pts = [SpacetimePoint(0.0, 1.0), SpacetimePoint(0.0, 0.0),
           SpacetimePoint(0.0, -1.0)]
    req = CorrelatorRequest(params=params, operators=[unit] * 3, points=pts,
                            r=(1, 1), nodes=args.nodes, tol=1e-10)
    em = eta_max(params)
    rng = np.random.default_rng(args.seed)
    print(f"# b={args.b} eta_max={em:.6f} ladders={args.ladders}")
    for comp in enumerate_compositions(3, (1, 1)):
        vals = []
        for _ in range(args.ladders):
            fr = np.sort(rng.uniform(0.05, 0.95, len(blocks(3))))
            lad = ContourLadder({blk: em * f for blk, f in zip(blocks(3), fr)})
            val, err = compute_I_n(dataclasses.replace(req, ladder=lad), comp)
            vals.append(val)
            print(f"  n={comp.counts} eta={[f'{em*f:.4f}' for f in fr]} "
                  f"I_n={val:.15e} err={err:.1e}")
        spread = max(abs(v - vals[0]) for v in vals[1:])
        print(f"n={comp.counts} spread across ladders: {spread:.3e}")


if __name__ == "__main__":
    main()

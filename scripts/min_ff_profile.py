#!/usr/bin/env python3
"""Tabulate the two-body S-matrix and minimal form factor on a rapidity grid,
together with the Watson residual |F(beta)/F(-beta) - S(beta)|, which checks
the dual-exponent convention of min_form_factor. Optionally write a CSV.

With --time, print instead the cost of min_form_factor on the rapidities of
the 3-point K-transform correlator's composition (1,0,1) (default ladder,
L = 8) at 768 intervals per axis, four times finer than the 192 at which the
benchmark's kt3pt request (tol 1e-7) stops: per point, on calls of 100, 1175
and 8192 of its rapidities (the kernel pairing makes calls of 100 to 1175
points, and 8192 points are one chunk); evaluated on every point of the
dense mesh; and through the 1-D table of rapidity differences that the
correlator uses on its open mesh."""
import argparse
import time

import numpy as np

from shgff import ModelParams, eta_max, min_form_factor, s_matrix
from shgff.formfactor import _pair_tables


def _seconds(f, repeats=3):
    """Best of `repeats` timings of f()."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def time_grid(params: ModelParams, nodes: int = 768) -> None:
    em = eta_max(params)
    x = np.linspace(-8.0, 8.0, nodes + 1)
    # the form factor of the middle operator sees gamma_21 + i pi - gamma_32,
    # with the two contours at eta_max / 3 and 2 eta_max / 3
    g21, g32 = np.meshgrid(x + 1j * em / 3.0 + 1j * np.pi, x + 2j * em / 3.0,
                           indexing="ij", sparse=True)
    beta = g21 - g32
    print(f"# grid {beta.shape[0]}x{beta.shape[1]} = {beta.size} points, "
          f"b={params.b}, b_hat={params.b_hat}")
    for size in (100, 1175, 8192):
        part = beta.ravel()[:size]
        cost = _seconds(lambda: min_form_factor(part, params)) / size
        print(f"min_form_factor, {size}-point call: {1e6 * cost:.3f} us/point")
    dense = _seconds(lambda: min_form_factor(beta, params))
    table = _seconds(lambda: _pair_tables([(g21, g32)], lambda d: (min_form_factor(d, params),)))
    print(f"min_form_factor, dense mesh: {1e3 * dense:.2f} ms "
          f"({1e6 * dense / beta.size:.3f} us/point)")
    print(f"min_form_factor, difference table ({2 * nodes + 1} points): "
          f"{1e3 * table:.2f} ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", type=float, default=0.25)
    ap.add_argument("--beta-max", type=float, default=6.0)
    ap.add_argument("--n", type=int, default=25)
    ap.add_argument("--csv", type=str, default=None)
    ap.add_argument("--time", action="store_true",
                    help="time min_form_factor on the 3-point correlator's rapidities "
                         "at 768 intervals per axis")
    args = ap.parse_args()

    params = ModelParams(b=args.b)
    if args.time:
        time_grid(params)
        return
    beta = np.linspace(-args.beta_max, args.beta_max, args.n)
    s = s_matrix(beta, params)
    f = min_form_factor(beta, params)
    # F(0) = 0 makes the Watson quotient 0/0 at the origin; skip that node
    fm = min_form_factor(-beta, params)
    ok = np.abs(beta) > 1e-12
    watson = np.zeros_like(beta)
    watson[ok] = np.abs(f[ok] / fm[ok] - s[ok])

    rows = ["beta,re_S,im_S,re_F,im_F,watson_residual"]
    for i in range(args.n):
        rows.append(f"{beta[i]:.10e},{s[i].real:.16e},{s[i].imag:.16e},"
                    f"{f[i].real:.16e},{f[i].imag:.16e},{watson[i]:.3e}")
    text = "\n".join(rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text + "\n")
    print(text)
    print(f"# max Watson residual: {watson.max():.3e}")


if __name__ == "__main__":
    main()

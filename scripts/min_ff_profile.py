#!/usr/bin/env python3
"""Tabulate the two-body S-matrix and minimal form factor on a rapidity grid,
together with the Watson residual |F(beta)/F(-beta) - S(beta)| certifying the
Barnes-G construction. Optionally write a CSV.

With --time, print instead the cost per point of log_barnes_g and
min_form_factor on a 768 x 768 grid of rapidity differences shaped like the
largest grid of the 3-point K-transform correlator (composition (1,0,1) on the
default ladder, L = 8)."""
import argparse
import time

import numpy as np
from scipy.special import roots_legendre

from shgff import ModelParams, eta_max, log_barnes_g, min_form_factor, s_matrix


def _us_per_point(f, size, repeats=3):
    """Best of `repeats` timings of f(), in microseconds per point."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / size


def time_grid(params: ModelParams, nodes: int = 768) -> None:
    em = eta_max(params)
    x = 8.0 * roots_legendre(nodes)[0]
    # the form factor of the middle operator sees gamma_21 + i pi - gamma_32,
    # with the two contours at eta_max / 3 and 2 eta_max / 3
    g21, g32 = np.meshgrid(x + 1j * em / 3.0, x + 2j * em / 3.0, indexing="ij")
    beta = g21 + 1j * np.pi - g32
    z = 1j * beta / (2.0 * np.pi)
    arg = 1.0 - params.b - z
    print(f"# grid {nodes}x{nodes} = {beta.size} points, b={params.b}, "
          f"b_hat={params.b_hat}")
    print(f"log_barnes_g: {_us_per_point(lambda: log_barnes_g(arg), beta.size):.3f} "
          "us/point")
    print(f"min_form_factor: "
          f"{_us_per_point(lambda: min_form_factor(beta, params), beta.size):.3f} us/point")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", type=float, default=0.25)
    ap.add_argument("--beta-max", type=float, default=6.0)
    ap.add_argument("--n", type=int, default=25)
    ap.add_argument("--csv", type=str, default=None)
    ap.add_argument("--time", action="store_true",
                    help="print us per point on a 768^2 correlator-shaped grid")
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

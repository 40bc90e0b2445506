"""Checks that run once per invocation, outside the timed passes.

Edge probes: inputs at the edge of the supported region. A probe passes if
shgff returns a finite value whose claimed error covers its distance to the
oracle (or, without an oracle, a claimed error within the requested
tolerance), or if it refuses the input with a ValueError. A wrong answer
with a small error bar, or any other exception, is a failure. No probe runs
a composition with three or more variables: such grids outgrow the memory of
a small machine.

Accuracy guard: log_barnes_g against mpmath at 30 digits on the arguments
that min_form_factor builds for rapidities in the range the workloads visit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import k0

import shgff.correlator as C
import shgff.formfactor as F
import shgff.specfun as S

GUARD_POINTS = 64


def _near_light_cone(params, ops):
    """Two-point function at a separation of proper length 0.0447."""
    x0 = 0.999
    req = C.CorrelatorRequest(params=params, operators=[ops["unit"]] * 2,
                              points=[C.SpacetimePoint(x0, 1.0), C.SpacetimePoint(0.0, 0.0)],
                              r=(1,))
    res = C.compute_W_r(req)
    want = k0(math.sqrt(1.0 - x0 * x0)) / math.pi
    return np.isfinite(res.value) and abs(res.value - want) <= max(res.error, req.tol)


def _smeared_three_point(params, ops):
    """Unit three-point function against Gaussians of width 0.3."""
    centres = [(0.0, 1.5), (0.0, 0.0), (0.0, -1.5)]
    req = C.CorrelatorRequest(params=params, operators=[ops["unit"]] * 3,
                              points=[C.SpacetimePoint(*c) for c in centres], r=(1, 1))
    smear = [C.GaussianSmearing(c, (0.3, 0.3)) for c in centres]
    res = C.smeared_correlator(req, smear)
    return np.isfinite(res.value) and res.error <= req.tol


def _residue_near_pole(params, ops):
    """Axiom check whose first sample puts beta_1 within 1.4e-3 of beta0,
    inside both residue circles; the K-transform form factor satisfies the
    residue axiom there as everywhere else."""
    rep = F.verify_axioms(ops["kt"], params, 1, samples=1, seed=248)
    return rep.residue <= 1e-6


PROBES = (("near_light_cone", _near_light_cone),
          ("smeared_three_point", _smeared_three_point),
          ("residue_near_pole", _residue_near_pole))


def run_probes(params, ops):
    """Names of the probes that fail."""
    failed = []
    for name, probe in PROBES:
        try:
            with np.errstate(all="ignore"):
                ok = probe(params, ops)
        except ValueError:
            ok = True
        except Exception:  # any other exception is what the probe looks for
            ok = False
        if not ok:
            failed.append(name)
    return failed


def mpmath_err(params, seed):
    """Largest relative error of G(z) = exp(log_barnes_g(z)) against mpmath
    over the distinct Barnes-G arguments of GUARD_POINTS seeded
    min_form_factor rapidities, Re beta in [-16, 16], Im beta in [0, pi]."""
    import mpmath

    rng = np.random.default_rng([seed, 99])
    beta = rng.uniform(-16.0, 16.0, GUARD_POINTS) + 1j * rng.uniform(0.0, math.pi, GUARD_POINTS)
    z = 1j * beta / (2.0 * np.pi)
    args = []
    for e in dict.fromkeys((params.b, params.b_hat)):
        args += [1.0 - e - z, 2.0 - e + z, 1.0 + e + z, e - z]
    args = np.concatenate(args)
    ours = np.exp(S.log_barnes_g(args))
    worst = 0.0
    with mpmath.workdps(30):
        for a, got in zip(args, ours):
            want = mpmath.barnesg(mpmath.mpc(a.real, a.imag))
            worst = max(worst, float(abs(mpmath.mpc(got.real, got.imag) - want) / abs(want)))
    return worst

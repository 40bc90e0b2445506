"""The benchmark's three workloads: inputs drawn from a seed, the operations
that call the public shgff API, and the oracle each operation is checked
against.

Every call into shgff goes through a module attribute (``C.compute_W_r``,
``K.pair_numeric`` ...) looked up at call time, so the tracing wrappers that
``tracing.py`` installs on those attributes see it.

An operation returns a list of checks ``(kind, err, tol)``. ``kind`` is
``"oracle"`` for a distance to an oracle and ``"estimate"`` for an error
estimate returned by shgff against the tolerance it was asked for. An
operation fails if it raises or if any of its checks has ``err > tol``.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import k0

import shgff.correlator as C
import shgff.formfactor as F
import shgff.kernelalg as K
import shgff.specfun as S

B_COUPLING = 0.25
KT_T = 0.3
THETA_MAX = 0.3
# W for three K-transform operators at (0,1),(0,0),(0,-1), r=(1,1), from the
# t=2 representation at theta = 0; boosts leave it unchanged.
KT3PT_ORACLE = 0.002841140569647
UNIT_DOC = {"name": "u", "omega": 0.0, "spin": 0.0, "growth": 0.0,
            "provider": {"kind": "unit"}}


def build_operators():
    """Model parameters and the operators every workload uses. Building the
    K-transform operator evaluates min_form_factor(i pi) in ExponentialPn."""
    params = S.ModelParams(b=B_COUPLING)
    kt = F.OperatorSpec("kt", 0.0, 0.0, 0.0,
                        F.KTransformProvider(F.ExponentialPn(params, t=KT_T), params))
    unit = F.load_operator(UNIT_DOC, params)
    return params, {"kt": kt, "unit": unit}


def boosted(xy, theta):
    """SpacetimePoints for (x0, x1) pairs under a Lorentz boost of rapidity theta."""
    ch, sh = math.cosh(theta), math.sinh(theta)
    return [C.SpacetimePoint(x0 * ch + x1 * sh, x0 * sh + x1 * ch) for x0, x1 in xy]


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


def kt3pt(rng, params, ops):
    theta = rng.uniform(-THETA_MAX, THETA_MAX)
    pts = boosted([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], theta)

    def w_r():
        req = C.CorrelatorRequest(params=params, operators=[ops["kt"]] * 3,
                                  points=pts, r=(1, 1), tol=1e-7)
        res = C.compute_W_r(req)
        return [("estimate", res.error, req.tol),
                ("oracle", abs(res.value - KT3PT_ORACLE) / KT3PT_ORACLE, 1e-6)]

    return [("W_r", w_r)]


def _gaussian_test(bs):
    return np.exp(-0.5 * sum((b - 0.3) ** 2 for b in bs))


def kernel_pair(rng, params, ops):
    kt = ops["kt"]

    def flavours(n, m, alpha):
        def op():
            al = [alpha]
            d = K.pair_numeric(K.expand_direct(n, m), al, _gaussian_test, kt, params, nodes=96)
            u = K.pair_numeric(K.expand_dual(n, m), al, _gaussian_test, kt, params, nodes=96)
            mx = K.pair_numeric(K.expand_mixed(n, m, ()), al, _gaussian_test, kt, params,
                                nodes=96)
            return [("oracle", abs(u - d) / max(1.0, abs(d)), 1e-6),
                    ("oracle", abs(mx - d) / max(1.0, abs(d)), 1e-6)]
        return op

    def covariance(al):
        def op():
            kern = K.expand_direct(2, 1)
            base = K.pair_numeric(kern, al, _gaussian_test, kt, params, nodes=48)
            swap = K.pair_numeric(kern, [al[1], al[0]], _gaussian_test, kt, params, nodes=48)
            want = S.s_matrix(al[1] - al[0], params) * swap
            return [("oracle", abs(base - want) / max(1.0, abs(base)), 1e-8)]
        return op

    a11, a12 = rng.uniform(-0.5, 0.5, size=2)
    a21 = list(rng.uniform(-0.5, 0.5, size=2))
    return [("pair_1_1", flavours(1, 1, a11)), ("pair_1_2", flavours(1, 2, a12)),
            ("covariance_2_1", covariance(a21))]


def corr_unit(rng, params, ops):
    theta = rng.uniform(-THETA_MAX, THETA_MAX)
    unit = ops["unit"]

    def request(xy, r, **kw):
        return C.CorrelatorRequest(params=params, operators=[unit] * len(xy),
                                   points=boosted(xy, theta), r=r, **kw)

    def two_point(rho, r):
        def op():
            req = request([(0.0, rho), (0.0, 0.0)], (r,), nodes=96, tol=1e-10)
            res = C.compute_W_r(req)
            want = k0(rho) / np.pi if r == 1 else k0(rho) ** 2 / (2 * np.pi ** 2)
            return [("estimate", res.error, req.tol),
                    ("oracle", abs(res.value - want), 1e-8)]
        return op

    def three_point():
        req = request([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1), nodes=96, tol=1e-10)
        plain = C.compute_W_r(req)
        mixed = C.compute_W_r_mixed(req, 2)
        return [("estimate", plain.error, req.tol), ("estimate", mixed.error, req.tol),
                ("oracle", _rel(mixed.value, plain.value), 1e-8)]

    def smeared():
        xy = [(0.0, 1.0), (0.0, 0.0)]
        req = request(xy, (1,), nodes=96, tol=1e-10)
        smear = [C.GaussianSmearing((p.x0, p.x1), (0.3, 0.3)) for p in req.points]
        res = C.smeared_correlator(req, smear)
        return [("estimate", res.error, req.tol)]

    ops_ = [(f"two_point_r{r}_rho{rho}", two_point(rho, r))
            for r in (1, 2) for rho in (0.5, 1.0, 2.0)]
    return ops_ + [("three_point_t2", three_point), ("smeared_two_point", smeared)]


WORKLOADS = ("kt3pt", "kernel_pair", "corr_unit")


def make(name, seed, params, ops):
    """The named workload's operations, as (label, callable) pairs, with
    inputs drawn from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "kt3pt":
        return kt3pt(rng, params, ops)
    if name == "kernel_pair":
        return kernel_pair(rng, params, ops)
    return corr_unit(rng, params, ops)

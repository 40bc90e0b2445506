"""Top-level acceptance suite: one test (one pass/fail line under pytest -v)
per advertised numerical guarantee, each at its stated tolerance."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.special import k0, loggamma

from shgff.combin import (
    CompositionVector, blocks, cauchy_decomposition, chain_decomposition,
    enumerate_compositions,
)
from shgff.correlator import (
    ContourLadder, CorrelatorRequest, SpacetimePoint, compute_I_n,
    compute_W_r, compute_W_r_mixed, eta_max,
)
from shgff.formfactor import (
    ExponentialPn, FixtureUnitProvider, KTransformProvider, OperatorSpec,
    load_operator, verify_axioms,
)
from shgff.kernelalg import expand_direct, expand_dual, expand_mixed, pair_numeric
from shgff.specfun import ModelParams, log_barnes_g, min_form_factor, s_matrix

P = ModelParams(b=0.25)
P_GEN = ModelParams(b=0.3)
KT_OP = OperatorSpec("kt", 0.0, 0.0, 0.0,
                     KTransformProvider(ExponentialPn(P, t=0.3), P))
UNIT_DOC = {"name": "u", "omega": 0.0, "spin": 0.0, "growth": 0.0,
            "provider": {"kind": "unit"}}


def test_criterion_01_s_matrix_unitarity_crossing():
    rng = np.random.default_rng(1)
    beta = rng.uniform(-5, 5, 1000) + 1j * rng.uniform(0.05, np.pi - 0.05, 1000)
    s = s_matrix(beta, P_GEN)
    assert np.max(np.abs(s * s_matrix(-beta, P_GEN) - 1.0)) < 1e-12
    assert np.max(np.abs(s_matrix(1j * np.pi - beta, P_GEN) - s)) < 1e-12
    assert s_matrix(0.0, P_GEN) == -1.0


def test_criterion_02_barnes_functional_equation():
    radii = np.geomspace(0.5, 40.0, 30)
    phases = np.exp(1j * np.linspace(-2.9, 2.9, 21))
    z = np.outer(radii, phases).ravel()
    lhs = log_barnes_g(z + 1.0)
    # scipy's log Gamma, which shares no formula with log_barnes_g
    rhs = loggamma(z) + log_barnes_g(z)
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)) < 1e-10
    assert abs(np.exp(log_barnes_g(1.0)) - 1.0) < 1e-12
    assert abs(np.exp(log_barnes_g(2.0)) - 1.0) < 1e-12


def test_criterion_03_minimal_form_factor():
    assert abs(min_form_factor(0.0, P_GEN)) < 1e-12
    d30 = abs(min_form_factor(30.0, P_GEN) - 1.0)
    d60 = abs(min_form_factor(60.0, P_GEN) - 1.0)
    assert d30 < 0.1
    # defect shrinks at least inverse-linearly when gamma doubles
    # (factor-2 band around the 1/gamma rate); when both defects sit at the
    # double-precision noise floor the band is vacuously satisfied
    assert 1.0 <= d30 / max(d60, 1e-300) <= 4.0 or max(d30, d60) < 1e-10
    # Watson relation certifies the dual-exponent convention
    rng = np.random.default_rng(3)
    beta = rng.uniform(-4, 4, 100)
    assert np.max(np.abs(min_form_factor(beta, P_GEN)
                         / min_form_factor(-beta, P_GEN)
                         - s_matrix(beta, P_GEN))) < 1e-9


def test_criterion_04_cauchy_decomposition():
    rng = np.random.default_rng(4)
    for M in range(4):
        for N in range(4):
            for _ in range(100 // 4):
                a = rng.uniform(-2, 2, M) + 1j * rng.uniform(-2, 2, M)
                b = rng.uniform(-2, 2, N) + 1j * rng.uniform(-2, 2, N)
                lhs, rhs, _ = cauchy_decomposition(a, b)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _site_matchings(a_cands, b_cands):
    out = [()]
    for size in range(1, min(len(a_cands), len(b_cands)) + 1):
        for asel in itertools.combinations(a_cands, size):
            for bsel in itertools.permutations(b_cands, size):
                out.append(tuple(zip(asel, bsel)))
    return out


def test_criterion_05_chain_decomposition_exhaustive():
    for k in (2, 3, 4):
        blks = blocks(k)
        for occupied in itertools.product((0, 1), repeat=len(blks)):
            vars_ = [((b, a), 0) for (b, a), occ in zip(blks, occupied) if occ]
            sites = list(range(2, k))
            site_opts = [
                _site_matchings([v for v in vars_ if v[0][0] == p],
                                [v for v in vars_ if v[0][1] == p])
                for p in sites]
            for combo in itertools.product(*site_opts):
                srcs = [u for m in combo for (u, _) in m]
                tgts = [v for m in combo for (_, v) in m]
                if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
                    continue
                pairings = {p: tuple(zip(*m)) if m else ((), ())
                            for p, m in zip(sites, combo)}
                chains = chain_decomposition(pairings)
                got = sorted(f for c in chains for f in c.factors())
                want = sorted((u, v, p)
                              for p, m in zip(sites, combo) for (u, v) in m)
                assert got == want
                seen = [v for c in chains for v in c.variables]
                assert len(seen) == len(set(seen))


def test_criterion_06_composition_enumeration():
    for k in (2, 3, 4):
        nblk = len(blocks(k))
        for r in itertools.product(range(4), repeat=k - 1):
            want = sorted(
                counts for counts in itertools.product(range(4), repeat=nblk)
                if CompositionVector(k, counts).crossing_ranks() == r)
            got = [cv.counts for cv in enumerate_compositions(k, r)]
            assert got == want


def test_criterion_07_bootstrap_axioms():
    # interacting operator built through the signed binary-label transform
    for n in range(4):
        rep = verify_axioms(KT_OP, P, n, samples=4, seed=7)
        assert rep.exchange < 1e-8
        assert rep.periodicity < 1e-8
        assert rep.residue < 1e-6
        assert rep.boost < 1e-10
    # constant amplitudes at the free point
    p0 = ModelParams(b=0.0)
    free = OperatorSpec("free", 0.0, 0.0, 0.0, FixtureUnitProvider())
    for n in range(4):
        rep = verify_axioms(free, p0, n, samples=4, seed=7)
        assert rep.exchange < 1e-8
        assert rep.periodicity < 1e-8
        assert rep.residue < 1e-6
        assert rep.boost < 1e-10


def test_criterion_08_kernel_pairing_equivalences():
    test = lambda bs: np.exp(-0.5 * sum((b - 0.3) ** 2 for b in bs))
    # constant amplitudes at the free point: all four sizes, every flavor
    p0 = ModelParams(b=0.0)
    fix = load_operator(
        {"name": "fix",
         "provider": {"kind": "exponential-like",
                      "coefficients": [1.0, 0.7, 1.3, 0.9, 1.1, 0.8]}}, p0)
    for (n, m) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        al = [0.4, -0.7][:n]
        vals = [pair_numeric(expand_direct(n, m), al, test, fix, p0, nodes=48),
                pair_numeric(expand_dual(n, m), al, test, fix, p0, nodes=48),
                pair_numeric(expand_mixed(n, m, ()), al, test, fix, p0, nodes=48),
                pair_numeric(expand_mixed(n, m, tuple(range(n))), al, test,
                             fix, p0, nodes=48)]
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-6 * max(1.0, abs(vals[0]))
    # interacting operator with kinematic poles handled in the regulator limit
    for (n, m) in [(1, 1), (1, 2)]:
        al = [0.4][:n]
        d = pair_numeric(expand_direct(n, m), al, test, KT_OP, P, nodes=96)
        u = pair_numeric(expand_dual(n, m), al, test, KT_OP, P, nodes=96)
        mx = pair_numeric(expand_mixed(n, m, ()), al, test, KT_OP, P, nodes=96)
        assert abs(u - d) < 1e-6 * max(1.0, abs(d))
        assert abs(mx - d) < 1e-6 * max(1.0, abs(d))
    # exchange covariance of the pairing in the alpha arguments
    al = [0.4, -0.7]
    base = pair_numeric(expand_direct(2, 1), al, test, KT_OP, P, nodes=48)
    swap = pair_numeric(expand_direct(2, 1), [al[1], al[0]], test, KT_OP, P,
                        nodes=48)
    assert abs(base - s_matrix(al[1] - al[0], P) * swap) \
        < 1e-8 * max(1.0, abs(base))


def _unit_req(points, r, **kw):
    ops = [load_operator(UNIT_DOC, P) for _ in points]
    return CorrelatorRequest(params=P, operators=ops,
                             points=[SpacetimePoint(*xy) for xy in points],
                             r=r, **kw)


def test_criterion_09_two_point_bessel_oracle():
    for rho in (0.5, 1.0, 2.0):
        req = _unit_req([(0.0, rho), (0.0, 0.0)], (1,), nodes=96, tol=1e-10)
        assert abs(compute_W_r(req).value - k0(rho) / np.pi) < 1e-8
    req = _unit_req([(0.0, 1.0), (0.0, 0.0)], (2,), nodes=96, tol=1e-10)
    assert abs(compute_W_r(req).value - k0(1.0) ** 2 / (2 * np.pi ** 2)) < 1e-7


def test_criterion_10_contour_ladder_invariance():
    req = _unit_req([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1),
                    nodes=96, tol=1e-10)
    em = eta_max(P)
    rng = np.random.default_rng(10)
    for comp in enumerate_compositions(3, (1, 1)):
        vals = []
        for _ in range(5):
            fr = np.sort(rng.uniform(0.05, 0.95, len(blocks(3))))
            lad = ContourLadder({blk: em * f for blk, f in zip(blocks(3), fr)})
            val, _ = compute_I_n(dataclasses.replace(req, ladder=lad), comp)
            vals.append(val)
        spread = max(abs(v - vals[0]) for v in vals[1:])
        assert spread < 1e-8 * max(1.0, abs(vals[0]))


def test_criterion_11_representation_cross_check():
    ops = [KT_OP] * 3
    pts = [SpacetimePoint(0.0, 1.0), SpacetimePoint(0.0, 0.0),
           SpacetimePoint(0.0, -1.0)]
    req = CorrelatorRequest(params=P, operators=ops, points=pts, r=(1, 1),
                            tol=1e-7)
    base = compute_W_r(req).value
    for t in (1, 2, 3):
        vt = compute_W_r_mixed(req, t).value
        assert abs(vt - base) < 1e-6 * max(1.0, abs(base))


def test_criterion_12_symmetries():
    v1 = compute_W_r(_unit_req([(0.0, 1.0), (0.0, 0.0)], (1,), tol=1e-10)).value
    v2 = compute_W_r(_unit_req([(0.4, 1.3), (0.4, 0.3)], (1,), tol=1e-10)).value
    assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))
    th = 0.35
    boost = np.array([[math.cosh(th), math.sinh(th)],
                      [math.sinh(th), math.cosh(th)]])
    y1, y2 = boost @ np.array([0.0, 1.0]), boost @ np.array([0.0, 0.0])
    v3 = compute_W_r(_unit_req([tuple(y1), tuple(y2)], (1,), tol=1e-10)).value
    assert abs(v3 - v1) < 1e-7 * max(1.0, abs(v1))

"""Truncated correlators: Bessel oracle, contour invariance, symmetries."""
import dataclasses
import itertools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import k0

import shgff.correlator
import shgff.formfactor
from shgff.combin import (
    CompositionVector, _operator_word, _scattering_pairs, blocks, enumerate_compositions,
)
from shgff.correlator import (
    ContourLadder, CorrelatorRequest, GaussianSmearing, RegionError, SpacetimePoint, _contours,
    _quad_tensor, check_region, compute_I_n, compute_W_r, compute_W_r_mixed, integrand,
    smeared_correlator,
)
from shgff.formfactor import (
    ExponentialPn, FormFactorProvider, KTransformProvider, OperatorSpec, _difference_lattice,
    _open_axis, load_operator,
)
from shgff.ladder import _clearances, _occupied, _spread_ladder, default_ladder, eta_max
from shgff.specfun import ModelParams

P = ModelParams(b=0.25)
UNIT = {"name": "u", "omega": 0.0, "spin": 0.0, "growth": 0.0,
        "provider": {"kind": "unit"}}
KT = OperatorSpec("kt", 0.0, 0.0, 0.0, KTransformProvider(ExponentialPn(P, t=0.3), P))
# the K-transform three-point function at (0,1), (0,0), (0,-1), r=(1,1): the W
# of its default grid with every F_min taken from mpmath at 30 digits; runs at
# L = 8, 10 and 12 and on two other ladders agree on it to 1.2e-17
KT3PT_W = 0.0028411405696464696


def _unit_ops(k):
    return [load_operator(UNIT, P) for _ in range(k)]


def _req(points, r, ops=None, **kw):
    ops = ops or _unit_ops(len(points))
    pts = [SpacetimePoint(*xy) for xy in points]
    return CorrelatorRequest(params=P, operators=ops, points=pts, r=r, **kw)


# ---------------------------------------------------------------------------
# region and ladder admissibility
# ---------------------------------------------------------------------------

def test_check_region():
    assert check_region([SpacetimePoint(0, 1), SpacetimePoint(0, 0)])
    # wrong spatial ordering
    assert not check_region([SpacetimePoint(0, 0), SpacetimePoint(0, 1)])
    # time-like separation
    assert not check_region([SpacetimePoint(2.0, 1.0), SpacetimePoint(0, 0)])


def test_eta_max_positive_inside_coupling_range():
    assert eta_max(ModelParams(b=0.25)) > 0
    assert eta_max(ModelParams(b=0.05)) > 0
    assert eta_max(ModelParams(b=0.0)) > 0


def test_ladder_validation():
    comp = CompositionVector(3, (1, 1, 0))
    good = ContourLadder({(2, 1): 0.1, (3, 1): 0.2, (3, 2): 0.0})
    good.validate(comp)  # (3,2) unoccupied, ordering holds on occupied blocks
    bad = ContourLadder({(2, 1): 0.2, (3, 1): 0.1, (3, 2): 0.0})
    with pytest.raises(ValueError):
        bad.validate(comp)
    # a ladder is its shifts alone; the blocks a composition occupies decide what it needs
    ContourLadder({(2, 1): 0.1}).validate(CompositionVector(2, (1,)))
    assert [f.name for f in dataclasses.fields(ContourLadder)] == ["eta"]


@pytest.mark.parametrize("eta, message", [
    # a KeyError before
    ({(2, 1): 0.1}, r"ladder has no shift for occupied block \(3, 1\)"),
    # outside the plane waves' strip of decay: W = 6.6e98 at 3.3, nan at 4
    ({(2, 1): 0.1, (3, 1): np.pi}, r"eta=3.14\d* must be below pi"),
    ({(2, 1): 3.3, (3, 1): 4.0}, "eta=3.3 must be below pi"),
])
def test_ladder_refuses_a_missing_shift_or_one_outside_the_strip(eta, message):
    comp = CompositionVector(3, (1, 1, 0))
    with pytest.raises(ValueError, match=message):
        ContourLadder(eta).validate(comp)
    req = _req(X3, (1, 1), ladder=ContourLadder(eta))
    with pytest.raises(ValueError, match=message):
        compute_I_n(req, comp)


def test_default_ladder_is_admissible():
    comp = CompositionVector(3, (1, 2, 1))
    lad = default_ladder(comp, P)
    lad.validate(comp)
    assert max(lad.eta.values()) <= eta_max(P) + 1e-15


def test_default_ladder_at_half_coupling_names_the_cause():
    comp = CompositionVector(2, (1,))
    with pytest.raises(ValueError, match="eta_max = 0 at b = 1/2"):
        default_ladder(comp, ModelParams(b=0.5))
    with pytest.raises(ValueError, match="no admissible contour ladder"):
        compute_W_r(CorrelatorRequest(
            params=ModelParams(b=0.5), operators=_unit_ops(2),
            points=[SpacetimePoint(0, 1), SpacetimePoint(0, 0)], r=(1,)))


def test_region_violation_raises():
    with pytest.raises(ValueError):
        _req([(0.0, 0.0), (0.0, 1.0)], (1,))


def test_region_violation_is_a_region_error():
    # library callers that catch ValueError keep catching it; the request
    # refuses the points when it is built
    with pytest.raises(RegionError, match="space-like separated") as info:
        _req([(0.0, 0.0), (0.0, 1.0)], (1,))
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("points", [
    [(0.0, 0.0), (0.0, 1.0)],                 # wrong spatial order
    [(2.0, 1.0), (0.0, 0.0)],                 # time-like
    [(1.0, 1.0), (0.0, 0.0)],                 # light-like
    [(0.0, 1.0), (0.0, 0.0), (0.0, 0.5)],
])
def test_region_refusal_runs_no_quadrature(points, monkeypatch):
    monkeypatch.setattr(shgff.correlator, "_quad_tensor", None)
    with pytest.raises(RegionError, match="space-like separated"):
        _req(points, (1,) * (len(points) - 1))


# ---------------------------------------------------------------------------
# Bessel oracle (two-point function of the identity-normalized fixture)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_two_point_single_particle_bessel(rho):
    req = _req([(0.0, rho), (0.0, 0.0)], (1,), nodes=96, tol=1e-10)
    res = compute_W_r(req)
    want = k0(rho) / np.pi
    assert abs(res.value - want) < 1e-8
    assert abs(res.value.imag) < 1e-10


def test_two_point_near_light_cone():
    # proper separation 0.0447 at separation rapidity artanh(0.999) = 3.8: the
    # contour is centred there, not at 0, so the window [-L, L] holds the peak
    req = _req([(0.999, 1.0), (0.0, 0.0)], (1,))
    want = k0(np.sqrt(1.0 - 0.999 ** 2)) / np.pi
    assert abs(compute_W_r(req).value - want) < 1e-7


def test_two_point_truncation_error_is_estimated():
    # near the light cone the plane wave decays like exp(-rho sin(eta) cosh t):
    # on default_ladder's contour, eta = eta_max / 2, at L = 8 the tails
    # beyond +-L are 7.9e-9, above tol
    want = k0(np.sqrt(1.0 - 0.999 ** 2)) / np.pi
    low = ContourLadder({(2, 1): eta_max(P) / 2})
    res = compute_W_r(_req([(0.999, 1.0), (0.0, 0.0)], (1,), ladder=low))
    assert abs(res.value - want) <= res.error
    assert res.converged is False
    res = compute_W_r(_req([(0.999, 1.0), (0.0, 0.0)], (1,), ladder=low, L=10.0))
    assert res.converged is True
    assert abs(res.value - want) < 1e-12


def test_two_point_near_light_cone_error_covers_the_rounding():
    # on the contour eta = pi / 2 two levels agree to the last bit, so the
    # claimed error is the rounding floor eps * int |f|, which must still
    # cover the distance to K0(rho) / pi
    with mpmath.workdps(30):
        rho = mpmath.sqrt(1 - mpmath.mpf(0.999) ** 2)
        want = complex(mpmath.besselk(0, rho) / mpmath.pi)
    res = compute_W_r(_req([(0.999, 1.0), (0.0, 0.0)], (1,)))
    assert res.converged is True
    assert abs(res.value - want) <= res.error < 1e-14
    # the integrand is positive there, so int |f| is 2 pi W
    assert res.error >= 0.99 * np.finfo(float).eps * abs(res.value)


def test_two_point_two_particle_factorizes():
    rho = 1.0
    req = _req([(0.0, rho), (0.0, 0.0)], (2,), nodes=96, tol=1e-10)
    res = compute_W_r(req)
    want = k0(rho) ** 2 / (2.0 * np.pi ** 2)
    assert abs(res.value - want) < 1e-7


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nodes", [8, 16, 24, 32])
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_two_particle_error_covers_the_bessel_oracle(rho, nodes, tol):
    # the two variables of block (2,1) sit a quarter of the coarse step apart
    # on the even points of each grid: the refinement estimate must still
    # cover the true error
    res = compute_W_r(_req([(0.0, rho), (0.0, 0.0)], (2,), nodes=nodes, tol=tol))
    assert res.converged is True
    assert abs(res.value - k0(rho) ** 2 / (2.0 * np.pi ** 2)) <= res.error


def test_massive_two_point_scales_with_mass():
    pm = ModelParams(b=0.25, mass=1.7)
    ops = [load_operator(UNIT, pm) for _ in range(2)]
    req = CorrelatorRequest(params=pm, operators=ops,
                            points=[SpacetimePoint(0, 1.0), SpacetimePoint(0, 0)],
                            r=(1,), nodes=96, tol=1e-10)
    assert abs(compute_W_r(req).value - k0(1.7) / np.pi) < 1e-8


# ---------------------------------------------------------------------------
# contour-ladder invariance
# ---------------------------------------------------------------------------

def test_ladder_invariance_three_point():
    req = _req([(0.0, 2.0), (0.0, 1.0), (0.0, 0.0)], (1, 1), nodes=96, tol=1e-10)
    comp = CompositionVector(3, (1, 0, 1))
    em = eta_max(P)
    vals = []
    for (e1, e2) in [(0.2, 0.8), (0.4, 0.6), (0.1, 0.95)]:
        lad = ContourLadder({(2, 1): e1 * em, (3, 1): 0.0, (3, 2): e2 * em})
        val, _ = compute_I_n(dataclasses.replace(req, ladder=lad), comp)
        vals.append(val)
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-9 * max(1.0, abs(vals[0]))


# ---------------------------------------------------------------------------
# ladders placed per composition
# ---------------------------------------------------------------------------

def _clearance(req, comp, ladder):
    """The distance from the contours of an equally spaced ladder to the
    nearest singularity of the composition's integrand."""
    slope, offset = np.array(_clearances(req, comp)).T
    return np.min(slope * min(e for e in ladder.eta.values() if e > 0) + offset)


def _kt_ops(params, k):
    op = OperatorSpec("kt", 0.0, 0.0, 0.0,
                      KTransformProvider(ExponentialPn(params, t=0.3), params))
    return [op] * k


def test_kt3pt_ladders_keep_pi_over_3_from_every_singularity():
    # (1,0,1): the legs need 0 < eta < pi, and the middle operator's F_2 is
    # singular where pi + eta21 - eta32 meets pi Z; (0,1,0): the legs only
    req = _req(X3, (1, 1), ops=[KT] * 3)
    comp = CompositionVector(3, (1, 0, 1))
    lad = _spread_ladder(req, comp)
    assert lad.eta == pytest.approx({(2, 1): np.pi / 3, (3, 1): 0.0, (3, 2): 2 * np.pi / 3},
                                    rel=1e-14)
    assert _clearance(req, comp, lad) == pytest.approx(np.pi / 3, rel=1e-14)
    assert _clearance(req, comp, default_ladder(comp, P)) == pytest.approx(
        eta_max(P) / 3, rel=1e-14)
    comp = CompositionVector(3, (0, 1, 0))
    assert _spread_ladder(req, comp).eta[(3, 1)] == pytest.approx(np.pi / 2, rel=1e-14)


def _array_clearances(request, comp):
    """ladder._clearances on numpy arrays, the reference for its float form."""
    params = request.params
    rank = {blk: i for i, blk in enumerate(_occupied(comp), start=1)}
    n = np.arange(-2, 3)
    s_poles = np.concatenate([2.0 * np.pi * (n - params.b), np.pi + 2.0 * np.pi * (n + params.b)])
    f_poles = np.concatenate([np.pi * np.arange(-4, 5)] + [
        2.0 * np.pi * np.concatenate([-(c + n[2:]), 1.0 + c + n[2:]])
        for c in (params.b, params.b_hat)])
    diffs = [(i, 0.0, np.array([0.0, np.pi])) for i in rank.values()]
    diffs += [(rank[u] - rank[v], 0.0, s_poles)
              for u, v in _scattering_pairs(request.k, request.mixed_t)
              if u in rank and v in rank]
    for p, op in enumerate(request.operators, start=1):
        if not op.provider.pole_free:
            word = [(blk, shift) for blk, shift in _operator_word(request.k, p, request.mixed_t)
                    if blk in rank]
            diffs += [(rank[u] - rank[v], su - sv, f_poles)
                      for (u, su), (v, sv) in itertools.combinations(word, 2)]
    rows = set()
    for slope, start, values in diffs:
        gap = values - start
        at = np.abs(gap) < 1e-12
        below = gap[(gap < 0) & ~at | at & (slope > 0)].max()
        above = gap[(gap > 0) & ~at | at & (slope < 0)].min()
        rows |= {(slope, -below), (-slope, above)}
    return np.array(sorted(rows), dtype=float).reshape(-1, 2)


def _array_spread_ladder(request, comp):
    """ladder._spread_ladder on numpy arrays, the reference for its float form."""
    ladder = default_ladder(comp, request.params)
    rows = _array_clearances(request, comp)
    if not rows.size:
        return ladder
    slope, offset = rows.T
    falls = slope < 0
    cell = np.min(offset[falls] / -slope[falls])
    run = slope - slope[:, None]
    cross = np.divide(offset[:, None] - offset, run, out=np.zeros_like(run), where=run != 0)
    steps = np.append(cross[(cross > 0) & (cross < cell)], cell)
    step = float(steps[np.argmax(np.min(slope[:, None] * steps + offset[:, None], axis=0))])
    return ContourLadder({**ladder.eta, **{blk: i * step for i, blk in
                                           enumerate(_occupied(comp), start=1)}})


@pytest.mark.parametrize("b", [0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5])
def test_float_ladder_is_the_array_ladder_bit_for_bit(b):
    # every composition of every r up to (3,), (2, 2) and (1, 2, 1), with
    # pole-free operators and operators with poles, in every representation;
    # at b = 1/2 both refuse with default_ladder's ValueError. The ladder reads
    # only whether a provider is pole-free, so a provider with poles and no
    # model (ExponentialPn is singular at b = 0 and 1/2) stands for every b
    params = ModelParams(b=b)
    poles = OperatorSpec("poles", 0.0, 0.0, 0.0, FormFactorProvider())
    assert not poles.provider.pole_free
    for points, top in ((X3[:2], (3,)), (X3, (2, 2)), (X4, (1, 2, 1))):
        for op in (load_operator(UNIT, params), poles):
            req = CorrelatorRequest(params=params, operators=[op] * len(points), r=top,
                                    points=[SpacetimePoint(*xy) for xy in points])
            for mixed_t in (None,) + tuple(range(1, req.k + 1)):
                req_t = dataclasses.replace(req, mixed_t=mixed_t)
                for r in itertools.product(*(range(t + 1) for t in top)):
                    for comp in enumerate_compositions(req.k, r):
                        rows = _array_clearances(req_t, comp)
                        assert (np.array(_clearances(req_t, comp)).reshape(-1, 2)
                                == rows).all(), (mixed_t, comp)
                        if b == 0.5 and _occupied(comp):
                            for spread in (_spread_ladder, _array_spread_ladder):
                                with pytest.raises(ValueError, match="eta_max = 0 at b = 1/2"):
                                    spread(req_t, comp)
                        else:
                            assert (_spread_ladder(req_t, comp).eta
                                    == _array_spread_ladder(req_t, comp).eta), (mixed_t, comp)


@pytest.mark.parametrize("b", [0.05, 0.25, 0.45])
def test_spread_ladder_is_never_closer_than_the_default(b):
    params = ModelParams(b=b)
    cases = [(X3, (1, 1), _kt_ops(params, 3)), (X3, (2, 2), None),
             (X4, (1, 1, 1), None), (X4, (1, 2, 1), None), (X4, (1, 1, 1), _kt_ops(params, 4))]
    for points, r, ops in cases:
        ops = ops or [load_operator(UNIT, params) for _ in points]
        req = CorrelatorRequest(params=params, operators=ops, r=r,
                                points=[SpacetimePoint(*xy) for xy in points])
        for mixed_t in (None,) + tuple(range(1, req.k + 1)):
            req_t = dataclasses.replace(req, mixed_t=mixed_t)
            for comp in enumerate_compositions(req.k, r):
                lad = _spread_ladder(req_t, comp)
                lad.validate(comp)
                base = _clearance(req_t, comp, default_ladder(comp, params))
                assert 0.0 < base <= _clearance(req_t, comp, lad), (r, mixed_t, comp)


@pytest.mark.parametrize("case", ["kt3pt", "unit3_r11", "unit3_r22", "unit4_r111",
                                  "unit4_r121"])
def test_spread_ladder_matches_the_default_ladder(case):
    # each composition on its own ladder against default_ladder on grids of
    # up to 1536 intervals, within the sum of the two claimed errors
    points, r, ops = {"kt3pt": (X3, (1, 1), [KT] * 3), "unit3_r11": (X3, (1, 1), None),
                      "unit3_r22": (X3, (2, 2), None), "unit4_r111": (X4, (1, 1, 1), None),
                      "unit4_r121": (X4, (1, 2, 1), None)}[case]
    req = _req(points, r, ops=ops, nodes=96, max_nodes=1536, tol=1e-10)
    for comp in enumerate_compositions(req.k, r):
        val, err = compute_I_n(req, comp)
        ref, ref_err = compute_I_n(dataclasses.replace(req, ladder=default_ladder(comp, P)),
                                   comp)
        assert abs(val - ref) <= err + ref_err, comp
        assert err < 1e-9, comp


@pytest.mark.parametrize("b", [0.05, 0.45])
def test_t_forms_near_the_free_and_half_couplings(b):
    # the compensating S-factors of the t-form have poles at -2 pi b and
    # pi + 2 pi b: a ladder spread over the legs' strip alone crosses them
    # and returns W = 0.00647 with an error of 1e-11 at t = 3, where
    # default_ladder's value is 0.00307
    params = ModelParams(b=b)
    req = CorrelatorRequest(params=params, operators=[load_operator(UNIT, params)] * 4,
                            points=[SpacetimePoint(*xy) for xy in X4], r=(1, 2, 1),
                            nodes=48, max_nodes=768, tol=1e-9)
    for t in (1, 2, 3, 4):
        got = compute_W_r_mixed(req, t)
        req_t = dataclasses.replace(req, mixed_t=t)
        ref, ref_err = 0.0, 0.0
        for comp, _, _, ph in got.breakdown:
            val, err = compute_I_n(
                dataclasses.replace(req_t, ladder=default_ladder(comp, params)), comp)
            weight = ph / (comp.factorial_weight() * (2.0 * np.pi) ** comp.total)
            ref, ref_err = ref + weight * val, ref_err + abs(weight) * err
        assert got.converged is True
        assert ref_err < 1e-4
        assert abs(got.value - ref) <= got.error + ref_err, t


def test_k_transform_four_point_function_agrees_in_every_form_and_frame():
    # r = (1, 1, 1): its compositions carry none, one and, at n_21 = n_32 =
    # n_43 = 1, two factors of several axes (the F_2 of operators 2 and 3),
    # so every branch of _contract runs. The plain form, each t-form and a
    # boost by 0.3 agree to about 1e-15; W = 0.000789286238889401, error 1.9e-11
    def request(theta):
        ch, sh = np.cosh(theta), np.sinh(theta)
        return _req([(x0 * ch + x1 * sh, x0 * sh + x1 * ch) for x0, x1 in X4], (1, 1, 1),
                    ops=[KT] * 4, L=5.0, nodes=32, max_nodes=128, tol=1e-9)
    req = request(0.0)
    plain = compute_W_r(req)
    assert plain.converged is True
    for res in [compute_W_r_mixed(req, t) for t in (1, 2, 3, 4)] + [compute_W_r(request(0.3))]:
        assert abs(res.value - plain.value) <= 1e-12 * abs(plain.value)


def test_k_transform_four_point_r121_t_form_agrees_with_the_plain_form():
    # the bootstrap identity on r = (1, 2, 1), whose composition (2, 0, 2)
    # contracts four variables in one einsum: plain W = 2.140837442847e-4,
    # error 2.4e-10; the t = 2 form lands 3.3e-15 away and claims 1.1e-8
    req = _req(X4, (1, 2, 1), ops=[KT] * 4, L=5.0, nodes=32, max_nodes=64, tol=1e-8)
    plain = compute_W_r(req)
    assert plain.converged is True
    mixed = compute_W_r_mixed(req, 2)
    assert abs(mixed.value - plain.value) <= plain.error + mixed.error


def test_k_transform_three_point_r22_t_forms_agree_with_the_plain_form():
    # on r = (2, 2) the outer t-forms share the plain form's integrands (they
    # print its bits); the middle one lands 2.3e-7 away and claims 2.8e-4
    req = _req(X3, (2, 2), ops=[KT] * 3, L=5.0, nodes=16, max_nodes=32, tol=1e-8)
    plain = compute_W_r(req)
    for t in (1, 3):
        assert abs(compute_W_r_mixed(req, t).value - plain.value) <= 1e-13 * abs(plain.value)
    mixed = compute_W_r_mixed(req, 2)
    assert abs(mixed.value - plain.value) <= plain.error + mixed.error


def test_four_point_unit_correlator_converges():
    req = _req(X4, (1, 1, 1), nodes=48, max_nodes=768, tol=1e-9)
    res = compute_W_r(req)
    assert res.converged is True
    (val, err), = [(val, err) for comp, val, err, _ in res.breakdown
                   if comp.total == 1 and comp.as_dict()[(4, 1)] == 1]
    # one variable between the outer operators, 3 apart: int exp(-3 cosh t) dt
    assert abs(val - 2.0 * k0(3.0)) <= max(err, 1e-15 * k0(3.0))


def test_two_variables_of_one_block_never_coincide():
    # both variables of block (2,1) share a contour; their grids are offset by
    # half a step, so F_2 is never evaluated at equal rapidities
    for theta in (0.0, 0.2):
        ch, sh = np.cosh(theta), np.sinh(theta)
        req = _req([(sh, ch), (0.0, 0.0)], (2,), ops=[KT, KT], tol=1e-10)
        res = compute_W_r(req)
        assert res.converged is True
        assert abs(res.value - 0.02573654637525) < 1e-12
        vals = [compute_I_n(dataclasses.replace(
                    req, ladder=ContourLadder({(2, 1): f * eta_max(P)})),
                    CompositionVector(2, (2,)))
                for f in (0.3, 0.9)]
        assert all(err < 1e-10 for _, err in vals)
        assert abs(vals[0][0] - vals[1][0]) < 1e-12 * abs(vals[0][0])


@pytest.mark.parametrize("tol", [1e-7, 1e-10])
def test_kt3pt_error_is_within_100_times_its_oracle_distance(tol):
    # the floor counted min_form_factor's rounding for F_0 and F_1 too, which
    # evaluate none: the error was 3.58e-14, 105.8 times the 3.39e-16 distance
    req = _req(X3, (1, 1), ops=[KT] * 3, tol=tol)
    for res in (compute_W_r(req), compute_W_r_mixed(req, 2)):
        assert abs(res.value - KT3PT_W) <= res.error <= 100 * abs(res.value - KT3PT_W)


def test_kt3pt_matches_refined_oracle():
    req = _req([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1), ops=[KT] * 3,
               tol=1e-10)
    for res in (compute_W_r(req), compute_W_r_mixed(req, 2)):
        assert res.converged is True
        assert abs(res.value - KT3PT_W) < 1e-12 * KT3PT_W
        # min_form_factor's own rounding (KTransformProvider.rounding) is in the
        # floor: with a few ulps per factor alone the error was 3.07e-16
        # (3.04e-16 at t = 2), 3.39e-16 from the oracle
        assert abs(res.value - KT3PT_W) <= res.error < 1e-13


@pytest.mark.parametrize("L", [400.0, 700.0])
def test_kt3pt_on_wide_contours_is_finite(L):
    # the differences of the contours reach about 2 L: past |Re d| = 710 the
    # K-transform's pair factors were NaN, and the request was refused with
    # "I_n = (nan+nanj) ... overflows the double range"
    res = compute_W_r(_req(X3, (1, 1), ops=[KT] * 3, L=L, nodes=96, max_nodes=192))
    assert np.isfinite(res.value) and np.isfinite(res.error)
    assert abs(res.value - KT3PT_W) <= res.error


def test_min_form_factor_sees_one_line_per_grid(monkeypatch):
    # composition (1,0,1): the middle operator's F_2 pairs the two variables;
    # its min_form_factor runs on the 4N + 1 differences of the one 2N grid,
    # not the (2N + 1)^2 mesh
    seen = []
    original = shgff.formfactor.min_form_factor
    monkeypatch.setattr(shgff.formfactor, "min_form_factor",
                        lambda z, p: seen.append(np.size(z)) or original(z, p))
    comp = CompositionVector(3, (1, 0, 1))
    for nodes in (48, 96):
        req = _req([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1), ops=[KT] * 3,
                   nodes=nodes, max_nodes=2 * nodes)
        seen.clear()
        compute_I_n(req, comp)
        assert sum(seen) == 4 * nodes + 1


def test_k_transform_sees_only_difference_tables(monkeypatch):
    # composition (1,0,1): the middle operator's F_2 runs its label sum on the
    # 1-D table of the 4N + 1 differences of its two variables, never on a
    # (2N + 1)^2 plane; the outer operators' F_1 runs on the single difference 0
    shapes = []
    original = shgff.formfactor._label_sum
    monkeypatch.setattr(shgff.formfactor, "_label_sum",
                        lambda p, b, pair: shapes.append(np.broadcast(*b).shape)
                        or original(p, b, pair))
    comp = CompositionVector(3, (1, 0, 1))
    for nodes in (48, 96):
        req = _req([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1), ops=[KT] * 3,
                   nodes=nodes, max_nodes=2 * nodes)
        shapes.clear()
        compute_I_n(req, comp)
        grids = [(4 * nodes + 1,)]
        assert sorted(s for s in shapes if s) == grids
        assert len(shapes) == 3 * len(grids)


def test_a_converged_two_level_run_builds_its_factors_once(monkeypatch):
    # the coarse level is read off the even points of the 2N grid, so a
    # composition that converges there evaluates its integrand's factors once
    calls = []
    factors = shgff.correlator._factors
    monkeypatch.setattr(shgff.correlator, "_factors",
                        lambda *a: calls.append(a) or factors(*a))
    req = _req(X3, (1, 1), ops=[KT] * 3, tol=1e-7)
    for comp in enumerate_compositions(3, (1, 1)):
        calls.clear()
        _, err = compute_I_n(req, comp)
        assert err <= req.tol
        assert len(calls) == 1


def test_coarse_level_is_the_rule_on_the_even_points():
    # kt3pt's (1,0,1): one variable per block, so the even points of the 2N
    # grid are the N grid, and the coarse value is the N-interval rule
    req = _req(X3, (1, 1), ops=[KT] * 3, tol=1e-7)
    comp = CompositionVector(3, (1, 0, 1))
    contours = _contours(req, comp)
    value, _, _, coarse = _quad_tensor(req, comp, contours, 2 * req.nodes)
    assert compute_I_n(req, comp)[0] == value
    want = _quad_tensor(req, comp, contours, req.nodes)[0]
    assert abs(coarse - want) <= 1e-14 * abs(want)


def test_scattering_factors_on_the_open_mesh_match_the_dense_mesh():
    # k = 4, composition (3,1) + (4,2): the interleaved factor S(g42 - g31)
    req = _req([(0.0, 1.5), (0.0, 0.5), (0.0, -0.5), (0.0, -1.5)], (1, 2, 1))
    comp = CompositionVector(4, (0, 1, 0, 0, 1, 0))
    x = np.linspace(-3.0, 3.0, 61)
    mesh = np.meshgrid(x + 0.1j, x + 0.25j, indexing="ij", sparse=True)
    dense = np.broadcast_arrays(*mesh)
    vals = []
    for g31, g42 in (mesh, dense):
        gamma = {blk: [] for blk in comp.as_dict()}
        gamma[(3, 1)], gamma[(4, 2)] = [g31], [g42]
        vals.append(integrand(req, comp, gamma))
    assert np.max(np.abs(vals[0] - vals[1]) / np.abs(vals[1])) < 1e-13


def test_every_s_factor_of_a_grid_comes_from_one_s_matrix_call(monkeypatch):
    # k = 4 in the t = 2 form, composition (3,1) + (4,2): the pairs S(g42 - g31)
    # of the plain word and S(g31 - g42) of the compensating one reach s_matrix
    # together, each as its lattice of 2 * nodes + 1 differences
    seen = []
    original = shgff.correlator.s_matrix
    monkeypatch.setattr(shgff.correlator, "s_matrix",
                        lambda d, p: seen.append(np.shape(d)) or original(d, p))
    req = _req(X4, (1, 2, 1), mixed_t=2, nodes=16)
    comp = CompositionVector(4, (0, 1, 0, 0, 1, 0))
    for nodes in (32, 64):
        seen.clear()
        _quad_tensor(req, comp, _contours(req, comp), nodes)
        assert seen == [(2 * (2 * nodes + 1),)]


def _dense_quad(req, comp, nodes, gamma):
    """The trapezoid value, tail estimate and integral of |integrand| from
    the integrand broadcast to the full (nodes + 1)^d mesh and contracted
    axis by axis."""
    h = 2.0 * req.L / nodes
    w = np.full(nodes + 1, h)
    w[0] = w[-1] = h / 2.0
    vals = np.broadcast_to(integrand(req, comp, gamma),
                           (nodes + 1,) * comp.total)

    def contract(v):
        for _ in range(v.ndim):
            v = v @ w
        return v

    tail = 0.0
    for ax in range(vals.ndim):
        for end, inner in ((0, 1), (-1, -2)):
            a_end = contract(np.abs(np.take(vals, end, axis=ax)))
            if a_end == 0.0:
                continue
            a_in = contract(np.abs(np.take(vals, inner, axis=ax)))
            if not a_in > a_end:
                return contract(vals), np.inf, contract(np.abs(vals))
            tail += a_end * h / np.log(a_in / a_end)
    return contract(vals), tail, contract(np.abs(vals))


X3 = [(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)]
X4 = [(0.0, 1.5), (0.0, 0.5), (0.0, -0.5), (0.0, -1.5)]


def _el_ops(slope, k):
    op = {**UNIT, "provider": {"kind": "exponential-like", "coefficients": [1, 1, 1],
                               "slope": slope}}
    return [load_operator(op, P) for _ in range(k)]


@pytest.mark.parametrize("case", ["kt_101", "kt_r2", "kt_unit_r3", "k4", "k4_t2", "k4_t2_lone",
                                  "smeared_r2", "el_slope2", "el_slope10"])
def test_factor_contraction_matches_the_dense_mesh(case, monkeypatch):
    # every kind of factor: a 2-axis F_2 with 1-axis plane waves, two
    # variables of one block, 2-axis S-factors (plain and t = 2), and a
    # 2-axis Gaussian transform; at L = 3 the tails are 4e-10 to 5, not
    # below the floating-point range. Beside a unit operator, a K-transform
    # F_3 is the one factor of several axes, and it spans three. Form
    # factors growing like exp(slope * gamma) against the plane waves' decay
    # give a finite tail (1.2094609694182727 at slope 2 and 96 intervals)
    # and, at slope 10, an |integrand| that rises toward +L, whose tail is
    # infinite. In the t = 2 form, k = 4's (0,1,1,0,0,1) has one S-factor
    # table, of axes 0 and 1, beside a third axis that no factor links
    if case.startswith("el_"):
        ops = _el_ops(float(case.removeprefix("el_slope")), 2)
        req, counts = _req(X3[:2], (1,), ops=ops, L=3.0), (1,)
    elif case == "kt_101":
        req, counts = _req(X3, (1, 1), ops=[KT] * 3, L=3.0), (1, 0, 1)
    elif case == "kt_r2":
        req, counts = _req(X3[:2], (2,), ops=[KT] * 2, L=3.0), (2,)
    elif case == "kt_unit_r3":
        req, counts = _req(X3[:2], (3,), ops=[KT] + _unit_ops(1), L=3.0), (3,)
    elif case == "k4_t2_lone":
        req, counts = _req(X4, (1, 2, 1), L=3.0, mixed_t=2), (0, 1, 1, 0, 0, 1)
    elif case.startswith("k4"):
        mixed_t = 2 if case == "k4_t2" else None
        req, counts = _req(X4, (1, 2, 1), L=3.0, mixed_t=mixed_t), (0, 1, 0, 0, 1, 0)
    else:
        req, counts = _req(X3[:2], (2,), L=3.0, smearings=[
            GaussianSmearing(xy, (0.3, 0.3)) for xy in X3[:2]]), (2,)
    _check_against_the_dense_mesh(req, CompositionVector(req.k, counts), monkeypatch, 1e-13,
                                  infinite_tail=case == "el_slope10")


def _check_against_the_dense_mesh(req, comp, monkeypatch, rel, infinite_tail=False,
                                  grids=(48, 96)):
    """_quad_tensor's value and coarse value within `rel`, and its tail (finite
    unless `infinite_tail`) and floor within 1e-13, of those of _dense_quad,
    at each number of intervals in `grids`."""
    seen = []
    factors = shgff.correlator._factors
    monkeypatch.setattr(shgff.correlator, "_factors",
                        lambda r, gamma: seen.append(gamma) or factors(r, gamma))
    for nodes in grids:
        seen.clear()
        got = _quad_tensor(req, comp, _contours(req, comp), nodes)
        want = _dense_quad(req, comp, nodes, seen[0])
        assert abs(got[0] - want[0]) <= rel * abs(want[0])
        if infinite_tail:
            assert got[1] == want[1] == np.inf
        else:
            assert abs(got[1] - want[1]) <= 1e-13 * want[1] < np.inf
        # the coarse value is the rule of nodes / 2 intervals on the even points
        even = {blk: [g[(np.s_[::2],) * g.ndim] for g in grids]
                for blk, grids in seen[0].items()}
        coarse = _dense_quad(req, comp, nodes // 2, even)[0]
        assert abs(got[3] - coarse) <= rel * abs(coarse)
        # a provider's rounding counts for each operator whose F_n has n >= 2
        floor = ((len(factors(req, seen[0])) + comp.total) * np.finfo(float).eps
                 + sum(op.provider.rounding for p, op in enumerate(req.operators, start=1)
                       if sum(comp.as_dict()[blk]
                              for blk, _ in _operator_word(req.k, p, req.mixed_t)) >= 2))
        assert abs(got[2] - floor * want[2]) <= 1e-13 * floor * want[2]


def _kt_op(b):
    params = ModelParams(b=b)
    return params, OperatorSpec("kt", 0.0, 0.0, 0.0,
                                KTransformProvider(ExponentialPn(params, t=0.3), params))


def _boosted(xy, theta):
    ch, sh = np.cosh(theta), np.sinh(theta)
    return [(x0 * ch + x1 * sh, x0 * sh + x1 * ch) for x0, x1 in xy]


MESH_CASES = [
    *(pytest.param("kt_101", b, theta, mixed_t, id=f"kt_101-b{b}-theta{theta}-t{mixed_t}")
      for b in (0.05, 0.25, 0.45) for theta in (0.0, 0.17) for mixed_t in (None, 2)),
    *(pytest.param("kt_r2", b, 0.0, None, id=f"kt_r2-b{b}") for b in (0.05, 0.25, 0.45)),
    pytest.param("el_slope2", 0.25, 0.0, None, id="el_slope2"),
    *(pytest.param(case, 0.25, 0.0, mixed_t, id=f"{case}-t{mixed_t}")
      for case in ("kt3_201", "kt4_101001", "kt3_202") for mixed_t in (None, 2)),
]


@pytest.mark.parametrize("case, b, theta, mixed_t", MESH_CASES)
def test_grids_match_the_integrand_summed_on_the_mesh(case, b, theta, mixed_t, monkeypatch):
    # an oracle that shares no contraction code with _quad_tensor: the public
    # integrand on the full (nodes + 1)^d mesh, summed with trapezoid weights.
    # kt3pt's (1,0,1) carries one F_2 table (reversed in the t = 2 form), the
    # two-point r = (2) two F_2 tables on one block's offset axes, one of them
    # reversed; both contract on the table. The exponential-like F_2 with a
    # slope depends on the sum of its rapidities: a mesh factor of both axes,
    # which the tables meet in one einsum. From three variables on, tables
    # meet each other and the K-transform F_n of n >= 3 there: K-transform
    # k = 3, r = (2, 1)'s (2,0,1) and k = 4, r = (1, 1, 1)'s (1,0,1,0,0,1) on
    # 97^3 meshes, and k = 3, r = (2, 2)'s four-variable (2,0,2) on 17^4
    params, kt = _kt_op(b)
    ops, xy, r, counts = {
        "kt_101": ([kt] * 3, X3, (1, 1), (1, 0, 1)),
        "kt_r2": ([kt] * 2, X3[:2], (2,), (2,)),
        "el_slope2": (_el_ops(2.0, 2), X3[:2], (2,), (2,)),
        "kt3_201": ([kt] * 3, X3, (2, 1), (2, 0, 1)),
        "kt4_101001": ([kt] * 4, X4, (1, 1, 1), (1, 0, 1, 0, 0, 1)),
        "kt3_202": ([kt] * 3, X3, (2, 2), (2, 0, 2)),
    }[case]
    req = CorrelatorRequest(params=params, operators=ops, r=r,
                            points=[SpacetimePoint(*p) for p in _boosted(xy, theta)],
                            L=3.0, mixed_t=mixed_t)
    _check_against_the_dense_mesh(req, CompositionVector(req.k, counts), monkeypatch, 1e-14,
                                  grids=(8, 16) if sum(counts) == 4 else (48, 96))


def test_every_difference_factor_contracts_on_its_table(monkeypatch):
    # a 2049^2 mesh is 64 MiB per complex array: kt3pt's (1,0,1) gathered its
    # F_2 onto it and took |F_2| there (a tracemalloc peak near 100 MB); on the
    # table nothing of the mesh's size is built
    req = _req(X3, (1, 1), ops=[KT] * 3, nodes=1024, max_nodes=2048, tol=1e-7)
    comp = CompositionVector(3, (1, 0, 1))
    compute_I_n(req, comp)
    tracemalloc.start()
    try:
        compute_I_n(req, comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    # on grids of 2, 3 and 4 variables, every S-factor and K-transform F_2
    # reaches _contract as one 1-D table per pair of axes; the one other kind
    # of factor of several axes, a K-transform F_n with n >= 3, spans n axes
    pairs, reduced = [], []
    factors, contract = shgff.correlator._factors, shgff.correlator._contract
    monkeypatch.setattr(shgff.correlator, "_factors", lambda r, gamma: pairs.extend(
        tuple(sorted(map(_open_axis, pair))) for _, pair in factors(r, gamma) if pair)
        or factors(r, gamma))
    monkeypatch.setattr(shgff.correlator, "_contract", lambda multi, *args, **kw: reduced.append(
        [(np.ndim(f), along) for f, along in multi]) or contract(multi, *args, **kw))
    sizes = set()
    for (xy, r), mixed_t in itertools.product(((X3, (2, 1)), (X3, (2, 2)), (X4, (1, 1, 1))),
                                              (None, 2)):
        req = _req(xy, r, ops=[KT] * len(xy), L=5.0, nodes=8, max_nodes=16, mixed_t=mixed_t)
        for comp in enumerate_compositions(req.k, r):
            pairs.clear()
            reduced.clear()
            _quad_tensor(req, comp, _contours(req, comp), 16)
            if pairs:
                sizes.add(comp.total)
            assert len(reduced) == 2 + comp.total
            for ndims in reduced:
                assert sorted(along for ndim, along in ndims if ndim == 1) == sorted(set(pairs))
                assert all(ndim == 1 if len(along) == 2 else ndim == len(along) >= 3
                           for ndim, along in ndims), ndims
    assert sizes == {2, 3, 4}
    # the three-variable composition (2,0,1) of K-transform k = 3, r = (2, 1)
    # gives the same bits as its factors gathered onto the mesh, and the
    # two-variable one agrees with them to about 1e-16
    monkeypatch.undo()
    req = _req(X3, (2, 1), ops=[KT] * 3, L=5.0, nodes=16, max_nodes=32)
    comps = enumerate_compositions(3, (2, 1))
    assert [c.counts for c in comps] == [(1, 1, 0), (2, 0, 1)]
    got = [_quad_tensor(req, comp, _contours(req, comp), 32) for comp in comps]
    monkeypatch.setattr(shgff.correlator, "_factors", lambda r, gamma: [
        (_difference_lattice(*pair)[1](f) if pair else f, None) for f, pair in factors(r, gamma)])
    want = [_quad_tensor(req, comp, _contours(req, comp), 32) for comp in comps]
    assert got[1] == want[1]
    assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got[0], want[0]))


def test_error_estimate_covers_the_true_error():
    # criterion 10's ladders; the reference is one fixed 3072-interval grid
    req = _req(X3, (1, 1), nodes=96, tol=1e-10)
    em = eta_max(P)
    rng = np.random.default_rng(10)
    for comp in enumerate_compositions(3, (1, 1)):
        for _ in range(5):
            fr = np.sort(rng.uniform(0.05, 0.95, len(blocks(3))))
            req_l = dataclasses.replace(req, ladder=ContourLadder(
                {blk: em * f for blk, f in zip(blocks(3), fr)}))
            val, err = compute_I_n(req_l, comp)
            ref = _quad_tensor(req_l, comp, _contours(req_l, comp), 3072)[0]
            assert abs(val - ref) <= err + 1e-14 * max(1.0, abs(ref))


def test_request_refuses_a_point_per_operator_mismatch_and_an_infinite_L():
    # three operators at two points raised IndexError in the quadrature; two
    # operators at three points dropped the third; L = inf gave W = nan
    with pytest.raises(ValueError, match="one point per operator required: "
                                         "3 operators, 2 points"):
        _req(X3[:2], (1, 1), ops=_unit_ops(3))
    with pytest.raises(ValueError, match="one point per operator required: "
                                         "2 operators, 3 points"):
        _req(X3, (1,), ops=_unit_ops(2))
    with pytest.raises(ValueError, match="L must be a finite positive number, got inf"):
        _req(X3[:2], (1,), L=np.inf)


def test_request_refuses_non_finite_points():
    # every comparison of check_region is False on NaN, so a NaN point was
    # refused as an overflowing L, and an infinite one gave W = nan
    for bad in ((np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="point coordinates must be finite real numbers"):
            _req([bad, (0.0, 0.0)], (1,))
        with pytest.raises(ValueError, match="point coordinates must be finite real numbers"):
            _req([(0.0, 1.0), bad], (1,))


def test_request_refuses_an_operator_of_another_coupling():
    # a K-transform operator built at b = 1/4 entered a request at b = 0.1
    # without a word: the S-factors, the ladder and the poles took one coupling
    # and F the other
    other = ModelParams(b=0.1)
    pts = [SpacetimePoint(*xy) for xy in X3]
    with pytest.raises(ValueError, match=re.escape(f"operator 'kt' is of the model {P}, "
                                                   f"not {other}")):
        CorrelatorRequest(params=other, operators=[KT] * 3, points=pts, r=(1, 1))
    # the mass is not compared: no form factor depends on it
    CorrelatorRequest(params=ModelParams(b=0.25, mass=2.0), operators=[KT] * 3, points=pts,
                      r=(1, 1))


@pytest.mark.parametrize("kw, message", [
    # True ran with tol = 1 and L = 1, and tol = inf called any error converged
    ({"tol": True}, "tol must be a finite positive number, got True"),
    ({"tol": "1e-9"}, "tol must be a finite positive number, got '1e-9'"),
    ({"tol": np.inf}, "tol must be a finite positive number, got inf"),
    ({"tol": np.nan}, "tol must be a finite positive number, got nan"),
    ({"L": True}, "L must be a finite positive number, got True"),
    ({"L": "6"}, "L must be a finite positive number, got '6'"),
    ({"points": [("0", 1.0), (0.0, 0.0)]},
     "point coordinates must be finite real numbers, got ('0', 1.0)"),
    ({"points": [(0.0, 1.0), (False, 0.0)]},
     "point coordinates must be finite real numbers, got (False, 0.0)"),
])
def test_request_refuses_a_number_that_is_not_real_when_built(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _req(**{"points": X3[:2], "r": (1,), **kw})
    # integers and numpy's numbers are real numbers
    _req([(0, 1), (np.float64(0.0), np.int64(0))], (1,), tol=1, L=np.float64(6.0))


@pytest.mark.parametrize("eta", [True, "0.3", None, 0.3j])
def test_ladder_refuses_a_shift_that_is_not_real_when_built(eta):
    # True ran as eta = 1, and the CLI's float() turned "0.3" into 0.3
    with pytest.raises(ValueError, match=re.escape(
            f"ladder shift of block (2, 1) must be a finite real number, got {eta!r}")):
        ContourLadder({(2, 1): eta})
    ContourLadder({(2, 1): 1, (3, 1): np.float64(1.5), (3, 2): 0.0})


def test_request_refuses_an_L_whose_contours_overflow_exp():
    # L = 1000 overflowed exp(gamma) in the plane waves (internal error);
    # L = 1e308 gave W = nan
    for L in (1000.0, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"L = {L} is too large")):
            _req(X3[:2], (1,), L=L)
    # a contour's reach is |theta_ba| + L + one first-grid step L / nodes;
    # near the light cone theta_21 = artanh(0.999) = 3.8
    near = [(0.999, 1.0), (0.0, 0.0)]
    with pytest.raises(ValueError, match="L = 702.0 is too large"):
        _req(near, (1,), L=702.0)
    for points, L in ((X3[:2], 702.0), (near, 698.0)):
        res = compute_W_r(_req(points, (2,), L=L))
        assert np.isfinite(res.value) and np.isfinite(res.error)
        assert res.converged is False


def test_an_overflowing_integral_is_refused_by_its_composition(monkeypatch):
    # t = 1e300: each operator's F_1 is near 1e300, so their product, the
    # grid's scalar, overflowed with RuntimeWarnings (pytest turns them into
    # errors here) to I_n = inf + inf j, error and W nan
    huge = OperatorSpec("kt", 0.0, 0.0, 0.0, KTransformProvider(ExponentialPn(P, t=1e300), P))
    req = _req(X3[:2], (1,), ops=[huge] * 2, nodes=16)
    message = r"I_n = \(inf\+infj\) with error nan at composition \(1,\)"
    with pytest.raises(ValueError, match=message):
        compute_I_n(req, CompositionVector(2, (1,)))
    with pytest.raises(ValueError, match=message):
        compute_W_r(req)
    # finite values whose weighted sum overflows name the composition it reaches
    monkeypatch.setattr(shgff.correlator, "compute_I_n", lambda request, comp: (1e308, 0.0))
    monkeypatch.setattr(shgff.correlator, "_composition_phase",
                        lambda comp, request: np.complex128(1e10 ** (comp.total - 1)))
    with pytest.raises(ValueError, match=r"W = \(inf.* at composition \(1, 0, 1\)"):
        compute_W_r(_req(X3, (1, 1)))
    # a finite integral with an infinite tail is an unconverged result
    monkeypatch.undo()
    res = compute_W_r(_req(X3[:2], (1,), ops=_el_ops(10.0, 2), L=3.0))
    assert np.isfinite(res.value) and res.error == np.inf and not res.converged


def test_max_nodes_below_the_second_level_is_rejected():
    with pytest.raises(ValueError, match="max_nodes"):
        _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=96, max_nodes=64)
    _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=96, max_nodes=192)


@pytest.mark.parametrize("nodes", [96.0, 32.5, True])
def test_request_refuses_a_non_integer_node_count_when_built(nodes):
    # 96.0 and 32.5 were accepted and raised TypeError in the quadrature;
    # True ran as nodes = 1
    with pytest.raises(ValueError, match=f"nodes must be a positive integer, got {nodes}"):
        _req(X3[:2], (1,), nodes=nodes)
    _req(X3[:2], (1,), nodes=np.int64(96))


@pytest.mark.parametrize("kw, message", [
    ({"r": (1.5,)}, r"truncation ranks must be non-negative integers, got \(1.5,\)"),
    ({"r": (True,)}, r"truncation ranks must be non-negative integers, got \(True,\)"),
    ({"r": (1, 1)}, r"r must have length k-1 = 1, got \(1, 1\)"),
    ({"r": ()}, r"r must have length k-1 = 1, got \(\)"),
    ({"r": (-1,)}, r"truncation ranks must be non-negative integers, got \(-1,\)"),
    # a 400-digit rank enumerated compositions without end; 65 failed in meshgrid
    ({"r": (65,)}, "truncation ranks must be at most 64"),
    ({"r": (10 ** 400,)}, "truncation ranks must be at most 64"),
    ({"max_nodes": 400.0}, "max_nodes must be an integer, got 400.0"),
    ({"max_nodes": True}, "max_nodes must be an integer, got True"),
])
def test_request_refuses_bad_ranks_and_max_nodes_when_built(kw, message):
    # r=(1.5,) built and raised TypeError in compute_W_r; a rank list of the
    # wrong length or with a negative entry was refused only at compute time
    with pytest.raises(ValueError, match=message):
        _req(X3[:2], **{"r": (1,), **kw})
    _req(X3[:2], (np.int64(1),), max_nodes=np.int64(192))
    _req(X3[:2], (64,))


def test_nodes_override_beyond_max_nodes_is_rejected():
    req = _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=32, max_nodes=128)
    comp = CompositionVector(2, (1,))
    compute_I_n(dataclasses.replace(req, nodes=64), comp)
    with pytest.raises(ValueError, match="max_nodes"):
        dataclasses.replace(req, nodes=96)


# ---------------------------------------------------------------------------
# free-point closed form at every k
# ---------------------------------------------------------------------------

FREE_OMEGAS = (0.13, -0.21, 0.37, 0.05)
FREE_COEFFICIENTS = (1.0, 0.7, 1.3, 0.9, 1.1, 0.8, 1.2, 0.6, 1.05)


def _free_point_closed_form(points, r, omegas, coefficients):
    """W_r at b = 0 for operators of constant F_n = coefficients[n]: the sum,
    over the occupations n_ba of the blocks 1 <= a < b <= k whose crossing
    ranks are r, of exp(-2 pi i sum n_ba omega_ba) prod_p c_{n_p}
    prod (K0(rho_ba) / pi)^{n_ba} / n_ba!, with omega_ba the sum of omega_l
    for a < l <= b and n_p the number of variables of the blocks at p."""
    k = len(points)
    pairs = [(b, a) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    total = 0.0
    for counts in itertools.product(range(max(r) + 1), repeat=len(pairs)):
        n = dict(zip(pairs, counts))
        if any(sum(c for (b, a), c in n.items() if a <= p < b) != r[p - 1]
               for p in range(1, k)):
            continue
        term = np.exp(-2j * np.pi * sum(c * sum(omegas[a:b]) for (b, a), c in n.items()))
        for p in range(1, k + 1):
            term *= coefficients[sum(c for blk, c in n.items() if p in blk)]
        for (b, a), c in n.items():
            (xb, yb), (xa, ya) = points[b - 1], points[a - 1]
            term *= (k0(np.sqrt((yb - ya) ** 2 - (xb - xa) ** 2)) / np.pi) ** c
            term /= np.prod(range(1, c + 1))
        total += term
    return total


@pytest.mark.parametrize("fixture", ["unit", "omega", "exponential-like"])
@pytest.mark.parametrize("points, r", [
    *((X3[:2], (r,)) for r in range(1, 5)),
    *((X3, r) for r in ((1, 1), (2, 1), (1, 2), (2, 2))),
    *((X4, r) for r in ((1, 1, 1), (1, 2, 1))),
])
def test_free_point_matches_its_closed_form(fixture, points, r):
    # at b = 0 every S-factor is 1 and each variable's integral a K0, so W_r
    # is closed: a check of the compositions, phases, factorial weights and
    # ladders that shares no formula with the code
    k = len(points)
    omegas = FREE_OMEGAS[:k] if fixture == "omega" else (0.0,) * k
    coefficients = FREE_COEFFICIENTS if fixture == "exponential-like" else (1.0,) * 9
    provider = ({"kind": "exponential-like", "coefficients": list(FREE_COEFFICIENTS)}
                if fixture == "exponential-like" else {"kind": "unit"})
    p0 = ModelParams(b=0.0)
    ops = [load_operator({"omega": w, "provider": provider}, p0) for w in omegas]
    nodes = 16 if k == 4 else 32
    res = compute_W_r(CorrelatorRequest(
        params=p0, operators=ops, points=[SpacetimePoint(*xy) for xy in points], r=r,
        L=8.0, nodes=nodes, max_nodes=8 * nodes, tol=1e-10))
    closed = _free_point_closed_form(points, r, omegas, coefficients)
    assert res.converged is True
    assert abs(res.value - closed) <= res.error + 1e-15 * abs(closed)
    assert abs(res.value - closed) <= 1e-14 * abs(closed)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def test_translation_invariance():
    req1 = _req([(0.0, 1.0), (0.0, 0.0)], (1,), tol=1e-10)
    req2 = _req([(0.3, 1.5), (0.3, 0.5)], (1,), tol=1e-10)
    v1 = compute_W_r(req1).value
    v2 = compute_W_r(req2).value
    assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_boost_invariance_scalar_operators():
    th = 0.35
    x1, x2 = np.array([0.0, 1.0]), np.array([0.0, 0.0])
    boost = np.array([[np.cosh(th), np.sinh(th)], [np.sinh(th), np.cosh(th)]])
    y1, y2 = boost @ x1, boost @ x2
    v1 = compute_W_r(_req([tuple(x1), tuple(x2)], (1,), tol=1e-10)).value
    v2 = compute_W_r(_req([tuple(y1), tuple(y2)], (1,), tol=1e-10)).value
    assert abs(v1 - v2) < 1e-7 * max(1.0, abs(v1))


# ---------------------------------------------------------------------------
# representation cross-check (fast version with constant amplitudes)
# ---------------------------------------------------------------------------

def test_mixed_representation_matches_standard_unit_ops():
    req = _req([(0.0, 2.0), (0.0, 1.0), (0.0, 0.0)], (1, 1), nodes=96, tol=1e-8)
    base = compute_W_r(req).value
    for t in (1, 2, 3):
        vt = compute_W_r_mixed(req, t)
        assert abs(vt.value - base) < 1e-6 * max(1.0, abs(base))
        # the t-form entry point is the plain one on the request with mixed_t = t
        assert vt == compute_W_r(dataclasses.replace(req, mixed_t=t))


def test_mixed_rejects_bad_t(monkeypatch):
    # 1 <= mixed_t <= k is checked when the request is built, before any quadrature
    monkeypatch.setattr(shgff.correlator, "_quad_tensor", None)
    req = _req([(0.0, 1.0), (0.0, 0.0)], (1,))
    for t in (0, 3, 5):
        with pytest.raises(ValueError, match=f"mixed_t must be an integer in 1..2, got {t}"):
            _req([(0.0, 1.0), (0.0, 0.0)], (1,), mixed_t=t)
        with pytest.raises(ValueError, match=f"mixed_t must be an integer in 1..2, got {t}"):
            compute_W_r_mixed(req, t)


# ---------------------------------------------------------------------------
# smeared correlators
# ---------------------------------------------------------------------------

def test_gaussian_fourier_against_quadrature():
    g = GaussianSmearing((0.4, -0.2), (0.7, 0.5))
    q0, q1 = 0.8, -1.1
    c0, c1 = g.center
    w0, w1 = g.width

    def f(x1, x0, part):
        val = np.exp(-(x0 - c0) ** 2 / (2 * w0 ** 2)
                     - (x1 - c1) ** 2 / (2 * w1 ** 2)
                     + 1j * (q0 * x0 - q1 * x1))
        return val.real if part == "re" else val.imag

    re, _ = dblquad(f, -8, 8, -8, 8, args=("re",), epsabs=1e-12)
    im, _ = dblquad(f, -8, 8, -8, 8, args=("im",), epsabs=1e-12)
    assert abs(g.fourier(q0, q1) - (re + 1j * im)) < 1e-9


@pytest.mark.parametrize("r", [1, 2])
def test_smeared_two_point_matches_direct_quadrature(r):
    # the unit fixture has no S-factors and F = 1, so for k = 2 the smeared
    # correlator is W = int d^r gamma g1^(-P) g2^(P) / (r! (2 pi)^r), with
    # P = sum_j m (cosh gamma_j, sinh gamma_j) and g^ the Gaussian's transform
    # written out here; off-axis centres give W an imaginary part, so that
    # neither part integrates to zero. Beyond |gamma| = 4 the integrand is
    # below e^-70 of its peak
    centers, w = [(0.2, 1.0), (-0.1, 0.0)], 0.3
    req = _req(X3[:2], (r,), nodes=96, tol=1e-10)
    res = smeared_correlator(req, [GaussianSmearing(c, (w, w)) for c in centers])

    def legs(*gammas):
        p0 = P.mass * sum(np.cosh(g) for g in gammas)
        p1 = P.mass * sum(np.sinh(g) for g in gammas)
        return math.prod(2.0 * np.pi * w * w * np.exp(
            1j * sign * (p0 * c0 - p1 * c1) - 0.5 * w * w * (p0 * p0 + p1 * p1))
            for sign, (c0, c1) in zip((-1.0, 1.0), centers))

    if r == 1:
        parts = [quad(lambda g: f(legs(g)), -4.0, 4.0, epsabs=0.0, epsrel=1e-10)[0]
                 for f in (np.real, np.imag)]
    else:
        parts = [dblquad(lambda g2, g1: f(legs(g1, g2)), -4.0, 4.0, -4.0, 4.0,
                         epsabs=0.0, epsrel=1e-10)[0] for f in (np.real, np.imag)]
    want = complex(*parts) / (math.factorial(r) * (2.0 * np.pi) ** r)
    assert abs(want.imag) > 1e-3 * abs(want)
    assert res.converged
    assert abs(res.value - want) <= 1e-12 * abs(want)


def test_smeared_narrow_width_approaches_point_value():
    req = _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=96, tol=1e-10)
    point = compute_W_r(req).value
    devs = []
    for w in (0.05, 0.02):
        sm = [GaussianSmearing((0.0, 1.0), (w, w)),
              GaussianSmearing((0.0, 0.0), (w, w))]
        res = smeared_correlator(req, sm)
        norm = (2 * np.pi * w * w) ** 2
        devs.append(abs(res.value / norm - point) / abs(point))
    assert devs[1] < 5e-3
    # quadratic small-width scaling
    assert 4.0 < devs[0] / devs[1] < 9.0


@pytest.mark.parametrize("center, width, message", [
    # a string centre raised TypeError inside the quadrature
    (("a", 1.0), (0.3, 0.3), "center must be two finite numbers"),
    ((0.0,), (0.3, 0.3), "center must be two finite numbers"),
    ((0.0, np.nan), (0.3, 0.3), "center must be two finite numbers"),
    # True ran as 1.0
    ((True, 0.0), (0.3, 0.3), "center must be two finite numbers"),
    ((0.0, 0.0), (0.3, np.inf), "width must be two finite numbers"),
    ((0.0, 0.0), 0.3, "width must be two finite numbers"),
    # a zero width gave W = 0, converged
    ((0.0, 0.0), (0.3, 0.0), "widths must be positive"),
    ((0.0, 0.0), (-0.3, 0.3), "widths must be positive"),
])
def test_gaussian_smearing_refuses_bad_center_or_width(center, width, message):
    with pytest.raises(ValueError, match=message):
        GaussianSmearing(center, width)


def test_smeared_request_refuses_bad_smearings_when_built(monkeypatch):
    # the refusals of smeared_correlator belong to the request, before any quadrature
    monkeypatch.setattr(shgff.correlator, "_quad_tensor", None)
    sm = [GaussianSmearing((x0, x1), (0.3, 0.3)) for x0, x1 in X3]
    for points, smearings, kw, message in (
            (X3[:2], sm[:1], {}, "one smearing per operator required"),
            (X3, sm, {}, r"smeared correlators are two-point only \(k <= 2\)"),
            (X3[:2], sm[:2], dict(mixed_t=2), "smeared correlators have no t-distinguished form")):
        with pytest.raises(ValueError, match=message):
            _req(points, (1,) * (len(points) - 1), smearings=smearings, **kw)


def test_smeared_request_refuses_an_L_whose_momenta_overflow_when_squared():
    # GaussianSmearing.fourier squared q0 past the largest float (internal
    # error) at L = 354, 360 and 700; a sum of max(r) = 2 terms m cosh(gamma)
    # on contours that reach L (1 + 1 / nodes) is squared, times width^2
    sm = [GaussianSmearing(xy, (0.3, 0.3)) for xy in X3[:2]]
    for L in (354.0, 360.0, 700.0):
        with pytest.raises(ValueError, match=f"L = {L} is too large for a smeared correlator"):
            _req(X3[:2], (2,), L=L, smearings=sm)
    bound = (shgff.correlator._LOG_MAX / 2 - np.log(2.0)) / (1.0 + 1.0 / 8)
    with pytest.raises(ValueError, match="too large for a smeared correlator"):
        _req(X3[:2], (2,), L=bound * (1.0 + 1e-12), nodes=8, smearings=sm)
    # wide Gaussians move the bound down by log(width)
    wide = [GaussianSmearing(xy, (0.3, 1e3)) for xy in X3[:2]]
    with pytest.raises(ValueError, match="too large for a smeared correlator"):
        _req(X3[:2], (2,), L=bound - 6.0, nodes=8, smearings=wide)
    # just below the bound every factor stays finite, and no warning is raised
    req = _req(X3[:2], (2,), L=bound * (1.0 - 1e-12), nodes=8, max_nodes=16, smearings=sm)
    res = compute_W_r(req)
    assert np.isfinite(res.value) and np.isfinite(res.error)
    assert _req(X3[:2], (2,), L=300.0, smearings=sm).L == 300.0


def test_compute_I_n_on_a_smeared_request_matches_the_breakdown():
    req = _req(X3[:2], (2,), nodes=48, tol=1e-10)
    sm = [GaussianSmearing((0.0, 1.0), (0.3, 0.3)), GaussianSmearing((0.0, 0.0), (0.3, 0.2))]
    res = smeared_correlator(req, sm)
    assert res == compute_W_r(dataclasses.replace(req, smearings=sm))
    for comp, val, err, _ in res.breakdown:
        assert compute_I_n(dataclasses.replace(req, smearings=sm), comp) == (val, err)


@pytest.mark.parametrize("r", [1, 2])
def test_smeared_request_needs_no_points(r):
    # the Gaussians' centres place the operators: one point per operator was
    # required, and nothing read it
    sm = [GaussianSmearing((0.0, 1.0), (0.3, 0.3)), GaussianSmearing((0.0, 0.0), (0.3, 0.2))]
    req = _req(X3[:2], (r,), nodes=48, tol=1e-10, smearings=sm)
    assert compute_W_r(dataclasses.replace(req, points=())) == compute_W_r(req)
    # nor are a smeared request's points checked against the region
    dataclasses.replace(req, points=req.points[::-1])


def test_smeared_requires_one_kernel_per_operator():
    req = _req([(0.0, 1.0), (0.0, 0.0)], (1,))
    with pytest.raises(ValueError):
        smeared_correlator(req, [GaussianSmearing((0, 0), (1, 1))])


def test_smeared_refuses_three_point():
    # no contour is admissible: on a shifted ladder the Gaussian factor of the
    # middle operator grows doubly exponentially
    req = _req([(0.0, 1.5), (0.0, 0.0), (0.0, -1.5)], (1, 1))
    sm = [GaussianSmearing((p.x0, p.x1), (0.3, 0.3)) for p in req.points]
    with pytest.raises(ValueError):
        smeared_correlator(req, sm)


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

def test_vacuum_composition_contributes_one():
    req = _req([(0.0, 1.0), (0.0, 0.0)], (0,))
    res = compute_W_r(req)
    assert res.value == pytest.approx(1.0)


def test_breakdown_weights_reassemble_total():
    req = _req([(0.0, 2.0), (0.0, 1.0), (0.0, 0.0)], (1, 1), nodes=64, tol=1e-6)
    res = compute_W_r(req)
    total = sum(ph * val / (comp.factorial_weight() * (2 * np.pi) ** comp.total)
                for comp, val, err, ph in res.breakdown)
    assert abs(total - res.value) < 1e-14


@pytest.mark.parametrize("kw, want", [
    ({}, True),
    # step halving stops at max_nodes with err > tol
    (dict(nodes=4, max_nodes=8), False),
    # the composition's own error, 1.3e-2, exceeds tol; W's weighted error,
    # 2.1e-3, does not, and the verdict is on W's
    (dict(nodes=8, max_nodes=16, tol=1e-2), True),
])
def test_converged_flag(kw, want):
    pts = [(0.0, 1.0), (0.0, 0.0)]
    req = _req(pts, (1,), **kw)
    sm = [GaussianSmearing((p.x0, p.x1), (0.3, 0.3)) for p in req.points]
    res = compute_W_r(req)
    assert res.converged is want
    for res in (res, compute_W_r_mixed(req, 2), smeared_correlator(req, sm)):
        assert res.converged is bool(res.error <= req.tol)

"""Truncated correlators: Bessel oracle, contour invariance, symmetries."""
import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import k0

import shgff.correlator
import shgff.formfactor
from shgff.combin import CompositionVector, blocks, enumerate_compositions
from shgff.correlator import (
    ContourLadder, CorrelatorRequest, GaussianSmearing, RegionError, SpacetimePoint,
    _PointLegs, _quad_tensor, _SmearedLegs, _sum_compositions, check_region, compute_I_n,
    compute_W_r, compute_W_r_mixed, default_ladder, eta_max, integrand, smeared_correlator,
)
from shgff.formfactor import (
    ExponentialPn, KTransformProvider, OperatorSpec, load_operator,
)
from shgff.ladder import _clearances, _spread_ladder
from shgff.specfun import ModelParams

P = ModelParams(b=0.25)
UNIT = {"name": "u", "omega": 0.0, "spin": 0.0, "growth": 0.0,
        "provider": {"kind": "unit"}}
KT = OperatorSpec("kt", 0.0, 0.0, 0.0, KTransformProvider(ExponentialPn(P, t=0.3), P))
# the K-transform three-point function at (0,1), (0,0), (0,-1), r=(1,1): two
# trapezoid runs on different ladders and steps agree on it to 1e-14
KT3PT_W = 0.00284114056964622


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
    good = ContourLadder(3, {(2, 1): 0.1, (3, 1): 0.2, (3, 2): 0.0})
    good.validate(comp)  # (3,2) unoccupied, ordering holds on occupied blocks
    bad = ContourLadder(3, {(2, 1): 0.2, (3, 1): 0.1, (3, 2): 0.0})
    with pytest.raises(ValueError):
        bad.validate(comp)


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
    req = _req([(0.0, 0.0), (0.0, 1.0)], (1,))
    with pytest.raises(ValueError):
        compute_W_r(req)


def test_region_violation_is_a_region_error():
    # library callers that catch ValueError keep catching it
    req = _req([(0.0, 0.0), (0.0, 1.0)], (1,))
    with pytest.raises(RegionError, match="space-like separated") as info:
        compute_I_n(req, CompositionVector(2, (1,)))
    assert isinstance(info.value, ValueError)


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
    low = ContourLadder(2, {(2, 1): eta_max(P) / 2})
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
        lad = ContourLadder(3, {(2, 1): e1 * em, (3, 1): 0.0, (3, 2): e2 * em})
        val, _ = compute_I_n(req, comp, ladder=lad)
        vals.append(val)
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-9 * max(1.0, abs(vals[0]))


# ---------------------------------------------------------------------------
# ladders placed per composition
# ---------------------------------------------------------------------------

def _clearance(req, comp, mixed_t, ladder):
    """The distance from the contours of an equally spaced ladder to the
    nearest singularity of the composition's integrand."""
    slope, offset = _clearances(req, comp, mixed_t).T
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
    assert _clearance(req, comp, None, lad) == pytest.approx(np.pi / 3, rel=1e-14)
    assert _clearance(req, comp, None, default_ladder(comp, P)) == pytest.approx(
        eta_max(P) / 3, rel=1e-14)
    comp = CompositionVector(3, (0, 1, 0))
    assert _spread_ladder(req, comp).eta[(3, 1)] == pytest.approx(np.pi / 2, rel=1e-14)


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
            for comp in enumerate_compositions(req.k, r):
                lad = _spread_ladder(req, comp, mixed_t)
                lad.validate(comp)
                base = _clearance(req, comp, mixed_t, default_ladder(comp, params))
                assert 0.0 < base <= _clearance(req, comp, mixed_t, lad), (r, mixed_t, comp)


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
        ref, ref_err = compute_I_n(req, comp, ladder=default_ladder(comp, P))
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
        ref = _sum_compositions(req, t, I_n=lambda comp: compute_I_n(
            req, comp, t, ladder=default_ladder(comp, params)))
        assert got.converged is True
        assert ref.error < 1e-4
        assert abs(got.value - ref.value) <= got.error + ref.error, t


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
        vals = [compute_I_n(req, CompositionVector(2, (2,)),
                            ladder=ContourLadder(2, {(2, 1): f * eta_max(P)}))
                for f in (0.3, 0.9)]
        assert all(err < 1e-10 for _, err in vals)
        assert abs(vals[0][0] - vals[1][0]) < 1e-12 * abs(vals[0][0])


def test_kt3pt_matches_refined_oracle():
    req = _req([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1), ops=[KT] * 3,
               tol=1e-10)
    for res in (compute_W_r(req), compute_W_r_mixed(req, 2)):
        assert res.converged is True
        assert abs(res.value - KT3PT_W) < 1e-12 * KT3PT_W


def test_min_form_factor_sees_one_line_per_grid(monkeypatch):
    # composition (1,0,1): the middle operator's F_2 pairs the two variables;
    # its min_form_factor runs on the 2N + 1 differences, not the N^2 mesh
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
        assert sum(seen) == (2 * nodes + 1) + (4 * nodes + 1)


def test_k_transform_sees_only_difference_tables(monkeypatch):
    # composition (1,0,1): the middle operator's F_2 runs its label sum on the
    # 1-D table of the 2N + 1 differences of its two variables, never on an
    # N^2 plane; the outer operators' F_1 runs on the single difference 0
    shapes = []
    original = shgff.formfactor.k_transform
    monkeypatch.setattr(shgff.formfactor, "k_transform",
                        lambda p, b, pr: shapes.append(np.broadcast(*b).shape)
                        or original(p, b, pr))
    comp = CompositionVector(3, (1, 0, 1))
    for nodes in (48, 96):
        req = _req([(0.0, 1.0), (0.0, 0.0), (0.0, -1.0)], (1, 1), ops=[KT] * 3,
                   nodes=nodes, max_nodes=2 * nodes)
        shapes.clear()
        compute_I_n(req, comp)
        grids = [(2 * nodes + 1,), (4 * nodes + 1,)]
        assert sorted(s for s in shapes if s) == grids
        assert len(shapes) == 3 * len(grids)


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


def _dense_quad(req, comp, legs, mixed_t, nodes, gamma):
    """The trapezoid value, tail estimate and integral of |integrand| from
    the integrand broadcast to the full (nodes + 1)^d mesh and contracted
    axis by axis."""
    h = 2.0 * req.L / nodes
    w = np.full(nodes + 1, h)
    w[0] = w[-1] = h / 2.0
    vals = np.broadcast_to(integrand(req, comp, gamma, mixed_t, legs),
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


@pytest.mark.parametrize("case", ["kt_101", "kt_r2", "k4", "k4_t2", "smeared_r2"])
def test_factor_contraction_matches_the_dense_mesh(case, monkeypatch):
    # every kind of factor: a 2-axis F_2 with 1-axis plane waves, two
    # variables of one block, 2-axis S-factors (plain and t = 2), and a
    # 2-axis Gaussian transform; at L = 3 the tails are 4e-10 to 5, not
    # below the floating-point range
    mixed_t = None
    if case == "kt_101":
        req, counts = _req(X3, (1, 1), ops=[KT] * 3, L=3.0), (1, 0, 1)
    elif case == "kt_r2":
        req, counts = _req(X3[:2], (2,), ops=[KT] * 2, L=3.0), (2,)
    elif case.startswith("k4"):
        req, counts = _req(X4, (1, 2, 1), L=3.0), (0, 1, 0, 0, 1, 0)
        mixed_t = 2 if case == "k4_t2" else None
    else:
        req, counts = _req(X3[:2], (2,), L=3.0), (2,)
    comp = CompositionVector(req.k, counts)
    legs = (_SmearedLegs([GaussianSmearing((p.x0, p.x1), (0.3, 0.3)) for p in req.points])
            if case == "smeared_r2" else _PointLegs(req.points))
    seen = []
    factors = shgff.correlator._factors
    monkeypatch.setattr(shgff.correlator, "_factors",
                        lambda r, gamma, *a: seen.append(gamma) or factors(r, gamma, *a))
    for nodes in (48, 96):
        seen.clear()
        got = _quad_tensor(req, comp, legs.contours(req, comp), legs, mixed_t, nodes)
        want = _dense_quad(req, comp, legs, mixed_t, nodes, seen[0])
        assert abs(got[0] - want[0]) <= 1e-13 * abs(want[0])
        assert abs(got[1] - want[1]) <= 1e-13 * want[1]
        floor = (len(factors(req, seen[0], mixed_t, legs)) + comp.total) * np.finfo(float).eps
        assert abs(got[2] - floor * want[2]) <= 1e-13 * floor * want[2]


def test_error_estimate_covers_the_true_error():
    # criterion 10's ladders; the reference is one fixed 3072-interval grid
    req = _req(X3, (1, 1), nodes=96, tol=1e-10)
    em = eta_max(P)
    rng = np.random.default_rng(10)
    for comp in enumerate_compositions(3, (1, 1)):
        for _ in range(5):
            fr = np.sort(rng.uniform(0.05, 0.95, len(blocks(3))))
            lad = ContourLadder(3, {blk: em * f for blk, f in zip(blocks(3), fr)})
            val, err = compute_I_n(req, comp, ladder=lad)
            legs = _PointLegs(req.points, lad)
            ref = _quad_tensor(req, comp, legs.contours(req, comp), legs, None, 3072)[0]
            assert abs(val - ref) <= err + 1e-14 * max(1.0, abs(ref))


def test_max_nodes_below_the_second_level_is_rejected():
    with pytest.raises(ValueError, match="max_nodes"):
        _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=96, max_nodes=64)
    _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=96, max_nodes=192)


def test_nodes_override_beyond_max_nodes_is_rejected():
    req = _req([(0.0, 1.0), (0.0, 0.0)], (1,), nodes=32, max_nodes=128)
    comp = CompositionVector(2, (1,))
    compute_I_n(req, comp, nodes=64)
    with pytest.raises(ValueError, match="max_nodes"):
        compute_I_n(req, comp, nodes=96)


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
        vt = compute_W_r_mixed(req, t).value
        assert abs(vt - base) < 1e-6 * max(1.0, abs(base))


def test_mixed_rejects_bad_t():
    req = _req([(0.0, 1.0), (0.0, 0.0)], (1,))
    with pytest.raises(ValueError):
        compute_W_r(req, mixed_t=5)


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
    assert isinstance(res.describe(), str)


def test_converged_flag():
    pts = [(0.0, 1.0), (0.0, 0.0)]
    assert compute_W_r(_req(pts, (1,))).converged is True
    # step halving stops at max_nodes with err > tol
    res = compute_W_r(_req(pts, (1,), nodes=4, max_nodes=8))
    assert res.error > 1e-9
    assert res.converged is False
    assert "converged: False" in res.describe()

"""S-matrix, Barnes G, and minimal form factor: identities and mpmath oracle."""
import dataclasses
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from shgff.specfun import (
    ModelParams, SpecialFunctionError, _quotients, log_barnes_g,
    min_form_factor, minkowski_dot, momentum, s_matrix, varpi,
)

RNG = np.random.default_rng(20260826)
P = ModelParams(b=0.3)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(b=0.6)
    with pytest.raises(ValueError):
        ModelParams(b=-0.1)
    with pytest.raises(ValueError):
        ModelParams(b=0.3, mass=0.0)


@pytest.mark.parametrize("mass", [float("nan"), float("inf"), -float("inf")])
def test_params_refuse_a_mass_that_is_not_finite(mass):
    # mass <= 0 is False on NaN: a NaN or infinite mass gave NaN correlators
    with pytest.raises(ValueError, match=f"mass must be a finite positive number, got {mass}"):
        ModelParams(b=0.25, mass=mass)


@pytest.mark.parametrize("value", ["0.25", True, 10 ** 400])
@pytest.mark.parametrize("key, message", [
    ("b", "coupling b must be a number in"), ("mass", "mass must be a finite positive number")])
def test_params_refuse_a_value_that_is_not_a_finite_number(key, message, value):
    # a string compared with 0.0 raised TypeError and a bool ran as 0 or 1; an integer
    # beyond float range raised OverflowError in math.isfinite
    with pytest.raises(ValueError, match=message):
        ModelParams(**{"b": 0.25, key: value})
    # numpy's numbers and integers keep their value
    assert ModelParams(b=np.float64(0.25), mass=np.int64(2)).mass == 2


def test_params_dual_exponent_default():
    assert ModelParams(b=0.3).b_hat == pytest.approx(0.2, abs=1e-15)
    # self-dual point
    assert ModelParams(b=0.25).b_hat == pytest.approx(0.25, abs=1e-15)


def test_params_hold_the_coupling_and_mass_only():
    # the S-matrix fixes the dual exponent: a b_hat other than 1/2 - b gave operators
    # that fail the axioms, and the correlator ran on them with exit 0
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["b", "mass"]
    with pytest.raises(TypeError, match="b_hat"):
        ModelParams(b=0.25, b_hat=0.25)
    p = ModelParams(b=0.1)
    assert p.b_hat == 0.5 - 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.b_hat = 0.6


# ---------------------------------------------------------------------------
# S-matrix
# ---------------------------------------------------------------------------

def test_s_matrix_at_zero_is_minus_one():
    assert s_matrix(0.0, P) == -1.0


def test_s_matrix_unitarity_and_crossing_bulk():
    beta = RNG.uniform(-5, 5, 1000) + 1j * RNG.uniform(0.05, np.pi - 0.05, 1000)
    s = s_matrix(beta, P)
    assert np.max(np.abs(s * s_matrix(-beta, P) - 1.0)) < 1e-12
    assert np.max(np.abs(s_matrix(1j * np.pi - beta, P) - s)) < 1e-12


def test_s_matrix_real_analyticity():
    # |S| = 1 on the real line and S(-beta) = conj(S(beta))
    beta = RNG.uniform(-6, 6, 200)
    s = s_matrix(beta, P)
    assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-14
    assert np.max(np.abs(s_matrix(-beta, P) - np.conj(s))) < 1e-14


@given(st.floats(-8, 8), st.floats(0.01, 0.49))
@settings(max_examples=80, deadline=None)
def test_s_matrix_unitarity_property(beta, b):
    params = ModelParams(b=b)
    assert abs(s_matrix(beta, params) * s_matrix(-beta, params) - 1.0) < 1e-12


def test_s_matrix_free_point():
    assert abs(s_matrix(1.3, ModelParams(b=0.0)) - 1.0) < 1e-15
    assert abs(s_matrix(1.3, ModelParams(b=0.5)) - 1.0) < 1e-15


def test_free_point_at_zero_rapidity():
    # at b = 0, S = sinh(beta)/sinh(beta) and F = -sin(pi z)/pi w_0(z) w_bhat(z)
    # with -sin(pi z)/pi w_0(z) = 1: the 0/0 and 0 * infinity at beta = 0 are
    # removable
    p0 = ModelParams(b=0.0)
    assert s_matrix(0.0, p0) == 1.0
    assert np.all(s_matrix(np.array([0.0, 1e-300, -2.0 + 0.5j]), p0) == 1.0)
    assert min_form_factor(0.0, p0) == 1.0
    assert np.all(min_form_factor(np.array([0.0, 1.3, -0.4 + 2.0j]), p0) == 1.0)
    # the prefactor times w_0 is 1, as the general formula gives off beta = 0, so F
    # is the other quotient, w_{1/2} = 1
    beta = np.array([0.7, -1.1 + 0.5j, 3.0])
    z = 1j * beta / (2.0 * np.pi)
    general = -np.sin(np.pi * z) / np.pi * varpi(z, 0.0) * varpi(z, 0.5)
    assert np.max(np.abs(min_form_factor(beta, p0) - general) / np.abs(general)) < 1e-13


def test_half_point_at_zero_rapidity():
    # at b = 1/2 (b_hat = 0) sin 2 pi b is exactly 0, so S is identically 1, and
    # F = w_{1/2}(z), the prefactor times w_0 being identically 1 as at b = 0
    p = ModelParams(b=0.5)
    assert p.sin2pib == 0.0
    assert s_matrix(0.0, p) == 1.0
    assert np.all(s_matrix(np.array([0.0, 1e-300, -2.0 + 0.5j]), p) == 1.0)
    assert min_form_factor(0.0, p) == 1.0
    beta = np.array([0.0, 1.3, -0.4 + 2.0j])
    assert np.array_equal(min_form_factor(beta, p), varpi(1j * beta / (2.0 * np.pi), 0.5))
    assert np.max(np.abs(min_form_factor(beta, p) - 1.0)) < 1e-14
    # every other coupling keeps np.sin's value
    for b in np.linspace(0.0, 0.5, 1001)[:-1]:
        assert ModelParams(b=b).sin2pib == float(np.sin(2.0 * np.pi * b))


def test_s_matrix_far_rapidity_is_its_limit():
    # sinh overflows past |Re beta| ~ 710, where S is 1 to double precision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (800.0, -800.0, 800.0 + 0.3j, -1e6 + 2.0j):
            assert abs(s_matrix(beta, P) - 1.0) < 1e-15
        assert np.all(s_matrix(np.array([800.0, -800.0 + 0.3j]), ModelParams(b=0.0)) == 1.0)


def test_s_matrix_unchanged_up_to_700():
    # the far-rapidity limit leaves every value at |Re beta| <= 700 as it was
    s = P.sin2pib
    beta = np.concatenate([np.linspace(-700.0, 700.0, 2001),
                           RNG.uniform(-700, 700, 200) + 1j * RNG.uniform(-4, 4, 200)])
    assert np.array_equal(s_matrix(beta, P),
                          (np.sinh(beta) - 1j * s) / (np.sinh(beta) + 1j * s))
    for b in (700.0, -700.0 + 0.5j, 1.3):
        sh = np.sinh(np.asarray(b, dtype=complex))
        assert s_matrix(b, P) == complex((sh - 1j * s) / (sh + 1j * s))


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def test_barnes_special_values():
    assert abs(np.exp(log_barnes_g(1.0)) - 1.0) < 1e-12
    assert abs(np.exp(log_barnes_g(2.0)) - 1.0) < 1e-12
    assert abs(np.exp(log_barnes_g(3.0)) - 1.0) < 1e-12   # G(3) = 1! = 1
    assert abs(np.exp(log_barnes_g(4.0)) - 2.0) < 1e-12   # G(4) = 1!2! = 2


def test_barnes_functional_equation_grid():
    # G(z+1) = Gamma(z) G(z), relative residual on |z| in [0.5, 40]; log Gamma
    # comes from scipy, which shares no formula with log_barnes_g
    radii = np.geomspace(0.5, 40.0, 25)
    phases = np.exp(1j * np.linspace(-2.8, 2.8, 17))
    z = np.outer(radii, phases).ravel()
    lhs = log_barnes_g(z + 1.0)
    rhs = loggamma(z) + log_barnes_g(z)
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)) < 1e-10


def test_barnes_against_mpmath_oracle():
    mpmath.mp.dps = 30
    pts = [0.7, 2.3, 5.5, 17.0, 0.3 + 2.1j, -4.7 + 6.2j, 12.0 - 9.0j,
           35.0 + 1.0j, 0.5 - 0.5j]
    for z in pts:
        want = complex(mpmath.log(mpmath.barnesg(z)))
        got = log_barnes_g(z)
        # exp of the difference dodges both overflow and 2 pi i branch offsets
        assert abs(np.exp(got - want) - 1.0) < 1e-11


def _barnes_rel_err(z):
    mpmath.mp.dps = 30
    want = np.array([complex(mpmath.log(mpmath.barnesg(complex(v)))) for v in z])
    return np.max(np.abs(np.exp(log_barnes_g(z) - want) - 1.0))


def test_barnes_mpmath_on_form_factor_band():
    # the arguments min_form_factor passes on the correlator contours
    rng = np.random.default_rng(1)
    z = rng.uniform(0.2, 2.0, 60) + 1j * rng.uniform(-3.0, 3.0, 60)
    assert _barnes_rel_err(z) < 1e-12


def test_barnes_mpmath_far_left():
    # up to 69 shifts per point
    rng = np.random.default_rng(2)
    z = rng.uniform(-60.0, -5.0, 40) + 1j * rng.uniform(0.3, 5.0, 40)
    assert _barnes_rel_err(z) < 2e-11


def test_barnes_vectorized_equals_scalar_bitwise():
    # each element takes its own number of shifts, so a mixed array gives
    # exactly the per-element values, real negative non-integers included
    rng = np.random.default_rng(3)
    z = rng.uniform(-60.0, 40.0, 300) + 1j * rng.uniform(-5.0, 5.0, 300)
    z[::7] = z[::7].real + 0.5
    vec = log_barnes_g(z.reshape(20, 15))
    sc = np.array([log_barnes_g(complex(v)) for v in z])
    assert np.array_equal(vec.ravel(), sc)
    # the side of the negative real axis follows the sign of a zero imaginary part
    assert np.array_equal(log_barnes_g(np.conj(z)), np.conj(sc))


def _mp_min_form_factor(beta, params):
    """F(beta) from mpmath's Barnes G at 30 digits, with w_b taken once at
    b_hat = b; `params` is anything with the exponents b and b_hat."""
    mpmath.mp.dps = 30
    z = 1j * mpmath.mpc(complex(beta)) / (2 * mpmath.pi)
    g = mpmath.barnesg

    def w(b):
        b = mpmath.mpf(b)
        return g(1 - b - z) * g(2 - b + z) / (g(1 + b + z) * g(b - z))

    if params.b == 0.0 or params.b_hat == 0.0:
        return complex(w(params.b + params.b_hat))
    wb = w(params.b)
    wh = wb if params.b_hat == params.b else w(params.b_hat)
    return complex(-mpmath.sin(mpmath.pi * z) / mpmath.pi * wb * wh)


def _mp_rel_err(got, beta, params):
    want = np.array([_mp_min_form_factor(x, params) for x in beta])
    return np.max(np.abs(got - want) / np.abs(want))


def test_min_form_factor_self_dual_single_quotient():
    # at b_hat = b the squared quotient stands in for the two quotients, which
    # _quotients takes at b_hat one ulp above b; the reference is mpmath on
    # every fifth rapidity
    rng = np.random.default_rng(4)
    beta = rng.uniform(-8.0, 8.0, 200) + 1j * rng.uniform(-0.5, 3.5, 200)
    b = 0.25
    got = min_form_factor(beta, ModelParams(b=b))
    eight = _quotients(beta, (b, np.nextafter(b, 1.0)), True)
    assert np.max(np.abs(got - eight) / np.abs(eight)) < 1e-13
    assert _mp_rel_err(got[::5], beta[::5], ModelParams(b=b)) < 3e-14


@pytest.mark.parametrize("b", [0.25, 0.1, 0.0, 0.5])
@pytest.mark.parametrize("size", [5000, 3 * 8192 + 5])
def test_min_form_factor_matches_mpmath(b, size):
    # the whole array is evaluated, in chunks of 8192 points; mpmath checks
    # eight of its points, or four where F = w_{1/2} = 1, and at 24581 points
    # also the first and last points of each chunk
    rng = np.random.default_rng(5)
    beta = rng.uniform(-16.0, 16.0, size) + 1j * rng.uniform(-3.5, 3.5, size)
    p = ModelParams(b=b)
    got = min_form_factor(beta, p)
    pick = np.linspace(0, size - 1, 4 if b in (0.0, 0.5) else 8).astype(int)
    if size > 8192:
        pick = np.union1d(pick, [8191, 8192, 16383, 16384, 24575, 24576])
    assert _mp_rel_err(got[pick], beta[pick], p) < 3e-14


def test_min_form_factor_chunks_and_scalars_are_evaluated_alone():
    # each element's value is independent of the rest of the array: the
    # 3 * 8192 + 5 array equals its chunks evaluated alone, and so do 1175 of
    # its points, whose temporaries are too small for numpy to reuse as the
    # output of a product (a complex product so reused rounded differently);
    # a scalar equals its element of the array
    rng = np.random.default_rng(6)
    size = 3 * 8192 + 5
    beta = rng.uniform(-16.0, 16.0, size) + 1j * rng.uniform(-3.5, 3.5, size)
    for p in (ModelParams(b=0.25), ModelParams(b=0.1), ModelParams(b=0.3)):
        got = min_form_factor(beta, p)
        chunks = np.concatenate([min_form_factor(beta[s:s + 8192], p)
                                 for s in range(0, size, 8192)] + [min_form_factor(beta[:1175], p)])
        assert np.array_equal(np.concatenate([got, got[:1175]]).view(np.uint64),
                              chunks.view(np.uint64))
        for k in (0, 8191, 8192, size - 1):
            assert np.array_equal(np.array([min_form_factor(complex(beta[k]), p)]).view(np.uint64),
                                  got[k:k + 1].view(np.uint64))


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_min_form_factor_is_exactly_one_at_the_free_and_half_couplings(b):
    # F is the quotient of exponent 1/2, identically 1; varpi there has
    # x_1 = e + z and x_2 = 1 - e + z one number, so its two terms cancel exactly
    rng = np.random.default_rng(7)
    beta = rng.uniform(-16.0, 16.0, 1000) + 1j * rng.uniform(-3.5, 3.5, 1000)
    assert np.all(min_form_factor(beta, ModelParams(b=b)) == 1.0)
    assert min_form_factor(0.3 + 0.2j, ModelParams(b=b)) == 1.0
    assert np.all(varpi(1j * beta / (2.0 * np.pi), 0.5) == 1.0)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_min_form_factor_is_one_where_w_half_is_a_removable_zero_over_zero(b):
    # at z = 1/2, 3/2, -3/2 and -5/2 (beta = -2 pi i z) two G's of w_{1/2} vanish
    # above and below; the quotient refused them, but F = w_{1/2} is identically 1
    p = ModelParams(b=b)
    beta = -1j * np.pi * np.array([1.0, 3.0, -3.0, -5.0])
    assert np.all(min_form_factor(beta, p) == 1.0)
    assert min_form_factor(-1j * np.pi, p) == 1.0


@pytest.mark.parametrize("exponents, f", [
    ((P.b, P.b_hat), lambda beta: min_form_factor(beta, P)),
    # the two quotients and the prefactor at exponents that no coupling gives
    ((0.3, 0.7), lambda beta: _quotients(np.atleast_1d(np.asarray(beta, dtype=complex)),
                                         (0.3, 0.7), True)),
], ids=["min-form-factor", "quotients-0.3-0.7"])
def test_min_form_factor_refuses_a_zero_of_each_barnes_argument(exponents, f):
    # z at a zero of G(1-e-z), G(2-e+z), G(1+e+z) and G(e-z), for each exponent
    for e in exponents:
        for z in (1.0 - e, e - 2.0, -1.0 - e, e, 2.0 - e, e - 3.0, -2.0 - e, e + 1.0):
            beta = -2j * np.pi * z
            with pytest.raises(SpecialFunctionError):
                f(beta)
            with pytest.raises(SpecialFunctionError):
                f(np.array([0.3 + 0.1j, beta, -1.0]))
            with pytest.raises(SpecialFunctionError, match=r"Barnes G quotient w_e\(z\)"):
                varpi(z, e)


def test_varpi_at_exponent_one_half_is_one_where_its_zeros_meet():
    # at e = 1/2, x_1 = x_2: each zero of a numerator G meets the same zero of a
    # denominator G, so w_1/2 is 1 there too; varpi refused z = 1/2, 3/2, 5/2,
    # -3/2 and -5/2 (and gave 1 at -1/2)
    z = np.array([0.5, 1.5, 2.5, -1.5, -2.5])
    for x in z:
        assert varpi(x, 0.5) == 1.0
    assert np.all(varpi(z, 0.5) == 1.0)
    assert np.all(varpi(np.array([0.3 + 0.1j, 1.5, -0.5]), 0.5) == 1.0)


@pytest.mark.parametrize("b_hat", [0.35, 0.6, 0.9])
def test_quotients_with_a_dual_exponent_off_the_default(b_hat):
    # the two quotients and the prefactor at exponents (0.2, b_hat) that no
    # coupling gives (b_hat > 1/2 too, where a = 1 - 2 b_hat < 0), against mpmath
    rng = np.random.default_rng(8)
    beta = rng.uniform(-10.0, 10.0, 6) + 1j * rng.uniform(-3.0, 6.0, 6)
    got = _quotients(beta, (0.2, b_hat), True)
    assert _mp_rel_err(got, beta, types.SimpleNamespace(b=0.2, b_hat=b_hat)) < 3e-14


@pytest.mark.parametrize("eta", [2.0 * np.pi / 3.0, np.pi])
def test_min_form_factor_one_ulp_noise(eta):
    # a one-ulp change of Re beta moves F by its conditioning alone: at most
    # 3e-15 relative over [-12, 12] (8.5e-16 on Im beta = 2 pi / 3, kt3pt's
    # F_2 contour, and 6.0e-16 on pi; the Barnes-G ratios moved it by up to
    # 1.1e-14, the four-call sum by 3.4e-13)
    p = ModelParams(b=0.25)
    x = np.linspace(-12.0, 12.0, 24001)
    f = min_form_factor(x + 1j * eta, p)
    for side in (np.inf, -np.inf):
        g = min_form_factor(np.nextafter(x, side) + 1j * eta, p)
        assert np.max(np.abs(g - f) / np.abs(f)) <= 3e-15


# The seams of the dilogarithm form of each quotient (specfun._quotients),
# against mpmath at 3e-14; RuntimeWarning is an error in every test
# (pyproject.toml), so none of them may warn either.

SEAM_PARAMS = [ModelParams(b=0.25), ModelParams(b=0.2)]


@pytest.mark.parametrize("p", SEAM_PARAMS)
def test_min_form_factor_across_the_imaginary_axis(p):
    # Re beta < 0 is evaluated as the conjugate at -conj(beta): approach
    # Re beta = 0 from both sides, and cross it on a dense band
    side = np.array([1e-300, -1e-300, 1e-9, -1e-9, 0.0])
    band = np.linspace(-0.02, 0.02, 17)
    for eta in (0.0, 1.3, np.pi, 4.5):
        beta = np.concatenate([side, band]) + 1j * eta
        got = min_form_factor(beta, p)
        want = np.array([_mp_min_form_factor(x, p) for x in beta])
        # F(0) = 0 exactly
        assert np.all(np.abs(got - want) <= 3e-14 * np.abs(want))


@pytest.mark.parametrize("p", SEAM_PARAMS)
def test_min_form_factor_at_the_removable_points(p):
    # beta = 2 pi i e and 2 pi i (1 - e) put x_1 or x_2 at 0 (q = 1), the
    # removable point of pi x cot pi x; at b = 1/4, beta = i pi/2 gives 1/sqrt(2)
    for e in (p.b, p.b_hat):
        for centre in (2j * np.pi * e, 2j * np.pi * (1.0 - e)):
            beta = centre + np.array([0.0, 1e-12, -1e-12, 1e-7j, -1e-7j, 1e-3 + 1e-3j, -1e-3])
            assert _mp_rel_err(min_form_factor(beta, p), beta, p) < 3e-14
    if p.b_hat == p.b:
        assert min_form_factor(0.5j * np.pi, p) == pytest.approx(np.sqrt(0.5), rel=1e-15)


@pytest.mark.parametrize("b", [0.25, 0.1])
def test_min_form_factor_far_out(b):
    # with b + b_hat = 1/2 the prefactor's e^(|Re beta|/2) cancels the
    # quotients' e^(-|Re beta|/2) in closed form: F -> 1 with no overflow, and
    # |F - 1| stays at the rounding level (the Barnes-G ratios left 5.2e-14
    # at 300 and 4.0e-14 at 700)
    p = ModelParams(b=b)
    beta = np.array([30.0, 300.0, 700.0]) + np.array([[0.0], [1.0], [np.pi]]) * 1j
    beta = np.concatenate([beta, -beta]).ravel()
    got = min_form_factor(beta, p)
    assert _mp_rel_err(got, beta, p) < 3e-14
    far = np.abs(beta.real) > 100.0
    assert np.max(np.abs(got[far] - 1.0)) < 1e-15
    assert np.max(np.abs(min_form_factor(np.array([1e4, -1e6 + 2.0j]), p) - 1.0)) < 1e-15


@pytest.mark.parametrize("e", [0.1, 0.25, 0.3, 0.6, 0.9])
def test_varpi_matches_mpmath(e):
    # w_e on the rapidities of test_min_form_factor_matches_mpmath, e > 1/2
    # included, against mpmath's Barnes G quotient
    mpmath.mp.dps = 30
    rng = np.random.default_rng(9)
    z = 1j * (rng.uniform(-16.0, 16.0, 12) + 1j * rng.uniform(-3.5, 3.5, 12)) / (2.0 * np.pi)
    g, b = mpmath.barnesg, mpmath.mpf(e)
    want = np.array([complex(g(1 - b - x) * g(2 - b + x) / (g(1 + b + x) * g(b - x)))
                     for x in map(mpmath.mpc, z)])
    assert np.max(np.abs(varpi(z, e) - want) / np.abs(want)) < 3e-14


def test_varpi_shift_by_one():
    # G(z + 1) = Gamma(z) G(z) gives w_e(z + 1) / w_e(z) =
    # Gamma(2 - e + z) Gamma(e - z - 1) / [Gamma(-e - z) Gamma(1 + e + z)];
    # scipy's loggamma shares no formula with varpi
    rng = np.random.default_rng(10)
    z = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-2.5, 2.5, 50)
    for e in (0.1, 0.25, 0.6):
        ratio = varpi(z + 1.0, e) / varpi(z, e)
        want = np.exp(loggamma(2.0 - e + z) + loggamma(e - z - 1.0)
                      - loggamma(-e - z) - loggamma(1.0 + e + z))
        assert np.max(np.abs(ratio / want - 1.0)) < 1e-13


def test_min_form_factor_memory_is_chunked():
    # temporaries live on one 8192-point chunk at a time: on 2^20 points the
    # traced peak stays within the input plus the output (about 33 MB)
    import tracemalloc
    beta = np.linspace(-16.0, 16.0, 1 << 20) + 1.3j
    tracemalloc.start()
    try:
        out = min_form_factor(beta, ModelParams(b=0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < beta.nbytes + out.nbytes


def test_barnes_vectorized_matches_scalar():
    z = RNG.uniform(0.5, 10, 20) + 1j * RNG.uniform(-5, 5, 20)
    vec = log_barnes_g(z)
    sc = np.array([log_barnes_g(complex(x)) for x in z])
    assert np.max(np.abs(vec - sc)) < 1e-13


# ---------------------------------------------------------------------------
# minimal form factor
# ---------------------------------------------------------------------------

def test_min_form_factor_zero():
    assert abs(min_form_factor(0.0, P)) < 1e-12


def test_min_form_factor_watson():
    # F(beta)/F(-beta) = S(beta) certifies the dual-exponent convention
    beta = RNG.uniform(-4, 4, 100)
    f = min_form_factor(beta, P)
    fm = min_form_factor(-beta, P)
    assert np.max(np.abs(f / fm - s_matrix(beta, P))) < 1e-9


def test_min_form_factor_crossing():
    # F(i pi - beta) = F(i pi + beta)
    beta = RNG.uniform(-2, 2, 25)
    lhs = min_form_factor(1j * np.pi - beta, P)
    rhs = min_form_factor(1j * np.pi + beta, P)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_min_form_factor_asymptote():
    assert abs(min_form_factor(30.0, P) - 1.0) < 0.1
    assert abs(min_form_factor(60.0, P) - 1.0) < 0.1


def test_varpi_reflection():
    # w_b(z) w_b(-z) picks up elementary Gamma ratios via the Barnes
    # functional equation; check the raw quotient against a direct rebuild
    z = 0.23 + 0.11j
    b = 0.3
    direct = np.exp(log_barnes_g(1 - b - z) + log_barnes_g(2 - b + z)
                    - log_barnes_g(1 + b + z) - log_barnes_g(b - z))
    assert abs(varpi(z, b) - direct) < 1e-12 * abs(direct)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def test_momentum_on_shell():
    params = ModelParams(b=0.3, mass=1.7)
    beta = RNG.uniform(-3, 3, 50)
    pvec = momentum(beta, params)
    msq = minkowski_dot(pvec, pvec)
    assert np.max(np.abs(msq - params.mass ** 2)) < 1e-10


def test_momentum_additivity_under_boost():
    beta = 0.8
    th = 0.45
    pv = momentum(beta + th, P)
    # boost acts as hyperbolic rotation on (E, p)
    e, q = momentum(beta, P)[..., 0], momentum(beta, P)[..., 1]
    want0 = e * np.cosh(th) + q * np.sinh(th)
    want1 = e * np.sinh(th) + q * np.cosh(th)
    assert abs(pv[..., 0] - want0) < 1e-12
    assert abs(pv[..., 1] - want1) < 1e-12

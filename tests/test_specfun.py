"""S-matrix, Barnes G, and minimal form factor: identities and mpmath oracle."""
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shgff.specfun import (
    ModelParams, SpecialFunctionError, log_barnes_g, log_gamma,
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


def test_params_dual_exponent_default():
    assert ModelParams(b=0.3).b_hat == pytest.approx(0.2, abs=1e-15)
    # self-dual point
    assert ModelParams(b=0.25).b_hat == pytest.approx(0.25, abs=1e-15)


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
    # with another dual exponent F is w_bhat, as the general formula gives off
    # beta = 0
    p1 = ModelParams(b=0.0, b_hat=0.3)
    beta = np.array([0.7, -1.1 + 0.5j, 3.0])
    z = 1j * beta / (2.0 * np.pi)
    general = -np.sin(np.pi * z) / np.pi * varpi(z, 0.0) * varpi(z, 0.3)
    assert np.max(np.abs(min_form_factor(beta, p1) - general) / np.abs(general)) < 1e-13
    assert min_form_factor(0.0, p1) == pytest.approx(varpi(0.0, 0.3), rel=1e-15)


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
# log Gamma / Barnes G
# ---------------------------------------------------------------------------

def test_log_gamma_pole_guard():
    with pytest.raises(SpecialFunctionError):
        log_gamma(0.0)
    with pytest.raises(SpecialFunctionError):
        log_gamma(-3.0)
    assert abs(np.exp(log_gamma(5.0)) - 24.0) < 1e-12


def test_barnes_special_values():
    assert abs(np.exp(log_barnes_g(1.0)) - 1.0) < 1e-12
    assert abs(np.exp(log_barnes_g(2.0)) - 1.0) < 1e-12
    assert abs(np.exp(log_barnes_g(3.0)) - 1.0) < 1e-12   # G(3) = 1! = 1
    assert abs(np.exp(log_barnes_g(4.0)) - 2.0) < 1e-12   # G(4) = 1!2! = 2


def test_barnes_functional_equation_grid():
    # G(z+1) = Gamma(z) G(z), relative residual on |z| in [0.5, 40]
    radii = np.geomspace(0.5, 40.0, 25)
    phases = np.exp(1j * np.linspace(-2.8, 2.8, 17))
    z = np.outer(radii, phases).ravel()
    lhs = log_barnes_g(z + 1.0)
    rhs = log_gamma(z) + log_barnes_g(z)
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


def test_min_form_factor_self_dual_single_quotient():
    # at b_hat = b the squared quotient stands in for the eight-call sum
    rng = np.random.default_rng(4)
    beta = rng.uniform(-8.0, 8.0, 200) + 1j * rng.uniform(-0.5, 3.5, 200)
    b = 0.25
    got = min_form_factor(beta, ModelParams(b=b))
    eight = min_form_factor(beta, ModelParams(b=b, b_hat=np.nextafter(b, 1.0)))
    z = 1j * beta / (2.0 * np.pi)
    lg = 0.0
    for _ in range(2):
        lg = (lg + log_barnes_g(1 - b - z) + log_barnes_g(2 - b + z)
              - log_barnes_g(1 + b + z) - log_barnes_g(b - z))
    rebuilt = -np.sin(np.pi * z) / np.pi * np.exp(lg)
    assert np.max(np.abs(got - eight) / np.abs(eight)) < 1e-13
    assert np.max(np.abs(got - rebuilt) / np.abs(rebuilt)) < 1e-13


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

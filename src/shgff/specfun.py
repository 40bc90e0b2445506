"""Exact two-body S-matrix, Barnes G, and the minimal two-particle form factor.

Everything here is vectorized over numpy arrays of complex rapidities; scalars
come back as python complex.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import loggamma

# zeta'(-1), 20 digits
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921

LOG_SQRT_TWO_PI = 0.5 * np.log(2.0 * np.pi)

# Bernoulli numbers B_4, B_6, ... used in the Barnes asymptotic tail
_BERNOULLI_2KP2 = [
    -1.0 / 30.0,        # B_4
    1.0 / 42.0,         # B_6
    -1.0 / 30.0,        # B_8
    5.0 / 66.0,         # B_10
    -691.0 / 2730.0,    # B_12
    7.0 / 6.0,          # B_14
]

POLE_TOL = 1e-14


class SpecialFunctionError(ValueError):
    """Raised on evaluation at (or too near) a pole or outside a validity sector."""


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Coupling and mass of the model.

    b is the dimensionless coupling in [0, 1/2]; b_hat is the dual exponent
    entering the Barnes-G representation of the minimal form factor and
    defaults to 1/2 - b (the Watson-compatible choice; 1/2 - b = b at the
    self-dual point b = 1/4).
    """

    b: float
    mass: float = 1.0
    b_hat: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.b <= 0.5):
            raise ValueError(f"coupling b must lie in [0, 1/2], got {self.b}")
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.b_hat is None:
            object.__setattr__(self, "b_hat", 0.5 - self.b)

    @property
    def sin2pib(self) -> float:
        return float(np.sin(2.0 * np.pi * self.b))


def _as_array(z):
    arr = np.asarray(z, dtype=complex)
    return arr, (arr.ndim == 0)


def log_gamma(z):
    """Principal branch of log Gamma; errors out at the poles (z = 0, -1, ...)."""
    arr, scalar = _as_array(z)
    near_int = np.abs(arr - np.round(arr.real)) < POLE_TOL
    bad = near_int & (np.round(arr.real) <= 0)
    if np.any(bad):
        raise SpecialFunctionError("log_gamma evaluated at a non-positive integer")
    out = loggamma(arr)
    return complex(out) if scalar else out


def _log_barnes_asymptotic(w):
    """ln G(1+w) for |w| large, |arg w| < pi. Asymptotic series with Bernoulli tail."""
    lw = np.log(w)
    out = (
        w * w * (0.5 * lw - 0.75)
        + w * LOG_SQRT_TWO_PI
        - lw / 12.0
        + ZETA_PRIME_MINUS_ONE
    )
    w2 = w * w
    pw = w2.copy() if hasattr(w2, "copy") else w2
    for k, b2k in enumerate(_BERNOULLI_2KP2, start=1):
        term = b2k / (4 * k * (k + 1)) / pw
        out = out + term
        pw = pw * w2
    return out


_BARNES_SHIFT_RADIUS = 30.0


def log_barnes_g(z):
    """log G(z) for the Barnes G-function, principal determination.

    Uses the functional equation G(z+1) = Gamma(z) G(z) to push the argument
    into the region Re z >= 30 where the asymptotic expansion (with Bernoulli
    corrections) is accurate to ~1e-15, then subtracts the accumulated
    log-Gamma factors. Errors out at the zeros z = 0, -1, -2, ...
    """
    arr, scalar = _as_array(z)
    near_int = np.abs(arr - np.round(arr.real)) < POLE_TOL
    bad = near_int & (np.round(arr.real) <= 0)
    if np.any(bad):
        raise SpecialFunctionError("log_barnes_g evaluated at a zero of G (z <= 0 integer)")

    flat = np.atleast_1d(arr).ravel()
    # number of functional-equation shifts per element
    nshift = np.maximum(0, np.ceil(_BARNES_SHIFT_RADIUS + 1.0 - flat.real)).astype(int)
    acc = np.zeros_like(flat)
    maxshift = int(nshift.max()) if flat.size else 0
    cur = flat.copy()
    for j in range(maxshift):
        active = nshift > j
        # log G(z) = log G(z+1) - log Gamma(z)
        acc[active] -= loggamma(cur[active])
        cur[active] += 1.0
    # now Re(cur) >= 31 wherever shifted; G(cur) = G(1 + (cur-1))
    out = acc + _log_barnes_asymptotic(cur - 1.0)
    out = out.reshape(np.atleast_1d(arr).shape)
    if scalar:
        return complex(out.ravel()[0])
    return out


def s_matrix(beta, params: ModelParams):
    """Two-body S-matrix S(beta) = (sinh beta - i sin 2 pi b)/(sinh beta + i sin 2 pi b)."""
    arr, scalar = _as_array(beta)
    s = params.sin2pib
    num = np.sinh(arr) - 1j * s
    den = np.sinh(arr) + 1j * s
    if np.any(np.abs(den) < POLE_TOL):
        raise SpecialFunctionError("s_matrix evaluated at a pole (sinh beta = -i sin 2 pi b)")
    out = num / den
    return complex(out) if scalar else out


def _log_varpi(z, b, acc=0.0):
    """acc + log w_b(z), accumulated term by term and in place, so that two
    quotients chained through acc round as one eight-term sum and hold no
    more grid-sized arrays than it."""
    acc += log_barnes_g(1.0 - b - z)
    acc += log_barnes_g(2.0 - b + z)
    acc -= log_barnes_g(1.0 + b + z)
    acc -= log_barnes_g(b - z)
    return acc


def varpi(z, exponent):
    """Barnes-G quotient w_b(z) = G(1-b-z) G(2-b+z) / [G(1+b+z) G(b-z)].

    `z` is the scaled rapidity i*beta/(2*pi); `exponent` is the coupling-like
    exponent b. The minimal form factor is the product of two of these at the
    dual pair of exponents times an elementary prefactor.
    """
    arr, scalar = _as_array(_log_varpi(z, exponent))
    out = np.exp(arr)
    return complex(out) if scalar else out


def min_form_factor(beta, params: ModelParams):
    """Minimal two-particle form factor F(beta).

    F(beta) = -sin(pi z)/pi * w_b(z) * w_bhat(z) with z = i beta/(2 pi); the
    prefactor is 1/(Gamma(1+z) Gamma(-z)) by the reflection formula. F(0) = 0,
    F(beta) -> 1 as |Re beta| -> infinity, and F(beta)/F(-beta) = S(beta).
    """
    arr, scalar = _as_array(beta)
    z = 1j * arr / (2.0 * np.pi)
    lg = _log_varpi(z, params.b_hat, _log_varpi(z, params.b))
    pref = -np.sin(np.pi * z) / np.pi
    out = pref * np.exp(lg)
    return complex(out) if scalar else out


def momentum(beta, params: ModelParams):
    """On-shell 2-momentum (m cosh beta, m sinh beta); last axis is the Lorentz index."""
    arr = np.asarray(beta, dtype=complex)
    return np.stack([params.mass * np.cosh(arr), params.mass * np.sinh(arr)], axis=-1)


def minkowski_dot(p, q):
    """Minkowski inner product p0 q0 - p1 q1 along the last axis."""
    p = np.asarray(p)
    q = np.asarray(q)
    return p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1]

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

# Bernoulli numbers B_2, B_4, ..., B_22 for the asymptotic tails of log Gamma
# and log G (DLMF 5.11.1, 5.17.5)
_BERNOULLI_2K = [
    1.0 / 6.0,          # B_2
    -1.0 / 30.0,        # B_4
    1.0 / 42.0,         # B_6
    -1.0 / 30.0,        # B_8
    5.0 / 66.0,         # B_10
    -691.0 / 2730.0,    # B_12
    7.0 / 6.0,          # B_14
    -3617.0 / 510.0,    # B_16
    43867.0 / 798.0,    # B_18
    -174611.0 / 330.0,  # B_20
    854513.0 / 138.0,   # B_22
]
# Tails at w of log Gamma(1+w), sum_k B_2k / (2k (2k-1)) w^(1-2k), and of
# log G(1+w), sum_k B_2k+2 / (4k (k+1)) w^(-2k), for k = 1..10
_GAMMA_TAIL = [b / (2 * k * (2 * k - 1))
               for k, b in enumerate(_BERNOULLI_2K[:-1], start=1)]
_BARNES_TAIL = [b / (4 * k * (k + 1))
                for k, b in enumerate(_BERNOULLI_2K[1:], start=1)]

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


def _reject_nonpositive_integers(arr, message: str):
    """Raise SpecialFunctionError(message) if an element is within POLE_TOL of 0, -1, -2, ..."""
    near_int = np.abs(arr - np.round(arr.real)) < POLE_TOL
    if np.any(near_int & (np.round(arr.real) <= 0)):
        raise SpecialFunctionError(message)


def log_gamma(z):
    """Principal branch of log Gamma; errors out at the poles (z = 0, -1, ...)."""
    arr, scalar = _as_array(z)
    _reject_nonpositive_integers(arr, "log_gamma evaluated at a non-positive integer")
    out = loggamma(arr)
    return complex(out) if scalar else out


def _horner(coeffs, u):
    """coeffs[0] + coeffs[1] u + coeffs[2] u^2 + ..."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc


# Shifts push Re w to at least this radius, where the first omitted terms of
# both tails are below 3e-18 (at 10 they would be 2e-20, but the larger shift
# costs two more log passes and doubles the rounding error near Re z = 1)
_BARNES_SHIFT_RADIUS = 8.0
# Elements evaluated together, so that their temporaries stay in cache
_BARNES_CHUNK = 8192


def _log_barnes_flat(z):
    """log G(z) on a 1-D array that has no zero of G."""
    x, y = z.real, z.imag
    n = np.maximum(0.0, np.ceil(_BARNES_SHIFT_RADIUS + 1.0 - x))
    w = z + (n - 1.0)
    w2 = w * w
    lw = np.log(w)
    u = 1.0 / w2
    # log G(1+w) - n log Gamma(1+w)
    out = (w2 * (0.5 * lw - 0.75) + w * LOG_SQRT_TWO_PI - lw / 12.0
           + ZETA_PRIME_MINUS_ONE + u * _horner(_BARNES_TAIL, u)
           - n * ((w + 0.5) * lw - w + LOG_SQRT_TWO_PI + _horner(_GAMMA_TAIL, u) / w))
    # + sum_{i<n} (i+1) log(z+i), with log(z+i) = log|z+i| + i arg(z+i)
    re = np.zeros_like(x)
    im = np.zeros_like(x)
    y2 = y * y
    nmin = n.min()
    for i in range(int(n.max())):
        # weight i+1 where i < n, 0 elsewhere
        c = i + 1.0 if i < nmin else np.where(n > i, i + 1.0, 0.0)
        xi = x + i
        re += c * np.log(xi * xi + y2)
        im += c * np.arctan2(y, xi)
    return out + (0.5 * re + 1j * im)


def log_barnes_g(z):
    """log G(z) for the Barnes G-function, principal determination.

    With n = max(0, ceil(9 - Re z)) and w = z + n - 1 (so Re w >= 8),
    G(z+1) = Gamma(z) G(z) and Gamma(z+1) = z Gamma(z) give
        log G(z) = log G(1+w) - n log Gamma(1+w) + sum_{i<n} (i+1) log(z+i),
    exact on the principal branches. On the negative real axis the sign of
    a zero imaginary part picks the side, so log G(conj z) = conj log G(z)
    exactly. log G(1+w) and log Gamma(1+w) come from their asymptotic series
    with ten Bernoulli terms each (B_2..B_22); at |w| >= 8 the first omitted
    term of each is below 3e-18. Each element is shifted by its own n, so its
    value does not depend on the rest of the array. Errors out at the zeros
    z = 0, -1, -2, ...
    """
    arr, scalar = _as_array(z)
    _reject_nonpositive_integers(arr, "log_barnes_g evaluated at a zero of G (z <= 0 integer)")

    flat = arr.ravel()
    out = np.empty_like(flat)
    for s in range(0, flat.size, _BARNES_CHUNK):
        out[s:s + _BARNES_CHUNK] = _log_barnes_flat(flat[s:s + _BARNES_CHUNK])
    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


def s_matrix(beta, params: ModelParams):
    """Two-body S-matrix S(beta) = (sinh beta - i sin 2 pi b)/(sinh beta + i sin 2 pi b).
    Beyond |Re beta| = 700, where S differs from its limit 1 by less than
    1e-300 and sinh soon overflows, S is that limit. At b = 0 it is
    sinh beta / sinh beta, identically 1; its 0/0 at beta = 0 is removable."""
    arr, scalar = _as_array(beta)
    s = params.sin2pib
    one = (np.abs(arr.real) > 700.0) | (s == 0.0)
    # such a point is evaluated at 1, where sinh cannot overflow or meet the pole
    sh = np.sinh(np.where(one, 1.0, arr))
    num = sh - 1j * s
    den = sh + 1j * s
    if np.any(np.abs(den) < POLE_TOL):
        raise SpecialFunctionError("s_matrix evaluated at a pole (sinh beta = -i sin 2 pi b)")
    out = np.where(one, 1.0 + 0.0j, num / den)
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
    prefactor is 1/(Gamma(1+z) Gamma(-z)) by the reflection formula. F(0) = 0
    for b > 0, F(beta) -> 1 as |Re beta| -> infinity, and F(beta)/F(-beta) =
    S(beta).
    At b_hat = b (the self-dual point b = 1/4 of the default b_hat) the two
    quotients coincide, and one is computed and squared. At b = 0 the
    prefactor times w_0(z) = Gamma(-z) Gamma(1+z) is identically 1, also at
    z = 0, 1, 2, ..., where it is a removable 0 * infinity, so F is w_bhat(z).
    """
    arr, scalar = _as_array(beta)
    z = 1j * arr / (2.0 * np.pi)
    if params.b == 0.0:
        return varpi(z, params.b_hat)
    if params.b_hat == params.b:
        lg = _log_varpi(z, params.b)
        lg *= 2.0
    else:
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

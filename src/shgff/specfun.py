"""Exact two-body S-matrix, Barnes G, and the minimal two-particle form factor.

Everything here is vectorized over numpy arrays of complex rapidities; scalars
come back as python complex.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .combin import _is_finite

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

    b is the dimensionless coupling in [0, 1/2] and mass a finite positive
    number (combin._is_finite; ValueError otherwise); b_hat is the dual exponent
    entering the Barnes-G representation of the minimal form factor and
    defaults to 1/2 - b (the Watson-compatible choice; 1/2 - b = b at the
    self-dual point b = 1/4). A given b_hat must be a finite real number
    (ValueError otherwise); it may lie outside [0, 1/2].
    """

    b: float
    mass: float = 1.0
    b_hat: float | None = None

    def __post_init__(self):
        if not (_is_finite(self.b) and 0.0 <= self.b <= 0.5):
            raise ValueError(f"coupling b must be a number in [0, 1/2], got {self.b!r}")
        if not (_is_finite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be a finite positive number, got {self.mass!r}")
        if self.b_hat is None:
            object.__setattr__(self, "b_hat", 0.5 - self.b)
        elif not _is_finite(self.b_hat):
            raise ValueError(f"b_hat must be a finite real number, got {self.b_hat!r}")

    @property
    def sin2pib(self) -> float:
        """sin 2 pi b; exactly 0 at b = 1/2, where np.sin(pi) is 1.2e-16."""
        return float(np.sin(2.0 * np.pi * self.b)) if self.b < 0.5 else 0.0


def _as_array(z):
    arr = np.asarray(z, dtype=complex)
    return arr, (arr.ndim == 0)


def _horner(coeffs, u):
    """coeffs[0] + coeffs[1] u + coeffs[2] u^2 + ..."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc


# Shifts push Re w to at least this radius, where the first omitted terms of
# both tails are below 3e-18 (at 10 they would be 2e-20, but the larger shift
# costs two more log passes and doubles the rounding error near Re z = 1)
_SHIFT_RADIUS = 8.0
# Elements evaluated together, so that their temporaries stay in cache
_CHUNK = 8192
# Elements times steps of one block of _log_ratio's rising sums
_RISING_BLOCK = 16384


def _shift(z):
    """n = max(0, ceil(9 - Re z)) and w = z + n - 1 (so Re w >= 8), with
    log w, u = 1/w^2 and the Stirling series of log Gamma(1+w)."""
    n = np.maximum(0.0, np.ceil(_SHIFT_RADIUS + 1.0 - z.real))
    w = z + (n - 1.0)
    lw, u = np.log(w), 1.0 / (w * w)
    return n, w, lw, u, (w + 0.5) * lw - w + LOG_SQRT_TWO_PI + _horner(_GAMMA_TAIL, u) / w


def _log_rising(z, n, weight):
    """sum_{i<n} weight(i) log(z+i), with log(z+i) = log|z+i| + i arg(z+i);
    the sign of a zero Im z picks the side of the negative real axis."""
    x, y = z.real, z.imag
    re, im = np.zeros_like(x), np.zeros_like(x)
    y2 = y * y
    nmin = n.min()
    for i in range(int(n.max())):
        # weight(i) where i < n, 0 elsewhere
        c = weight(i) if i < nmin else np.where(n > i, weight(i), 0.0)
        xi = x + i
        re += c * np.log(xi * xi + y2)
        im += c * np.arctan2(y, xi)
    return 0.5 * re + 1j * im


def _log_barnes_flat(z):
    """log G(z) on a 1-D array that has no zero of G."""
    n, w, lw, u, lgam = _shift(z)
    w2 = w * w
    # log G(1+w) - n log Gamma(1+w) + sum_{i<n} (i+1) log(z+i)
    out = (w2 * (0.5 * lw - 0.75) + w * LOG_SQRT_TWO_PI - lw / 12.0
           + ZETA_PRIME_MINUS_ONE + u * _horner(_BARNES_TAIL, u) - n * lgam)
    return out + _log_rising(z, n, lambda i: i + 1.0)


def log_barnes_g(z):
    """log G(z) for the Barnes G-function, principal determination.

    With n and w = z + n - 1 (Re w >= 8) from _shift, G(z+1) = Gamma(z) G(z)
    and Gamma(z+1) = z Gamma(z) give
        log G(z) = log G(1+w) - n log Gamma(1+w) + sum_{i<n} (i+1) log(z+i),
    exact on the principal branches, and log G(conj z) = conj log G(z)
    exactly. Both series at w have ten Bernoulli terms (B_2..B_22). Each
    element is shifted by its own n, so its value does not depend on the rest
    of the array, and the elements are evaluated _CHUNK at a time. Raises
    SpecialFunctionError within POLE_TOL of a zero z = 0, -1, -2, ...
    """
    arr, scalar = _as_array(z)
    k = np.round(arr.real)
    if np.any((np.abs(arr - k) < POLE_TOL) & (k <= 0)):
        raise SpecialFunctionError("log_barnes_g evaluated at a zero of G (z <= 0 integer)")
    flat = arr.ravel()
    out = np.empty_like(flat)
    for s in range(0, flat.size, _CHUNK):
        out[s:s + _CHUNK] = _log_barnes_flat(flat[s:s + _CHUNK])
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def s_matrix(beta, params: ModelParams):
    """Two-body S-matrix S(beta) = (sinh beta - i sin 2 pi b)/(sinh beta + i sin 2 pi b).
    Beyond |Re beta| = 700, where S differs from its limit 1 by less than
    1e-300 and sinh soon overflows, S is that limit. At b = 0 and b = 1/2 it
    is sinh beta / sinh beta, identically 1; its 0/0 at beta = 0 is removable."""
    arr, scalar = _as_array(beta)
    s = params.sin2pib
    one = (np.abs(arr.real) > 700.0) | (s == 0.0)
    # such a point is evaluated at 1, where sinh cannot overflow or meet the pole
    sh = np.sinh(np.where(one, 1.0, arr))
    den = sh + 1j * s
    if np.any(np.abs(den) < POLE_TOL):
        raise SpecialFunctionError("s_matrix evaluated at a pole (sinh beta = -i sin 2 pi b)")
    out = np.where(one, 1.0 + 0.0j, (sh - 1j * s) / den)
    return complex(out) if scalar else out


def _complex(re, im):
    """The complex array re + i im, without arithmetic on either part."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _log_ratio(xr, y, a):
    """R(x) = log G(x + a) - log G(x), up to a multiple of 2 pi i, for
    x = xr + i y and real a, elementwise (a broadcasts against x).

    Both arguments take one shift n, so that w = x + n - 1 has Re w >= 8 and
    Re(w + a) >= 8. log_barnes_g's identity at x and at x + a then gives
        R(x) = D_G(w) - n D_Gamma(w) + sum_{i<n} (i+1) log((x+a+i)/(x+i)),
    where D_f(w) = log f(1+w+a) - log f(1+w) is taken from the asymptotic
    series of log G(1+w) and log Gamma(1+w). Their leading terms are
    differenced exactly, through L = log(w+a) - log w = log((x+a+n-1)/(x+n-1)):
        D_G = s/2 log w + (w+a)^2/2 L - 3s/4 + a log sqrt(2 pi) - L/12,
        D_Gamma = a log w + (w+a+1/2) L - a,        s = 2aw + a^2,
    which with p = x + a/2 - 1 sum to
        D_G - n D_Gamma = a (p (log w - 3/2) + log sqrt(2 pi) - n/2)
                          + ((p + a/2)^2/2 - n(n+1)/2 - 1/12) L.
    The B_2..B_22 tails are evaluated at w and at w + a. Each quotient
    (x+a+i)/(x+i), L included, costs one real log1p and one arctan2, and
    log w is built from real functions too. No term of order w^2 log w is
    subtracted, so R keeps the accuracy of its value; at a = 0 it is 0.
    """
    n = np.maximum(0.0, np.ceil(_SHIFT_RADIUS + 1.0 - xr - np.minimum(a, 0.0)))
    y2, nay, a2 = y * y, -a * y, a + a
    num = a2 * xr + a * a

    def log_quotient(i, out):
        """2 Re and Im of log((x+a+i)/(x+i)) into out[0] and out[1];
        returns Re(x+i) and |x+i|^2."""
        re = xr + i
        d = re * re + y2
        np.log1p((num + a2 * i) / d, out=out[0])
        np.arctan2(nay, a * re + d, out=out[1])
        return re, d

    # x or x + a within POLE_TOL of 0, -1, -2, ...? Only where |y| < POLE_TOL
    tol2 = POLE_TOL * POLE_TOL
    near = y2 < tol2
    if near.any():
        re = xr[near]
        re = np.stack([re, re + np.broadcast_to(a, xr.shape)[near]])
        k = np.round(re)
        if np.any(((re - k) ** 2 + y2[near] < tol2) & (k <= 0.0)):
            raise SpecialFunctionError("min_form_factor: a Barnes G argument of "
                                       "w_b(z) is at a zero of G (0, -1, -2, ...)")
    # the rising sums, weighted i + 1 where i < n, a block of steps at a time;
    # slot 0 of a block carries the sum so far, so that every element adds its
    # terms in the order of i, however the steps are blocked
    rising = np.zeros((2,) + xr.shape)
    steps = int(n.max())
    block = max(1, _RISING_BLOCK // xr.size)
    for start in range(0, steps, block):
        i = np.arange(start, min(start + block, steps)).reshape((-1,) + (1,) * xr.ndim)
        q = np.empty((2, len(i) + 1) + xr.shape)
        q[:, 0] = rising
        log_quotient(i, q[:, 1:])
        q[:, 1:] *= np.where(i < n, i + 1.0, 0.0)
        rising = q.sum(axis=1)
    L = np.empty(xr.shape, dtype=complex)
    wr, d = log_quotient(n - 1.0, (L.real, L.imag))
    L.real *= 0.5
    log_w = _complex(0.5 * np.log(d) - 1.5, np.arctan2(y, wr))
    # the tails at w and w + a: the Barnes series in u = 1/v^2, the Gamma series over v
    v = np.empty((2,) + xr.shape, dtype=complex)
    v.real[0] = wr
    np.add(wr, a, out=v.real[1])
    v.imag[...] = y
    u = 1.0 / (v * v)
    tail = u * _horner(_BARNES_TAIL, u) - n * (_horner(_GAMMA_TAIL, u) / v)
    p = _complex(xr + (0.5 * a - 1.0), y)
    d = p + 0.5 * a
    out = a * (p * log_w + (LOG_SQRT_TWO_PI - 0.5 * n))
    out += (0.5 * d * d - (0.5 * n * (n + 1.0) + 1.0 / 12.0)) * L
    out += tail[1] - tail[0]
    out.real += 0.5 * rising[0]
    out.imag += rising[1]
    return out


def _log_varpi(z, exponents):
    """The sum over the exponents b of log w_b(z), up to a multiple of 2 pi i,
    each as two ratios, log w_b(z) = R(b - z) + R(1 + b + z) with
    R(x) = log G(x + a) - log G(x) and a = 1 - 2b (see _log_ratio): the
    four Barnes arguments of w_b are x and x + a at x = b - z and 1 + b + z.
    In chunks of _CHUNK elements of the flattened z, each chunk one
    _log_ratio call on the rows of every ratio, summed row after row.
    Raises SpecialFunctionError where one of the four Barnes arguments of a
    quotient is within POLE_TOL of a zero of G."""
    flat = np.asarray(z, dtype=complex).ravel()
    # rows b - z and 1 + b + z for each exponent b
    start = np.array([[b + k] for b in exponents for k in (0.0, 1.0)])
    sign = np.array([[-1.0], [1.0]] * len(exponents))
    a = np.array([[1.0 - 2.0 * b] for b in exponents for _ in (0, 1)])
    out = np.empty_like(flat)
    for s in range(0, flat.size, _CHUNK):
        c = flat[s:s + _CHUNK]
        ratios = _log_ratio(start + sign * c.real, sign * c.imag, a)
        acc = ratios[0]
        for r in ratios[1:]:
            acc = acc + r
        out[s:s + _CHUNK] = acc
    return out.reshape(np.shape(z))


def varpi(z, exponent):
    """Barnes-G quotient w_b(z) = G(1-b-z) G(2-b+z) / [G(1+b+z) G(b-z)].

    `z` is the scaled rapidity i*beta/(2*pi); `exponent` is the coupling-like
    exponent b. The minimal form factor is the product of two of these at the
    dual pair of exponents times an elementary prefactor. Evaluated as
    exp(R(b - z) + R(1 + b + z)) with R(x) = log G(x + a) - log G(x),
    a = 1 - 2b (see _log_ratio), so w_{1/2} is exactly 1. Raises
    SpecialFunctionError at a zero of one of the four G's.
    """
    arr, scalar = _as_array(z)
    out = np.exp(_log_varpi(arr.ravel(), (exponent,)))
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def min_form_factor(beta, params: ModelParams):
    """Minimal two-particle form factor F(beta).

    F(beta) = -sin(pi z)/pi * w_b(z) * w_bhat(z) with z = i beta/(2 pi); the
    prefactor is 1/(Gamma(1+z) Gamma(-z)) by the reflection formula, and is
    evaluated as -i sinh(beta/2)/pi. F(0) = 0 for b > 0, F(beta) -> 1 as
    |Re beta| -> infinity, and F(beta)/F(-beta) = S(beta).
    The quotients are summed in the log as ratios of Barnes G's with one
    shared shift each (see _log_varpi and _log_ratio), within about 1e-14
    relative of mpmath on the rapidities the correlators and pairings use.
    At b_hat = b (the self-dual point b = 1/4 of the default b_hat) the two
    quotients coincide, and one is computed and squared. At b = 0 the
    prefactor times w_0(z) = Gamma(-z) Gamma(1+z) is identically 1, also at
    z = 0, 1, 2, ..., where it is a removable 0 * infinity, so F is w_bhat(z);
    likewise F is w_b(z) at b_hat = 0 (b = 1/2 of the default b_hat). With
    the default b_hat both are w_{1/2}, exactly 1.
    Each element's value is independent of the rest of the array, and a
    scalar gets the value it has as an element. Raises SpecialFunctionError
    at a zero of one of the Barnes G's.
    """
    arr, scalar = _as_array(beta)
    # 1-D, so that a scalar takes the arithmetic of an array's elements
    flat = arr.ravel()
    z = 1j * flat / (2.0 * np.pi)
    if params.b == 0.0 or params.b_hat == 0.0:
        out = varpi(z, params.b + params.b_hat)    # the other exponent
    else:
        if params.b_hat == params.b:
            lg = _log_varpi(z, (params.b,))
            lg *= 2.0
        else:
            lg = _log_varpi(z, (params.b, params.b_hat))
        # -sin(pi z)/pi = -i sinh(beta/2)/pi
        out = np.sinh(0.5 * flat) * (-1j / np.pi) * np.exp(lg)
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def momentum(beta, params: ModelParams):
    """On-shell 2-momentum (m cosh beta, m sinh beta); last axis is the Lorentz index."""
    arr = np.asarray(beta, dtype=complex)
    return np.stack([params.mass * np.cosh(arr), params.mass * np.sinh(arr)], axis=-1)


def minkowski_dot(p, q):
    """Minkowski inner product p0 q0 - p1 q1 along the last axis."""
    p, q = np.asarray(p), np.asarray(q)
    return p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1]

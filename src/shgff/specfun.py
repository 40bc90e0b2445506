"""Exact two-body S-matrix, Barnes G, and the minimal two-particle form factor.

Everything here is vectorized over numpy arrays of complex rapidities; scalars
come back as python complex.

The minimal form factor takes no Barnes G value. Kinkelin's reflection
formula, log G(1-x) - log G(1+x) = int_0^x pi t cot(pi t) dt - x log 2 pi
(Adamchik, Contributions to the theory of the Barnes function, 2003), turns
each quotient w_e(z) of four G's into (2 pi)^(1-2e) times the exponential of
-int_{e+z}^{1-e+z} pi x cot(pi x) dx, which is elementary plus two
dilogarithms of q = exp(2 pi i x). Its branches are principal where every
|q| <= 1 (Im z >= 0), and Im z < 0 is the conjugate at conj z (see varpi and
_quotients). log_barnes_g is the public Barnes G.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .combin import _is_finite

# zeta'(-1), 20 digits
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921

LOG_SQRT_TWO_PI = 0.5 * np.log(2.0 * np.pi)

# Bernoulli numbers B_2, B_4, ..., B_22 for the asymptotic tails of log Gamma
# and log G (DLMF 5.11.1, 5.17.5) and the series of the dilogarithm
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
    number (combin._is_finite; ValueError otherwise). The S-matrix fixes the
    minimal form factor, so its dual exponent b_hat = 1/2 - b is a property,
    not a setting (b_hat = b at the self-dual point b = 1/4).
    """

    b: float
    mass: float = 1.0

    def __post_init__(self):
        if not (_is_finite(self.b) and 0.0 <= self.b <= 0.5):
            raise ValueError(f"coupling b must be a number in [0, 1/2], got {self.b!r}")
        if not (_is_finite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be a finite positive number, got {self.mass!r}")

    @property
    def b_hat(self) -> float:
        """The dual exponent 1/2 - b of the Barnes-G representation of F_min."""
        return 0.5 - self.b

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


def _by_chunk(f, arr):
    """f on the flattened array, _CHUNK elements a call, reshaped back; a
    scalar comes back as python complex."""
    flat = arr.ravel()
    out = np.empty_like(flat)
    for s in range(0, flat.size, _CHUNK):
        out[s:s + _CHUNK] = f(flat[s:s + _CHUNK])
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
    arr = np.asarray(z, dtype=complex)
    k = np.round(arr.real)
    if np.any((np.abs(arr - k) < POLE_TOL) & (k <= 0)):
        raise SpecialFunctionError("log_barnes_g evaluated at a zero of G (z <= 0 integer)")
    return _by_chunk(_log_barnes_flat, arr)


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


# B_2k / (2k+1)!, k = 1..9: Li_2(q) = -v Q(v), Q(v) = 1 + v/4 + sum_k B_2k v^2k / (2k+1)!
# at v = log(1 - q); |v| <= pi/3 wherever _quotients sums it, so the first
# omitted term is below 3e-17, an eighth of an ulp of Li_2 there
_LI2_TAIL = [b / math.factorial(2 * k + 1) for k, b in enumerate(_BERNOULLI_2K[:9], start=1)]


def _cmul(a, b):
    """(a_re + i a_im)(b_re + i b_im) for (re, im) pairs of real arrays.
    Real arithmetic, because numpy's complex product takes a fused or an
    unfused loop depending on the operands' memory, so an element's bits
    would depend on the rest of the array."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _li2_q(v):
    """Q(v) of _LI2_TAIL for a (re, im) pair v. Its polynomial P in w = v^2
    (real coefficients at a complex point) runs by the second-order
    recurrence b_j = c_j + 2 Re w b_j+1 - |w|^2 b_j+2, four real operations
    a step, and P = c_1 + w b_2 - |w|^2 b_3."""
    wr, wi = _cmul(v, v)
    t, r = 2.0 * wr, wr * wr + wi * wi
    b1, b2 = _LI2_TAIL[-1], 0.0
    for c in reversed(_LI2_TAIL[1:-1]):
        b1, b2 = c + t * b1 - r * b2, b1
    pr, pi = _cmul((wr, wi), (wr * b1 + (_LI2_TAIL[0] - r * b2), wi * b1))
    return pr + 0.25 * v[0] + 1.0, pi + 0.25 * v[1]


def _quotients(beta, exponents, prefactor: bool):
    """The product of w_e(z) over `exponents` (a repeated exponent is
    evaluated once), times -i sinh(beta/2)/pi if `prefactor`, at
    z = i beta/(2 pi), on a 1-D array of beta; see varpi for the formula.

    With sigma = |Re beta|, tau = Im beta and z = i (sigma + i tau)/(2 pi),
    each x = e + z and 1 - e + z is one row of q = exp(2 pi i x) =
    exp(-sigma + i phi), phi = 2 pi Re x. A row's T = 2 pi i x log(1 - q) + Li_2(q) is
        Re q <= 1/2:  (-sigma + i phi) v - v Q(v),         v = log(1 - q),
        Re q > 1/2:   2 pi i k log(1 - q) + pi^2/6 + v Q(v),   v = log q,
    the second by Li_2(q) + Li_2(1 - q) = pi^2/6 - log q log(1 - q), with
    log q = -sigma + i (phi - 2 pi k), k = round(phi / 2 pi), and Li_2 = -v Q
    (_LI2_TAIL), one series for every row, |v| <= pi/3. At q = 1 and k = 0
    (x = 0, the removable point of pi x cot pi x) T is pi^2/6; q = 1 with
    k != 0 is a zero of one of the four G's and raises SpecialFunctionError
    within POLE_TOL. 1 - q and (1 - e^-beta) e^(i tau/2) come from cos and
    sin of tau/2, e^-sigma and expm1(-sigma) with no cancellation, each log
    from a real log and arctan2, and the e^(sigma/2) of the prefactor
    cancels the quotients' e^(-sigma/2) before any exponential is taken.
    Re beta < 0 is evaluated at -conj(beta) and conjugated."""
    flip = beta.real < 0.0
    sigma, tau = np.abs(beta.real), beta.imag
    distinct = list(dict.fromkeys(exponents))
    weight = np.array([[exponents.count(e)] for e in distinct], dtype=float)
    # each row's Re x at z = 0: e, then 1 - e, so that w_1/2 has two equal rows
    rows = np.array([[r] for e in distinct for r in (e, 1.0 - e)])
    phi = 2.0 * np.pi * rows - tau
    k = np.round(phi / (2.0 * np.pi))
    wrapped = phi - 2.0 * np.pi * k
    near = sigma < 2.0 * np.pi * POLE_TOL
    if near.any() and np.any((np.hypot(wrapped[:, near], sigma[near]) < 2.0 * np.pi * POLE_TOL)
                             & (k[:, near] != 0.0)):
        raise SpecialFunctionError("Barnes G quotient w_e(z): a G argument is at a "
                                   "zero of G (0, -1, -2, ...)")
    half = 0.5 * tau
    ch, sh = np.cos(half), np.sin(half)
    ca, sa = np.cos(np.pi * rows), np.sin(np.pi * rows)
    # sin and cos of phi / 2
    s, c = sa * ch - ca * sh, ca * ch + sa * sh
    log_abs_q = -sigma
    em, m = np.exp(log_abs_q), np.expm1(log_abs_q)
    es = 2.0 * em * s
    ess = es * s
    re, im = ess - m, -es * c       # 1 - q
    d = re * re + im * im
    g = 0.5 * np.log(d, out=np.zeros_like(d), where=d > 0.0), np.arctan2(im, re)
    refl = em - ess > 0.5           # Re q > 1/2
    v = np.where(refl, log_abs_q, g[0]), np.where(refl, wrapped, g[1])
    vq = _cmul(v, _li2_q(v))
    tr, ti = _cmul((np.where(refl, 0.0, log_abs_q), phi - np.where(refl, wrapped, 0.0)), g)
    tr += np.where(refl, vq[0] + np.pi ** 2 / 6.0, -vq[0])
    ti += np.where(refl, vq[1], -vq[1])
    # sum_e (1 - 2e) (log 2 pi - sigma/2 + i (pi - tau)/2) + i (T_2 - T_1) / 2 pi,
    # and sigma/2 - log 2 pi more with the prefactor
    lead = len(exponents) - 2.0 * sum(exponents)
    dr = (weight * (tr[1::2] - tr[::2])).sum(axis=0)
    di = (weight * (ti[1::2] - ti[::2])).sum(axis=0)
    mag = np.exp((lead - prefactor) * (np.log(2.0 * np.pi) - 0.5 * sigma) - di / (2.0 * np.pi))
    arg = 0.5 * lead * (np.pi - tau) + dr / (2.0 * np.pi)
    re, im = mag * np.cos(arg), mag * np.sin(arg)
    if prefactor:
        # -i sinh(beta/2)/pi = e^(sigma/2) (1 - e^-beta) e^(i tau/2) / (2 pi i)
        re, im = _cmul((re, im), ((1.0 + em) * sh, m * ch))
    out = np.empty(beta.shape, dtype=complex)
    out.real, out.imag = re, np.where(flip, -im, im)
    return out


def varpi(z, exponent):
    """Barnes-G quotient w_e(z) = G(1-e-z) G(2-e+z) / [G(1+e+z) G(e-z)].

    `z` is the scaled rapidity i*beta/(2*pi); `exponent` is the coupling-like
    exponent e. The minimal form factor is the product of two of these at the
    dual pair of exponents times an elementary prefactor. Kinkelin's
    reflection formula, log G(1-x) - log G(1+x) = int_0^x pi t cot(pi t) dt
    - x log 2 pi, at x_1 = e + z and x_2 = 1 - e + z gives
        w_e(z) = (2 pi)^(1-2e) exp(-int_{x_1}^{x_2} pi x cot(pi x) dx),
    and with q_j = exp(2 pi i x_j) the integral is elementary plus two
    dilogarithms:
        log w_e = (1-2e) log 2 pi - [x_2 log(1-q_2) - x_1 log(1-q_1)]
                  - [Li_2(q_2) - Li_2(q_1)] / (2 pi i) + (i pi/2)(1-2e)(1+2z),
    on principal branches where every |q| <= 1, i.e. Im z >= 0; Im z < 0 is
    evaluated as conj w_e(conj z). x = 0 (q = 1), where pi x cot pi x is
    removable, is taken at its limit (see _quotients). Raises
    SpecialFunctionError at a zero of one of the four G's, x_1 or x_2 a
    nonzero integer, but for e = 1/2: there x_1 = x_2, each zero of a
    numerator G meets the same zero of a denominator G, and w_1/2 is exactly
    1 everywhere. Evaluated _CHUNK elements at a time, each element's value
    independent of the rest of the array.
    """
    arr = np.asarray(z, dtype=complex)
    if exponent == 0.5:
        return _by_chunk(np.ones_like, arr)
    return _by_chunk(lambda c: _quotients(-2j * np.pi * c, (exponent,), False), arr)


def min_form_factor(beta, params: ModelParams):
    """Minimal two-particle form factor F(beta).

    F(beta) = -sin(pi z)/pi * w_b(z) * w_bhat(z) with z = i beta/(2 pi) and
    b_hat = 1/2 - b; the prefactor is 1/(Gamma(1+z) Gamma(-z)) by the
    reflection formula, and is -i sinh(beta/2)/pi. F(0) = 0 for 0 < b < 1/2,
    F(beta) -> 1 as |Re beta| -> infinity, and F(beta)/F(-beta) = S(beta)
    (Watson's equation).
    Each quotient is two dilogarithms by Kinkelin's reflection formula (see
    varpi), within a few 1e-15 relative of mpmath on the rapidities the
    correlators and pairings use. Re beta < 0 is evaluated at -conj(beta)
    and conjugated (F(-conj beta) = conj F(beta)), so that every |q| <= 1,
    and the e^(sigma/2) of the prefactor cancels the e^(-sigma/2) of the
    quotients (sigma = |Re beta|) in closed form, so F -> 1 far out with no
    overflow. At the self-dual point b = 1/4 the two quotients coincide, and
    one is computed and squared. At b = 0 the prefactor times w_0(z) =
    Gamma(-z) Gamma(1+z) is identically 1 (a removable 0 * infinity at
    z = 0, 1, 2, ...), and the other quotient is w_{1/2}, identically 1; so
    F is exactly 1 at b = 0 and, with the exponents swapped, at b = 1/2.
    Each element's value is independent of the rest of the array, and a
    scalar gets the value it has as an element. Raises SpecialFunctionError
    at a zero of one of the Barnes G's.
    """
    arr = np.asarray(beta, dtype=complex)
    if params.b in (0.0, 0.5):
        return _by_chunk(np.ones_like, arr)
    return _by_chunk(lambda c: _quotients(c, (params.b, params.b_hat), True), arr)


def momentum(beta, params: ModelParams):
    """On-shell 2-momentum (m cosh beta, m sinh beta); last axis is the Lorentz index."""
    arr = np.asarray(beta, dtype=complex)
    return np.stack([params.mass * np.cosh(arr), params.mass * np.sinh(arr)], axis=-1)


def minkowski_dot(p, q):
    """Minkowski inner product p0 q0 - p1 q1 along the last axis."""
    p, q = np.asarray(p), np.asarray(q)
    return p[..., 0] * q[..., 0] - p[..., 1] * q[..., 1]

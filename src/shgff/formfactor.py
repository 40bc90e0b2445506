"""Form factor providers: K-transform construction, fixtures, axiom checks,
and a pole/regular factorization of F (a public helper; the kernel pairing
subtracts its poles in its own 1-D rules and the correlator avoids them on
shifted contours).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Sequence

import numpy as np

from .combin import _vandermonde
from .specfun import POLE_TOL, ModelParams, SpecialFunctionError, min_form_factor, s_matrix


# ---------------------------------------------------------------------------
# K-transform
# ---------------------------------------------------------------------------

class PnSolution:
    """Symmetric seed function p_n(beta | ell) feeding the K-transform.

    Subclasses implement evaluate(betas, ells) -> complex.
    """

    def evaluate(self, betas: Sequence[complex], ells: Sequence[int]) -> complex:
        raise NotImplementedError


class ExponentialPn(PnSolution):
    """p_n(beta | ell) = c_n * t^{sum(ell)}, rapidity independent.

    The residue coupling fixes c_n * t = g * c_{n-2} with
    g = -1/(sin(2 pi b) F(i pi)); c_0 = 1, c_1 free. Requires t != 1
    (at t = 1 the K-transform of an ell-independent seed vanishes).
    """

    def __init__(self, params: ModelParams, t: float = -1.0, c1: float = 1.0):
        if abs(t - 1.0) < 1e-12:
            raise ValueError("ExponentialPn needs t != 1")
        if abs(params.sin2pib) < 1e-12:
            raise ValueError("ExponentialPn is singular where sin(2 pi b) = 0 "
                             "(b = 0 or b = 1/2)")
        self.params = params
        self.t = t
        self.c1 = c1
        fpi = min_form_factor(1j * np.pi, params)
        self._g = -1.0 / (params.sin2pib * fpi)

    def coeff(self, n: int) -> complex:
        q = self._g / self.t
        if n % 2 == 0:
            return q ** (n // 2)
        return self.c1 * q ** ((n - 1) // 2)

    def evaluate(self, betas, ells):
        return self.coeff(len(betas)) * self.t ** int(sum(ells))


def _open_axis(x):
    """The dimension along which x varies if x is an open-mesh axis (one
    dimension longer than 1, the others 1), else None."""
    long = [i for i, n in enumerate(np.shape(x)) if n > 1]
    return long[0] if len(long) == 1 else None


def _pairwise(f, x, y):
    """f(x - y), where f returns an array or a tuple of arrays. When x and y
    are open-mesh axes along different dimensions with one uniform step,
    x - y takes one of len(x) + len(y) - 1 values: f is evaluated once on
    that 1-D set and gathered into the plane of the two axes. Any other
    input (a Gauss-Legendre rule, a scalar) is evaluated directly."""
    ax, ay = _open_axis(x), _open_axis(y)
    if ax is None or ay is None or ax == ay or np.ndim(x) != np.ndim(y):
        return f(x - y)
    xs, ys = np.ravel(x), np.ravel(y)
    steps = np.concatenate([np.diff(xs), np.diff(ys)])
    # each grid point carries a rounding or two, so one step varies by a few ulps
    scale = max(np.max(np.abs(xs)), np.max(np.abs(ys)))
    if np.max(np.abs(steps - steps[0])) > 8.0 * np.finfo(float).eps * scale:
        return f(x - y)
    # x[i] - y[j] depends on s = i - j only; one pair (i, j) represents each s
    s = np.arange(1 - len(ys), len(xs))
    i = np.maximum(s, 0)
    table = f(xs[i] - ys[i - s])
    idx = ((np.arange(len(xs)) + len(ys) - 1).reshape(np.shape(x))
           - np.arange(len(ys)).reshape(np.shape(y)))
    if isinstance(table, tuple):
        return tuple(t[idx] for t in table)
    return table[idx]


def k_transform(p: PnSolution, betas: Sequence[complex], params: ModelParams) -> complex:
    """K_n[p](beta) = sum over ell in {0,1}^n of (-1)^{|ell|} *
    prod_{k<s} (1 - i (ell_k - ell_s) sin(2 pi b)/sinh(beta_k - beta_s)) * p(beta|ell).
    """
    n = len(betas)
    s2 = params.sin2pib
    betas = [np.asarray(b, dtype=complex) for b in betas]

    def factors(d):
        sh = np.sinh(d)
        if np.any(np.abs(sh) < POLE_TOL):
            raise SpecialFunctionError(
                "k_transform: coinciding rapidities with ell_k != ell_s")
        q = 1j * s2 / sh
        return 1.0 - q, 1.0 + q

    # the factors for ell_k - ell_s = +1 and -1, once per pair for every ell
    pair = {(k, s): dict(zip((1, -1), _pairwise(factors, betas[k], betas[s])))
            for k in range(n) for s in range(k + 1, n)}
    total = 0.0 + 0.0j
    for ells in itertools.product((0, 1), repeat=n):
        w = (-1.0) ** sum(ells)
        fac = 1.0 + 0.0j
        for (k, s), facs in pair.items():
            lks = ells[k] - ells[s]
            if lks != 0:
                fac = fac * facs[lks]
        total = total + w * fac * p.evaluate(betas, ells)
    return total


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class OperatorSpec:
    """A local operator: its mutual-locality index omega, Lorentz spin,
    growth exponent, and the provider computing its form factors."""

    name: str
    omega: float
    spin: float
    growth: float
    provider: "FormFactorProvider"


class FormFactorProvider:
    """Evaluates n-particle form factors F_n at complex rapidities."""

    #: True if F_n has no kinematic poles (constant-amplitude fixtures)
    pole_free: bool = False

    def evaluate(self, betas: Sequence[complex]) -> complex:
        raise NotImplementedError


class FixtureUnitProvider(FormFactorProvider):
    """F_n = 1 for every n. Diagnostic fixture (not a bootstrap solution for
    S != 1); exact at the free point b = 0."""

    pole_free = True

    def evaluate(self, betas):
        return 1.0 + 0.0j


class FixtureExponentialLikeProvider(FormFactorProvider):
    """F_n(beta) = c_n * exp(s * sum beta_a); constants loaded from a config
    payload. With s = 0 this is the free-point fixture (all axioms hold at
    b = 0 with omega = 0)."""

    pole_free = True

    def __init__(self, coefficients: Sequence[complex], slope: complex = 0.0):
        self.coefficients = [complex(c) for c in coefficients]
        self.slope = complex(slope)

    def evaluate(self, betas):
        n = len(betas)
        if n >= len(self.coefficients):
            raise ValueError(f"no coefficient provided for n = {n}")
        return self.coefficients[n] * np.exp(self.slope * sum(betas))


class KTransformProvider(FormFactorProvider):
    """F_n(beta) = prod_{a<b} F(beta_a - beta_b) * K_n[p_n](beta)."""

    pole_free = False

    def __init__(self, pn: PnSolution, params: ModelParams):
        self.pn = pn
        self.params = params

    def evaluate(self, betas):
        betas = [np.asarray(b, dtype=complex) for b in betas]
        prod = 1.0 + 0.0j
        for a in range(len(betas)):
            for b in range(a + 1, len(betas)):
                prod = prod * _pairwise(lambda d: min_form_factor(d, self.params),
                                        betas[a], betas[b])
        return prod * k_transform(self.pn, betas, self.params)


# ---------------------------------------------------------------------------
# provider-definition documents
# ---------------------------------------------------------------------------

def load_operator(doc, params: ModelParams) -> OperatorSpec:
    """Build an OperatorSpec from a definition document (dict or JSON text).

    Schema: {"name": str, "omega": float, "spin": float, "growth": float,
             "provider": {"kind": "unit" | "exponential-like" | "k-transform",
                           ...kind-specific keys...}}
    kind-specific keys:
      exponential-like: "coefficients": [c0, c1, ...], optional "slope"
      k-transform: optional "t" (default -1), "c1" (default 1)
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    pdoc = doc.get("provider", {"kind": "unit"})
    kind = pdoc.get("kind", "unit")
    if kind == "unit":
        provider: FormFactorProvider = FixtureUnitProvider()
    elif kind == "exponential-like":
        provider = FixtureExponentialLikeProvider(
            pdoc["coefficients"], pdoc.get("slope", 0.0))
    elif kind == "k-transform":
        provider = KTransformProvider(
            ExponentialPn(params, t=pdoc.get("t", -1.0), c1=pdoc.get("c1", 1.0)),
            params)
    else:
        raise ValueError(f"unknown provider kind {kind!r}")
    return OperatorSpec(
        name=doc.get("name", kind),
        omega=float(doc.get("omega", 0.0)),
        spin=float(doc.get("spin", 0.0)),
        growth=float(doc.get("growth", 0.0)),
        provider=provider,
    )


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def _residue_circle(f, center: complex, radius: float, nodes: int = 64) -> complex:
    """Residue of f at `center` via the trapezoid rule on a circle, with f
    called once on the array of nodes (a constant f may return a scalar)."""
    th = 2.0 * np.pi * np.arange(nodes) / nodes
    zs = center + radius * np.exp(1j * th)
    vals = np.broadcast_to(f(zs), zs.shape)
    return complex(np.mean(vals * (zs - center)))


def numerical_residue(f, center: complex, r1: float = 1e-2, r2: float = 5e-3) -> complex:
    """Richardson-extrapolated contour residue (error ~ r^2 per circle).

    f must accept a 1-D array of complex points and return their values (or
    one scalar, if f is constant)."""
    a = _residue_circle(f, center, r1)
    b = _residue_circle(f, center, r2)
    # error model c * r^2 with r2 = r1/2: res = (4 b - a)/3
    return (4.0 * b - a) / 3.0


@dataclasses.dataclass
class AxiomReport:
    exchange: float      # axiom I: S-symmetry under adjacent swap
    periodicity: float   # axiom II: 2 i pi cyclicity up to the locality phase
    residue: float       # axiom III: kinematic residue, relative error
    boost: float         # axiom IV: rapidity-translation covariance

    def max_residual(self) -> float:
        return max(self.exchange, self.periodicity, self.residue, self.boost)


def verify_axioms(op: OperatorSpec, params: ModelParams, n: int,
                  samples: int = 5, seed: int = 0) -> AxiomReport:
    """Numerical residuals of the four form-factor axioms at particle number n.

    Axiom III compares the contour residue of F_{n+2}(alpha + i pi, beta,
    beta_1..beta_n) at alpha = beta against
    i (1 - e^{2 i pi omega} prod_a S(beta - beta_a)) F_n.
    """
    rng = np.random.default_rng(seed)
    prov = op.provider
    ex = per = res = boost = 0.0
    for _ in range(samples):
        betas = list(rng.uniform(-1.5, 1.5, size=n))
        base = prov.evaluate(betas)
        scale = max(abs(base), 1e-12)
        # axiom I at each adjacent position
        for a in range(n - 1):
            swapped = betas.copy()
            swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
            lhs = base
            rhs = s_matrix(betas[a] - betas[a + 1], params) * prov.evaluate(swapped)
            ex = max(ex, abs(lhs - rhs) / scale)
        # axiom II
        if n >= 1:
            shifted = [betas[0] + 2j * np.pi] + betas[1:]
            cycled = betas[1:] + [betas[0]]
            lhs = prov.evaluate(shifted)
            rhs = np.exp(2j * np.pi * op.omega) * prov.evaluate(cycled)
            per = max(per, abs(lhs - rhs) / scale)
        # axiom III
        beta0 = float(rng.uniform(-1.0, 1.0))
        f = lambda alpha: prov.evaluate([alpha + 1j * np.pi, beta0] + betas)
        # F_{n+2} also has a pole at alpha = beta_j: keep every beta_j outside
        # both circles
        r1 = min([1e-2] + [abs(beta0 - b) / 4.0 for b in betas])
        got = numerical_residue(f, beta0, r1, r1 / 2.0)
        sprod = np.prod([s_matrix(beta0 - b, params) for b in betas]) if n else 1.0
        expected = 1j * (1.0 - np.exp(2j * np.pi * op.omega) * sprod) * base
        # when the expected residue vanishes identically (e.g. free point with
        # omega = 0) the relative measure is conditioned on the F_n scale
        denom = max(abs(expected), abs(got), 1e-6 * scale, 1e-10)
        res = max(res, abs(got - expected) / denom)
        # axiom IV
        theta = float(rng.uniform(-0.7, 0.7))
        lhs = prov.evaluate([b + theta for b in betas])
        rhs = np.exp(theta * op.spin) * base
        boost = max(boost, abs(lhs - rhs) / scale)
    return AxiomReport(ex, per, res, boost)


# ---------------------------------------------------------------------------
# pole/regular factorization
# ---------------------------------------------------------------------------

def factorize_regular(op: OperatorSpec, alphas: Sequence[complex],
                      thetas: Sequence[complex], eps: float, params: ModelParams
                      ) -> tuple[complex, complex]:
    """Split F^{(O)}(alpha + i(pi - eps) e, theta) into pole prefactor x regular part.

    prefactor = prod_{r>l}(alpha_r - alpha_l) prod_{r<l}(theta_r - theta_l)
                / prod_{r,l}(alpha_r - theta_l - i eps);
    returns (prefactor, h) with h = F / prefactor, smooth in a strip around
    real alpha, theta.
    """
    alphas = [complex(a) for a in alphas]
    thetas = [complex(t) for t in thetas]
    num = _vandermonde(alphas[::-1]) * _vandermonde(thetas)
    den = 1.0 + 0.0j
    for a in alphas:
        for t in thetas:
            den *= a - t - 1j * eps
    if abs(den) < POLE_TOL or abs(num) < POLE_TOL and (alphas and thetas):
        raise ValueError("factorize_regular: degenerate configuration")
    pref = num / den
    args = [a + 1j * (np.pi - eps) for a in alphas] + thetas
    val = op.provider.evaluate(args)
    return pref, val / pref

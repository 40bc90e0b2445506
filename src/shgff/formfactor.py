"""Form factor providers: K-transform construction, fixtures, operator
documents and axiom checks."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import numbers
import operator
from typing import Sequence

import numpy as np

from .combin import _is_finite
from .specfun import POLE_TOL, ModelParams, SpecialFunctionError, min_form_factor, s_matrix


# ---------------------------------------------------------------------------
# K-transform
# ---------------------------------------------------------------------------

class ExponentialPn:
    """The seed p_n(beta | ell) = c_n * t^{sum(ell)} feeding the K-transform;
    rapidity independent, so invariant under a common shift of all
    rapidities, as KTransformProvider needs.

    The residue coupling fixes c_n * t = g * c_{n-2} with
    g = -1/(sin(2 pi b) F(i pi)); c_0 = 1, and the axioms of verify_axioms
    leave c_1 free. The cluster property, F_(n+m)(theta + Lam, theta') ->
    F_n(theta) F_m(theta') / F_0 as Lam -> infinity, fixes c_1^2 = g / t:
    when n and m are both odd the ratio tends to g / (t c_1^2) instead (g < 0
    at b = 0.1, 1/4 and 0.4, so a real c_1 there needs t < 0). Requires t != 1
    (at t = 1 the K-transform of an ell-independent seed vanishes) and
    t != 0 (c_n divides by t); ValueError otherwise. A p_n that overflows,
    as c_n does for a tiny t and t^{sum(ell)} for a huge one, is a
    ValueError naming t and n.
    """

    def __init__(self, params: ModelParams, t: float = -1.0, c1: float = 1.0):
        if abs(t - 1.0) < 1e-12:
            raise ValueError("ExponentialPn needs t != 1")
        if t == 0:
            raise ValueError("ExponentialPn needs t != 0")
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
        try:
            value = self.coeff(len(betas)) * self.t ** int(sum(ells))
        except OverflowError:
            value = np.inf
        if not np.isfinite(value):
            raise ValueError(f"ExponentialPn overflows at t = {self.t!r}, n = {len(betas)}")
        return value


def _open_axis(x):
    """The dimension along which x varies if x is an open-mesh axis (one
    dimension longer than 1, the others 1), else None."""
    long = [i for i, n in enumerate(np.shape(x)) if n > 1]
    return long[0] if len(long) == 1 else None


def _difference_lattice(*axes):
    """(args, gather) with f(*axes) = gather(f(*args)) for every function f
    of n rapidities that is invariant under a common shift of all of them.
    The axes are open-mesh axes along distinct dimensions, each a uniform
    run of one common step followed by fewer extra points (as kernelalg's
    rules have them; the correlator's axes have none). On the runs
    x_k[i_k] - x_last[i_last] depends on i_k - i_last only, so args is the
    open mesh of those n - 1 difference vectors, of run_k + run_last - 1
    values each, with the last rapidity at 0 (at n = 1 the one point 0, on
    any axis, since f is then a constant). At n = 2 every difference that
    involves an extra point follows its lattice in the one table, evaluated
    as it is. gather takes the table back onto the axes. Any other input (a
    rule that is not uniform, a scalar, two axes along one dimension, extras
    on three or more axes) is its own args, gathered as it is. On runs
    alone gather copies a strided view of the table; with extras it indexes
    the table by blocks built on 1-D ranges. Either way a plan costs the
    order of its axes, and a gather that of its output."""
    dims = [_open_axis(x) for x in axes]
    if (not axes or None in dims or len(set(dims)) < len(dims)
            or len({np.ndim(x) for x in axes}) > 1):
        return axes, lambda t: t
    if len(axes) == 1:
        return (0.0,), lambda t: np.asarray(t)[()]
    vecs = [np.ravel(x) for x in axes]
    # each grid point carries a rounding or two, so one step varies by a few ulps
    tol = 8.0 * np.finfo(float).eps * max(np.max(np.abs(v)) for v in vecs)
    lens = [len(v) for v in vecs]
    step = vecs[0][1] - vecs[0][0]
    on_step = np.abs(np.concatenate([np.diff(v) for v in vecs]) - step) <= tol
    # each axis's run: its leading points on the common step
    runs = lens if on_step.all() else [
        1 + np.argmin(np.append(o, False))
        for o in np.split(on_step, np.cumsum(lens)[:-1] - np.arange(1, len(lens)))]
    extras = runs != lens
    # a run must hold most of its axis, or the lattice saves nothing
    if any(2 * r <= n for r, n in zip(runs, lens)) or extras and len(axes) > 2:
        return axes, lambda t: t
    *xs, y = vecs
    # x[i] - y[j] depends on s = i - j only; one pair (i, j) represents each s
    diffs = []
    for k, (x, run) in enumerate(zip(xs, runs)):
        s = np.arange(1 - runs[-1], run)
        i = np.maximum(s, 0)
        diffs.append((x[i] - y[i - s]).reshape((-1,) + (1,) * (len(xs) - 1 - k)))
    mesh = np.broadcast_shapes(*(np.shape(a) for a in axes))
    if not extras:
        # x_k[i_k] - y[i_last] is the table element i_k - i_last + run_last - 1
        # along axis k: a view of the table from (run_last - 1, ...) with each
        # axis's stride along its dimension and minus their sum along y's,
        # copied onto the mesh
        shape, corner = tuple(len(d) for d in diffs), (slice(runs[-1] - 1, None),) * len(xs)

        def gather(t):
            t = np.broadcast_to(t, shape)
            strides = [0] * len(mesh)
            for dim, stride in zip(dims, t.strides):
                strides[dim] = stride
            strides[dims[-1]] = -sum(t.strides)
            return np.lib.stride_tricks.as_strided(t[corner], mesh, strides,
                                                   writeable=False).copy()
        return (*diffs, 0.0), gather
    # n = 2: the pairs off the runs follow the lattice in the one table, first
    # those of a run x with an extra y, then those of an extra x, row by row;
    # the index is laid out on the (x, y) blocks, then turned to the mesh
    (x, y), (rx, ry), (nx, ny) = vecs, runs, lens
    size, mid = len(diffs[0]), len(diffs[0]) + rx * (ny - ry)
    diffs[0] = np.concatenate([diffs[0], (x[:rx, None] - y[ry:]).ravel(),
                               (x[rx:, None] - y).ravel()])
    index = np.empty((nx, ny), dtype=np.intp)
    index[:rx, :ry] = np.arange(rx)[:, None] - np.arange(ry) + (ry - 1)
    index[:rx, ry:] = np.arange(size, mid).reshape(rx, ny - ry)
    index[rx:] = np.arange(mid, len(diffs[0])).reshape(nx - rx, ny)
    idx = np.ascontiguousarray(index.T if dims[0] > dims[1] else index).reshape(mesh)
    return (diffs[0], 0.0), lambda t: np.broadcast_to(t, diffs[0].shape)[idx]


def _k_factors(d, params: ModelParams):
    """The K-transform's pair factors 1 - q and 1 + q, q = i sin(2 pi b)/sinh(d),
    of a pair with ell_k - ell_s = +1 and -1, at rapidity differences d.
    Beyond |Re d| = 700, where |q| < 1e-300 and sinh soon overflows, q is its
    limit 0, as in s_matrix."""
    far = np.abs(np.real(d)) > 700.0
    # such a difference is evaluated at 1, where sinh cannot overflow or meet the pole
    sh = np.sinh(np.where(far, 1.0, d))
    if np.any(np.abs(sh) < POLE_TOL):
        raise SpecialFunctionError("k_transform: coinciding rapidities with ell_k != ell_s")
    q = np.where(far, 0.0, 1j * params.sin2pib / sh)
    return 1.0 - q, 1.0 + q


def _pair_tables(pairs, f):
    """[f(x - y) for (x, y) in pairs], for an f returning a tuple of arrays:
    the one route for a function of a rapidity difference. Each pair's
    difference table is planned once (see _difference_lattice), f runs once
    on all the tables together, since on small tables its per-call cost
    dominates, and each of its results is gathered back onto the pair's
    axes."""
    if not pairs:
        return []
    plans = [_difference_lattice(x, y) for x, y in pairs]
    diffs = [np.asarray(u - v) for (u, v), _ in plans]
    cuts = np.cumsum([d.size for d in diffs])[:-1]
    tables = zip(*(np.split(t, cuts) for t in f(np.concatenate([d.ravel() for d in diffs]))))
    return [[gather(t.reshape(d.shape)) for t in ts]
            for d, (_, gather), ts in zip(diffs, plans, tables)]


def _label_sum(p: ExponentialPn, betas, tables):
    """sum over ell in {0,1}^n of (-1)^{|ell|} p(beta|ell) times the product,
    over the pairs k < s with ell_k != ell_s, of their table's [ell_s]: the
    pair's factor 1 - q or 1 + q of _k_factors, with tables in the order of
    itertools.combinations. Each term multiplies the scalar
    (-1)^{|ell|} p(beta|ell) into the product of its pair factors, which
    starts from the first of them."""
    pairs = list(zip(itertools.combinations(range(len(betas)), 2), tables))
    total = 0.0 + 0.0j
    for ells in itertools.product((0, 1), repeat=len(betas)):
        term = (-1.0) ** sum(ells) * p.evaluate(betas, ells)
        facs = [f[ells[s]] for (k, s), f in pairs if ells[k] != ells[s]]
        total = total + (functools.reduce(operator.mul, facs) * term if facs else term)
    return total


def k_transform(p: ExponentialPn, betas: Sequence[complex]) -> complex:
    """K_n[p](beta) = sum over ell in {0,1}^n of (-1)^{|ell|} *
    prod_{k<s} (1 - i (ell_k - ell_s) sin(2 pi b)/sinh(beta_k - beta_s)) * p(beta|ell),
    at the seed's model b. The pair factors are evaluated on the pairs'
    tables of differences (see _pair_tables), as KTransformProvider
    evaluates them.
    """
    betas = [np.asarray(b, dtype=complex) for b in betas]
    return _label_sum(p, betas, _pair_tables(list(itertools.combinations(betas, 2)),
                                             functools.partial(_k_factors, params=p.params)))


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


def _check_model(operators: Sequence[OperatorSpec], params: ModelParams) -> None:
    """ValueError unless every operator whose provider carries a model (its
    `params`) has the coupling b of `params`, the model of the S-factors,
    ladders and poles it meets. The mass is not compared: no form factor
    depends on it. Two models agree by this rule, b alone, wherever shgff
    compares them."""
    for op in operators:
        own = getattr(op.provider, "params", None)
        if own is not None and own.b != params.b:
            raise ValueError(f"operator {op.name!r} is of the model {own}, not {params}")


class FormFactorProvider:
    """Evaluates n-particle form factors F_n at complex rapidities."""

    #: True if F_n has no kinematic poles (constant-amplitude fixtures)
    pole_free: bool = False
    #: relative rounding of one F_n value beyond the few ulps of any factor
    #: (see correlator._quad_tensor's floor); 0 for the exact fixtures
    rounding: float = 0.0

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
    b = 0 with omega = 0), and F_n is the scalar c_n."""

    pole_free = True

    def __init__(self, coefficients: Sequence[complex], slope: complex = 0.0):
        self.coefficients = [complex(c) for c in coefficients]
        self.slope = complex(slope)

    def evaluate(self, betas):
        n = len(betas)
        if n >= len(self.coefficients):
            raise ValueError(f"no coefficient provided for n = {n}")
        if self.slope == 0:
            return self.coefficients[n]
        return self.coefficients[n] * np.exp(self.slope * sum(betas))


class KTransformProvider(FormFactorProvider):
    """F_n(beta) = prod_{a<b} F(beta_a - beta_b) * K_n[p_n](beta).

    p_n must be invariant under a common shift of all rapidities (as
    ExponentialPn is), so F_n depends on their differences only: on open-mesh
    axes of one uniform step it is evaluated on the lattice of differences to
    the last rapidity (see _difference_lattice), and any other input
    directly. The seed's model sets its residue coupling g and `params` sets
    F_min and the pair factors, so the two must have one coupling b, as
    _check_model compares them (ValueError otherwise: with a seed at b = 1/4
    and F_min at b = 0.1 the residue axiom misses by 0.62).
    """

    pole_free = False
    # the largest relative change of min_form_factor under a one-ulp change
    # of Re beta in [-12, 12] at b = 1/4: 9.7e-16 on Im beta = 2 pi / 3,
    # kt3pt's F_2 contour, and 7.1e-16 on Im beta = pi (480001 points each)
    rounding = 1e-15

    def __init__(self, pn: ExponentialPn, params: ModelParams):
        if pn.params.b != params.b:
            raise ValueError(f"KTransformProvider: the seed's model {pn.params} is not {params}")
        self.pn = pn
        self.params = params

    def evaluate(self, betas):
        args, gather = _difference_lattice(*betas)
        args = [np.asarray(b, dtype=complex) for b in args]
        # F_min and the K-transform pair factors of every pair in one call
        tables = _pair_tables(list(itertools.combinations(args, 2)),
                              lambda d: (min_form_factor(d, self.params),
                                         *_k_factors(d, self.params)))
        k_part = _label_sum(self.pn, args, [t[1:] for t in tables])
        return gather(functools.reduce(operator.mul, [t[0] for t in tables] + [k_part]))


# ---------------------------------------------------------------------------
# provider-definition documents
# ---------------------------------------------------------------------------

def _check_keys(section, known, what: str) -> None:
    """ValueError unless a config section (`what`, for the message) is a
    mapping whose keys are all in `known`; the message names the unknown keys
    and not the rest of the section."""
    if not isinstance(section, dict):
        raise ValueError(f"{what} must be a mapping, got {section!r}")
    if section.keys() - set(known):
        raise ValueError(f"unknown keys {sorted(section.keys() - set(known))} in {what}")


def load_operator(doc, params: ModelParams) -> OperatorSpec:
    """Build an OperatorSpec from a definition document, a mapping.

    Schema: {"name": str, "omega": float, "spin": float, "growth": float,
             "provider": {"kind": "unit" | "exponential-like" | "k-transform",
                           ...kind-specific keys...}}
    kind-specific keys:
      exponential-like: "coefficients": [c0, c1, ...], optional "slope"
      k-transform: optional "t" (default -1), "c1" (default 1)
    A document without a provider is the unit operator. ValueError on a
    document that is not a mapping (JSON text included), on any other key,
    on a provider that has keys but no "kind", and on a number that fails
    combin._is_finite: omega, spin, growth, t and c1 must be finite real
    numbers, slope and each coefficient finite complex ones.
    """
    _check_keys(doc, ("name", "omega", "spin", "growth", "provider"), "an operator")
    pdoc = doc.get("provider", {"kind": "unit"})
    if not isinstance(pdoc, dict):
        raise ValueError(f"provider must be a mapping, got {pdoc!r}")
    if pdoc and "kind" not in pdoc:
        raise ValueError(f"provider has no kind: {pdoc!r}")
    kind = pdoc.get("kind", "unit")
    takes = {"unit": (), "exponential-like": ("coefficients", "slope"),
             "k-transform": ("t", "c1")}
    if not isinstance(kind, str) or kind not in takes:
        raise ValueError(f"unknown provider kind {kind!r}")
    _check_keys(pdoc, ("kind", *takes[kind]), "provider")
    values = [(key, value, numbers.Complex if key == "slope" else numbers.Real)
              for section in (doc, pdoc) for key, value in section.items()
              if key in ("omega", "spin", "growth", "t", "c1", "slope")]
    values += [("coefficient", c, numbers.Complex) for c in pdoc.get("coefficients", ())]
    for key, value, number in values:
        if not _is_finite(value, number):
            raise ValueError(f"{key} must be a finite {number.__name__.lower()} number, "
                             f"got {value!r}")
    if kind == "unit":
        provider: FormFactorProvider = FixtureUnitProvider()
    elif kind == "exponential-like":
        provider = FixtureExponentialLikeProvider(
            pdoc["coefficients"], pdoc.get("slope", 0.0))
    else:
        provider = KTransformProvider(
            ExponentialPn(params, t=pdoc.get("t", -1.0), c1=pdoc.get("c1", 1.0)),
            params)
    return OperatorSpec(
        name=doc.get("name", kind),
        omega=doc.get("omega", 0.0),
        spin=doc.get("spin", 0.0),
        growth=doc.get("growth", 0.0),
        provider=provider,
    )


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def numerical_residue(f, center: complex, radius: float = 1e-2) -> complex:
    """Residue of f at a simple pole `center`: the mean of (z - center) f(z)
    over 64 equally spaced points of the circle of the given radius, the
    trapezoid rule for the contour integral. With no other singularity
    within a distance R of the centre its error is O((radius / R)^64).

    f is called once on the 1-D array of points and returns their values (or
    one scalar, if f is constant)."""
    zs = center + radius * np.exp(2j * np.pi * np.arange(64) / 64)
    return complex(np.mean(np.broadcast_to(f(zs), zs.shape) * (zs - center)))


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
    i (1 - e^{2 i pi omega} prod_a S(beta - beta_a)) F_n. ValueError if op's
    provider carries a model of another coupling b (see _check_model).
    """
    _check_model([op], params)
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
        # F_{n+2} also has a pole at alpha = beta_j: keep every beta_j well
        # outside the circle
        radius = min([1e-2] + [abs(beta0 - b) / 4.0 for b in betas])
        got = numerical_residue(f, beta0, radius)
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

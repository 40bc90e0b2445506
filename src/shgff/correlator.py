"""Truncated k-point correlation functions by shifted-contour quadrature.

The r-truncated correlator is a sum over composition vectors n = (n_ba) of
multidimensional rapidity integrals: each block (b, a) carries n_ba variables
integrated along R + i eta^(ba), with the ladder of imaginary shifts
eta^(kk-1) > ... > eta^(k1) > eta^(k-1,k-2) > ... > eta^(21) > 0 keeping all
kinematic poles at a safe distance so no regulators are needed. The plain,
t-distinguished and smeared correlators differ only in the external-leg factor
of each operator, so one quadrature driver and one composition sum serve all.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Sequence

import numpy as np

from .combin import (
    CompositionVector, _operator_word, _scattering_pairs, blocks, enumerate_compositions,
    omega_ba, omega_ba_t,
)
from .formfactor import OperatorSpec, _pairwise
# default_ladder and eta_max stay importable from here
from .ladder import ContourLadder, _spread_ladder, default_ladder, eta_max  # noqa: F401
# perfbench/tracing.py wraps correlator.minkowski_dot by name
from .specfun import ModelParams, minkowski_dot, momentum, s_matrix  # noqa: F401


@dataclasses.dataclass(frozen=True)
class SpacetimePoint:
    x0: float
    x1: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1], dtype=float)


class RegionError(ValueError):
    """Raised for operator points outside the region where the correlator is
    defined (see check_region)."""


def check_region(points: Sequence[SpacetimePoint]) -> bool:
    """True iff all pair separations are space-like and the spatial
    coordinates strictly decrease along the operator list (x_a;1 > x_b;1 for
    a < b)."""
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            d0 = points[a].x0 - points[b].x0
            d1 = points[a].x1 - points[b].x1
            if d0 * d0 - d1 * d1 >= 0.0:
                return False
            if points[a].x1 <= points[b].x1:
                return False
    return True


@dataclasses.dataclass
class CorrelatorRequest:
    """One truncated correlator. Each integration variable runs over
    [-L, L] on its contour with a uniform trapezoid grid of `nodes`
    intervals at the first level; the step is halved until two levels agree
    to `tol` or a level would exceed `max_nodes` intervals. Every composition
    evaluates at least two levels, so `max_nodes` must be at least
    2 * `nodes` (ValueError otherwise). Without a `ladder`, each composition
    is integrated on its own equally spaced ladder, placed as far from the
    singularities of its integrand as its factors allow (see
    ladder._spread_ladder); for the three-point function at b = 1/4 that
    distance is pi / 3, against 0.13 on default_ladder."""

    params: ModelParams
    operators: Sequence[OperatorSpec]     # O_1 ... O_k
    points: Sequence[SpacetimePoint]
    r: Sequence[int]                      # truncation ranks r_1..r_{k-1}
    ladder: ContourLadder | None = None
    nodes: int = 96
    L: float = 8.0
    max_nodes: int = 3072
    tol: float = 1e-9

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"nodes must be at least 1, got {self.nodes}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.L > 0.0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.max_nodes < 2 * self.nodes:
            raise ValueError(f"max_nodes must be at least 2 * nodes = {2 * self.nodes}, "
                             f"got {self.max_nodes}")

    @property
    def k(self) -> int:
        return len(self.operators)


def _form_factors(request: CorrelatorRequest, gamma: dict, mixed_t: int | None
                  ) -> list:
    """F^(O_p) of each operator on its incoming/outgoing rapidity word;
    gamma maps block -> list of contour points (arrays that broadcast)."""
    out = []
    for p, op in enumerate(request.operators, start=1):
        args = []
        for blk, shift in _operator_word(request.k, p, mixed_t):
            vs = gamma[blk]
            args.extend([v + 1j * shift for v in reversed(vs)] if shift else vs)
        out.append(op.provider.evaluate(args))
    return out


class _PointLegs:
    """Operators at spacetime points. The leg factor of operator s is the
    plane wave exp(i q_s.x_s); their product is exp(i pbar(gamma).x_ba) per
    variable of block (b, a), evaluated in light-cone form,
    p.x = m (e^gamma (x0 - x1) + e^-gamma (x0 + x1)) / 2, whose two terms do
    not cancel near the light cone as m cosh(gamma) x0 and m sinh(gamma) x1
    do. Contours follow the given ladder, or else the composition's own
    ladder (ladder._spread_ladder), which keeps each contour at the largest
    distance d from the integrand's singularities that equal spacing allows,
    with every eta in the plane waves' strip of decay 0 < eta < pi. Each
    block is centred at the separation rapidity theta_ba = artanh(dx0/dx1)
    of x_b - x_a, where its plane waves peak; a real shift of a full-line
    integral is exact."""

    def __init__(self, points: Sequence[SpacetimePoint],
                 ladder: ContourLadder | None = None):
        if not check_region(points):
            raise RegionError("points must be space-like separated with decreasing "
                              "spatial coordinates along the operator list")
        self.xs = [pt.as_array() for pt in points]
        self.ladder = ladder

    def contours(self, request: CorrelatorRequest, comp: CompositionVector,
                 mixed_t: int | None = None) -> dict:
        ladder = self.ladder or request.ladder or _spread_ladder(request, comp, mixed_t)
        ladder.validate(comp)
        out = {}
        for (b, a), cnt in comp.as_dict().items():
            if cnt:
                d0, d1 = self.xs[b - 1] - self.xs[a - 1]
                out[(b, a)] = math.atanh(d0 / d1) + 1j * ladder.eta[(b, a)]
        return out

    def factors(self, params: ModelParams, gamma: dict) -> list:
        out = []
        for (b, a), vs in gamma.items():
            d0, d1 = self.xs[b - 1] - self.xs[a - 1]
            for v in vs:
                ev = np.exp(v)
                out.append(np.exp(0.5j * params.mass * (ev * (d0 - d1) + (d0 + d1) / ev)))
        return out


class _SmearedLegs:
    """Operators paired with Gaussian test functions. The leg factor of
    operator s is the Fourier transform of its Gaussian at the momentum
    transfer q_s = sum_{a<s} pbar(gamma^(sa)) - sum_{b>s} pbar(gamma^(bs)).
    Contours stay on the real line, where every q_s is real."""

    def __init__(self, smearings: Sequence[GaussianSmearing]):
        self.smearings = smearings

    def contours(self, request: CorrelatorRequest, comp: CompositionVector,
                 mixed_t: int | None = None) -> dict:
        return dict.fromkeys(blocks(comp.k), 0j)

    def factors(self, params: ModelParams, gamma: dict) -> list:
        q = [np.zeros(2, dtype=complex) for _ in range(len(self.smearings) + 1)]
        for (b, a), vs in gamma.items():
            for v in vs:
                pv = momentum(v, params)
                q[b] = q[b] + pv
                q[a] = q[a] - pv
        return [g.fourier(qs[..., 0], qs[..., 1]) for g, qs in zip(self.smearings, q[1:])]


def _factors(request: CorrelatorRequest, gamma: dict, mixed_t: int | None = None,
             legs=None) -> list:
    """The factors whose product is the integrand: the S-factor of each pair of
    variables in scattering blocks, the legs' factors (a plane wave per
    variable, or a Gaussian transform per operator) and the form factor of
    each operator. Each is a scalar or an array that broadcasts against the
    contour points."""
    params = request.params
    legs = legs or _PointLegs(request.points)
    return ([_pairwise(lambda d: s_matrix(d, params), u, v)
             for blk1, blk2 in _scattering_pairs(request.k, mixed_t)
             for u in gamma.get(blk1, ()) for v in gamma.get(blk2, ())]
            + legs.factors(params, gamma) + _form_factors(request, gamma, mixed_t))


def integrand(request: CorrelatorRequest, comp: CompositionVector, gamma: dict,
              mixed_t: int | None = None, legs=None):
    """S-factors x external-leg factors x form-factor product at the given
    contour points (each gamma[blk] a list of complex arrays, broadcastable).
    The legs default to plane waves at request.points."""
    return functools.reduce(operator.mul, _factors(request, gamma, mixed_t, legs), 1.0 + 0.0j)


def _composition_phase(comp: CompositionVector, operators, mixed_t: int | None) -> complex:
    omegas = [op.omega for op in operators]
    ph = 0.0
    for (b, a), cnt in comp.as_dict().items():
        if cnt == 0:
            continue
        w = omega_ba(b, a, omegas) if mixed_t is None else omega_ba_t(b, a, mixed_t, omegas)
        ph += cnt * w
    return np.exp(-2j * np.pi * ph)


def compute_I_n(request: CorrelatorRequest, comp: CompositionVector,
                mixed_t: int | None = None, nodes: int | None = None,
                ladder: ContourLadder | None = None) -> tuple[complex, float]:
    """The multidimensional contour integral of one composition with the
    operators at request.points, and an error estimate: the change from
    halving the grid step plus the truncated tails beyond +-L. nodes
    overrides request.nodes, the intervals per axis of the first grid; like
    it, it must be at most request.max_nodes / 2. Deterministic: the
    integrand's factors are contracted in an order fixed by which axes each
    varies along, so a composition gives the same bits on every call."""
    return _refine(request, comp, _PointLegs(request.points, ladder), mixed_t, nodes)


def _refine(request, comp, legs, mixed_t=None, nodes=None) -> tuple[complex, float]:
    """Trapezoid rule on the legs' contours with `nodes` intervals per axis
    over [-L, L], halving the step until two successive grids agree to
    request.tol or the next grid would exceed request.max_nodes intervals.
    The error is that agreement plus the finest grid's tail estimate and
    rounding floor; neither drives the refinement, since a smaller step
    shrinks neither."""
    if mixed_t is not None and not (1 <= mixed_t <= request.k):
        raise ValueError(f"mixed_t must be in 1..{request.k}")
    nodes = nodes or request.nodes
    if 2 * nodes > request.max_nodes:
        raise ValueError(f"max_nodes = {request.max_nodes} is below the second grid "
                         f"level, 2 * nodes = {2 * nodes}")
    quad = functools.partial(_quad_tensor, request, comp,
                             legs.contours(request, comp, mixed_t), legs, mixed_t)
    (v1, _, _), (v2, tail, floor) = quad(nodes), quad(2 * nodes)
    while abs(v2 - v1) > request.tol and 4 * nodes <= request.max_nodes:
        nodes *= 2
        v1, (v2, tail, floor) = v2, quad(2 * nodes)
    return v2, abs(v2 - v1) + tail + floor


def _quad_tensor(request, comp, contours, legs, mixed_t, nodes) -> tuple[complex, float]:
    """Tensor trapezoid rule, `nodes` intervals of step h per axis over
    [-L, L] shifted to each variable's contour, on an open mesh.
    The j-th of the c variables of one block is further shifted by j h / c,
    so that no two of them coincide while every axis keeps step h. The
    integrand's factors are contracted one at a time and never multiplied
    out on the full mesh, so the largest array is the largest factor or
    contraction intermediate. Returns the value, the tail estimate and the
    rounding floor: eps * (number of factors + number of axes) times the
    integral of |integrand| on the grid, which the moduli of the factors
    give when contracted like the factors."""
    # block of each integration variable, in canonical block order
    counts = comp.as_dict()
    block_of = [blk for blk, cnt in counts.items() for _ in range(cnt)]
    h = 2.0 * request.L / nodes
    x = np.linspace(-request.L, request.L, nodes + 1)
    w = np.full(nodes + 1, h)
    w[0] = w[-1] = h / 2.0
    axes = [x + (contours[blk] + block_of[:i].count(blk) * h / counts[blk])
            for i, blk in enumerate(block_of)]
    gamma = {blk: [] for blk in blocks(comp.k)}
    for blk, grid in zip(block_of, np.meshgrid(*axes, indexing="ij", sparse=True)):
        gamma[blk].append(grid)
    d = len(block_of)
    factors = [_along(f, d) for f in _factors(request, gamma, mixed_t, legs)]
    moduli = [(np.abs(f), axes) for f, axes in factors]
    weights = dict.fromkeys(range(d), w)
    # a rounding or so in each factor and in the sum over each axis, each
    # relative to the integral of |integrand|
    floor = (len(factors) + d) * np.finfo(float).eps * float(_contract(moduli, weights))
    return complex(_contract(factors, weights)), _tail(moduli, d, w, h), floor


def _along(f, d):
    """(f without its length-1 dimensions, the mesh axes f varies along) for
    a factor that broadcasts against a d-axis open mesh."""
    shape = (1,) * (d - np.ndim(f)) + np.shape(f)
    axes = tuple(i for i, n in enumerate(shape) if n > 1)
    return np.reshape(f, [shape[i] for i in axes]), axes


def _contract(factors, weights):
    """Sum over the mesh of the product of the factors, each a pair from
    _along, with weights[ax] along each axis ax. Scalars multiply out; a
    factor along one axis folds into that axis's weights; the weights of an
    axis that no factor of several axes touches are summed alone; the
    factors of several axes are contracted against the folded weights of
    their axes by np.einsum in a greedy order."""
    weights = dict(weights)
    scale = 1.0
    shared = []
    for f, axes in factors:
        if not axes:
            scale = scale * f
        elif len(axes) == 1:
            weights[axes[0]] = weights[axes[0]] * f
        else:
            shared += [f, list(axes)]
    linked = {ax for axes in shared[1::2] for ax in axes}
    for ax, wa in weights.items():
        if ax in linked:
            shared += [wa, [ax]]
        else:
            scale = scale * np.sum(wa)
    return scale * np.einsum(*shared, [], optimize="greedy") if shared else scale


def _tail(moduli, d, w, h) -> float:
    """Estimate of the integral of |integrand| beyond +-L, from the moduli
    of its factors (pairs from _along): on each end slice of each axis, |f|
    decays like exp(-kappa t), with kappa read from that slice and its inner
    neighbour, so the tail is |f(L)| / kappa (an upper bound where, as here,
    the decay steepens outward). Infinite if |f| does not decrease toward an
    end. |f| is the product of the moduli, so a slice takes only the moduli
    along its axis at that index."""
    tail = 0.0
    for ax in range(d):
        others = dict.fromkeys((a for a in range(d) if a != ax), w)
        rest = [(f, axes) for f, axes in moduli if ax not in axes]
        along = [(f, axes.index(ax), tuple(a for a in axes if a != ax))
                 for f, axes in moduli if ax in axes]
        mass = {i: float(_contract(rest + [(np.take(f, i, axis=j), axes)
                                           for f, j, axes in along], others))
                for i in (0, 1, -2, -1)}
        for end, inner in ((0, 1), (-1, -2)):
            a_end, a_in = mass[end], mass[inner]
            if a_end == 0.0:
                continue
            if not a_in > a_end:
                return math.inf
            tail += a_end * h / math.log(a_in / a_end)
    return tail


@dataclasses.dataclass
class CorrelatorResult:
    value: complex
    error: float
    breakdown: list   # (CompositionVector, I_n, err, phase) per composition
    converged: bool   # every composition's error, tails included, is <= request.tol

    def describe(self) -> str:
        lines = [f"W = {self.value} (err <= {self.error:.3e}, "
                 f"converged: {self.converged})"]
        for comp, val, err, ph in self.breakdown:
            lines.append(f"  n={comp.counts} I_n={val} err={err:.3e} phase={ph}")
        return "\n".join(lines)


def _sum_compositions(request: CorrelatorRequest, mixed_t: int | None = None,
                      map_=map, I_n=None) -> CorrelatorResult:
    """Sum of phase * I_n / (n! (2 pi)^{|n|}) over the compositions of
    request.r. I_n maps a composition to (value, error) and defaults to
    compute_I_n; map_ (an executor's map, say) may evaluate the compositions
    concurrently, while the sum always runs in composition order."""
    I_n = I_n or functools.partial(compute_I_n, request, mixed_t=mixed_t)
    comps = enumerate_compositions(request.k, tuple(request.r))
    total = 0.0 + 0.0j
    err_total = 0.0
    breakdown = []
    for comp, (val, err) in zip(comps, map_(I_n, comps)):
        ph = _composition_phase(comp, request.operators, mixed_t)
        weight = ph / (comp.factorial_weight() * (2.0 * np.pi) ** comp.total)
        total += weight * val
        err_total += abs(weight) * err
        breakdown.append((comp, val, err, ph))
    converged = all(err <= request.tol for _, _, err, _ in breakdown)
    return CorrelatorResult(total, err_total, breakdown, converged)


def compute_W_r(request: CorrelatorRequest, mixed_t: int | None = None
                ) -> CorrelatorResult:
    """Truncated correlator: sum over compositions of
    phase * I_n / (n! (2 pi)^{|n|})."""
    return _sum_compositions(request, mixed_t)


def compute_W_r_mixed(request: CorrelatorRequest, t: int) -> CorrelatorResult:
    """The t-distinguished representation of the same truncated correlator:
    operator t takes its conjugate-ordered form-factor word, the scattering
    word acquires the compensating factors, and the locality phases skip t."""
    return compute_W_r(request, mixed_t=t)


# ---------------------------------------------------------------------------
# smeared correlators
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GaussianSmearing:
    """Separable Gaussian test function per operator:
    g(x) = exp(-(x0-c0)^2/(2 w0^2) - (x1-c1)^2/(2 w1^2))."""

    center: tuple
    width: tuple

    def fourier(self, q0, q1):
        """int d^2x g(x) exp(i q.x) with q.x = q0 x0 - q1 x1."""
        c0, c1 = self.center
        w0, w1 = self.width
        return (2.0 * np.pi * w0 * w1
                * np.exp(1j * q0 * c0 - 1j * q1 * c1
                         - 0.5 * (q0 * q0 * w0 * w0 + q1 * q1 * w1 * w1)))


def smeared_correlator(request: CorrelatorRequest,
                       smearings: Sequence[GaussianSmearing]) -> CorrelatorResult:
    """Truncated two-point correlator paired with separable Gaussians.

    The plane waves are replaced by the Gaussian Fourier transforms at the
    momenta q_s = sum_{a<s} pbar(gamma^(sa)) - sum_{b>s} pbar(gamma^(bs)),
    integrated on real contours: for k = 2 there are no cross-level kinematic
    poles, so the real-line limit is exact. k >= 3 is refused with
    ValueError. It needs shifted contours, and on a shifted ladder the factor
    exp(-w^2 q^2 / 2) of the middle operator grows like
    exp(c e^{2 |Re gamma|}) (for w = 0.3 on the default ladder at b = 1/4 its
    exponent is +1.06 at Re gamma = 4 and +3160 at Re gamma = 8).
    request.points and request.ladder are not used.
    """
    if len(smearings) != request.k:
        raise ValueError("one smearing per operator required")
    if request.k > 2:
        raise ValueError("smeared correlators are two-point only (k <= 2)")
    legs = _SmearedLegs(smearings)
    return _sum_compositions(request, I_n=lambda comp: _refine(request, comp, legs))

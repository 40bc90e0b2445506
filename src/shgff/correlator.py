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
    CompositionVector, _check_ranks, _is_finite, _is_integer, _operator_word, _scattering_pairs,
    blocks, enumerate_compositions, omega_ba_t,
)
from .formfactor import (
    KTransformProvider, OperatorSpec, _check_model, _difference_lattice, _open_axis, _pair_tables,
)
from .ladder import ContourLadder, _spread_ladder
# perfbench/tracing.py wraps correlator.minkowski_dot by name
from .specfun import ModelParams, minkowski_dot, momentum, s_matrix  # noqa: F401

# log of the largest double: exp and cosh overflow beyond it
_LOG_MAX = math.log(np.finfo(float).max)


@dataclasses.dataclass(frozen=True)
class SpacetimePoint:
    x0: float
    x1: float


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


def _check_grid(nodes: int, L: float) -> None:
    """ValueError unless nodes is an integer (not a bool) >= 1 and L a
    finite positive number (see combin._is_finite)."""
    if not (_is_integer(nodes) and nodes >= 1):
        raise ValueError(f"nodes must be a positive integer, got {nodes!r}")
    if not (_is_finite(L) and L > 0.0):
        raise ValueError(f"L must be a finite positive number, got {L!r}")


@dataclasses.dataclass
class CorrelatorRequest:
    """One truncated correlator, and the only description of how it is
    evaluated: no correlator function takes a ladder, grid or representation
    of its own. Each integration variable runs over [-L, L] on its contour
    with a uniform trapezoid grid, first of 2 * `nodes` intervals. Each grid
    is compared with the rule on its own even points, so the first
    comparison is with `nodes` intervals; the step is halved until the two
    agree to `tol` or the next grid would exceed `max_nodes` intervals, so
    `max_nodes` must be at least 2 * `nodes` (ValueError otherwise). `L` is
    refused too (ValueError) when a contour, which reaches |theta_ba| + L
    plus less than one first-grid step L / `nodes`, would pass
    |Re gamma| = log(max float) = 709.78, where exp and cosh overflow, and
    with `smearings` when that reach plus log(max(r) * m * max(1, widths))
    would pass 709.78 / 2, where a Gaussian's squared momentum overflows.
    `tol` is thus each composition's refinement target; the result is
    `converged` when W's error estimate is at most `tol`. Each rank in `r`
    is an integer in 0..64, since a composition has at least max(r)
    integration variables, one mesh axis each (combin._check_ranks, which
    enumerate_compositions shares; ValueError otherwise). `L` and `tol` are
    finite positive numbers (combin._is_finite; ValueError otherwise).
    Without a `ladder`, each composition is integrated on its own equally
    spaced ladder, placed as far from the singularities of its integrand as
    its factors allow (see ladder._spread_ladder); for the three-point
    function at b = 1/4 that distance is pi / 3, against 0.13 on
    default_ladder. `mixed_t`, one of 1..k, asks for the t-distinguished
    representation with operator t distinguished (see compute_W_r_mixed).
    `smearings`, one GaussianSmearing per operator, pairs the operators with
    Gaussian test functions in place of the plane waves at `points`: the leg
    factor of operator s is its Gaussian's Fourier transform at the momentum
    q_s = sum_{a<s} pbar(gamma^(sa)) - sum_{b>s} pbar(gamma^(bs)), integrated
    on real contours. For k = 2 there are no cross-level kinematic poles, so
    the real-line limit is exact. k >= 3 is refused with ValueError: on the
    shifted contours it needs, the middle operator's exp(-w^2 q^2 / 2) grows
    like exp(c e^{2 |Re gamma|}) (w = 0.3, b = 1/4, default ladder: exponent
    +1.06 at Re gamma = 4, +3160 at 8). A smeared request reads neither
    `points` (they may be empty) nor `ladder`, and it refuses `mixed_t`. A
    point request needs one point per operator, with finite real coordinates
    (combin._is_finite; ValueError otherwise), in check_region's region
    (RegionError otherwise). An operator whose provider carries a model must
    have the coupling b of `params` (formfactor._check_model; ValueError
    otherwise).
    Each refusal is raised when the request is built."""

    params: ModelParams
    operators: Sequence[OperatorSpec]     # O_1 ... O_k
    points: Sequence[SpacetimePoint]
    r: Sequence[int]                      # truncation ranks r_1..r_{k-1}
    ladder: ContourLadder | None = None
    nodes: int = 96
    L: float = 8.0
    max_nodes: int = 3072
    tol: float = 1e-9
    mixed_t: int | None = None
    smearings: Sequence[GaussianSmearing] | None = None

    def __post_init__(self):
        _check_ranks(self.k, self.r)
        _check_model(self.operators, self.params)
        _check_grid(self.nodes, self.L)
        if not _is_integer(self.max_nodes):
            raise ValueError(f"max_nodes must be an integer, got {self.max_nodes}")
        if not (_is_finite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be a finite positive number, got {self.tol!r}")
        if self.max_nodes < 2 * self.nodes:
            raise ValueError(f"max_nodes must be at least 2 * nodes = {2 * self.nodes}, "
                             f"got {self.max_nodes}")
        if self.mixed_t is not None and not (_is_integer(self.mixed_t)
                                             and 1 <= self.mixed_t <= self.k):
            raise ValueError(f"mixed_t must be an integer in 1..{self.k}, got {self.mixed_t!r}")
        # grid points lie within L + one first-grid step L / nodes of their contour's centre
        reach = self.L * (1.0 + 1.0 / self.nodes)
        if self.smearings is None:
            if len(self.points) != self.k:
                raise ValueError(f"one point per operator required: {self.k} operators, "
                                 f"{len(self.points)} points")
            # check_region's comparisons are all False on NaN, so it would pass them
            for pt in self.points:
                if not (_is_finite(pt.x0) and _is_finite(pt.x1)):
                    raise ValueError(f"point coordinates must be finite real numbers, "
                                     f"got ({pt.x0!r}, {pt.x1!r})")
            if not check_region(self.points):
                raise RegionError("points must be space-like separated with decreasing "
                                  "spatial coordinates along the operator list")
            # each block's contour is centred at its theta_ba (see _contours)
            reach += max((abs(_theta(self.points, b, a)) for b, a in blocks(self.k)),
                         default=0.0)
        else:
            if len(self.smearings) != self.k:
                raise ValueError("one smearing per operator required")
            if self.k > 2:
                raise ValueError("smeared correlators are two-point only (k <= 2)")
            if self.mixed_t is not None:
                raise ValueError("smeared correlators have no t-distinguished form")
            # GaussianSmearing.fourier squares q, a sum of up to max(r) terms m cosh(gamma)
            scale = (max(self.r, default=0) * self.params.mass
                     * max(1.0, *(w for g in self.smearings for w in g.width)))
            if scale > 0.0 and not reach + math.log(scale) < _LOG_MAX / 2:
                raise ValueError(f"L = {self.L} is too large for a smeared correlator: the "
                                 f"squared momenta of its Gaussians would overflow")
        if not reach < _LOG_MAX:
            raise ValueError(f"L = {self.L} is too large: the contours would pass "
                             f"|Re gamma| = {_LOG_MAX:.2f}, where exp overflows")

    @property
    def k(self) -> int:
        return len(self.operators)


def _form_factors(request: CorrelatorRequest, gamma: dict) -> list:
    """F^(O_p) of each operator on its incoming/outgoing rapidity word, as
    (f, pair) pairs (see _factors); gamma maps block -> list of contour
    points (arrays that broadcast). The F_2 of a KTransformProvider depends
    on the difference of its two rapidities alone: it is evaluated on the
    args formfactor._difference_lattice plans for them, and pair is those
    two rapidities."""
    out = []
    for p, op in enumerate(request.operators, start=1):
        args = []
        for blk, shift in _operator_word(request.k, p, request.mixed_t):
            vs = gamma[blk]
            args.extend([v + 1j * shift for v in reversed(vs)] if shift else vs)
        if len(args) == 2 and isinstance(op.provider, KTransformProvider):
            out.append((op.provider.evaluate(_difference_lattice(*args)[0]), args))
        else:
            out.append((op.provider.evaluate(args), None))
    return out


def _theta(points: Sequence[SpacetimePoint], b: int, a: int) -> float:
    """The separation rapidity theta_ba = artanh(dx0 / dx1) of x_b - x_a,
    where the plane waves of block (b, a) peak."""
    xb, xa = points[b - 1], points[a - 1]
    return math.atanh((xb.x0 - xa.x0) / (xb.x1 - xa.x1))


def _contours(request: CorrelatorRequest, comp: CompositionVector) -> dict:
    """The contour of each block (b, a), as the complex offset of R. A smeared
    request integrates on the real line, where every q_s is real. A point
    request follows request.ladder, or else the composition's own ladder
    (ladder._spread_ladder), which keeps each contour at the largest
    distance d from the integrand's singularities that equal spacing allows,
    with every eta in the plane waves' strip of decay 0 < eta < pi. Each
    block is centred at its _theta; a real shift of a full-line integral is
    exact. The request has checked the points' region."""
    if request.smearings is not None:
        return dict.fromkeys(blocks(comp.k), 0j)
    ladder = request.ladder or _spread_ladder(request, comp)
    ladder.validate(comp)
    return {(b, a): _theta(request.points, b, a) + 1j * ladder.eta[(b, a)]
            for (b, a), cnt in comp.as_dict().items() if cnt}


def _leg_factors(request: CorrelatorRequest, gamma: dict) -> list:
    """The external legs. With smearings, the leg of operator s is its
    Gaussian's Fourier transform at q_s (see CorrelatorRequest). Otherwise
    the legs are plane waves exp(i q_s.x_s), whose product is
    exp(i pbar(gamma).x_ba) per variable of block (b, a), evaluated in
    light-cone form, p.x = m (e^gamma (x0 - x1) + e^-gamma (x0 + x1)) / 2,
    whose two terms do not cancel near the light cone as m cosh(gamma) x0
    and m sinh(gamma) x1 do."""
    params = request.params
    if request.smearings is not None:
        q = [np.zeros(2, dtype=complex) for _ in range(request.k + 1)]
        for (b, a), vs in gamma.items():
            for v in vs:
                pv = momentum(v, params)
                q[b] = q[b] + pv
                q[a] = q[a] - pv
        return [g.fourier(qs[..., 0], qs[..., 1]) for g, qs in zip(request.smearings, q[1:])]
    out = []
    for (b, a), vs in gamma.items():
        xb, xa = request.points[b - 1], request.points[a - 1]
        d0, d1 = xb.x0 - xa.x0, xb.x1 - xa.x1
        for v in vs:
            ev = np.exp(v)
            out.append(np.exp(0.5j * params.mass * (ev * (d0 - d1) + (d0 + d1) / ev)))
    return out


def _factors(request: CorrelatorRequest, gamma: dict) -> list:
    """The factors whose product is the integrand: the S-factor of each pair of
    variables in scattering blocks, all of them from one s_matrix call (see
    formfactor._pair_tables), the legs' factors (_leg_factors: a plane wave
    per variable, or a Gaussian transform per operator) and the form factor
    of each operator (_form_factors). Each is a pair (f, pair). A function
    of the difference x - y of two rapidities, an S-factor or a K-transform
    F_2, is f on the args formfactor._difference_lattice plans for them, and
    pair is (x, y): on open-mesh axes of one uniform step, as every grid of
    _quad_tensor has them, f is the 1-D table of x[i] - y[j], element
    i - j + n - 1. Every other factor has pair None, and f is a scalar or an
    array that broadcasts against the contour points."""
    pairs = [(u, v) for blk1, blk2 in _scattering_pairs(request.k, request.mixed_t)
             for u in gamma.get(blk1, ()) for v in gamma.get(blk2, ())]
    s_factors = _pair_tables([_difference_lattice(u, v)[0] for u, v in pairs],
                             lambda d: (s_matrix(d, request.params),))
    return ([(s, pair) for (s,), pair in zip(s_factors, pairs)]
            + [(f, None) for f in _leg_factors(request, gamma)]
            + _form_factors(request, gamma))


def integrand(request: CorrelatorRequest, comp: CompositionVector, gamma: dict):
    """S-factors x external-leg factors x form-factor product at the given
    contour points (each gamma[blk] a list of complex arrays, broadcastable).
    The legs are plane waves at request.points, or the Gaussian transforms
    of request.smearings. Each factor of a rapidity difference is gathered
    from its table onto its pair's axes (formfactor._difference_lattice)."""
    return functools.reduce(operator.mul, [_difference_lattice(*pair)[1](f) if pair else f
                                           for f, pair in _factors(request, gamma)],
                            1.0 + 0.0j)


def _composition_phase(comp: CompositionVector, request: CorrelatorRequest) -> complex:
    omegas = [op.omega for op in request.operators]
    ph = 0.0
    for (b, a), cnt in comp.as_dict().items():
        if cnt:
            ph += cnt * omega_ba_t(b, a, request.mixed_t, omegas)
    return np.exp(-2j * np.pi * ph)


def compute_I_n(request: CorrelatorRequest, comp: CompositionVector) -> tuple[complex, float]:
    """The multidimensional contour integral of one composition with the
    request's legs (plane waves at request.points, or the Gaussian transforms
    of request.smearings; see _leg_factors), and an error estimate. The
    contours, the first grid and the representation are the request's (see
    _contours); evaluate another with dataclasses.replace(request,
    ladder=..., nodes=...).
    Trapezoid rule on those contours over [-L, L], first with
    2 * request.nodes intervals per axis. Each grid is compared with the rule
    on its own even points, which the same evaluation of the integrand's
    factors gives (see _quad_tensor); the step is halved until the two agree
    to request.tol or the next grid would exceed request.max_nodes intervals.
    The error is their difference plus the finest grid's tail estimate beyond
    +-L and rounding floor; neither drives the refinement, since a smaller
    step shrinks neither. Deterministic: the integrand's factors are split
    and contracted in an order fixed by which axes each varies along (see
    _contract), so a composition gives the same bits on every call.
    ValueError (see _check_finite) if the integral or its error overflows;
    a finite integral whose tail is infinite is returned with error inf."""
    quad = functools.partial(_quad_tensor, request, comp, _contours(request, comp))
    with np.errstate(over="ignore", invalid="ignore"):
        value, tail, floor, coarse = quad(nodes := 2 * request.nodes)
        while abs(value - coarse) > request.tol and 2 * nodes <= request.max_nodes:
            value, tail, floor, coarse = quad(nodes := 2 * nodes)
    error = abs(value - coarse) + tail + floor
    _check_finite("I_n", comp, value, error)
    return value, error


def _check_finite(name: str, comp: CompositionVector, value: complex, error: float) -> None:
    """ValueError naming comp unless value is finite and error is not NaN: a
    request whose numbers overflow the double range is refused like an
    overflowing ExponentialPn, since no finer grid would mend it."""
    if not np.isfinite(value) or math.isnan(error):
        raise ValueError(f"{name} = {value} with error {error} at composition {comp.counts}: "
                         f"the result overflows the double range")


def _quad_tensor(request, comp, contours, nodes) -> tuple[complex, float, float, complex]:
    """Tensor trapezoid rule, `nodes` intervals of step h per axis over
    [-L, L] shifted to each variable's contour, on an open mesh.
    The j-th of the c variables of one block is further shifted by j h / c,
    so that no two of them coincide while every axis keeps step h (on the
    even points, j / (2c) of their step 2h). The integrand's factors are
    never multiplied out on the full mesh: they split once into a scalar,
    one vector per axis (the product of the factors along that axis alone,
    which folds into its trapezoid weights) and the factors of several axes,
    which _contract reduces against the folded weights. Each function of a
    rapidity difference (see _factors) stays on its 1-D table, turned to the
    lower axis minus the higher, and the tables of one pair of axes multiply
    there; no factor is gathered onto the mesh.
    Returns the value, the tail estimate, the rounding floor and the coarse
    value. The coarse value is the same factors' rule of step 2h on the even
    points of each axis (`nodes` even), read through strided views (a
    table's even elements are the coarse grid's table). The moduli of the
    factors, contracted on every axis but one, give the marginal of
    |integrand| along each axis: the tails come from their ends (see
    _tail), and the floor is eps * (number of factors + number of axes),
    plus the rounding of each provider whose F_n here has n >= 2, times the
    integral of |integrand| on the grid, the sum of a marginal."""
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
    factors = _factors(request, gamma)
    tables = {}
    for f, pair in factors:
        if pair:
            a, b = map(_open_axis, pair)
            key = (min(a, b), max(a, b))
            tables[key] = tables.get(key, 1) * (f if a < b else f[::-1])
    split = [(t, along) for along, t in tables.items()] + [
        _along(f, d) for f, pair in factors if not pair]
    scale = math.prod(f for f, along in split if not along)
    folds = [math.prod((f for f, along in split if along == (ax,)), start=np.ones(nodes + 1))
             for ax in range(d)]
    multi = [(f, along) for f, along in split if len(along) > 1]
    value = scale * _contract(multi, [w * f for f in folds])
    coarse = scale * _contract([(f[(np.s_[::2],) * f.ndim], along) for f, along in multi],
                               [2.0 * w[::2] * f[::2] for f in folds])
    moduli = [(np.abs(f), along) for f, along in multi]
    abs_folds = [np.abs(f) for f in folds]
    abs_weights = [w * f for f in abs_folds]
    marginals = [abs(scale) * abs_folds[ax] * _contract(moduli, abs_weights, keep=ax)
                 for ax in range(d)]
    # a rounding or so per factor and per axis's sum, and each F_n's own noise if n >= 2
    rounding = sum(op.provider.rounding for p, op in enumerate(request.operators, start=1)
                   if op.provider.rounding and sum(
                       counts[blk] for blk, _ in _operator_word(comp.k, p, request.mixed_t)) >= 2)
    floor = ((len(factors) + d) * np.finfo(float).eps + rounding) * float(
        w @ marginals[0] if d else abs(scale))
    return complex(value), _tail(marginals, h), floor, complex(coarse)


def _along(f, d):
    """(f without its length-1 dimensions, the mesh axes f varies along) for
    a factor that broadcasts against a d-axis open mesh."""
    shape = (1,) * (d - np.ndim(f)) + np.shape(f)
    axes = tuple(i for i, n in enumerate(shape) if n > 1)
    return np.reshape(f, [shape[i] for i in axes]), axes


def _contract(multi, weights, keep=None):
    """Sum over the mesh of the product of the factors of several axes (pairs
    from _along, or difference tables), with weights[ax] along each axis ax;
    with `keep`, the vector along that axis of the sums over every other
    axis, its own weights left out. A difference table t of two axes (a, b)
    of one length n is a 1-D array whose element t[i - j + n - 1] is the
    factor at (i, j). An axis that no factor touches is summed alone. A lone
    table is reduced by 1-D convolutions of the weights against it; a lone
    factor of any other kind (of zero, one or more axes) by matrix-vector
    products, one axis at a time in axis order; two or more factors meet in
    one np.einsum in a greedy order, a table as a contiguous copy of its
    Toeplitz view (on the strided view itself, einsum's sums round
    differently from those on the mesh). kernelalg.pair_numeric_with_tail
    reduces each slab of a pairing's mesh here too."""
    linked = {ax for _, along in multi for ax in along}
    alone = math.prod(np.sum(wa) for ax, wa in enumerate(weights) if ax not in linked | {keep})
    if len(multi) == 1:
        (f, along), = multi
        if f.ndim < len(along):
            a, b = (weights[ax] for ax in along)
            if keep not in along:
                return alone * (f @ np.convolve(a, b[::-1]))
            return alone * (np.convolve(f, b, "valid") if keep == along[0]
                            else np.convolve(f[::-1], a, "valid"))
        if keep in along:
            f = np.moveaxis(f, along.index(keep), -1)
        for ax in along:
            if ax != keep:
                f = (weights[ax] @ f.reshape(len(weights[ax]), -1)).reshape(f.shape[1:])
        return alone * f
    if multi:
        ops = [x for f, along in multi for x in (
            np.lib.stride_tricks.sliding_window_view(f, len(weights[along[1]]))[:, ::-1].copy()
            if f.ndim < len(along) else f, along)]
        ops += [x for ax in sorted(linked - {keep}) for x in (weights[ax], [ax])]
        return alone * np.einsum(*ops, [keep] if keep in linked else [], optimize="greedy")
    return alone


def _tail(marginals, h) -> float:
    """Estimate of the integral of |integrand| beyond +-L from its marginal
    along each axis (the integral over every other axis at each node): at
    each end, the marginal decays like exp(-kappa t), with kappa read from
    the end node and its inner neighbour, so the tail is m(L) / kappa (an
    upper bound where, as here, the decay steepens outward). Infinite if a
    marginal does not decrease toward an end."""
    tail = 0.0
    for m in marginals:
        for end, inner in ((0, 1), (-1, -2)):
            a_end, a_in = float(m[end]), float(m[inner])
            if a_end == 0.0:
                continue
            if not a_in > a_end:
                return math.inf
            tail += a_end * h / math.log(a_in / a_end)
    return tail


@dataclasses.dataclass
class CorrelatorResult:
    """W, its error estimate (the weighted sum of the compositions' errors,
    tails and rounding included) and the one verdict on it: converged is
    error <= request.tol."""

    value: complex
    error: float
    breakdown: list   # (CompositionVector, I_n, err, phase) per composition
    converged: bool


def compute_W_r(request: CorrelatorRequest) -> CorrelatorResult:
    """Truncated correlator: sum over the compositions of request.r, in
    composition order, of phase * I_n / (n! (2 pi)^{|n|}), each I_n from
    compute_I_n. ValueError (see _check_finite) naming the first composition
    at which the sum or its error overflows."""
    total = 0.0 + 0.0j
    err_total = 0.0
    breakdown = []
    for comp in enumerate_compositions(request.k, tuple(request.r)):
        val, err = compute_I_n(request, comp)
        ph = _composition_phase(comp, request)
        weight = ph / (comp.factorial_weight() * (2.0 * np.pi) ** comp.total)
        with np.errstate(over="ignore", invalid="ignore"):
            total += weight * val
        err_total += abs(weight) * err
        _check_finite("W", comp, total, err_total)
        breakdown.append((comp, val, err, ph))
    return CorrelatorResult(total, err_total, breakdown, bool(err_total <= request.tol))


def compute_W_r_mixed(request: CorrelatorRequest, t: int) -> CorrelatorResult:
    """The t-distinguished representation of the same truncated correlator:
    operator t takes its conjugate-ordered form-factor word, the scattering
    word acquires the compensating factors, and the locality phases skip t."""
    return compute_W_r(dataclasses.replace(request, mixed_t=t))


# ---------------------------------------------------------------------------
# smeared correlators
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GaussianSmearing:
    """Separable Gaussian test function per operator:
    g(x) = exp(-(x0-c0)^2/(2 w0^2) - (x1-c1)^2/(2 w1^2)). The centre and the
    widths are two finite real numbers each (combin._is_finite), and the
    widths are positive (ValueError otherwise)."""

    center: tuple
    width: tuple

    def __post_init__(self):
        for name, pair in (("center", self.center), ("width", self.width)):
            if np.shape(pair) != (2,) or not all(map(_is_finite, pair)):
                raise ValueError(f"{name} must be two finite numbers, got {pair!r}")
        if not min(self.width) > 0.0:
            raise ValueError(f"widths must be positive, got {self.width!r}")

    def fourier(self, q0, q1):
        """int d^2x g(x) exp(i q.x) with q.x = q0 x0 - q1 x1."""
        c0, c1 = self.center
        w0, w1 = self.width
        return (2.0 * np.pi * w0 * w1
                * np.exp(1j * q0 * c0 - 1j * q1 * c1
                         - 0.5 * (q0 * q0 * w0 * w0 + q1 * q1 * w1 * w1)))


def smeared_correlator(request: CorrelatorRequest,
                       smearings: Sequence[GaussianSmearing]) -> CorrelatorResult:
    """The correlator of the request paired with separable Gaussians, one
    per operator: a shorthand for the request with these smearings (see
    CorrelatorRequest), which refuses k >= 3 and mixed_t with ValueError."""
    return compute_W_r(dataclasses.replace(request, smearings=smearings))

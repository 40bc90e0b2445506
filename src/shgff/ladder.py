"""Contour ladders: the imaginary shift of each rapidity block's contour.

The correlator integrates block (b, a) along R + i eta^(ba), with the shifts
strictly increasing in the canonical block order over the blocks that carry
variables. default_ladder spaces them equally under a safe scale eta_max;
_spread_ladder spaces them equally as far from the integrand's singularities
as the composition's factors allow.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING

import numpy as np

from .combin import CompositionVector, _operator_word, _scattering_pairs, blocks
from .specfun import ModelParams

if TYPE_CHECKING:
    from .correlator import CorrelatorRequest


def eta_max(params: ModelParams) -> float:
    """Safe overall scale for contour shifts: a quarter of the distance from
    the real axis to the nearest S-matrix/form-factor singularity."""
    cands = [np.pi / 2.0]
    if params.b > 0.0:
        cands.append(2.0 * np.pi * params.b)
        cands.append(np.pi * (1.0 - 2.0 * params.b))
    return min(cands) / 4.0


@dataclasses.dataclass(frozen=True)
class ContourLadder:
    """Imaginary shifts eta^(ba) per block, strictly increasing in the
    canonical block order (2,1) < (3,1) < (3,2) < (4,1) < ... on the blocks
    that carry variables."""

    k: int
    eta: dict

    def validate(self, comp: CompositionVector) -> None:
        prev = 0.0
        for blk in _occupied(comp):
            e = self.eta[blk]
            if not (e > prev):
                raise ValueError(
                    f"ladder violation at block {blk}: eta={e} must exceed {prev}")
            prev = e


def _occupied(comp: CompositionVector) -> list:
    """The blocks that carry variables, in canonical order."""
    return sorted(blk for blk, cnt in comp.as_dict().items() if cnt > 0)


def default_ladder(comp: CompositionVector, params: ModelParams) -> ContourLadder:
    """Equally spaced admissible ladder: occupied blocks get
    eta_max * rank / (P + 1) in canonical order. Raises ValueError when a
    block is occupied and eta_max is 0, which happens at b = 1/2 only."""
    occupied = _occupied(comp)
    P = len(occupied)
    em = eta_max(params)
    if occupied and em <= 0.0:
        raise ValueError("no admissible contour ladder: eta_max = 0 at b = 1/2")
    eta = {blk: em * (i + 1) / (P + 1) for i, blk in enumerate(occupied)}
    # unoccupied blocks carry no variables; park them consistently below
    for blk in blocks(comp.k):
        eta.setdefault(blk, 0.0)
    return ContourLadder(comp.k, eta)


def _clearances(request: CorrelatorRequest, comp: CompositionVector,
                mixed_t: int | None = None) -> np.ndarray:
    """Rows (slope, offset): the imaginary distance slope * step + offset from
    the contours of an equally spaced ladder, eta^(ba) = rank * step over the
    occupied blocks in canonical order (rank 1, 2, ...), to each singularity
    of the composition's integrand, for steps in the cell of small steps,
    where no singularity has crossed a contour. Every factor is singular
    where the imaginary difference of two of its variables, linear in the
    step, meets one of a set of values:
    - a plane wave leaves its strip of decay at eta = 0 and pi;
    - the S-factors of _scattering_pairs have poles at -2 pi b and
      pi + 2 pi b, mod 2 pi;
    - a form factor with poles, on two arguments of different blocks: the
      K-transform's 1/sinh at pi Z, which holds the kinematic poles, and
      min_form_factor's poles at -2 pi (c + n) and 2 pi (1 + c + n), n >= 0,
      for c = b and b_hat. Pairs of one block have a fixed difference 0 and
      are kept apart by correlator._quad_tensor's j h / c offsets."""
    params = request.params
    rank = {blk: i for i, blk in enumerate(_occupied(comp), start=1)}
    # the differences stay within (-2 pi, 2 pi) on any ladder inside the legs'
    # strip, so the singular values are listed over [-4 pi, 4 pi]
    n = np.arange(-2, 3)
    s_poles = np.concatenate([2.0 * np.pi * (n - params.b), np.pi + 2.0 * np.pi * (n + params.b)])
    f_poles = np.concatenate([np.pi * np.arange(-4, 5)] + [
        2.0 * np.pi * np.concatenate([-(c + n[2:]), 1.0 + c + n[2:]])
        for c in (params.b, params.b_hat)])
    diffs = [(i, 0.0, np.array([0.0, np.pi])) for i in rank.values()]
    diffs += [(rank[u] - rank[v], 0.0, s_poles)
              for u, v in _scattering_pairs(request.k, mixed_t) if u in rank and v in rank]
    for p, op in enumerate(request.operators, start=1):
        if not op.provider.pole_free:
            word = [(blk, shift) for blk, shift in _operator_word(request.k, p, mixed_t)
                    if blk in rank]
            diffs += [(rank[u] - rank[v], su - sv, f_poles)
                      for (u, su), (v, sv) in itertools.combinations(word, 2)]
    rows = set()
    for slope, start, values in diffs:
        gap = values - start
        # a singularity at the start lies below the difference if it rises
        at = np.abs(gap) < 1e-12
        below = gap[(gap < 0) & ~at | at & (slope > 0)].max()
        above = gap[(gap > 0) & ~at | at & (slope < 0)].min()
        rows |= {(slope, -below), (-slope, above)}
    return np.array(sorted(rows), dtype=float).reshape(-1, 2)


def _spread_ladder(request: CorrelatorRequest, comp: CompositionVector,
                   mixed_t: int | None = None) -> ContourLadder:
    """The equally spaced ladder eta^(ba) = rank * step whose step puts the
    contours as far from every singularity of the composition's integrand as
    the cell of small steps allows (see _clearances), which is where
    default_ladder lies: the trapezoid error falls like exp(-2 pi d / h) in
    that distance d. Raises default_ladder's ValueError where it does."""
    ladder = default_ladder(comp, request.params)
    rows = _clearances(request, comp, mixed_t)
    if not rows.size:
        return ladder
    slope, offset = rows.T
    falls = slope < 0
    cell = np.min(offset[falls] / -slope[falls])
    # the smallest distance is concave in the step: it peaks where two rows
    # cross or at the end of the cell
    run = slope - slope[:, None]
    cross = np.divide(offset[:, None] - offset, run, out=np.zeros_like(run), where=run != 0)
    steps = np.append(cross[(cross > 0) & (cross < cell)], cell)
    step = float(steps[np.argmax(np.min(slope[:, None] * steps + offset[:, None], axis=0))])
    return ContourLadder(comp.k, {**ladder.eta, **{blk: i * step for i, blk in
                                                  enumerate(_occupied(comp), start=1)}})

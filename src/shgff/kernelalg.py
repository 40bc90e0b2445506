"""Symbolic expansions of the multi-operator convolution kernels M_{n;m}
(direct, dual and mixed partition sums) and their numerical pairing with
test functions.

A kernel term is fully determined by
  * a locality-phase power (multiples of e^{-2 i pi omega}),
  * positional Dirac pairings between left (alpha) and right (beta) slots,
  * target orderings of the alpha and beta words (the scalar S-word factors),
  * the form-factor symbol: a word of slots with +/- i pi shifts. describe()
    tags each slot with its boundary-value side, read off its shift: '-' for
    the lower side of +i pi arguments, '+' for the upper side of -i pi
    arguments, '0' for real arguments.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .combin import Slot, _is_finite, iter_partitions, s_product
from .correlator import _along, _check_grid, _contract
from .formfactor import OperatorSpec
from .specfun import ModelParams, s_matrix


@dataclasses.dataclass(frozen=True)
class FormalTerm:
    phase_power: int                       # power of e^{-2 i pi omega}
    dirac_pairs: tuple                     # ((alpha_slot, beta_slot), ...)
    alpha_to: tuple                        # target ordering of the alpha word
    beta_to: tuple                         # target ordering of the beta word
    ff_word: tuple                         # Slot word with shift annotations
    sign: int = 1


# describe()'s shift and boundary-value side of a form-factor slot, by its shift
_SIDES = {1: "+ipi-", 0: "0", -1: "-ipi+"}


@dataclasses.dataclass(frozen=True)
class FormalKernelSum:
    flavor: str                            # 'direct' | 'dual' | 'mixed' | 'jump'
    n: int
    m: int
    terms: tuple

    def describe(self) -> str:
        lines = [f"kernel {self.flavor} n={self.n} m={self.m} terms={len(self.terms)}"]
        for t in self.terms:
            pairs = " ".join(f"a{i.index}~b{j.index}" for i, j in t.dirac_pairs)
            ff = " ".join(f"{s.family}{s.index}{_SIDES[s.shift]}" for s in t.ff_word)
            sg = "-" if t.sign < 0 else "+"
            lines.append(f"  {sg} phase^{t.phase_power} [{pairs}] F({ff})")
        return "\n".join(lines)


def _word(family: str, n: int) -> tuple:
    return tuple(Slot(family, i) for i in range(n))


def _shifted(word: Sequence, shift: int) -> tuple:
    return tuple(s.shifted(shift) for s in word)


def _splits(A1: tuple, A2: tuple, m: int):
    """All splits A1 = C1 u C2, A2 = D1 u D2 (index-ordered) and
    B = B1 u B2 u B3 (B1, B3 unordered, B2 index-ordered) with |C1| = |B1|
    and |D1| = |B3|, yielded as (C1, C2, D1, D2, B1, B2, B3)."""
    for p1 in range(min(len(A1), m) + 1):
        for C1, C2 in iter_partitions(A1, (p1, len(A1) - p1), (False, False)):
            for p3 in range(min(len(A2), m - p1) + 1):
                for D1, D2 in iter_partitions(A2, (p3, len(A2) - p3), (False, False)):
                    for B1, B3, B2 in iter_partitions(
                            _word("b", m), (p1, p3, m - p1 - p3), (True, True, False)):
                        yield C1, C2, D1, D2, B1, B2, B3


def expand_direct(n: int, m: int) -> FormalKernelSum:
    """Direct partition sum for M_{n;m}: the mixed sum at the split A1 = A,
    so phase e^{-2 i pi omega n}, pairings A1 ~ B1 over A = A1 u A2,
    B = B1 u1 B2, and the symbol F_{-,0}(<-A2 + i pi e, B2)."""
    return dataclasses.replace(expand_mixed(n, m, range(n)), flavor="direct")


def expand_dual(n: int, m: int) -> FormalKernelSum:
    """Dual partition sum for M_{n;m}: no locality phase, pairings
    (A1)_r ~ (B1)_r, exchange words to <-A2 u <-A1 and B2 u <-B1, symbol
    F_{0,+}(B2, A2 - i pi e). The splits are those of the mixed sum at
    A1 = {}, whose D1 and B3 play the roles of A1 and B1 here."""
    terms = tuple(
        FormalTerm(phase_power=0,
                   dirac_pairs=tuple(zip(A1, B1)),
                   alpha_to=A2[::-1] + A1[::-1],
                   beta_to=B2 + B1[::-1],
                   ff_word=_shifted(B2, 0) + _shifted(A2, -1))
        for _, _, A1, A2, _, B2, B1 in _splits((), _word("a", n), m))
    return FormalKernelSum("dual", n, m, terms)


def expand_mixed(n: int, m: int, a1_idx: Sequence[int]) -> FormalKernelSum:
    """Mixed partition sum for M_{n;m} at a fixed split A = A1 u A2.

    a1_idx selects A1 (index-ordered; complement is A2). Sum over
    A1 = C1 u C2, A2 = D1 u D2 (index-ordered) and B = B1 u1 B2 u1 B3
    (B1, B3 unordered, B2 index-ordered) with |C1| = |B1|, |D1| = |B3|.
    Phase power |A1|; pairings C1~B1 and D1~B3; symbol
    F_{-,0,+}(<-C2 + i pi e, B2, <-D2 - i pi e); exchange words to
    C1 u C2 u D2 u D1 and B1 u B2 u B3.
    """
    A, a1_idx = _word("a", n), sorted(a1_idx)
    A1 = tuple(A[i] for i in a1_idx)
    A2 = tuple(A[i] for i in range(n) if i not in a1_idx)
    terms = tuple(
        FormalTerm(phase_power=len(A1),
                   dirac_pairs=tuple(zip(C1 + D1, B1 + B3)),
                   alpha_to=C1 + C2 + D2 + D1,
                   beta_to=B1 + B2 + B3,
                   ff_word=_shifted(C2[::-1], +1) + _shifted(B2, 0) + _shifted(D2[::-1], -1))
        for C1, C2, D1, D2, B1, B2, B3 in _splits(A1, A2, m))
    return FormalKernelSum("mixed", n, m, terms)


def jump_terms(m: int) -> FormalKernelSum:
    """Jump of F(alpha + i pi, beta_1..beta_m) across real alpha:

      F_up - F_down = sum_a 2 pi delta(alpha - beta_a) [
          prod_{k<a} S(beta_k - beta_a)
          - e^{2 i pi omega} prod_{k>a} S(beta_a - beta_k) ] F(beta without a)

    encoded as Dirac terms; phase_power -1 marks the e^{+2 i pi omega} branch.
    """
    A = _word("a", 1)
    B = _word("b", m)
    terms = []
    for a in range(m):
        rest = tuple(B[j] for j in range(m) if j != a)
        ff = _shifted(rest, 0)
        terms.append(FormalTerm(
            phase_power=0,
            dirac_pairs=((A[0], B[a]),),
            alpha_to=A,
            beta_to=(B[a],) + rest,    # beta_a to the front: S(beta_k - beta_a), k<a
            ff_word=ff))
        terms.append(FormalTerm(
            phase_power=-1,
            dirac_pairs=((A[0], B[a]),),
            alpha_to=A,
            beta_to=rest + (B[a],),    # beta_a to the back: S(beta_a - beta_k), k>a
            ff_word=ff,
            sign=-1))
    return FormalKernelSum("jump", 1, m, tuple(terms))


# ---------------------------------------------------------------------------
# numerical pairing
# ---------------------------------------------------------------------------

_PROBE_DELTA = 3e-4
# Mesh points per integrand call; the first free variable is cut into slabs
# of at most this many points, so memory stays bounded as m grows
_PAIR_CHUNK = 1 << 16


# free axis k has its nodes offset by frac((k + 1) _GOLDEN) steps, never 0 or 1/2
_GOLDEN = 0.6180339887498949


def _rule_1d(poles: Sequence[tuple], L: float, nodes: int,
             delta: float = _PROBE_DELTA, offset: float = _GOLDEN):
    """Linear rule (x, w), sum_i w_i g(x_i), for the integral over [-L, L] of
    a g with simple poles at real p_r, taken as boundary values: given as
    (p_r, side_r) pairs, side = -1 for the lower side of the axis (from +i pi
    shifts), +1 for the upper one.

    The first `nodes` points are x_i = -L + (i + offset) h, h = 2L/nodes, of
    weight h. Each pole is subtracted with K_r(x) = (pi/2L) cot(pi (x - p_r)/2L),
    of residue 1 and period 2L, so that the trapezoid rule sees a periodic
    integrand; int K_r = i pi side_r (principal value plus i pi side_r times
    the residue), and its trapezoid sum is pi cot(pi (x_0 - p_r)/h). With
    H = g prod(x - p), g = sum_r cpf_r H/(x - p_r) for
    cpf_r = 1/prod_{q != r}(p_r - p_q); with h_r = H(p_r),
        int g = sum_i h g_i + sum_r cpf_r h_r (i pi side_r - pi cot(pi (x_0 - p_r)/h)).
    h_r is the mean of H over the rule's other points, a 4-point symmetric
    probe of radius delta around p_r (error O(delta^4)). With no poles the
    rule is the plain trapezoid rule.

    The third value wc is the same rule on the even nodes (step 2h, the same
    x_0 and probe points, weight 0 on the odd nodes), or None for odd `nodes`.
    """
    h = 2.0 * L / nodes
    xs = -L + (np.arange(nodes) + offset) * h
    ps, sides = np.array(poles, dtype=float).reshape(-1, 2).T
    zs = ps.astype(complex)
    gaps = zs[:, None] - zs[None, :]
    np.fill_diagonal(gaps, 1.0)
    cpf = 1.0 / np.prod(gaps, axis=1)
    probes = ps[:, None] + delta * np.array([1, -1, 1j, -1j])
    hfac = np.prod(probes[:, :, None] - zs, axis=2) / 4.0
    # the probe weights of step h (row 0) and of step 2h (row 1)
    cot = 1.0 / np.tan(np.pi * (xs[0] - zs) / np.array([[h], [2.0 * h]]))
    wprobe = ((np.pi * cpf * (1j * sides - cot))[:, :, None] * hfac).reshape(2, -1)
    coarse = np.zeros(nodes)
    coarse[::2] = 2.0 * h
    return (np.concatenate([xs + 0j, probes.ravel()]),
            np.concatenate([np.full(nodes, h), wprobe[0]]),
            None if nodes % 2 else np.concatenate([coarse, wprobe[1]]))


def pair_numeric(kernel: FormalKernelSum, alphas: Sequence[float], test: Callable,
                 op: OperatorSpec, params: ModelParams,
                 L: float = 8.0, nodes: int = 48) -> complex:
    """Pair the kernel against a test function:

        P(alpha) = int d^m beta / (2 pi)^m  M_{n;m}(alpha; beta) test(beta).

    Dirac pairings are resolved exactly. The remaining beta integrals of
    each term are one tensor product of pole-subtracted 1-D rules, one per
    free variable (uniform nodes, then probe points), with the integrand
    evaluated once a term on the whole rule (once per slab of the mesh on
    large ones): test receives the m beta values as mutually broadcastable
    arrays and returns its values on their broadcast shape (or a scalar);
    form factors of two free variables run on one table, the lattice of the
    nodes' differences followed by those that involve a probe point.
    `nodes` is the number of intervals per axis on [-L, L], the same on
    every axis (only the node offsets differ). The kinematic poles are taken
    as boundary values, in the regulator's limit: principal value plus
    i pi delta, exactly.
    """
    val, _ = pair_numeric_with_tail(kernel, alphas, test, op, params, L, nodes)
    return val


def pair_numeric_with_tail(kernel, alphas, test, op, params,
                           L: float = 8.0, nodes: int = 48):
    """pair_numeric, and its refinement term |P(h) - P(2h)|: the distance to
    the same rule on the even nodes, contracted from the same integrand
    values. It is math.inf for odd `nodes`, which have no even-node rule.

    A term's integrand runs once on the open mesh of its whole tensor rule,
    each axis its uniform nodes and then its probe points (once per slab of
    at most _PAIR_CHUNK points, cut along the first axis): one provider
    evaluation, one s_product per side and one test call a slab. The slab
    is one factor for correlator._contract, which reduces it once for each
    set of weights, an axis along which it is constant summed alone; the
    term's coefficient then carries each slab sum into the totals. The
    reduction runs slab by slab because F and the test function each span
    every free axis, so no contraction order keeps a whole term's mesh from
    being materialised. Terms share their rules: each distinct (pole set,
    axis) rule is built once per call."""
    _check_grid(nodes, L)
    n, m = kernel.n, kernel.m
    if len(alphas) != n:
        raise ValueError("alpha count does not match the kernel")
    if not all(map(_is_finite, alphas)):
        raise ValueError(f"alphas must be finite real numbers, got {list(alphas)!r}")
    A, B = _word("a", n), _word("b", m)
    aval = {A[i]: complex(alphas[i]) for i in range(n)}
    phase = np.exp(-2j * np.pi * op.omega)
    sfun = lambda d: s_matrix(d, params)

    @functools.cache
    def rule(poles: tuple, k: int):
        """The rule of free axis k, with its own node offset and probe radius,
        so that no two axes share a point; built once per (poles, k)."""
        return _rule_1d(poles, L, nodes, _PROBE_DELTA * (1.0 + 0.618 * k),
                        (k + 1) * _GOLDEN % 1.0)

    totals = [0.0 + 0.0j] * (2 - nodes % 2)
    for term in kernel.terms:
        fixed = dict(aval)
        for aslot, bslot in term.dirac_pairs:
            fixed[bslot] = aval[aslot]
        free = [s for s in B if s not in fixed]

        def integrand(vals: dict):
            sa = s_product(A, term.alpha_to, vals, sfun, side="alpha") if n > 1 else 1.0
            sb = s_product(B, term.beta_to, vals, sfun, side="beta") if m > 1 else 1.0
            fv = op.provider.evaluate(
                [vals[s.base()] + s.shift * 1j * np.pi for s in term.ff_word])
            return sa * sb * fv * test([vals[b] for b in B])

        # kinematic poles in each free variable v: F(u + i pi - v) is singular
        # at v = u, approached from below, for every +i pi-shifted slot value
        # u, and F(v - d + i pi) at v = d, from above, for every -i pi-shifted
        # value d (the shifted values are Dirac-fixed alpha's)
        poles = () if op.provider.pole_free else tuple(
            [(fixed[s.base()].real, -1) for s in term.ff_word if s.shift > 0]
            + [(fixed[s.base()].real, +1) for s in term.ff_word if s.shift < 0])
        rules = [rule(poles, k) for k in range(len(free))]
        coef = term.sign * phase ** term.phase_power / (2.0 * np.pi) ** len(free)
        step = max(1, _PAIR_CHUNK // math.prod(len(x) for x, _, _ in rules[1:]))
        for lo in range(0, len(rules[0][0]) if rules else 1, step):
            cut = [slice(lo, lo + step)] + [slice(None)] * len(rules[1:])
            mesh = np.meshgrid(*(x[c] for (x, _, _), c in zip(rules, cut)),
                               indexing="ij", sparse=True)
            slab = [_along(integrand({**fixed, **dict(zip(free, mesh))}), len(rules))]
            for k in range(len(totals)):  # the rule's weights, then its even-node ones
                totals[k] += coef * complex(
                    _contract(slab, [rule[1 + k][c] for rule, c in zip(rules, cut)]))
    fine, *coarse = totals
    return fine, abs(fine - coarse[0]) if coarse else math.inf


def term_count(flavor: str, n: int, m: int) -> int:
    """Terms in the direct, dual or any mixed expansion: sum_p C(n,p) m!/(m-p)!
    (each mixed split gives this count by Vandermonde's identity)."""
    if flavor not in ("direct", "dual", "mixed"):
        raise ValueError(f"no term count for flavor {flavor!r}")
    return sum(math.comb(n, p) * math.perm(m, p) for p in range(min(n, m) + 1))

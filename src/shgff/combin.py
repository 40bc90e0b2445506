"""Ordered words of rapidity slots, scalar S-products, composition vectors
and the block words of the correlator integrand, the generalized Cauchy
decomposition, and pole-chain extraction.

Conventions
-----------
A *word* is a tuple of hashable slots (rapidity labels). Ordered partitions
split a word into subsequences; "index-ordered" parts preserve the parent
order, "unordered" parts range over all ordered selections (they carry the
permutation). Reversal of a word is written <-W; the reversal of a
concatenation is the reversed concatenation of reversed parts.

Scalar S-products between two orderings of the same word are products of
two-body factors over order-inverted pairs, equivalent to accumulating one
factor per adjacent transposition in a bubble-sort decomposition:

* beta-type words: swapping adjacent (x, y) -> (y, x) contributes S(x - y);
* alpha-type words: the same swap contributes S(y - x).

With these rules the reversal identity (the exchange factor for W -> W' equals
the one for <-W' -> <-W) holds identically and composed exchange factors
collapse into a single source -> target product.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Hashable, Iterator, Sequence

DISTINCT_TOL = 1e-9


@dataclasses.dataclass(frozen=True, order=True)
class Slot:
    """A single rapidity label: which family it belongs to and its index.

    family: 'a' (left/alpha-type) or 'b' (right/beta-type) for kernel words,
    or a block tag like (3, 1) for correlator blocks. shift counts units of
    +i*pi added at evaluation time; tag records the boundary-value side
    ('-', '0', '+', or '').
    """

    family: Hashable
    index: int
    shift: int = 0
    tag: str = ""

    def shifted(self, shift: int, tag: str = "") -> "Slot":
        return Slot(self.family, self.index, shift, tag)

    def base(self) -> "Slot":
        return Slot(self.family, self.index)


def reverse_word(word: Sequence) -> tuple:
    return tuple(reversed(word))


def concat(*words: Sequence) -> tuple:
    out: list = []
    for w in words:
        out.extend(w)
    return tuple(out)


def inverted_pairs(word_from: Sequence, word_to: Sequence) -> list[tuple]:
    """Pairs (u, v) with u before v in word_from but v before u in word_to,
    in the order of word_from.

    Both words must hold the same distinct slots (ValueError otherwise).
    """
    pos = {x: i for i, x in enumerate(word_to)}
    if len(pos) != len(word_to) or len(word_from) != len(pos) or pos.keys() != set(word_from):
        raise ValueError("inverted_pairs: words must hold the same distinct slots")
    return [(u, v) for u, v in itertools.combinations(word_from, 2) if pos[u] > pos[v]]


def signature(parent: Sequence, arrangement: Sequence) -> int:
    """Signature of the permutation taking `parent` to `arrangement`: the
    parity of the number of order-inverted pairs.

    Both must hold the same distinct elements (ValueError otherwise).
    """
    return -1 if len(inverted_pairs(parent, arrangement)) % 2 else 1


def s_product(word_from: Sequence, word_to: Sequence, values: dict, s_func: Callable,
              side: str = "beta"):
    """Scalar exchange factor relating a kernel evaluated at `word_from` to one
    evaluated at `word_to` (same distinct slots, different order; ValueError
    otherwise).

    values maps slot -> complex rapidity; s_func is the two-body amplitude.
    The product runs over the inverted pairs (u before v in word_from):
    side='beta' gives S(u - v) per pair, side='alpha' gives S(v - u).
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"unknown side {side!r}")
    out = 1.0 + 0.0j
    for u, v in inverted_pairs(word_from, word_to):
        dx = values[u] - values[v]
        out = out * (s_func(dx) if side == "beta" else s_func(-dx))
    return out


def iter_partitions(word: Sequence, sizes: Sequence[int], ordered_parts: Sequence[bool]
                    ) -> Iterator[tuple]:
    """All ways of splitting `word` into parts of the given sizes.

    ordered_parts[i] False -> part i is index-ordered (a combination);
    True -> part i is unordered (all orderings enumerated). Parts are chosen
    left to right from the remaining slots.
    """
    if sum(sizes) != len(word):
        raise ValueError("sizes must sum to the word length")

    def rec(remaining: tuple, k: int):
        if k == len(sizes):
            yield ()
            return
        sz = sizes[k]
        for combo in itertools.combinations(range(len(remaining)), sz):
            part = tuple(remaining[i] for i in combo)
            rest = tuple(x for i, x in enumerate(remaining) if i not in combo)
            arrangements = itertools.permutations(part) if ordered_parts[k] else (part,)
            for arr in arrangements:
                for tail in rec(rest, k + 1):
                    yield (tuple(arr),) + tail

    yield from rec(tuple(word), 0)


# ---------------------------------------------------------------------------
# composition vectors for the truncated correlator
# ---------------------------------------------------------------------------

def blocks(k: int) -> list[tuple[int, int]]:
    """All rapidity blocks (b, a) with 1 <= a < b <= k in canonical order."""
    return [(b, a) for b in range(2, k + 1) for a in range(1, b)]


@dataclasses.dataclass(frozen=True)
class CompositionVector:
    """Occupation numbers n_{ba} per block, for k operators."""

    k: int
    counts: tuple  # aligned with blocks(k)

    def __post_init__(self):
        if len(self.counts) != len(blocks(self.k)):
            raise ValueError("counts length must match number of blocks")
        if any(c < 0 for c in self.counts):
            raise ValueError("occupation numbers must be >= 0")

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(zip(blocks(self.k), self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def crossing_ranks(self) -> tuple[int, ...]:
        """r_p = sum of n_{ba} over blocks crossing the cut between p and p+1."""
        d = self.as_dict()
        return tuple(
            sum(cnt for (b, a), cnt in d.items() if a <= p < b)
            for p in range(1, self.k)
        )

    def factorial_weight(self) -> int:
        """n! = product of n_{ba}! over blocks."""
        out = 1
        for c in self.counts:
            out *= math.factorial(c)
        return out


def enumerate_compositions(k: int, r: Sequence[int]) -> list[CompositionVector]:
    """All composition vectors n with crossing ranks equal to r (length k-1).

    Output is sorted lexicographically in the canonical block order.
    """
    if len(r) != k - 1:
        raise ValueError("r must have length k-1")
    blks = blocks(k)
    out: list[CompositionVector] = []

    # need[p - 1] is what cut p still lacks; block (b, a) crosses cuts a..b-1
    # and takes at most the least of their needs
    def rec(i: int, counts: tuple, need: tuple):
        if i == len(blks):
            if not any(need):
                out.append(CompositionVector(k, counts))
            return
        b, a = blks[i]
        crossed = need[a - 1:b - 1]
        for c in range(min(crossed) + 1):
            rec(i + 1, counts + (c,),
                need[:a - 1] + tuple(x - c for x in crossed) + need[b - 1:])

    rec(0, (), tuple(r))
    return out


def omega_ba(b: int, a: int, omegas: Sequence[float]) -> float:
    """Accumulated mutual-locality index: sum of omega_l for a < l <= b.

    omegas is indexed by operator position (1-based: omegas[l-1]).
    """
    return float(sum(omegas[ell - 1] for ell in range(a + 1, b + 1)))


def omega_ba_t(b: int, a: int, t: int, omegas: Sequence[float]) -> float:
    """Same as omega_ba but skipping the distinguished operator t."""
    return float(sum(omegas[ell - 1] for ell in range(a + 1, b + 1) if ell != t))


def _scattering_pairs(k: int, mixed_t: int | None = None) -> list[tuple]:
    """Block pairs whose variables pick up two-body S-factors.

    Standard case: S(gamma^(vu) - gamma^(ps)) for every interleaved pair of
    blocks s < u < p < v. For the t-distinguished representation the extra
    factors couple gamma^(vu) (v > t, u < t) with gamma^(ts) (s < t) as
    S(gamma^(ts) - gamma^(vu)) and with gamma^(st) (s > t) as
    S(gamma^(vu) - gamma^(st)).
    Returns (first_block, second_block) meaning prod S(gamma_first - gamma_second).
    """
    pairs = []
    for v in range(4, k + 1):
        for p in range(3, v):
            for u in range(2, p):
                for s in range(1, u):
                    pairs.append(((v, u), (p, s)))
    if mixed_t is not None:
        t = mixed_t
        for v in range(t + 1, k + 1):
            for u in range(1, t):
                for s in range(1, t):
                    pairs.append(((t, s), (v, u)))
                for s in range(t + 1, k + 1):
                    pairs.append(((v, u), (s, t)))
    return pairs


def _operator_word(k: int, p: int, mixed_t: int | None) -> list[tuple]:
    """The blocks of operator p's form-factor arguments in argument order,
    each with the imaginary shift of its variables: the blocks (p, a) toward
    operators to the left carry +pi (their variables in reverse order), the
    blocks (b, p) toward operators to the right 0. In the t-distinguished
    representation operator t takes the right blocks first and the left ones
    at -pi."""
    left = [((p, a), math.pi) for a in range(p - 1, 0, -1)]
    right = [((b, p), 0.0) for b in range(k, p, -1)]
    if p == mixed_t:
        return right + [(blk, -shift) for blk, shift in left]
    return left + right


# ---------------------------------------------------------------------------
# generalized Cauchy decomposition
# ---------------------------------------------------------------------------

def _vandermonde(v: Sequence[complex]) -> complex:
    """prod_{r<l} (v_r - v_l); prod_{r>l} (v_r - v_l) is _vandermonde(v[::-1])."""
    out = 1.0 + 0.0j
    for x, y in itertools.combinations(v, 2):
        out *= x - y
    return out


def cauchy_decomposition(a_vals: Sequence[complex], b_vals: Sequence[complex]
                         ) -> tuple[complex, complex, list]:
    """Partition-sum identity for the Cauchy-type kernel.

    LHS = prod_{r>l}(a_r - a_l) prod_{r<l}(b_r - b_l) / prod_{r,l}(a_r - b_l).
    RHS = sum over ordered partitions A = A1 u A2, B = B1 u B2 with
    |A1| = |B1| = min(|A|,|B|) of
      sign(A)·sign(B)/q! · prod_{r<l}((B2)_r-(B2)_l) prod_{r>l}((A2)_r-(A2)_l)
                         / prod_r((A1)_r - (B1)_r).

    Values must be pairwise distinct within DISTINCT_TOL. Returns
    (lhs, rhs, terms) with terms a list of (sign, (A1, A2, B1, B2), value).
    """
    A = tuple(complex(x) for x in a_vals)
    B = tuple(complex(x) for x in b_vals)
    allv = A + B
    for i in range(len(allv)):
        for j in range(i + 1, len(allv)):
            if abs(allv[i] - allv[j]) < DISTINCT_TOL:
                raise ValueError("cauchy_decomposition: values must be pairwise distinct")
    M, N = len(A), len(B)
    q = min(M, N)

    lhs_num = _vandermonde(A[::-1]) * _vandermonde(B)
    lhs_den = 1.0 + 0.0j
    for ar in A:
        for bl in B:
            lhs_den *= ar - bl
    lhs = lhs_num / lhs_den

    # tag duplicated numeric values by index so signatures are well defined
    A_idx = tuple(range(M))
    B_idx = tuple(range(M, M + N))
    vals = {i: allv[i] for i in range(M + N)}

    terms = []
    rhs = 0.0 + 0.0j
    for (a1, a2) in iter_partitions(A_idx, (q, M - q), (True, False)):
        for (b1, b2) in iter_partitions(B_idx, (q, N - q), (True, False)):
            sgnA = signature(A_idx, a1 + a2)
            sgnB = signature(B_idx, b1 + b2)
            num = (_vandermonde([vals[i] for i in b2])
                   * _vandermonde([vals[i] for i in a2[::-1]]))
            den = 1.0 + 0.0j
            for r in range(q):
                den *= vals[a1[r]] - vals[b1[r]]
            val = sgnA * sgnB * num / (den * math.factorial(q))
            terms.append((sgnA * sgnB, (a1, a2, b1, b2), val))
            rhs += val
    return lhs, rhs, terms


# ---------------------------------------------------------------------------
# pole chains
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PoleChain:
    """A maximal sequence of pole factors along strictly increasing sites.

    variables: tuple of slot labels w_1..w_L (each a block variable);
    sites: regulator sites a_1 < ... < a_{L-1}, factor r being
    1/(w_r - w_{r+1} - i eps_{site_r}).
    """

    variables: tuple
    sites: tuple

    @property
    def length(self) -> int:
        return len(self.variables)

    def factors(self) -> list[tuple]:
        return [(self.variables[r], self.variables[r + 1], self.sites[r])
                for r in range(len(self.sites))]


def chain_decomposition(pairings: dict) -> list[PoleChain]:
    """Decompose positional pole pairings into disjoint chains.

    pairings maps site p -> (A1, B1): two equal-length tuples of block-variable
    labels of the form ((b, a), j); the r-th pole factor at site p is
    1/(A1[r] - B1[r] - i eps_p). A label in A1 at site p must have upper block
    index p; a label in B1 at site p must have lower block index p, so edges
    always point to strictly larger sites and the pairing graph is a union of
    simple directed paths (the chains).
    """
    edges = {}   # source variable -> (target variable, site)
    targets = set()
    for p, (a1, b1) in pairings.items():
        if len(a1) != len(b1):
            raise ValueError(f"site {p}: |A1| != |B1|")
        for u, v in zip(a1, b1):
            (bu, au), _ = u
            (bv, av), _ = v
            if bu != p:
                raise ValueError(f"site {p}: A1 variable {u} has upper index {bu} != {p}")
            if av != p:
                raise ValueError(f"site {p}: B1 variable {v} has lower index {av} != {p}")
            if u in edges:
                raise ValueError(f"variable {u} paired twice as a pole source")
            if v in targets:
                raise ValueError(f"variable {v} paired twice as a pole target")
            edges[u] = (v, p)
            targets.add(v)

    chains = []
    # chain heads: pole sources that are not themselves targets
    for head in sorted(edges, key=repr):
        if head in targets:
            continue
        seq = [head]
        sites = []
        cur = head
        while cur in edges:
            nxt, p = edges[cur]
            sites.append(p)
            seq.append(nxt)
            cur = nxt
        chains.append(PoleChain(tuple(seq), tuple(sites)))
    used = sum(c.length - 1 for c in chains)
    if used != len(edges):
        raise ValueError("pairing graph contains a cycle; sites must increase along edges")
    return chains

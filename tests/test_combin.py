"""Words, S-products, compositions, Cauchy decomposition, pole chains."""
import itertools
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shgff.combin import (
    CompositionVector, Slot, _is_finite, blocks, cauchy_decomposition, chain_decomposition,
    enumerate_compositions, inverted_pairs, iter_partitions, omega_ba_t, s_product, signature,
)

RNG = np.random.default_rng(7)


def _random_word(n, fam="b"):
    word = tuple(Slot(fam, i) for i in range(n))
    vals = {w: complex(x) for w, x in
            zip(word, RNG.uniform(-2, 2, n) + 1j * RNG.uniform(-1, 1, n))}
    return word, vals


def _s(d):
    # any function of the rapidity difference exercises the bookkeeping
    return (d - 0.7j) / (d + 0.7j)


# ---------------------------------------------------------------------------
# words and signatures
# ---------------------------------------------------------------------------

@given(st.permutations(list(range(6))))
@settings(max_examples=60, deadline=None)
def test_signature_matches_inversion_parity(perm):
    parent = tuple(range(6))
    sgn = signature(parent, tuple(perm))
    inv = sum(1 for i in range(6) for j in range(i + 1, 6) if perm[i] > perm[j])
    assert sgn == (-1) ** inv


def test_signature_rejects_bad_input():
    with pytest.raises(ValueError):
        signature((1, 2, 3), (1, 2, 4))
    with pytest.raises(ValueError):
        signature((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        signature((1, 1, 2), (1, 2, 1))


def test_inverted_pairs_rejects_bad_input():
    assert inverted_pairs((1, 2, 3), (3, 1, 2)) == [(1, 3), (2, 3)]
    with pytest.raises(ValueError):
        inverted_pairs((1, 2, 3), (1, 2, 4))
    with pytest.raises(ValueError):
        inverted_pairs((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        inverted_pairs((1, 1), (1, 2))


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
@settings(max_examples=60, deadline=None)
def test_signature_multiplicative(p1, p2):
    parent = tuple(range(5))
    composed = tuple(p1[i] for i in p2)
    assert signature(parent, composed) == \
        signature(parent, tuple(p1)) * signature(parent, tuple(p2))


# ---------------------------------------------------------------------------
# S-products
# ---------------------------------------------------------------------------

@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_s_product_bubble_equals_pairwise(perm):
    word, vals = _random_word(5)
    target = tuple(word[i] for i in perm)
    got = s_product(word, target, vals, _s)
    want = 1.0 + 0.0j
    for u, v in inverted_pairs(word, target):
        want *= _s(vals[u] - vals[v])
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
@settings(max_examples=40, deadline=None)
def test_s_product_composition(p1, p2):
    # factor(W -> W') * factor(W' -> W'') = factor(W -> W''), for the beta-type
    # factor and for the alpha-type one, the same rule on the swapped words
    word, vals = _random_word(4)
    w1 = tuple(word[i] for i in p1)
    w2 = tuple(w1[i] for i in p2)
    for f in (lambda x, y: s_product(x, y, vals, _s), lambda x, y: s_product(y, x, vals, _s)):
        lhs = f(word, w1) * f(w1, w2)
        rhs = f(word, w2)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@given(st.permutations(list(range(4))))
@settings(max_examples=40, deadline=None)
def test_s_product_reversal_identity(perm):
    # factor(W -> W') equals factor(<-W' -> <-W), beta-type and alpha-type
    word, vals = _random_word(4)
    target = tuple(word[i] for i in perm)
    for f in (lambda x, y: s_product(x, y, vals, _s), lambda x, y: s_product(y, x, vals, _s)):
        assert abs(f(word, target) - f(target[::-1], word[::-1])) < 1e-12


def test_s_product_sides_are_mirror():
    # the alpha-type factor S(v - u) per inverted pair is the one rule on the
    # swapped words
    word, vals = _random_word(4)
    target = tuple(reversed(word))
    a = s_product(target, word, vals, _s)
    b = s_product(word, target, vals, lambda d: _s(-d))
    assert abs(a - b) < 1e-13


def test_s_product_rejects_bad_input():
    word, vals = _random_word(3)
    a, b, c = word
    with pytest.raises(ValueError):
        s_product(word, word[:2], vals, _s)
    with pytest.raises(ValueError):  # repeated slot
        s_product((a, a), (a, b), vals, _s)
    with pytest.raises(ValueError):  # different slots
        s_product((a, b), (a, c), vals, _s)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_iter_partitions_counts():
    word = tuple(range(5))
    # index-ordered parts: multinomial
    assert sum(1 for _ in iter_partitions(word, (2, 3), (False, False))) == \
        math.comb(5, 2)
    # first part unordered: falling factorial times the rest
    assert sum(1 for _ in iter_partitions(word, (2, 3), (True, False))) == \
        math.perm(5, 2)


def test_iter_partitions_preserves_index_order():
    word = tuple(range(4))
    for parts in iter_partitions(word, (2, 2), (False, False)):
        for part in parts:
            assert list(part) == sorted(part)


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def test_blocks_canonical_order():
    assert blocks(3) == [(2, 1), (3, 1), (3, 2)]
    assert blocks(4) == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]


def test_crossing_ranks_example():
    #  k=3: n_21=1, n_31=2, n_32=0 -> r = (1+2, 2+0)
    cv = CompositionVector(3, (1, 2, 0))
    assert cv.crossing_ranks() == (3, 2)
    assert cv.total == 3
    assert cv.factorial_weight() == 2


def _brute_force_compositions(k, r):
    blks = blocks(k)
    rmax = max(r) if r else 0
    out = []
    for counts in itertools.product(range(rmax + 1), repeat=len(blks)):
        cv = CompositionVector(k, counts)
        if cv.crossing_ranks() == tuple(r):
            out.append(cv.counts)
    return sorted(out)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerate_compositions_matches_brute_force(k):
    for r in itertools.product(range(4), repeat=k - 1):
        got = [cv.counts for cv in enumerate_compositions(k, r)]
        assert got == _brute_force_compositions(k, r)


def test_enumerate_compositions_k5_matches_incidence_brute_force():
    # every count vector in {0,1,2}^10 with its crossing ranks from the
    # block-by-cut incidence matrix; lexicographic, like the enumeration
    blks = blocks(5)
    inc = np.array([[a <= p < b for p in range(1, 5)] for b, a in blks], dtype=int)
    counts = np.array(list(itertools.product(range(3), repeat=len(blks))))
    ranks = counts @ inc
    found = 0
    for r in itertools.product(range(3), repeat=4):
        want = [tuple(row) for row in counts[(ranks == r).all(axis=1)].tolist()]
        assert [cv.counts for cv in enumerate_compositions(5, r)] == want
        found += len(want)
    assert found == 405


def test_enumerate_compositions_rejects_bad_r():
    with pytest.raises(ValueError):
        enumerate_compositions(3, (1,))
    # a float rank raised TypeError in range(); True ran as r = (1,)
    for r in ((1.5,), (True,), (1.0,)):
        with pytest.raises(ValueError, match="truncation ranks must be non-negative integers"):
            enumerate_compositions(2, r)
    assert [c.counts for c in enumerate_compositions(2, (np.int64(2),))] == [(2,)]


def test_enumerate_compositions_rejects_negative_ranks():
    # r = (-1,) gave no composition, so W = 0 and converged; r = 0 stays valid
    for k, r in ((2, (-1,)), (3, (1, -1)), (3, (-2, 0))):
        with pytest.raises(ValueError, match="truncation ranks must be non-negative integers"):
            enumerate_compositions(k, r)
    assert [c.counts for c in enumerate_compositions(2, (0,))] == [(0,)]


def test_enumerate_compositions_refuses_a_rank_above_64():
    # the counts of block (2, 1) ran up to the rank, so (10^30, 1), which has two
    # compositions, never returned; 64 is CorrelatorRequest's bound, one mesh axis
    # per integration variable
    for r in ((10 ** 30, 1), (65, 0), (0, 65)):
        with pytest.raises(ValueError, match="truncation ranks must be at most 64"):
            enumerate_compositions(3, r)
    assert len(enumerate_compositions(3, (64, 1))) == 2


def test_omega_accumulation():
    om = [0.1, 0.2, 0.4, 0.8]
    assert omega_ba_t(3, 1, None, om) == pytest.approx(0.6)
    assert omega_ba_t(4, 2, None, om) == pytest.approx(1.2)
    assert omega_ba_t(4, 2, 3, om) == pytest.approx(0.8)
    assert omega_ba_t(3, 1, 1, om) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Cauchy decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M,N", [(m, n) for m in range(4) for n in range(4)])
def test_cauchy_decomposition(M, N):
    rng = np.random.default_rng(100 * M + N)
    for _ in range(20):
        a = rng.uniform(-2, 2, M) + 1j * rng.uniform(-2, 2, M)
        b = rng.uniform(-2, 2, N) + 1j * rng.uniform(-2, 2, N)
        lhs, rhs, terms = cauchy_decomposition(a, b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        assert sum(v for _, _, v in terms) == pytest.approx(rhs)


def test_cauchy_decomposition_rejects_coincident():
    with pytest.raises(ValueError):
        cauchy_decomposition([0.5, 0.5 + 1e-12], [1.0])


# ---------------------------------------------------------------------------
# pole chains
# ---------------------------------------------------------------------------

def _var(b, a, j=0):
    return ((b, a), j)


def test_chain_decomposition_single_chain():
    # w1 -(site 2)-> w2 -(site 3)-> w3
    pairings = {
        2: ((_var(2, 1),), (_var(3, 2),)),
        3: ((_var(3, 2),), (_var(4, 3),)),
    }
    chains = chain_decomposition(pairings)
    assert len(chains) == 1
    assert chains[0].variables == (_var(2, 1), _var(3, 2), _var(4, 3))
    assert chains[0].sites == (2, 3)
    assert chains[0].factors() == [
        (_var(2, 1), _var(3, 2), 2), (_var(3, 2), _var(4, 3), 3)]


def test_chain_decomposition_validates_block_indices():
    with pytest.raises(ValueError):  # A1 upper index != site
        chain_decomposition({2: ((_var(3, 1),), (_var(3, 2),))})
    with pytest.raises(ValueError):  # B1 lower index != site
        chain_decomposition({2: ((_var(2, 1),), (_var(4, 3),))})


def test_chain_decomposition_rejects_double_pairing():
    with pytest.raises(ValueError):
        chain_decomposition({
            2: ((_var(2, 1, 0), _var(2, 1, 0)), (_var(3, 2, 0), _var(3, 2, 1))),
        })


def _site_matchings(a_cands, b_cands):
    """All injective partial matchings between the two candidate lists."""
    out = [()]
    for size in range(1, min(len(a_cands), len(b_cands)) + 1):
        for asel in itertools.combinations(a_cands, size):
            for bsel in itertools.permutations(b_cands, size):
                out.append(tuple(zip(asel, bsel)))
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chain_decomposition_exhaustive(k):
    """Every admissible pairing of singly-occupied blocks decomposes into
    variable-disjoint chains whose factors reproduce the pairing exactly."""
    blks = blocks(k)
    for occupied in itertools.product((0, 1), repeat=len(blks)):
        vars_ = [((b, a), 0) for (b, a), occ in zip(blks, occupied) if occ]
        checked = 0
        site_opts = []
        sites = list(range(2, k))  # interior sites have both uppers and lowers
        for p in sites:
            a_cands = [v for v in vars_ if v[0][0] == p]
            b_cands = [v for v in vars_ if v[0][1] == p]
            site_opts.append(_site_matchings(a_cands, b_cands))
        for combo in itertools.product(*site_opts):
            pairings = {p: tuple(zip(*m)) if m else ((), ())
                        for p, m in zip(sites, combo)}
            # skip combos where one variable is a source or target twice
            srcs = [u for m in combo for (u, _) in m]
            tgts = [v for m in combo for (_, v) in m]
            if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
                continue
            chains = chain_decomposition(pairings)
            # factor multiset equality
            got = sorted(f for c in chains for f in c.factors())
            want = sorted((u, v, p) for p, m in zip(sites, combo) for (u, v) in m)
            assert got == want
            # chains are variable-disjoint
            seen = [v for c in chains for v in c.variables]
            assert len(seen) == len(set(seen))
            checked += 1
        assert checked >= 1


@pytest.mark.parametrize("x, real, complex_", [
    (np.float64(0.25), True, True),
    (np.int64(3), True, True),
    (-2, True, True),
    (np.bool_(True), False, False),
    (True, False, False),
    ("1", False, False),
    # math.isfinite raised OverflowError on it
    (10 ** 400, False, False),
    (-10 ** 400, False, False),
    (float("nan"), False, False),
    (float("inf"), False, False),
    (None, False, False),
    (1 + 2j, False, True),
    (np.complex128(1 - 1j), False, True),
    (complex(1.0, float("nan")), False, False),
])
def test_is_finite(x, real, complex_):
    assert _is_finite(x) is real
    assert _is_finite(x, numbers.Complex) is complex_

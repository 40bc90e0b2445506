"""Kernel partition sums: structure, pairing equivalences, jump identity."""
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import dawsn, roots_legendre

from shgff.formfactor import (
    ExponentialPn, FixtureExponentialLikeProvider, KTransformProvider,
    OperatorSpec, load_operator,
)
from shgff.kernelalg import (
    FormalKernelSum, _rule_1d, expand_direct, expand_dual,
    expand_mixed, jump_terms, pair_numeric, pair_numeric_with_tail, term_count,
)
import shgff.formfactor
import shgff.kernelalg
from shgff.combin import Slot
from shgff.specfun import ModelParams, SpecialFunctionError, s_matrix

P = ModelParams(b=0.25)
KT_OP = OperatorSpec("kt", 0.0, 0.0, 0.0,
                     KTransformProvider(ExponentialPn(P, t=0.3), P))
FIX_OP = load_operator(
    {"name": "fix", "omega": 0.0,
     "provider": {"kind": "exponential-like",
                  "coefficients": [1.0, 0.7, 1.3, 0.9, 1.1, 0.8],
                  "slope": 0.0}}, P)


def gauss_test(bs):
    return np.exp(-0.5 * sum((b - 0.3) ** 2 for b in bs))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def _splits(n):
    return [c for p in range(n + 1) for c in itertools.combinations(range(n), p)]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2),
                                 (0, 0), (0, 3), (3, 0), (1, 3), (3, 3)])
def test_term_counts(n, m):
    want = term_count("direct", n, m)
    assert len(expand_direct(n, m).terms) == want
    assert len(expand_dual(n, m).terms) == term_count("dual", n, m) == want
    for a1 in _splits(n):
        assert len(expand_mixed(n, m, a1).terms) == term_count("mixed", n, m)
    for flavor in ("jump", "bogus"):
        with pytest.raises(ValueError):
            term_count(flavor, n, m)


def test_term_count_formula():
    assert term_count("direct", 2, 3) == \
        sum(math.comb(2, p) * math.perm(3, p) for p in range(3))


def test_mixed_degenerate_splits_reduce():
    # A1 = A reproduces the direct sum's term count, A1 = {} the dual's
    n, m = 2, 2
    assert len(expand_mixed(n, m, (0, 1)).terms) >= len(expand_direct(n, m).terms)
    assert len(expand_mixed(n, m, ()).terms) >= len(expand_dual(n, m).terms)


def test_dirac_pairs_are_balanced():
    kernels = [jump_terms(m) for m in range(4)]
    for n, m in itertools.product(range(4), repeat=2):
        kernels += [expand_direct(n, m), expand_dual(n, m)]
        kernels += [expand_mixed(n, m, a1) for a1 in _splits(n)]
    for kern in kernels:
        slots = sorted([f"a{i}" for i in range(kern.n)] + [f"b{j}" for j in range(kern.m)])
        for term in kern.terms:
            # every Dirac pair identifies one alpha-family slot with one beta
            for aslot, bslot in term.dirac_pairs:
                assert aslot.family == "a" and bslot.family == "b"
            # each slot is used exactly once, by a Dirac pair or by the symbol
            used = [s for pair in term.dirac_pairs for s in pair]
            used += [s.base() for s in term.ff_word]
            assert sorted(f"{s.family}{s.index}" for s in used) == slots


def test_describe_runs():
    assert isinstance(expand_direct(1, 1).describe(), str)


# ---------------------------------------------------------------------------
# pairing equivalences
# ---------------------------------------------------------------------------

def test_pairing_equivalence_fixture_all_small_sizes():
    # constant amplitudes solve the axioms at the free point, where
    # direct = dual = mixed holds exactly
    p0 = ModelParams(b=0.0)
    for (n, m) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        al = [0.4, -0.7][:n]
        vals = [pair_numeric(expand_direct(n, m), al, gauss_test, FIX_OP, p0, nodes=32),
                pair_numeric(expand_dual(n, m), al, gauss_test, FIX_OP, p0, nodes=32)]
        for a1 in ((), tuple(range(n))):
            vals.append(pair_numeric(expand_mixed(n, m, a1), al, gauss_test,
                                     FIX_OP, p0, nodes=32))
        ref = vals[0]
        for v in vals[1:]:
            assert abs(v - ref) < 1e-8 * max(1.0, abs(ref))


def test_pairing_equivalence_interacting_1_1():
    # full interacting operator with kinematic poles handled in the limit
    al = [0.4]
    d = pair_numeric(expand_direct(1, 1), al, gauss_test, KT_OP, P, nodes=48)
    u = pair_numeric(expand_dual(1, 1), al, gauss_test, KT_OP, P, nodes=48)
    m0 = pair_numeric(expand_mixed(1, 1, ()), al, gauss_test, KT_OP, P, nodes=48)
    m1 = pair_numeric(expand_mixed(1, 1, (0,)), al, gauss_test, KT_OP, P, nodes=48)
    for v in (u, m0, m1):
        assert abs(v - d) < 1e-8 * max(1.0, abs(d))


def test_pairing_equivalence_interacting_1_3():
    # three free variables on one tensor rule, each pole-subtracted
    al = [0.4]
    d = pair_numeric(expand_direct(1, 3), al, gauss_test, KT_OP, P, nodes=48)
    u = pair_numeric(expand_dual(1, 3), al, gauss_test, KT_OP, P, nodes=48)
    m0 = pair_numeric(expand_mixed(1, 3, ()), al, gauss_test, KT_OP, P, nodes=48)
    for v in (u, m0):
        assert abs(v - d) < 1e-6 * max(1.0, abs(d))


def test_pairing_memory_is_bounded_by_the_slab():
    # the 67^3 mesh is reduced slab by slab (peak 4.6 MB); contracting the
    # whole rule at once peaks at 20 MB
    tracemalloc.start()
    try:
        pair_numeric(expand_direct(1, 3), [0.4], gauss_test, KT_OP, P, nodes=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_slab_cut_leaves_the_pairing_unchanged(monkeypatch):
    # with 700 points a slab, (1,2) at 32 nodes is cut into two uneven slabs
    # and direct (1,3) at 16 nodes into 20; two of direct (2,1)'s three terms
    # have no free axis, so their slab is a scalar
    cases = [(expand_direct(1, 2), [0.4], 32), (expand_dual(1, 2), [0.4], 32),
             (expand_direct(1, 3), [0.4], 16), (expand_direct(2, 1), [0.4, -0.1], 48)]
    want = [pair_numeric_with_tail(kern, al, gauss_test, KT_OP, P, nodes=nodes)
            for kern, al, nodes in cases]
    monkeypatch.setattr(shgff.kernelalg, "_PAIR_CHUNK", 700)
    for (kern, al, nodes), (val, term) in zip(cases, want):
        got, got_term = pair_numeric_with_tail(kern, al, gauss_test, KT_OP, P, nodes=nodes)
        assert abs(got - val) <= 1e-14 * abs(val), (kern.flavor, kern.n, kern.m)
        assert abs(got_term - term) <= 1e-14 * abs(val), (kern.flavor, kern.n, kern.m)


def test_odd_node_count_pairs_interacting_kernel():
    # every axis has the same count and no node at 0, odd or even
    kern = expand_direct(1, 2)
    odd, term = pair_numeric_with_tail(kern, [0.4], gauss_test, KT_OP, P, nodes=49)
    assert np.isfinite(odd)
    assert term == math.inf  # no even-node rule
    even = pair_numeric(kern, [0.4], gauss_test, KT_OP, P, nodes=48)
    assert abs(odd - even) < 1e-6 * max(1.0, abs(even))


def test_interacting_pairing_on_a_wide_window():
    # rapidity differences up to 2 L = 800: sinh overflowed in the pair factors
    val, term = pair_numeric_with_tail(expand_direct(1, 2), [0.4], gauss_test, KT_OP, P,
                                       L=400.0, nodes=48)
    assert np.isfinite(val) and np.isfinite(term)


def _kt_op(params):
    return OperatorSpec("kt", 0.0, 0.0, 0.0,
                        KTransformProvider(ExponentialPn(params, t=0.3), params))


@pytest.mark.parametrize("expand", [expand_direct, expand_dual])
@pytest.mark.parametrize("b,coarse,fine,tol", [(0.25, 32, 160, 2e-6), (0.05, 160, 480, 1e-7)])
def test_interacting_pairing_converges_in_the_node_count(expand, b, coarse, fine, tol):
    params = ModelParams(b=b)
    op, kern = _kt_op(params), expand(1, 2)
    got = pair_numeric(kern, [0.4], gauss_test, op, params, nodes=coarse)
    want = pair_numeric(kern, [0.4], gauss_test, op, params, nodes=fine)
    assert abs(got - want) < tol


@pytest.mark.parametrize("b", [0.05, 0.25, 0.45])
def test_refinement_term_covers_the_distance_to_twice_the_nodes(b):
    # |P(n) - P(n/2)|, read off the even nodes of the n-node rule, is at least
    # |P(n) - P(2n)| wherever that is above 1e-12. The term does not cover the
    # rounding floor: at 64 and 96 nodes direct (2,1) at b = 1/4 moves by
    # 2.2e-12 and 8.2e-13 between n and 2n while the term reads 2.0e-12 and 7e-14
    params = ModelParams(b=b)
    op = _kt_op(params)
    cases = [(expand(n, m), nodes) for n, m in ((1, 1), (1, 2))
             for expand in (expand_direct, expand_dual, lambda n, m: expand_mixed(n, m, ()))
             for nodes in (16, 24, 32, 48)]
    cases += [(expand_direct(2, 1), nodes) for nodes in (16, 24, 32, 48)]
    cases += [(expand_direct(1, 3), nodes) for nodes in (16, 32)]
    checked = 0
    for kern, nodes in cases:
        al = [0.4, -0.7][:kern.n]
        val, term = pair_numeric_with_tail(kern, al, gauss_test, op, params, nodes=nodes)
        dist = abs(val - pair_numeric(kern, al, gauss_test, op, params, nodes=2 * nodes))
        if dist > 1e-12:
            checked += 1
            assert term >= dist, (kern.flavor, kern.n, kern.m, nodes, term, dist)
    assert checked >= 20
    # where the rule has converged the term is at the rounding level
    _, term = pair_numeric_with_tail(expand_direct(1, 1), [0.4], gauss_test, op, params,
                                     nodes=64)
    assert term < 1e-13


def test_probe_error_is_below_the_refinement_floor():
    # the probe mean of each pole-subtracted rule errs by O(delta^4), an error
    # no node count lowers; direct and dual carry different probe errors
    params = ModelParams(b=0.05)
    op = _kt_op(params)
    d, u = (pair_numeric(expand(1, 2), [0.4], gauss_test, op, params, nodes=320)
            for expand in (expand_direct, expand_dual))
    assert abs(d - u) < 1e-11


@pytest.mark.parametrize("expand", [expand_direct, expand_dual])
def test_one_form_factor_evaluation_per_term(monkeypatch, expand):
    # every term's integrand runs once on its whole tensor rule: the uniform
    # nodes and the probe points of each free axis
    op, kern = _kt_op(P), expand(1, 2)
    words = [len(t.ff_word) for t in kern.terms if len(t.dirac_pairs) < kern.m]
    calls = {"evaluate": 0, "min_form_factor": 0}
    evaluate, min_ff = KTransformProvider.evaluate, shgff.formfactor.min_form_factor

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(KTransformProvider, "evaluate", counted("evaluate", evaluate))
    monkeypatch.setattr(shgff.formfactor, "min_form_factor",
                        counted("min_form_factor", min_ff))
    pair_numeric(kern, [0.4], gauss_test, op, P, nodes=96)
    # F_1 is constant, so only words of two or more rapidities need F_min
    assert calls == {"evaluate": len(words),
                     "min_form_factor": sum(w > 1 for w in words)}
    assert words == [3, 1, 1]


@pytest.mark.parametrize("nodes", list(range(40, 65)) + [400])
def test_no_node_meets_a_dirac_fixed_rapidity(nodes):
    # at offsets 0 and 1/2 some of these counts put a node on an alpha
    cases = [(expand_direct(1, 2), [a]) for a in (0.4, -0.7, 0.0, 0.5)]
    cases += [(expand_direct(2, 1), al) for al in ([0.4, -0.7], [0.0, 0.5])]
    for kern, al in cases:
        try:
            val = pair_numeric(kern, al, gauss_test, KT_OP, P, nodes=nodes)
        except SpecialFunctionError as exc:
            pytest.fail(f"{kern.n},{kern.m} at {al}: {exc}")
        assert np.isfinite(val), (kern.n, kern.m, al)


def _plemelj_gauss(p, side):
    # int e^{-x^2}/(x - p - i side 0) dx: the principal value is
    # -2 sqrt(pi) D(p), D Dawson's integral, plus i pi side e^{-p^2}
    return -2.0 * np.sqrt(np.pi) * dawsn(p) + 1j * np.pi * side * np.exp(-p * p)


@pytest.mark.parametrize("p,side", [(0.4, -1), (-0.7, 1)])
def test_rule_1d_one_pole_matches_dawson(p, side):
    x, w, _ = _rule_1d([(p, side)], 8.0, 48)
    got = w @ (np.exp(-x * x) / (x - p))
    assert abs(got - _plemelj_gauss(p, side)) < 1e-10


def test_rule_1d_two_poles_match_partial_fractions():
    x, w, _ = _rule_1d([(0.4, -1), (-0.7, 1)], 8.0, 48)
    got = w @ (np.exp(-x * x) / ((x - 0.4) * (x + 0.7)))
    want = (_plemelj_gauss(0.4, -1) - _plemelj_gauss(-0.7, 1)) / 1.1
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("nodes", [48, 96, 104, 200])
def test_rule_1d_without_poles_is_the_trapezoid_rule(nodes):
    # equal weights 2L/nodes on a uniform grid; spectrally exact on x^k e^{-x^2}
    x, w, _ = _rule_1d([], 8.0, nodes)
    assert len(x) == nodes and np.all(w == 16.0 / nodes)
    assert x.dtype == w.dtype == complex
    assert np.max(np.abs(np.diff(x) - 16.0 / nodes)) < 1e-13
    for k in range(7):
        exact = math.gamma((k + 1) / 2) if k % 2 == 0 else 0.0
        assert abs(w @ (x ** k * np.exp(-x * x)) - exact) < 1e-13


def test_rule_1d_even_nodes_are_the_rule_of_half_the_nodes():
    # the coarse weights are the rule of step 2h whose nodes are the even ones
    poles = [(0.4, -1), (-0.7, 1)]
    x, _, wc = _rule_1d(poles, 8.0, 48, offset=0.3)
    xh, wh, _ = _rule_1d(poles, 8.0, 24, offset=0.15)
    assert np.max(np.abs(x[:48:2] - xh[:24])) < 1e-13
    assert np.array_equal(x[48:], xh[24:])
    assert np.all(wc[1:48:2] == 0.0)
    assert np.max(np.abs(np.delete(wc, np.s_[1:48:2]) - wh)) < 1e-12
    assert _rule_1d(poles, 8.0, 49)[2] is None


def _regulated_pairing(kern, alphas, op, eps, L=8.0):
    """A kernel of one beta (m = 1) paired with gauss_test at a finite
    regulator: every +-i pi shift is +-i(pi - eps), which moves each
    kinematic pole a distance eps off the real axis, and the free beta
    integral is a plain trapezoid rule of step eps/6 over [-L, L]."""
    assert kern.m == 1
    intervals = round(2.0 * L / (eps / 6.0))
    x = np.linspace(-L, L, intervals + 1)
    w = np.full(intervals + 1, 2.0 * L / intervals)
    w[[0, -1]] /= 2.0
    beta, total = Slot("b", 0), 0.0 + 0.0j
    for term in kern.terms:
        vals = {Slot("a", i): complex(al) for i, al in enumerate(alphas)}
        vals.update({b: vals[a] for a, b in term.dirac_pairs})
        free = beta not in vals
        if free:
            vals[beta] = x
        f = op.provider.evaluate([vals[s.base()] + s.shift * 1j * (np.pi - eps)
                                  for s in term.ff_word])
        g = f * gauss_test([vals[beta]])
        total += term.sign * np.exp(-2j * np.pi * op.omega) ** term.phase_power \
            * (w @ g / (2.0 * np.pi) if free else g)
    return total


def test_limit_matches_finite_regulator_extrapolation():
    # the finite-regulator values, extrapolated to eps = 0 by iterated
    # first-order Richardson over halving regulators, meet the exact limit
    al = [0.4]
    exact = pair_numeric(expand_direct(1, 1), al, gauss_test, KT_OP, P, nodes=48)
    level = [_regulated_pairing(expand_direct(1, 1), al, KT_OP, eps)
             for eps in (1e-2, 5e-3, 2.5e-3)]
    tail = abs(level[-1] - level[-2])
    order = 1
    while len(level) > 1:
        fac = 2.0 ** order
        level = [(fac * level[i + 1] - level[i]) / (fac - 1.0) for i in range(len(level) - 1)]
        order += 1
    assert abs(exact - level[0]) < 1e-5 * max(1.0, abs(exact))
    assert tail < 1e-2  # coarse error indicator only


def test_exchange_covariance():
    # swapping the two alpha arguments costs one S factor
    al = [0.4, -0.7]
    base = pair_numeric(expand_direct(2, 1), al, gauss_test, KT_OP, P, nodes=48)
    swap = pair_numeric(expand_direct(2, 1), [al[1], al[0]], gauss_test,
                        KT_OP, P, nodes=48)
    assert abs(base - s_matrix(al[1] - al[0], P) * swap) \
        < 1e-8 * max(1.0, abs(base))


def test_pairing_rejects_wrong_alpha_count():
    with pytest.raises(ValueError):
        pair_numeric(expand_direct(2, 1), [0.4], gauss_test, FIX_OP, P, nodes=8)


@pytest.mark.parametrize("kw, message", [
    (dict(nodes=0), "nodes must be a positive integer, got 0"),
    (dict(nodes=-4), "nodes must be a positive integer, got -4"),
    # both raised TypeError in the rule: "can't multiply sequence by non-int"
    # and "expected a sequence of integers or a single integer, got 'True'"
    (dict(nodes=48.0), "nodes must be a positive integer, got 48.0"),
    (dict(nodes=True), "nodes must be a positive integer, got True"),
    (dict(L=0.0), "L must be a finite positive number, got 0.0"),
    (dict(L=-8.0), "L must be a finite positive number, got -8.0"),
    # nan+nanj with a numpy warning before
    (dict(L=float("inf")), "L must be a finite positive number, got inf"),
    # a string raised TypeError in the rule, and True ran as L = 1
    (dict(L="8"), "L must be a finite positive number, got '8'"),
    (dict(L=True), "L must be a finite positive number, got True"),
])
def test_pairing_rejects_bad_grid(kw, message):
    with pytest.raises(ValueError, match=message):
        pair_numeric(expand_direct(1, 2), [0.4], gauss_test, FIX_OP, P, **kw)


# "cannot convert float NaN to integer" from min_form_factor, after numpy warnings
# np.isfinite raised TypeError on a huge integer or a string, and True ran as alpha = 1
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 10 ** 400, "0.4",
                                   True])
def test_pairing_rejects_non_finite_alphas(alpha):
    with pytest.raises(ValueError, match=re.escape(
            f"alphas must be finite real numbers, got {[alpha]!r}")):
        pair_numeric(expand_direct(1, 2), [alpha], gauss_test, KT_OP, P)


# ---------------------------------------------------------------------------
# jump identity
# ---------------------------------------------------------------------------

def _jump_oracle(m, alpha, op, params, L=8.0, nodes=64):
    """Direct transcription of the jump sum with plain tensor quadrature."""
    x, wq = roots_legendre(nodes)
    x, wq = L * x, L * wq
    free = m - 1
    grids = np.meshgrid(*([x] * free), indexing="ij") if free else []
    wt = 1.0
    for _ in range(free):
        wt = np.multiply.outer(wt, wq) if np.ndim(wt) else wq
    total = 0.0 + 0.0j
    for a in range(m):
        gi = iter(grids)
        b = [alpha if j == a else next(gi) for j in range(m)]
        pre = np.ones(np.shape(b[(a + 1) % m] if m > 1 else 1.0), dtype=complex)
        for k in range(a):
            pre = pre * s_matrix(b[k] - b[a], params)
        post = np.ones_like(pre)
        for k in range(a + 1, m):
            post = post * s_matrix(b[a] - b[k], params)
        rest = [b[j] for j in range(m) if j != a]
        val = (pre - np.exp(2j * np.pi * op.omega) * post) \
            * op.provider.evaluate(rest) * gauss_test(b)
        total += np.sum(val * wt) / (2.0 * np.pi) ** free
    return total


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jump_kernel_matches_oracle(m):
    op = load_operator(
        {"name": "f", "omega": 0.3,
         "provider": {"kind": "exponential-like",
                      "coefficients": [1.0, 0.7, 1.3, 0.9], "slope": 0.2}}, P)
    kern = jump_terms(m)
    assert isinstance(kern, FormalKernelSum)
    assert len(kern.terms) == 2 * m
    got = pair_numeric(kern, [0.4], gauss_test, op, P, nodes=64)
    want = _jump_oracle(m, 0.4, op, P)
    assert abs(got - want) < 1e-7 * max(1.0, abs(want))

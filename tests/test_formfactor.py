"""K-transform form factors, fixtures, operator documents, axiom checks, residues."""
import functools
import itertools
import operator

import numpy as np
import pytest
from scipy.special import roots_legendre

from shgff.formfactor import (
    ExponentialPn, FixtureExponentialLikeProvider, FixtureUnitProvider,
    KTransformProvider, OperatorSpec, _difference_lattice, _pair_tables,
    k_transform, load_operator, numerical_residue, verify_axioms,
)
import shgff.formfactor
from shgff.specfun import ModelParams, SpecialFunctionError, min_form_factor, s_matrix

P = ModelParams(b=0.3)
RNG = np.random.default_rng(11)


def _kt_op(params, t=0.3, c1=1.0, omega=0.0):
    return OperatorSpec("kt", omega, 0.0, 0.0,
                        KTransformProvider(ExponentialPn(params, t=t, c1=c1), params))


# ---------------------------------------------------------------------------
# seed solutions and the K-transform
# ---------------------------------------------------------------------------

def test_exponential_pn_coefficient_recursion():
    pn = ExponentialPn(P, t=0.3, c1=0.8)
    g = -1.0 / (P.sin2pib * min_form_factor(1j * np.pi, P))
    for n in range(2, 7):
        assert pn.coeff(n) * pn.t == pytest.approx(g * pn.coeff(n - 2), rel=1e-13)
    assert pn.coeff(0) == 1.0
    assert pn.coeff(1) == 0.8


def test_exponential_pn_rejects_degenerate():
    with pytest.raises(ValueError):
        ExponentialPn(P, t=1.0)
    with pytest.raises(ValueError):
        ExponentialPn(ModelParams(b=0.0), t=0.3)


def test_k_transform_low_orders():
    pn = ExponentialPn(P, t=0.3, c1=0.8)
    # n=0: single term, p_0 = 1
    assert k_transform(pn, []) == pytest.approx(1.0)
    # n=1: (1 - t) c_1, no pair factors
    assert k_transform(pn, [0.7]) == pytest.approx(0.8 * (1 - 0.3))


def test_k_transform_symmetric_in_ell_pairs():
    # the n=2 value matches the explicit four-term sum
    pn = ExponentialPn(P, t=0.3, c1=0.8)
    b1, b2 = 0.4, -0.9
    s2 = P.sin2pib
    sh = np.sinh(b1 - b2)
    c2 = pn.coeff(2)
    t = pn.t
    want = c2 * (1.0 - t * (1.0 - 1j * s2 / sh) - t * (1.0 + 1j * s2 / sh) + t * t)
    assert k_transform(pn, [b1, b2]) == pytest.approx(want, rel=1e-13)


def _k_transform_loop(p, betas, params):
    """The label sum written out: for each ell, the product of its pair
    factors from 1, times (-1)^{|ell|}, times p(beta|ell)."""
    betas = [np.asarray(b, dtype=complex) for b in betas]
    q = {(k, s): 1j * params.sin2pib / np.sinh(betas[k] - betas[s])
         for k in range(len(betas)) for s in range(k + 1, len(betas))}
    total = 0.0 + 0.0j
    for ells in itertools.product((0, 1), repeat=len(betas)):
        fac = 1.0 + 0.0j
        for (k, s), qks in q.items():
            if ells[k] != ells[s]:
                fac = fac * (1.0 - (ells[k] - ells[s]) * qks)
        total = total + (-1.0) ** sum(ells) * fac * p.evaluate(betas, ells)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_k_transform_keeps_the_bits_of_the_written_out_label_sum(n):
    # the label sum starts each product from its first pair factor and takes
    # the scalar (-1)^{|ell|} p(beta|ell) last, both exact for the sign
    pn = ExponentialPn(P, t=0.3, c1=0.8)
    rng = np.random.default_rng(n)
    betas = [rng.uniform(-2.0, 2.0, 7) + 1j * rng.uniform(0.0, 3.0, 7) for _ in range(n)]
    for got, want in ((k_transform(pn, betas), _k_transform_loop(pn, betas, P)),
                      (k_transform(pn, np.broadcast_arrays(*betas)),
                       _k_transform_loop(pn, betas, P))):
        assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_k_transform_is_the_providers_k_part(n):
    # F_n = prod_{k<s} F_min(beta_k - beta_s) * K_n[p](beta), the product in
    # the provider's order: bit for bit on broadcast inputs. On open-mesh axes
    # the provider goes through the lattice of differences to the last
    # rapidity; the axes are binary fractions, so that every difference is
    # exact and the lattice and the mesh see the same arguments (on linspace
    # axes the rounding of the differences moves K_4 by up to 1e-13, where the
    # label sum cancels)
    op = _kt_op(P)
    pn = op.provider.pn

    def product(betas):
        fmin = [min_form_factor(x - y, P) for x, y in itertools.combinations(betas, 2)]
        return functools.reduce(operator.mul, fmin + [k_transform(pn, betas)])

    rng = np.random.default_rng(n)
    betas = [rng.uniform(-2.0, 2.0, 7) + 1j * rng.uniform(0.0, 3.0, 7) for _ in range(n)]
    assert np.array_equal(np.atleast_1d(op.provider.evaluate(betas)).view(np.uint64),
                          np.atleast_1d(product(betas)).view(np.uint64))
    axes = _uniform_axes([(j / 4, 0.25 * (j + 1)) for j in range(n)], nodes=12, L=1.5)
    assert _difference_lattice(*axes)[0][-1] == 0.0
    got, want = op.provider.evaluate(axes), product(axes)
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
    loop = _k_transform_loop(pn, axes, P)
    assert np.max(np.abs(k_transform(pn, axes) - loop) / np.abs(loop)) <= 1e-14


def test_k_transform_pole_guard():
    pn = ExponentialPn(P, t=0.3)
    with pytest.raises(SpecialFunctionError):
        k_transform(pn, [0.5, 0.5])


def test_k_transform_vectorized():
    pn = ExponentialPn(P, t=0.3)
    b2 = np.linspace(-1, 1, 7)
    vec = k_transform(pn, [0.4, b2])
    sc = np.array([k_transform(pn, [0.4, x]) for x in b2])
    assert np.max(np.abs(vec - sc)) < 1e-14


def _uniform_axes(shifts, nodes=96, L=8.0):
    """Open-mesh axes of one uniform step, as the correlator builds them."""
    h = 2.0 * L / nodes
    x = np.linspace(-L, L, nodes + 1)
    return np.meshgrid(*(x + c * h + 1j * e for c, e in shifts),
                       indexing="ij", sparse=True)


PAIR_FUNCTIONS = [lambda d: min_form_factor(d, P), np.sinh,
                  lambda d: s_matrix(d, P)]


def _pair_table(f, x, y):
    """f(x - y) for an f of one array, through _pair_tables."""
    (table,), = _pair_tables([(x, y)], lambda d: (f(d),))
    return table


@pytest.mark.parametrize("f", PAIR_FUNCTIONS)
def test_pairwise_table_matches_direct(f):
    a, b, c = _uniform_axes([(0.0, 0.1 + np.pi), (0.5, 0.2), (0.25, 0.3)])
    for x, y in ((a, b), (c, a), (b + 0.7j, c)):
        seen = []
        got = _pair_table(lambda d: seen.append(d.shape) or f(d), x, y)
        want = f(x - y)
        assert seen == [(2 * 97 - 1,)]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


@pytest.mark.parametrize("f", PAIR_FUNCTIONS)
def test_pairwise_falls_back_bitwise_off_the_uniform_mesh(f):
    xg = 8.0 * roots_legendre(48)[0]
    a, b = np.meshgrid(xg + 0.1j, xg - 0.4, indexing="ij", sparse=True)
    u, v = _uniform_axes([(0.0, 0.1), (0.0, 0.2)], nodes=48)
    # 49 points of half u's step
    finer = _uniform_axes([(0.0, 0.2), (0.0, 0.2)], nodes=96)[1][:, :49]
    for x, y in ((a, b), (a, v), (u, 0.3 + 0.1j), (u, u + 0.5j), (u, finer)):
        assert np.array_equal(_pair_table(f, x, y), f(x - y))


def _run_and_extras(nodes, offset, shift, extras, L=8.0):
    """A uniform run of `nodes` points of step 2L/nodes on [-L, L], followed
    by extra points, as kernelalg's pole-subtracted rules lay out an axis."""
    h = 2.0 * L / nodes
    return np.concatenate([-L + (np.arange(nodes) + offset) * h + shift,
                           np.asarray(extras, dtype=complex)])


# kernelalg-like probes: 4 points of radius 1e-3 around a pole at 0.4
PROBES = 0.4 + 1e-3 * np.array([1, -1, 1j, -1j])
# the point after the last of x's run below, -8 + (48 + 0.62) / 3 + pi + 0.1i
NEXT_X = 8.0 + 0.62 / 3.0 + np.pi + 0.1j


@pytest.mark.parametrize("f", PAIR_FUNCTIONS)
@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("x_extras, y_extras, run_x", [
    (PROBES, [], 48), ([], PROBES - 0.7, 48), (PROBES, 1.2 * PROBES, 48), ([], [], 48),
    # an extra point on the step of the run joins the run
    ([NEXT_X, 0.3 + 1e-3j], PROBES, 49)])
def test_lattice_with_extra_points_matches_the_dense_mesh(f, order, x_extras, y_extras,
                                                          run_x):
    x = _run_and_extras(48, 0.62, np.pi + 0.1j, x_extras)
    y = _run_and_extras(48, 0.24, 0.0, y_extras)
    x, y = (v.reshape((-1, 1) if dim == 0 else (1, -1)) for v, dim in zip((x, y), order))
    # the lattice of the runs, then every pair that involves an extra point
    want_size = run_x + 48 - 1 + x.size * y.size - run_x * 48
    want = f(x - y)
    seen = []
    got = _pair_table(lambda d: seen.append(np.shape(d)) or f(d), x, y)
    assert seen == [(want_size,)]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    # the lattice of a shift-invariant function of two rapidities
    (u, v), gather = _difference_lattice(x, y)
    assert np.shape(u) == (want_size,) and v == 0.0
    got = gather(f(u - v))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


@pytest.mark.parametrize("f", PAIR_FUNCTIONS)
@pytest.mark.parametrize("dims", [(1, 2), (2, 0)])
@pytest.mark.parametrize("x_extras, y_extras", [
    (PROBES, []), ([], PROBES - 0.7), (PROBES, 1.2 * PROBES[:2])])
def test_lattice_with_extra_points_on_two_axes_of_a_three_axis_mesh(f, dims, x_extras,
                                                                    y_extras):
    # a pair of a kernel term's three free variables: its two axes along two of
    # the mesh's three dimensions, in either order, the third dimension of length 1
    x = _run_and_extras(48, 0.62, np.pi + 0.1j, x_extras)
    y = _run_and_extras(48, 0.24, 0.0, y_extras)
    x, y = (v.reshape([-1 if d == dim else 1 for d in range(3)]) for v, dim in zip((x, y), dims))
    want = f(x - y)
    (u, v), gather = _difference_lattice(x, y)
    assert np.shape(u) == (48 + 48 - 1 + x.size * y.size - 48 * 48,) and v == 0.0
    got = gather(f(u - v))
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_lattice_of_one_rapidity_is_its_one_point():
    # a shift-invariant function of one rapidity is a constant, on any axis
    xg = 8.0 * roots_legendre(48)[0]
    for x in (xg + 0.1j, _run_and_extras(48, 0.62, 0.0, PROBES), np.linspace(-8.0, 8.0, 97)):
        args, gather = _difference_lattice(x.reshape(1, -1))
        assert args == (0.0,) and gather(np.float64(2.5)) == 2.5


@pytest.mark.parametrize("dims", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_lattice_gather_copies_the_table_at_the_index_differences(dims):
    # on runs alone x_k[i_k] - y[i_last] is the table element i_k - i_last +
    # run_last - 1 along axis k, for axes along the mesh's dimensions in any order
    lens = (9, 7, 8)
    vecs = [0.25 * np.arange(n) + c for n, c in zip(lens, (0.1, 0.3j, -0.2))]
    axes = [v.reshape([-1 if d == dim else 1 for d in range(3)]) for v, dim in zip(vecs, dims)]
    (u, v, w), gather = _difference_lattice(*axes)
    assert np.shape(u) == (9 + 8 - 1, 1) and np.shape(v) == (7 + 8 - 1,) and w == 0.0
    table = np.exp(u) * np.cos(v)
    i, j, k = np.meshgrid(*(np.arange(n) for n in lens), indexing="ij")
    want = np.moveaxis(table[i - k + 7, j - k + 7], (0, 1, 2), dims)
    got = gather(table)
    assert got.flags.c_contiguous and got.flags.writeable
    assert np.array_equal(got, want)
    assert np.array_equal(gather(2.5 + 0j), np.full(want.shape, 2.5 + 0j))


def test_lattice_falls_back_bitwise_with_extras_on_three_axes():
    pn = ExponentialPn(P, t=0.3)
    f = lambda *betas: k_transform(pn, betas)
    x = _run_and_extras(12, 0.62, 0.0, PROBES)
    y = _run_and_extras(12, 0.24, 0.1j, [])
    z = _run_and_extras(12, 0.86, 0.2j, [])
    betas = np.meshgrid(x, y, z, indexing="ij", sparse=True)
    args, gather = _difference_lattice(*betas)
    assert len(args) == 3 and all(a is b for a, b in zip(args, betas))
    assert np.array_equal(gather(f(*args)), f(*betas))


def test_lattice_needs_a_run_over_most_of_each_axis():
    xg = 8.0 * roots_legendre(48)[0]
    half = _run_and_extras(8, 0.62, 0.0, 0.3 + 0.1 * np.arange(8))
    # Gauss-Legendre nodes agree on their first step only; half an axis off
    # the run leaves the lattice nothing to save
    for x, y in ((xg + 0.1j, xg - 0.4), (half, _run_and_extras(8, 0.24, 0.1j, []))):
        x, y = x.reshape(-1, 1), y.reshape(1, -1)
        args, _ = _difference_lattice(x, y)
        assert args[0] is x and args[1] is y


def test_k_transform_table_path_matches_and_guards_poles():
    pn = ExponentialPn(P, t=0.3)
    a, b, c = _uniform_axes([(0.0, 0.2), (0.5, 0.2), (0.0, 0.2)], nodes=48)
    betas = [a + 0.5j, b, c]
    # the dense mesh has no open-mesh axis, so it is evaluated directly
    got, want = k_transform(pn, betas), k_transform(pn, np.broadcast_arrays(*betas))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    # a and c coincide on the diagonal of their plane
    with pytest.raises(SpecialFunctionError):
        k_transform(pn, [a, c])


def _block_axes(left, right, nodes):
    """A middle operator's rapidities as the correlator builds them: `left`
    variables of block (2,1) and `right` of block (3,2) on two ladder rungs,
    the j-th of the c variables of a block offset by j h / c. Returned in the
    plain order (the left ones reversed and shifted by +i pi, then the right
    ones) and in the t-form's (the right ones, then the left ones reversed and
    shifted by -i pi; with one variable a block its dimensions descend)."""
    shifts = ([(j / left, 0.13) for j in range(left)]
              + [(j / right, 0.26) for j in range(right)])
    grid = list(_uniform_axes(shifts, nodes))
    lhs, rhs = grid[:left][::-1], grid[left:]
    return ([v + 1j * np.pi for v in lhs] + rhs,
            rhs + [v - 1j * np.pi for v in lhs])


@pytest.mark.parametrize("left, right, nodes, tol", [
    (1, 1, 96, 1e-13), (2, 1, 24, 1e-12), (1, 2, 24, 1e-12), (2, 2, 12, 1e-12)])
def test_k_transform_provider_on_the_lattice_matches_the_dense_mesh(
        monkeypatch, left, right, nodes, tol):
    prov = _kt_op(P).provider
    sizes = []
    original = shgff.formfactor._label_sum
    monkeypatch.setattr(shgff.formfactor, "_label_sum",
                        lambda p, b, pair: sizes.append(np.broadcast(*b).size)
                        or original(p, b, pair))
    for betas in _block_axes(left, right, nodes):
        sizes.clear()
        got = prov.evaluate(betas)
        # n variables cost one table over the n - 1 differences to the last
        assert sizes == [(2 * nodes + 1) ** (left + right - 1)]
        want = prov.evaluate(np.broadcast_arrays(*betas))
        assert got.shape == want.shape == (nodes + 1,) * (left + right)
        assert np.max(np.abs(got - want) / np.abs(want)) < tol


def test_lattice_falls_back_bitwise_off_the_uniform_mesh():
    pn = ExponentialPn(P, t=0.3)
    f = lambda *betas: k_transform(pn, betas)
    xg = 8.0 * roots_legendre(24)[0]
    gl = np.meshgrid(xg + 0.1j, xg - 0.4, xg + 0.2j, indexing="ij", sparse=True)
    u, v, w = _uniform_axes([(0.0, 0.1), (0.5, 0.2), (0.0, 0.3)], nodes=24)
    # 25 points of half u's step
    finer = _uniform_axes([(0.0, 0.1), (0.0, 0.2), (0.0, 0.3)], nodes=48)[2][..., :25]
    # Gauss-Legendre axes, two steps, two axes along one dimension, a scalar,
    # axes of different ndim
    for betas in (gl, (u, v + 0.2j, finer), (u, u + 0.5j, w), (u, 0.3 + 0.1j, w),
                  (u, v, w[0])):
        args, gather = _difference_lattice(*betas)
        assert np.array_equal(gather(f(*args)), f(*betas))


def test_k_transform_provider_guards_coinciding_rapidities_on_the_lattice():
    prov = _kt_op(P).provider
    a, b, c = _uniform_axes([(0.0, 0.2), (0.5, 0.2), (0.0, 0.2)], nodes=48)
    # a and c coincide on the diagonal of their plane
    for betas in ([a, c], [a, b, c], [b + 1j * np.pi, c, a]):
        with pytest.raises(SpecialFunctionError):
            prov.evaluate(betas)


@pytest.mark.parametrize("n", [2, 3])
def test_k_transform_provider_is_shift_invariant(n):
    prov = _kt_op(P).provider
    rng = np.random.default_rng(n)
    c = 0.7 - 0.4j
    for _ in range(5):
        betas = list(rng.uniform(-1.5, 1.5, size=n))
        want = prov.evaluate(betas)
        assert abs(prov.evaluate([b + c for b in betas]) - want) < 1e-13 * abs(want)


def test_k_transform_provider_refuses_a_seed_of_another_model():
    # the seed's model sets the residue coupling g and the provider's sets F_min and
    # the pair factors: at b = 1/4 and 0.1 the residue axiom missed by 0.62
    with pytest.raises(ValueError, match="the seed's model"):
        KTransformProvider(ExponentialPn(ModelParams(b=0.25), t=0.3), ModelParams(b=0.1))
    KTransformProvider(ExponentialPn(ModelParams(b=0.25), t=0.3), ModelParams(b=0.25))


def test_k_transform_provider_takes_a_seed_of_another_mass():
    # the provider compared the whole model and _check_model the coupling b alone:
    # a seed that differs only in the mass was refused, though no F_n reads the mass
    heavy = KTransformProvider(ExponentialPn(ModelParams(b=0.25, mass=2.0), t=0.3),
                               ModelParams(b=0.25))
    same = KTransformProvider(ExponentialPn(ModelParams(b=0.25), t=0.3), ModelParams(b=0.25))
    for betas in ([0.3, -0.2], [0.3, -0.2, 0.9 + 0.1j]):
        assert heavy.evaluate(betas) == same.evaluate(betas)


@pytest.mark.parametrize("d", [800.0, -800.0, 800.0 + 1j * np.pi / 3, 1e4])
def test_k_transform_takes_the_far_limit_of_its_pair_factors(d):
    # beyond |Re d| = 710 sinh(d) overflowed: q = i sin(2 pi b)/sinh(d) was
    # nan + nan i, and 0 with an overflow warning for real d
    pn = ExponentialPn(P, t=0.3, c1=0.8)
    prov = KTransformProvider(pn, P)
    near = np.copysign(700.0, d.real) + 1j * np.imag(d)
    for f in (lambda x: k_transform(pn, [x, 0.0]), lambda x: prov.evaluate([x, 0.0]),
              lambda x: k_transform(pn, [x, 0.0, 0.5]),
              lambda x: prov.evaluate([x, 0.0, 0.5])):
        got, want = f(d), f(near)
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-15 * abs(want)


# rapidities of the two clusters, n and m of them
_THETA = [0.3, -0.5, 0.9, -1.2, 0.1]
_THETA_PRIME = [-0.2, 0.7, -0.9, 0.4, 1.1]


@pytest.mark.parametrize("b", [0.1, 0.25, 0.4])
def test_k_transform_form_factors_cluster(b):
    # F_(n+m)(theta + Lam, theta') F_0 / (F_n(theta) F_m(theta')) tends to 1
    # when n or m is even and to g / (t c1^2) when both are odd: the family
    # clusters at every n only on c1^2 = g / t, which needs t < 0 at these b
    params = ModelParams(b=b)
    g = -1.0 / (params.sin2pib * min_form_factor(1j * np.pi, params))
    assert abs(g.imag) < 1e-15 and g.real < 0.0
    clustering = (-1.0, float(np.sqrt(-g.real)))
    lam = 30.0
    for t, c1 in ((0.3, 1.0), (-1.0, 1.0), (2.0, 1.0), (0.3, 0.5), clustering):
        f = _kt_op(params, t=t, c1=c1).provider.evaluate
        odd_limit = g.real / (t * c1 ** 2)
        if (t, c1) == clustering:
            assert abs(odd_limit - 1.0) < 1e-14
        else:
            assert abs(odd_limit - 1.0) > 0.1
        for n in range(1, 6):
            for m in range(1, 7 - n):
                theta, theta_prime = _THETA[:n], _THETA_PRIME[:m]
                ratio = (f([x + lam for x in theta] + theta_prime) * f([])
                         / (f(theta) * f(theta_prime)))
                limit = odd_limit if n % 2 and m % 2 else 1.0
                assert abs(ratio / limit - 1.0) < 1e-8, (t, c1, n, m)


# ---------------------------------------------------------------------------
# operator documents
# ---------------------------------------------------------------------------

def test_load_operator_kinds():
    op = load_operator({"name": "u", "provider": {"kind": "unit"}}, P)
    assert isinstance(op.provider, FixtureUnitProvider)
    op = load_operator(
        {"name": "e", "omega": 0.25,
         "provider": {"kind": "exponential-like", "coefficients": [1, 2, 3]}}, P)
    assert isinstance(op.provider, FixtureExponentialLikeProvider)
    assert op.omega == 0.25
    op = load_operator({"name": "k", "provider": {"kind": "k-transform", "t": 0.3}}, P)
    assert isinstance(op.provider, KTransformProvider)
    with pytest.raises(ValueError):
        load_operator({"provider": {"kind": "bogus"}}, P)
    # all but a list kind loaded before: a misspelt or misplaced key was
    # dropped (a provider without a kind was the unit operator, "omgea" gave
    # omega = 0), and a NaN went into F or the phases
    el = {"kind": "exponential-like", "coefficients": [1.0, 2.0]}
    kt = {"kind": "k-transform", "t": 0.3}
    nan = float("nan")
    for doc, message in (
            # a document is a mapping; JSON text is not parsed
            ('{"name": "k", "provider": {"kind": "k-transform", "t": 0.3}}',
             "an operator must be a mapping"),
            ({"provider": {"kidn": "k-transform", "t": 0.3}}, "provider has no kind"),
            ({"provider": {"kind": ["unit"]}}, "unknown provider kind"),
            ({"provider": {"provider": kt}}, "provider has no kind"),
            ({"omgea": 0.5}, r"unknown keys \['omgea'\]"),
            ({"provider": {"kind": "unit", "t": 0.3}}, r"unknown keys \['t'\]"),
            ({"provider": {**el, "t": 0.3}}, r"unknown keys \['t'\]"),
            ({"provider": {**kt, "slope": 0.1}}, r"unknown keys \['slope'\]"),
            ({"provider": {**kt, "coefficients": [1.0]}}, r"unknown keys \['coefficients'\]"),
            ({"omega": nan}, "omega must be a finite real number, got nan"),
            ({"spin": float("inf")}, "spin must be a finite real number, got inf"),
            ({"growth": nan}, "growth must be a finite real number, got nan"),
            ({"provider": {**kt, "t": nan}}, "t must be a finite real number, got nan"),
            # ExponentialPn.coeff divided by t: ZeroDivisionError
            ({"provider": {**kt, "t": 0}}, "ExponentialPn needs t != 0"),
            ({"provider": {**kt, "t": 0.0}}, "ExponentialPn needs t != 0"),
            ({"provider": {**kt, "c1": float("-inf")}}, "c1 must be a finite real number, got -inf"),
            ({"provider": {**el, "slope": nan}}, "slope must be a finite complex number, got nan"),
            ({"provider": {**el, "coefficients": [1.0, complex(1.0, nan)]}},
             r"coefficient must be a finite complex number, got \(1\+nanj\)")):
        with pytest.raises(ValueError, match=message):
            load_operator(doc, P)
    # an empty provider is the unit one; every documented key loads
    assert isinstance(load_operator({"provider": {}}, P).provider, FixtureUnitProvider)
    op = load_operator({"name": "k", "omega": 0.1, "spin": 0.0, "growth": 0.0,
                        "provider": {**kt, "c1": 0.8}}, P)
    assert (op.omega, op.provider.pn.t, op.provider.pn.c1) == (0.1, 0.3, 0.8)
    assert load_operator({"provider": {**el, "slope": 0.1}}, P).provider.slope == 0.1


def test_exponential_like_provider():
    prov = FixtureExponentialLikeProvider([1.0, 0.5, 2.0], slope=0.1)
    assert prov.evaluate(()) == 1.0
    assert prov.evaluate([0.3, -0.2]) == pytest.approx(2.0 * np.exp(0.1 * 0.1))
    with pytest.raises(ValueError):
        prov.evaluate([0.1, 0.2, 0.3])


def test_exponential_like_provider_on_open_mesh_axes():
    axes = _uniform_axes([(0.0, 0.1), (0.5, 0.2), (0.0, 0.3)])
    coefficients = [1.0, 0.5, 2.0, -1.5 + 0.5j]
    # at slope 0, F_n is the constant c_n, not an (N+1)^n array of it
    assert np.shape(FixtureExponentialLikeProvider(coefficients).evaluate(axes)) == ()
    assert FixtureExponentialLikeProvider(coefficients).evaluate(axes) == -1.5 + 0.5j
    prov = FixtureExponentialLikeProvider(coefficients, slope=0.1 - 0.2j)
    want = (-1.5 + 0.5j) * np.exp((0.1 - 0.2j) * sum(axes))
    assert np.array_equal(prov.evaluate(axes), want)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------

def test_numerical_residue_simple_pole():
    f = lambda z: 2.5 / (z - 0.3) + np.cos(z)
    assert abs(numerical_residue(f, 0.3) - 2.5) < 1e-10


def test_numerical_residue_with_nearby_structure():
    f = lambda z: (1.0 + 2j) / (z - 0.3) + 1.0 / (z - 0.8)
    got = numerical_residue(f, 0.3)
    assert abs(got - (1.0 + 2j)) < 1e-6


# ---------------------------------------------------------------------------
# bootstrap axioms
# ---------------------------------------------------------------------------

def test_axioms_k_transform_operator():
    op = _kt_op(ModelParams(b=0.25), t=0.3)
    for n in (2, 3):
        rep = verify_axioms(op, ModelParams(b=0.25), n, samples=3, seed=2)
        assert rep.exchange < 1e-8
        assert rep.periodicity < 1e-8
        assert rep.residue < 1e-6
        assert rep.boost < 1e-10


def test_axiom_residue_with_rapidity_near_beta0():
    # seed 248 draws beta_1 within 1.5e-3 of beta0, inside the default 1e-2
    # residue circle; the circles shrink so the pole at alpha = beta_1 stays out
    op = _kt_op(ModelParams(b=0.25), t=0.3)
    rep = verify_axioms(op, ModelParams(b=0.25), 1, samples=1, seed=248)
    assert rep.residue < 1e-6


def test_axioms_free_point_fixture():
    # constant amplitudes solve all axioms at the free point b = 0
    p0 = ModelParams(b=0.0)
    op = OperatorSpec("free", 0.0, 0.0, 0.0, FixtureUnitProvider())
    rep = verify_axioms(op, p0, 2, samples=3, seed=3)
    assert rep.exchange < 1e-12
    assert rep.periodicity < 1e-12
    assert rep.boost < 1e-12


def test_axioms_refuse_an_operator_of_another_coupling():
    # exchange 0.486 and residue 0.480 were reported for this operator at b = 0.1,
    # against 4.8e-16 and 1.2e-15 at its own model
    op = _kt_op(ModelParams(b=0.25), t=0.3)
    with pytest.raises(ValueError, match="is of the model"):
        verify_axioms(op, ModelParams(b=0.1), 2)
    # the mass is not compared
    assert verify_axioms(op, ModelParams(b=0.25, mass=3.0), 2).max_residual() < 1e-6


def test_axioms_detect_violation():
    # the unit fixture is NOT a solution away from the free point
    op = OperatorSpec("bad", 0.0, 0.0, 0.0, FixtureUnitProvider())
    rep = verify_axioms(op, P, 2, samples=2, seed=1)
    assert rep.exchange > 1e-2

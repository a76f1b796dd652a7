"""The characteristic form by coefficient-tensor contraction, checked
against rho evaluated on the curvature's component matrices."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.bundles import Connection, LieValuedForm, random_connection, trivial_bundle
from chernweil.cw import _cw_polyform_wedge, curvature_form, cw_form, cw_form_permutation
from chernweil.forms import AffineMap, PolyForm, random_polyform
from chernweil.liealg import (
    chern_polynomial,
    invariant_polynomial_from_selector,
    lie_algebra,
    mat_trace,
    polarize,
    reznikov_pullback,
    sym_trace_poly,
)
from chernweil.poly import Poly
from chernweil.scalars import Scalar
from chernweil.simplicial import SimplexId, boundary_sphere, standard_simplex
from oracles import (
    bracket_wedge,
    canonical_violations,
    curvature_reference,
    cw_matrix_contraction,
    polynomial_from_evaluator,
    reznikov_quadrature,
    sym_trace_oracle,
)
from test_chern_weil import _CONNECTIONS
from test_scalar_kernel import MODELS, POLY_MODELS, model, poly_model, to_poly, to_scalar


def _rhos():
    out = []
    for name in ("u1", "su2", "so3", "u2", "su3"):
        alg = lie_algebra(name)
        for k in (1, 2):
            out.append(sym_trace_poly(alg, k))
            if name != "so3":
                out.append(chern_polynomial(alg, k))
    su2 = lie_algebra("su2")
    out.append(polarize(su2, lambda x: x[0] * x[0] + x[1] * x[1] + x[2] * x[2], 2))
    u2 = lie_algebra("u2")
    # tr(x) tr(y): Ad-invariant, symmetric, and not a symtrace or chern
    out.append(polynomial_from_evaluator(u2, 2, lambda m: mat_trace(m[0]) * mat_trace(m[1]), "trace-product"))
    return out


RHOS = _rhos()
# cw_matrix_contraction's cost is cubic in the slots of a 6-dim chart at
# arity 3, so reznikov:3 runs on the sparse hypothesis curvatures only
REZNIKOV = [reznikov_pullback(lie_algebra("su2"), k) for k in (1, 2, 3)]
# reznikov:2 is -4/(N(N+1)) symtrace:2 on su(N)
REZNIKOV_TWO = {name: (reznikov_pullback(lie_algebra(name), 2), Fraction(-4, n * (n + 1)))
                for name, n in (("su2", 2), ("su3", 3), ("su4", 4))}

COEFF = st.builds(Scalar.of, st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def rho_and_curvature(draw, rhos=RHOS):
    """A rho of arity k and a random Lie-valued 2-form on a 2k-dim chart,
    each coordinate component a polynomial of degree <= 1."""
    rho = draw(st.sampled_from(rhos))
    alg, dim = rho.algebra, 2 * rho.arity
    monomials = [(0,) * dim] + [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    coords = []
    for _ in range(alg.dim):
        comps = {}
        for I in [(i, j) for i in range(dim) for j in range(i + 1, dim)]:
            chosen = draw(st.lists(st.sampled_from(monomials), max_size=2, unique=True))
            comps[I] = Poly(dim, {e: draw(COEFF) for e in chosen})
        coords.append(PolyForm(dim, 2, comps))
    return rho, LieValuedForm(alg, dim, 2, coords)


ALGEBRAS = ("u1", "su2", "so3", "u2", "su3", "u3", "su4", "u4")


@st.composite
def connection_forms(draw, name):
    """A Lie-valued 1-form on Delta^2..Delta^4: each coordinate up to two
    components, each a polynomial of degree <= 2 with up to two terms."""
    alg, dim = lie_algebra(name), draw(st.integers(2, 4))
    monomials = [e for e in itertools.product(range(3), repeat=dim) if sum(e) <= 2]
    coords = []
    for _ in range(alg.dim):
        comps = {}
        for i in draw(st.lists(st.integers(0, dim - 1), max_size=2, unique=True)):
            chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=2, unique=True))
            comps[(i,)] = Poly(dim, {e: draw(COEFF) for e in chosen})
        coords.append(PolyForm(dim, 1, comps))
    return LieValuedForm(alg, dim, 1, coords)


# top-cell connection forms beside the drawn ones: x1^300 coefficients,
# whose packed exponent fields need more than 8 bits, and
# random_connection's interior noise, which gives A degree 4
FIXED_CONNECTIONS = {
    "u2-steep-simplex2": lambda: _CONNECTIONS["steep"](trivial_bundle(standard_simplex(2), lie_algebra("u2")), 0)
    .forms[SimplexId(2, 0)],
    "su2-random-simplex4": lambda: random_connection(trivial_bundle(standard_simplex(4), lie_algebra("su2")), 0)
    .forms[SimplexId(4, 0)],
}


@pytest.mark.parametrize("name", ALGEBRAS + tuple(FIXED_CONNECTIONS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_curvature_matches_matrix_oracle(name, data):
    # the sum over a < b of s^c_ab A^a ^ A^b against dA + A ^ A of the
    # matrix of 1-forms, decomposed in the basis
    A = FIXED_CONNECTIONS[name]() if name in FIXED_CONNECTIONS else data.draw(connection_forms(name))
    assert curvature_form(A) == curvature_reference(A)


@pytest.mark.parametrize("name", ("su2", "u2"))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lie_paths_build_canonical_values(name, data):
    # the curvature, the brackets and the characteristic forms of the
    # connection A induces on every cell of Delta^dim
    A = data.draw(connection_forms(name))
    alg, dim = A.algebra, A.dim
    X = standard_simplex(dim)
    D = Connection(
        trivial_bundle(X, alg),
        {sid: A.pullback(AffineMap.from_monotone(s, dim)) for s, sid in X._subset_index.items()},
    )
    F = curvature_form(A)
    # the bracket of the one coordinate pair (0, alg.dim - 1) of A and F
    A0 = LieValuedForm(alg, dim, 1, [f if a == 0 else PolyForm.zero(dim, 1) for a, f in enumerate(A.coords)])
    F1 = LieValuedForm(alg, dim, 2, [f if a == alg.dim - 1 else PolyForm.zero(dim, 2) for a, f in enumerate(F.coords)])
    one_pair = bracket_wedge(A0, F1)
    values = [F, bracket_wedge(A, A), bracket_wedge(A, F), one_pair]
    for k in range(1, dim // 2 + 1):
        values += cw_form(sym_trace_poly(alg, k), D).forms.values()
    for v in values:
        assert canonical_violations(v) == []


@settings(max_examples=60, deadline=None)
@given(rho_and_curvature())
def test_tensor_contraction_matches_matrix_oracle(case):
    rho, F = case
    assert _cw_polyform_wedge(rho, F) == cw_matrix_contraction(rho, F)


@settings(max_examples=40, deadline=None)
@given(rho_and_curvature())
def test_permutation_sum_matches_matrix_oracle(case):
    # each term of the contraction, an ordered k-tuple of increasing
    # index pairs, is 2^k of the (2k)! permutations (the order within
    # each pair), and the permutation sum is divided by (2k)!
    rho, F = case
    k = rho.arity
    assert cw_form_permutation(rho, F).scale(Fraction(factorial(2 * k), 2**k)) == cw_matrix_contraction(rho, F)


def constant_model(x):
    """A Scalar's oracle model as a constant polynomial on Delta^0."""
    return {(): x} if x else {}


@st.composite
def sym_trace_cases(draw):
    """k random n x n matrices, in no Lie algebra, with Scalar or Poly
    entries, and their oracle models."""
    k, n, scalar = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.booleans())
    models = [[[draw(MODELS if scalar else POLY_MODELS) for _ in range(n)] for _ in range(n)] for _ in range(k)]
    build = to_scalar if scalar else to_poly
    mats = [[[build(x) for x in row] for row in M] for M in models]
    if scalar:
        models = [[[constant_model(x) for x in row] for row in M] for M in models]
    return k, n, scalar, mats, models


@settings(max_examples=80, deadline=None)
@given(sym_trace_cases())
def test_sym_trace_matches_all_orderings_oracle(case):
    k, n, scalar, mats, models = case
    got = sym_trace_poly(lie_algebra(f"u{n}"), k).eval(mats)
    assert (constant_model(model(got)) if scalar else poly_model(got)) == sym_trace_oracle(models)


@settings(max_examples=20, deadline=None)
@given(rho_and_curvature(REZNIKOV))
def test_reznikov_contraction_matches_matrix_oracle(case):
    rho, F = case
    assert _cw_polyform_wedge(rho, F) == cw_matrix_contraction(rho, F)


@settings(max_examples=20, deadline=None)
@given(rho_and_curvature([sym_trace_poly(lie_algebra(name), 2) for name in REZNIKOV_TWO]))
def test_reznikov_two_form_is_minus_two_thirds_symtrace_two(case):
    # -2/3 on su2, -1/3 on su3, -1/5 on su4
    symtrace2, F = case
    rho, factor = REZNIKOV_TWO[symtrace2.algebra.name]
    assert _cw_polyform_wedge(rho, F) == _cw_polyform_wedge(symtrace2, F).scale(factor)


def test_tensor_contraction_on_curvatures():
    # every rho at least once, on the curvature of a random connection
    rng = random.Random(5)
    for rho in RHOS + REZNIKOV[:2]:
        dim = 2 * rho.arity
        A = LieValuedForm(rho.algebra, dim, 1, [random_polyform(rng, dim, 1, 1) for _ in range(rho.algebra.dim)])
        F = curvature_form(A)
        assert _cw_polyform_wedge(rho, F) == cw_matrix_contraction(rho, F)


def test_tensor_entries():
    su2, u1 = lie_algebra("su2"), lie_algebra("u1")
    # tr(e_a e_b) = -delta_ab / 2 on the halved-Pauli basis
    assert sym_trace_poly(su2, 2).tensor() == {(a, a): Scalar.from_rational(-1, 2) for a in range(3)}
    assert sym_trace_poly(su2, 1).tensor() == {}
    # the multinomial weight: (i)^3 on u1 counts each ordering once
    assert sym_trace_poly(u1, 3).tensor() == {(0, 0, 0): Scalar.of(0, -1)}
    rho = polarize(su2, lambda x: x[0] * x[1], 2)
    assert rho.tensor() == {(0, 1): Scalar.one()}
    assert rho.tensor() is rho.tensor()


def test_tensor_rejects_float_functional():
    # the oracles' basis loop reads exact tensors only
    su2 = lie_algebra("su2")
    with pytest.raises(TypeError):
        polynomial_from_evaluator(su2, 2, reznikov_quadrature(2, 8), "quadrature").tensor()


def test_reznikov_tensor_from_sphere_moments():
    # T[a] = multinomial(a) E[x^count(a)]: (|x|^2)^2 / 5 at arity 4
    su2 = lie_algebra("su2")
    third = Scalar.from_rational(1, 3)
    assert reznikov_pullback(su2, 2).tensor() == {(0, 0): third, (1, 1): third, (2, 2): third}
    assert reznikov_pullback(su2, 4).tensor() == {
        a: Scalar.from_rational(2 if len(set(a)) == 2 else 1, 5)
        for a in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (0, 0, 1, 1), (0, 0, 2, 2), (1, 1, 2, 2)]
    }


def test_chern_above_matrix_size_is_zero():
    u1, su2 = lie_algebra("u1"), lie_algebra("su2")
    e = u1.basis[0]
    assert chern_polynomial(u1, 2).eval([e, e]) == 0
    x, y, z = su2.basis
    assert chern_polynomial(su2, 3).eval([x, y, z]) == 0
    assert chern_polynomial(u1, 2).tensor() == {}
    assert chern_polynomial(su2, 3).tensor() == {}


@pytest.mark.parametrize(
    "space, group, selector",
    [
        (standard_simplex(3), "su2", "symtrace:2"),
        (boundary_sphere(3), "u2", "chern:2"),
        (standard_simplex(3), "u1", "chern:1"),
    ],
)
def test_cw_form_zero_below_degree(space, group, selector):
    alg = lie_algebra(group)
    rho = invariant_polynomial_from_selector(alg, selector)
    D = random_connection(trivial_bundle(space, alg), 7)
    omega = cw_form(rho, D)
    deg = 2 * rho.arity
    for sid in space.all_cells():
        form = omega.form(sid)
        assert (form.dim, form.deg) == (sid.dim, deg)
        if sid.dim < deg:
            assert form == PolyForm.zero(sid.dim, deg)
        else:
            assert form == cw_matrix_contraction(rho, curvature_form(D.forms[sid]))


def test_symtrace3_on_six_dim_chart_is_zero():
    # the symmetrised trace of three su2 elements vanishes: the
    # anticommutator of two is a multiple of the identity, and su2 is
    # traceless, so the form is zero although the curvature is not
    rng = random.Random(11)
    su2 = lie_algebra("su2")
    A = LieValuedForm(su2, 6, 1, [random_polyform(rng, 6, 1, 1) for _ in range(3)])
    F = curvature_form(A)
    assert not F.is_zero()
    assert _cw_polyform_wedge(sym_trace_poly(su2, 3), F) == PolyForm.zero(6, 6)


@pytest.mark.parametrize("seed", range(3))
def test_arity_four_heads_match_matrix_oracle(seed):
    # symtrace:4 has heads of three factors, each product built from
    # F^a1 with no prefix shared with the head before it; a sparse
    # curvature keeps the oracle's slots^4 walk to a fraction of a second
    su2, dim = lie_algebra("su2"), 8
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(dim), 2))
    monomials = [(0,) * dim] + [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    coords = [PolyForm(dim, 2, {I: Poly(dim, {rng.choice(monomials): Scalar.of(rng.choice([-2, -1, 1, 3]))})
                                for I in rng.sample(pairs, 8)}) for _ in range(su2.dim)]
    F = LieValuedForm(su2, dim, 2, coords)
    rho = sym_trace_poly(su2, 4)
    form = _cw_polyform_wedge(rho, F)
    assert not form.is_zero()
    assert form == cw_matrix_contraction(rho, F)

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.bundles import LieValuedForm
from chernweil.liealg import (
    LieAlgebraError,
    LieData,
    SelectorError,
    chern_polynomial,
    check_invariant_polynomial,
    invariant_polynomial_from_selector,
    lie_algebra,
    mat_mul,
    mat_sub,
    mat_trace,
    polarize,
    reznikov_pullback,
    sym_trace_poly,
)
from chernweil.poly import Poly
from chernweil.scalars import Scalar
from chernweil.verify import check_ad_cayley, check_polarize
from oracles import (
    basis_float,
    bracket_wedge,
    charpoly_coefficient_oracle,
    decompose_float,
    element_matrix,
    element_matrix_float,
    evaluator_reference,
    finite_difference_polarization,
    invariant_polynomial_reference,
    monomial_moment,
    polarize_reference,
    polynomial_from_evaluator,
    reznikov_quadrature,
)


def _bracket(alg, x, y):
    """[x, y] of two coordinate lists, as bracket_wedge of the constant
    0-forms on Delta^0 that carry them."""
    X, Y = (LieValuedForm.from_polys(alg, [Poly.const(0, c) for c in v]) for v in (x, y))
    return [f.component(()).eval(()) for f in bracket_wedge(X, Y).coords]


def _unit(alg, a):
    return [1 if i == a else 0 for i in range(alg.dim)]


def test_u1_abelian():
    u1 = lie_algebra("u1")
    assert u1.is_abelian
    assert all(c.is_zero() for c in _bracket(u1, [Fraction(2)], [Fraction(-3, 2)]))


ALGEBRAS = ["u1", "su2", "so3", "su3", "su4", "u2", "u3", "u4"]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_is_abelian_is_all_structure_constants_zero(name):
    alg = lie_algebra(name)
    zero = not any(entry for row in alg.structure for entry in row)
    commute = all(np.allclose(a @ b, b @ a) for a in basis_float(alg) for b in basis_float(alg))
    assert alg.is_abelian == zero == commute == (name == "u1")


@pytest.mark.parametrize("name", ALGEBRAS)
def test_bracket_matches_matrices(name):
    # every ordered pair, a >= b included: the table's entries below the
    # diagonal are the negated ones above it, and the diagonal is empty
    alg = lie_algebra(name)
    for a, b in itertools.product(range(alg.dim), repeat=2):
        ea, eb = element_matrix(alg, _unit(alg, a)), element_matrix(alg, _unit(alg, b))
        lhs = element_matrix(alg, _bracket(alg, _unit(alg, a), _unit(alg, b)))
        rhs = mat_sub(mat_mul(ea, eb), mat_mul(eb, ea))
        assert all((lhs[r][c] - rhs[r][c]).is_zero() for r in range(alg.n) for c in range(alg.n))
        assert alg.structure[b][a] == tuple((c, -s) for c, s in alg.structure[a][b])
        assert all(not s.is_zero() for _, s in alg.structure[a][b])
    assert all(alg.structure[a][a] == () for a in range(alg.dim))


@pytest.mark.parametrize("name", ["su02", "u01", "su\uff12", "u\u00b2", "su1", "su5", "u5", "u0", " su2", "SU2"])
def test_lie_algebra_takes_one_spelling_per_name(name):
    with pytest.raises(LieAlgebraError):
        lie_algebra(name)


def test_su2_bracket_matches_matrices():
    # documented normalization: [e1, e2] = e3
    su2 = lie_algebra("su2")
    assert _bracket(su2, [1, 0, 0], [0, 1, 0]) == [
        Scalar.zero(),
        Scalar.zero(),
        Scalar.one(),
    ]


def test_jacobi_identity_on_basis():
    for name in ["su2", "so3", "u2", "su3"]:
        alg = lie_algebra(name)
        d = alg.dim
        basis = [_unit(alg, a) for a in range(d)]
        for a, b, c in itertools.product(range(d), repeat=3):
            j1 = _bracket(alg, _bracket(alg, basis[a], basis[b]), basis[c])
            j2 = _bracket(alg, _bracket(alg, basis[b], basis[c]), basis[a])
            j3 = _bracket(alg, _bracket(alg, basis[c], basis[a]), basis[b])
            assert all((x + y + z).is_zero() for x, y, z in zip(j1, j2, j3))


def test_exp_lands_in_group():
    rng = np.random.default_rng(0)
    # every group here is unitary; the flags add det = 1 and real entries
    for name, special, real in [
        ("u1", False, False),
        ("su2", True, False),
        ("so3", True, True),
        ("u3", False, False),
        ("su4", True, False),
    ]:
        alg = lie_algebra(name)
        for _ in range(5):
            x = [Fraction(int(v * 16), 16) for v in rng.uniform(-1, 1, alg.dim)]
            g = expm(element_matrix_float(alg, x))
            assert np.abs(g.conj().T @ g - np.eye(len(g))).max() < 1e-10
            assert not special or abs(np.linalg.det(g) - 1.0) < 1e-10
            assert not real or np.abs(g.imag).max() < 1e-10


def test_ad_cayley_check_locates_a_wrong_ad_column(monkeypatch):
    """verify's ad-cayley check passes on the exact Cayley kernels and
    names the column of an Ad matrix with one entry off by 1/L."""
    from chernweil import bundles

    assert check_ad_cayley(3)[0]
    real = bundles._cayley_pair

    def off_by_one(algebra, key):
        out = real(algebra, key)
        matrix, (L, rows) = out[key]
        out[key] = matrix, (L, ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:])
        return out

    monkeypatch.setattr(bundles, "_cayley_pair", off_by_one)
    ok, detail = check_ad_cayley(3)
    assert not ok and detail.startswith("Ad(cay(h)) column 0 is not cay(h) e_0 cay(-h) for h = ")


def test_mixed_algebra_bracket_rejected():
    su2, so3 = lie_algebra("su2"), lie_algebra("so3")
    with pytest.raises(ValueError, match="su2 and so3"):
        bracket_wedge(LieValuedForm.zero(su2, 0, 0), LieValuedForm.zero(so3, 0, 0))


def test_sym_trace_u1():
    u1 = lie_algebra("u1")
    rho = sym_trace_poly(u1, 1)
    theta = Fraction(5, 7)
    x = element_matrix(u1, [theta])  # matrix i*theta
    assert rho.eval([x]) == Scalar.of(0, theta)


def test_sym_trace_su2_order_two():
    su2 = lie_algebra("su2")
    rho = sym_trace_poly(su2, 2)
    rng = random.Random(1)
    for _ in range(20):
        x = element_matrix(su2, [Fraction(rng.randrange(-6, 7), 4) for _ in range(3)])
        y = element_matrix(su2, [Fraction(rng.randrange(-6, 7), 4) for _ in range(3)])
        assert rho.eval([x, y]) == mat_trace(mat_mul(x, y))


def test_chern_normalization_u1():
    u1 = lie_algebra("u1")
    rho = chern_polynomial(u1, 1)
    a = Fraction(5, 3)
    X = [[Scalar.of(0, a, 1)]]  # the matrix i*a*tau
    assert rho.eval([X]) == Scalar.from_rational(5, 3)


def test_chern_one_su2_traceless():
    su2 = lie_algebra("su2")
    rho = chern_polynomial(su2, 1)
    rng = random.Random(2)
    for _ in range(20):
        x = element_matrix(su2, [Fraction(rng.randrange(-6, 7), 4) for _ in range(3)])
        assert Scalar.coerce(rho.eval([x])).is_zero()


def test_chern_two_su2_against_charpoly_oracle():
    su2 = lie_algebra("su2")
    rho = chern_polynomial(su2, 2)
    rng = np.random.default_rng(3)
    from chernweil.scalars import TAU

    for _ in range(50):
        M = element_matrix_float(su2, rng.uniform(-1, 1, 3))
        got = rho.eval([M.tolist(), M.tolist()])
        want = charpoly_coefficient_oracle(M / (1j * TAU), 2)
        assert abs(got - want) < 1e-9


@pytest.mark.parametrize("name,selector", [("su2", "symtrace:2"), ("su2", "chern:2"), ("su2", "reznikov:2"),
                                           ("u1", "chern:1"), ("so3", "symtrace:2"), ("su3", "reznikov:3")])
def test_eval_takes_only_n_by_n_matrices(name, selector):
    """A coordinate list, a non-square matrix and a square matrix of the
    wrong size each raise ValueError naming the slot they fill."""
    alg = lie_algebra(name)
    rho = invariant_polynomial_from_selector(alg, selector)
    n, good = alg.n, alg.basis[0]
    wrong = [
        [Fraction(i + 1) for i in range(alg.dim)],
        [[Scalar.one()] * n for _ in range(n + 1)],
        [[Scalar.one()] * (n + 1) for _ in range(n + 1)],
    ]
    for bad in wrong:
        for slot in range(rho.arity):
            args = [good] * rho.arity
            args[slot] = bad
            with pytest.raises(ValueError, match=f"^{selector}: slot {slot} is not a {n} x {n} matrix$"):
                rho.eval(args)
    rho.eval([good] * rho.arity)


_CONTRACT_CASES = [(name, f"{kind}:{k}") for name in ("u1", "u2", "u3", "su2", "su3", "so3")
                   for kind in ("symtrace", "chern", "reznikov") for k in (1, 2, 3)
                   if kind == "symtrace" or (kind == "chern" and name != "so3") or (kind == "reznikov" and name[:2] == "su")]

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_scalars = st.builds(Scalar.of, _small, _small, st.integers(-1, 1))
# Polys on Delta^1 of degree at most 2
_polys = st.dictionaries(st.sampled_from([(0,), (1,), (2,)]), _scalars, min_size=1, max_size=2).map(
    lambda terms: Poly(1, terms))


def _element(alg, x, zero):
    """sum_a x_a e_a for a coordinate dict x of Scalars or of Polys, each
    monomial's coefficients put through element_matrix."""
    if isinstance(zero, Scalar):
        return element_matrix(alg, [x.get(a, 0) for a in range(alg.dim)])
    by_monomial = {}
    for a, p in x.items():
        for e, c in p.terms.items():
            by_monomial.setdefault(e, [0] * alg.dim)[a] = c
    mats = {e: element_matrix(alg, cs) for e, cs in by_monomial.items()}
    return [[Poly(zero.dim, {e: m[r][c] for e, m in mats.items()}) for c in range(alg.n)] for r in range(alg.n)]


@pytest.mark.parametrize("name,selector", _CONTRACT_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_contract_matches_eval_on_element_matrices(name, selector, data):
    """contract on sparse coordinate dicts is eval on the matrices
    sum_a x_a e_a, with Scalar and with Poly values."""
    alg = lie_algebra(name)
    rho = invariant_polynomial_from_selector(alg, selector)
    values, zero = data.draw(st.sampled_from([(_scalars, Scalar.zero()), (_polys, Poly.zero(1))]))
    coords = data.draw(st.lists(st.dictionaries(st.integers(0, alg.dim - 1), values, max_size=3),
                                min_size=rho.arity, max_size=rho.arity))
    assert rho.contract(coords, zero) == rho.eval([_element(alg, x, zero) for x in coords])


def test_eval_refuses_matrices_outside_the_algebra():
    # the identity is not traceless, and a symmetric matrix is not in so3
    su2, so3 = lie_algebra("su2"), lie_algebra("so3")
    identity = [[Scalar.one(), Scalar.zero()], [Scalar.zero(), Scalar.one()]]
    with pytest.raises(LieAlgebraError):
        sym_trace_poly(su2, 1).eval([identity])
    with pytest.raises(LieAlgebraError):
        sym_trace_poly(su2, 2).eval([su2.basis[0], identity])
    symmetric = [[Scalar.zero(), Scalar.one(), Scalar.zero()], [Scalar.one(), Scalar.zero(), Scalar.zero()],
                 [Scalar.zero(), Scalar.zero(), Scalar.zero()]]
    with pytest.raises(LieAlgebraError):
        sym_trace_poly(so3, 2).eval([symmetric, so3.basis[0]])


def test_chern_unsupported_algebra():
    with pytest.raises(LieAlgebraError):
        chern_polynomial(lie_algebra("so3"), 1)


def test_invariance_sampled():
    su2, so3, u2 = lie_algebra("su2"), lie_algebra("so3"), lie_algebra("u2")
    for rho in [sym_trace_poly(su2, 2), sym_trace_poly(su2, 3), chern_polynomial(su2, 2),
                sym_trace_poly(so3, 2), chern_polynomial(u2, 2)]:
        assert check_invariant_polynomial(rho, random.Random(4)) is None, rho.provenance


def test_invariance_check_rejects_noninvariant_tensor():
    su2 = lie_algebra("su2")
    bad = check_invariant_polynomial(polarize(su2, lambda v: v[0] * v[0], 2), random.Random(0))
    assert bad is not None and "ad-invariant" in bad


def test_invariance_check_rejects_nonsymmetric_evaluator():
    # tr(x y) + x_2 y_1: on sorted basis pairs it is the trace form, so
    # the tensor is invariant, but the evaluator is not symmetric
    su2 = lie_algebra("su2")
    e1, e2 = su2.basis[0], su2.basis[1]

    def evaluator(m):
        pair = mat_trace(mat_mul(m[0], e2)) * mat_trace(mat_mul(m[1], e1)) * 4
        return mat_trace(mat_mul(m[0], m[1])) + pair

    rho = polynomial_from_evaluator(su2, 2, evaluator, "nonsymmetric")
    assert rho.tensor() == sym_trace_poly(su2, 2).tensor()
    bad = check_invariant_polynomial(rho, random.Random(0))
    assert bad is not None and "slot order" in bad


def test_invariance_checks_build_no_matrices(monkeypatch):
    # the checks contract coordinate dicts: the algebra's solver reads
    # no matrix back
    rhos = []
    for name, k in itertools.product(["su2", "u2", "su3"], (1, 2, 3)):
        for kind in ("symtrace", "chern", "reznikov"):
            try:
                rhos.append(invariant_polynomial_from_selector(lie_algebra(name), f"{kind}:{k}"))
            except SelectorError:
                assert kind == "reznikov" and name == "u2"
    calls = []
    real = LieData.coordinates
    monkeypatch.setattr(LieData, "coordinates", lambda self, m: calls.append(m) or real(self, m))
    for rho in rhos:
        assert check_invariant_polynomial(rho, random.Random(5)) is None, rho.provenance
    assert check_polarize(3)[0]
    assert calls == []


def test_polarize_square_of_linear():
    su2 = lie_algebra("su2")

    def q(v):
        return v[0] + 2 * v[1] - v[2]

    rho = polarize(su2, lambda v: q(v) * q(v), 2)
    rng = random.Random(5)
    for _ in range(20):
        xc = [Fraction(rng.randrange(-5, 6), 3) for _ in range(3)]
        yc = [Fraction(rng.randrange(-5, 6), 3) for _ in range(3)]
        got = rho.eval([element_matrix(su2, xc), element_matrix(su2, yc)])
        assert got == Scalar.coerce(q(xc) * q(yc))


def test_polarize_arity_one_is_identity():
    su2 = lie_algebra("su2")
    rho = polarize(su2, lambda v: 3 * v[1] - v[0], 1)
    x = element_matrix(su2, [Fraction(1, 2), Fraction(2), Fraction(-1)])
    assert rho.eval([x]) == Scalar.coerce(Fraction(3) * 2 - Fraction(1, 2))


def test_polarize_monomial_against_finite_differences():
    su2 = lie_algebra("su2")

    def p(v):
        return v[0] * v[1] * v[2]

    rho = polarize(su2, p, 3)
    rng = random.Random(6)
    for _ in range(20):
        args = [[Fraction(rng.randrange(-4, 5), 2) for _ in range(3)] for _ in range(3)]
        got = rho.eval([element_matrix(su2, a) for a in args])
        want = finite_difference_polarization(p, 3, 3, args)
        assert got == Scalar.coerce(want)


def test_polarize_diagonal_roundtrip_exact():
    su2 = lie_algebra("su2")

    def p(v):
        return v[0] ** 2 * v[2] + 2 * v[1] ** 3

    rho = polarize(su2, p, 3)
    rng = random.Random(7)
    for _ in range(100):
        coords = [Fraction(rng.randrange(-6, 7), 4) for _ in range(3)]
        assert rho.eval([element_matrix(su2, coords)] * rho.arity) == Scalar.coerce(p(coords))


def test_polarize_rejects_inhomogeneous():
    su2 = lie_algebra("su2")
    with pytest.raises(LieAlgebraError):
        polarize(su2, lambda v: v[0] ** 2 + v[1], 2)


def test_sphere_moments():
    # on the unit sphere of C^N
    for N in (2, 3, 4):
        rest = (0,) * (N - 2)
        assert monomial_moment((0, 0) + rest) == 1
        assert monomial_moment((1, 0) + rest) == Fraction(1, N)
        assert monomial_moment((2, 0) + rest) == Fraction(2, N * (N + 1))
        assert monomial_moment((1, 1) + rest) == Fraction(1, N * (N + 1))


def test_reznikov_one_vanishes():
    su2 = lie_algebra("su2")
    rho = reznikov_pullback(su2, 1)
    assert rho.tensor() == {}
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = element_matrix_float(su2, rng.uniform(-1, 1, 3))
        assert abs(rho.eval([m.tolist()])) < 1e-10


def test_reznikov_two_proportional_to_trace_form():
    # E[H_X^2] over CP^(N-1) is -4 tr(X^2) / (N(N+1)); on su2 the documented
    # normalization (area mass 1, H = height along the rotation axis)
    # gives lambda = -2/3, exactly
    rng = random.Random(9)
    for name in ("su2", "su3", "su4"):
        alg = lie_algebra(name)
        lam = Fraction(-4, alg.n * (alg.n + 1))
        rho = reznikov_pullback(alg, 2)
        trace_form = sym_trace_poly(alg, 2).tensor()
        assert rho.tensor() == {a: v * lam for a, v in trace_form.items()}
        for _ in range(50):
            x = element_matrix(alg, [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(alg.dim)])
            assert rho.eval([x, x]) == mat_trace(mat_mul(x, x)) * lam


@pytest.mark.parametrize("name", ["su2", "su3", "su4"])
def test_reznikov_two_and_three_are_multiples_of_chern(name):
    # e_1 = 0 on su(n), so h_2 = -e_2 and h_3 = e_3
    alg = lie_algebra(name)
    n, tau = alg.n, Scalar.tau()
    for k, factor in [(2, Fraction(-8, n * (n + 1))), (3, Fraction(-48, n * (n + 1) * (n + 2)))]:
        chern = chern_polynomial(alg, k).tensor()
        assert chern or k > n
        assert reznikov_pullback(alg, k).tensor() == {a: v * factor * tau**k for a, v in chern.items()}


def test_reznikov_two_quadrature_order_independence():
    # independent cross-check: the sphere quadrature at two quite
    # different orders agrees with the exact functional
    su2 = lie_algebra("su2")
    rho = reznikov_pullback(su2, 2)
    r_lo, r_hi = reznikov_quadrature(2, 8), reznikov_quadrature(2, 48)
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = element_matrix_float(su2, rng.uniform(-1, 1, 3))
        b = element_matrix_float(su2, rng.uniform(-1, 1, 3))
        exact = rho.eval([a.tolist(), b.tolist()])
        assert abs(r_lo([a, b]) - exact) < 1e-12 and abs(r_hi([a, b]) - exact) < 1e-12


COORD = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(st.lists(COORD, min_size=3, max_size=3), min_size=k, max_size=k)))
def test_reznikov_matches_quadrature_oracle(coords):
    su2 = lie_algebra("su2")
    k = len(coords)
    mats = [element_matrix_float(su2, c) for c in coords]
    assert abs(reznikov_pullback(su2, k).eval([m.tolist() for m in mats]) - reznikov_quadrature(k)(mats)) < 1e-12


def test_reznikov_three_vanishes_by_antipodal_symmetry():
    # products of three linear height functions are odd under x -> -x
    su2 = lie_algebra("su2")
    rho = reznikov_pullback(su2, 3)
    assert rho.tensor() == {}
    rng = np.random.default_rng(11)
    for _ in range(50):
        args = [element_matrix_float(su2, rng.uniform(-1, 1, 3)) for _ in range(3)]
        assert abs(rho.eval([a.tolist() for a in args])) < 1e-10


def test_reznikov_exact_on_polynomial_entries():
    # the coordinates are read by multiplying and adding matrix entries,
    # so eval runs on matrices of polynomials
    from chernweil.poly import Poly

    su2 = lie_algebra("su2")
    x = [[Poly.var(1, 0) * v for v in row] for row in su2.basis[0]]
    assert reznikov_pullback(su2, 2).eval([x, x]) == Poly(1, {(2,): Scalar.from_rational(1, 3)})


def test_reznikov_invariance():
    for name, k in [("su2", 2), ("su2", 4), ("su3", 2), ("su3", 3), ("su4", 2)]:
        assert check_invariant_polynomial(reznikov_pullback(lie_algebra(name), k), random.Random(12)) is None


def test_reznikov_degree_too_low():
    with pytest.raises(ValueError):
        reznikov_pullback(lie_algebra("su2"), 0)


def test_selector_parsing():
    su2 = lie_algebra("su2")
    assert invariant_polynomial_from_selector(su2, "chern:2").arity == 2
    assert invariant_polynomial_from_selector(su2, "symtrace:3").arity == 3
    assert invariant_polynomial_from_selector(su2, "reznikov:2").arity == 2
    with pytest.raises(ValueError):
        invariant_polynomial_from_selector(su2, "nope:1")
    # nothing may follow the degree, and reznikov lives on su(n) only
    for selector in ("reznikov:2:order=16", "chern:2:foo", "symtrace:1:"):
        with pytest.raises(SelectorError):
            invariant_polynomial_from_selector(su2, selector)
    for name in ("su3", "su4"):
        assert invariant_polynomial_from_selector(lie_algebra(name), "reznikov:2").arity == 2
    for name in ("u2", "so3"):
        with pytest.raises(SelectorError):
            invariant_polynomial_from_selector(lie_algebra(name), "reznikov:2")


def test_selector_builds_each_polynomial_once():
    u2 = lie_algebra("u2")
    rho = invariant_polynomial_from_selector(u2, "chern:2")
    assert invariant_polynomial_from_selector(u2, "chern:2") is rho
    assert rho.tensor() is invariant_polynomial_from_selector(u2, "chern:2").tensor()
    assert invariant_polynomial_from_selector(lie_algebra("su2"), "chern:2") is not rho
    # a selector that raises is not cached: it raises again on every call
    misses = invariant_polynomial_from_selector.cache_info().misses
    for _ in range(3):
        with pytest.raises(SelectorError):
            invariant_polynomial_from_selector(u2, "reznikov:2")
    info = invariant_polynomial_from_selector.cache_info()
    assert info.misses == misses + 3 and invariant_polynomial_from_selector(u2, "chern:2") is rho


def _lin(v):
    return sum((i + 1) * x for i, x in enumerate(v))


# homogeneous of degree k, and not invariant: the tensors compare the polarization alone
_HOMOGENEOUS = {
    1: _lin,
    2: lambda v: _lin(v) * v[-1] + v[0] * v[0],
    3: lambda v: (_lin(v) * v[-1] + v[0] * v[0]) * v[0],
}
# the reference chern:3 on the 15- and 16-dim algebras takes seconds a
# tensor, so the chern cases stop at n = 3; the polarize cases add u4 at arity 3
_POLARIZED_CASES = [(name, k) for name in ("u1", "u2", "u3", "u4", "su2", "su3", "su4") for k in (1, 2, 3)
                    if not (k == 3 and name.endswith("4"))]


# every selector each algebra carries, k <= 4: the reference tensors of
# su4 and u4 at k >= 3 take seconds, so those compare eval with the
# reference evaluator on random elements instead
_SELECTOR_CASES = [
    (name, f"{kind}:{k}")
    for name in ("u1", "u2", "u3", "u4", "su2", "su3", "su4", "so3")
    for kind in ("symtrace", "chern", "reznikov")
    if not (kind == "chern" and name == "so3") and not (kind == "reznikov" and not name.startswith("su"))
    for k in (1, 2, 3, 4)
]


@pytest.mark.parametrize("name,selector", _SELECTOR_CASES)
def test_selector_matches_its_evaluator_oracle(name, selector):
    alg = lie_algebra(name)
    rho = invariant_polynomial_from_selector(alg, selector)
    if alg.n < 4 or rho.arity < 3:
        assert rho.tensor() == invariant_polynomial_reference(alg, selector).tensor()
        return
    oracle = evaluator_reference(alg, selector)
    rng = random.Random(13)
    for _ in range(3):
        args = [element_matrix(alg, [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(alg.dim)])
                for _ in range(rho.arity)]
        assert rho.eval(args) == oracle(args)


@pytest.mark.parametrize("name,k", _POLARIZED_CASES)
def test_chern_tensor_matches_the_written_out_polarization(name, k):
    alg = lie_algebra(name)
    assert chern_polynomial(alg, k).tensor() == invariant_polynomial_reference(alg, f"chern:{k}").tensor()


@pytest.mark.parametrize("name,k", _POLARIZED_CASES + [("u4", 3)])
def test_polarize_tensor_matches_the_written_out_polarization(name, k):
    alg = lie_algebra(name)
    p = _HOMOGENEOUS[k]
    assert polarize(alg, p, k).tensor() == polarize_reference(alg, p, k).tensor()

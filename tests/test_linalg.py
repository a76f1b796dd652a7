"""The exact row-reduction kernel and the one solver, checked against
sympy, against an [A | b | I] elimination written out, and by
substitution; and the Lie-algebra coordinate map that runs on it."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chernweil.liealg
import chernweil.linalg
from chernweil.liealg import LieAlgebraError, lie_algebra, polarize
from chernweil.linalg import PrecomputedSolver, multinomial, rank, solve_or_certify, sort_sign
from chernweil.scalars import Scalar
from oracles import coordinate_list, element_matrix, rank_oracle, solve_or_certify_reference

SMALL = st.sampled_from([Fraction(0)] * 3 + [Fraction(v, q) for v in (-2, -1, 1, 3) for q in (1, 2, 3)])
# tau-free Gaussian rationals, as Scalars (zero and real ones included) or Fractions
GAUSSIAN = st.one_of(SMALL, st.builds(Scalar.of, SMALL, SMALL))


def _rhs_entry():
    """A Fraction, or an exact Scalar with a tau power and an imaginary part."""
    scalar = st.builds(
        Scalar.of,
        st.integers(-3, 3),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    return st.one_of(SMALL, scalar)


@st.composite
def systems(draw, entries=SMALL):
    """(A, b) with A m x n, its entries drawn from entries and its
    dependencies from the same; some A get a dependent last row or
    column and some b lie in the column space, so full-rank,
    rank-deficient (with skipped pivot columns), solvable and
    unsolvable systems all occur."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 5))
    A = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        coeffs = [draw(entries) for _ in range(m - 1)]
        A[-1] = [sum((c * row[j] for c, row in zip(coeffs, A)), Fraction(0)) for j in range(n)]
    if n >= 2 and draw(st.booleans()):
        j, c = draw(st.integers(1, n - 1)), draw(entries)
        for row in A:
            row[j] = c * row[j - 1]
    if draw(st.booleans()):
        x = [Scalar.coerce(draw(_rhs_entry())) for _ in range(n)]
        b = [_dot(row, x) for row in A]
    else:
        b = [draw(_rhs_entry()) for _ in range(m)]
    return A, b


def _dot(coeffs, values):
    s = Scalar.zero()
    for c, v in zip(coeffs, values):
        s = s + Scalar.coerce(v) * c
    return s


def _check_result(A, b, status, data):
    n = len(A[0])
    if status == "solved":
        assert len(data) == n
        for row, bi in zip(A, b):
            assert _dot(row, data) == Scalar.coerce(bi)
    else:
        assert status == "certificate"
        assert len(data) == len(A)
        if all(isinstance(a, Fraction) for row in A for a in row):
            assert all(isinstance(y, Fraction) for y in data)
        for j in range(n):
            assert _dot(data, [row[j] for row in A]).is_zero()
        assert not _dot(data, b).is_zero()


@settings(max_examples=300, deadline=None)
@given(systems())
@example(([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]], [Fraction(1), Fraction(2)]))
@example(([[Fraction(0)], [Fraction(0)]], [Scalar.zero(), Scalar.of(0, 1, -1)]))
@example(([[], []], [Fraction(0), Fraction(0)]))
def test_kernel_against_oracle_and_substitution(system):
    A, b = system
    assert rank(A) == rank_oracle(A)
    status, data = solve_or_certify(A, b)
    assert (status, data) == solve_or_certify_reference(A, b)
    _check_result(A, b, status, data)
    solver = PrecomputedSolver(A)
    assert solver.rank == rank(A)
    assert solver.solve(b) == (status, data)


def test_solver_on_the_empty_matrix():
    """No rows and no columns: rank 0, and the empty system's solution
    is the empty vector."""
    solver = PrecomputedSolver([])
    assert solver.rank == 0
    assert solver.solve([]) == ("solved", [])


@settings(max_examples=200, deadline=None)
@given(systems(GAUSSIAN))
@example(([[Scalar.one(), Scalar.of(0, 1)], [Scalar.of(0, 1), -Scalar.one()]], [Fraction(1), Fraction(0)]))
@example(([[Scalar.one(), Scalar.of(0, 1)], [Scalar.of(0, 1), -Scalar.one()]], [Fraction(1), Scalar.of(0, 1)]))
@example(([[Scalar.of(0, 2), Fraction(1)], [Fraction(0), Scalar.of(1, 1)]], [Scalar.tau(), Scalar.of(0, 1, -1)]))
def test_solver_on_gaussian_rational_systems(system):
    """Scalar entries in A (the examples: rank 1 over C but 2 over Q, and
    a mixed Fraction/Scalar matrix), checked by substitution; the solver
    is reused for a second right-hand side."""
    A, b = system
    solver = PrecomputedSolver(A)
    assert solver.rank == rank_oracle(A)
    status, data = solver.solve(b)
    _check_result(A, b, status, data)
    assert solve_or_certify(A, b) == (status, data)
    b2 = [_dot(row, [Scalar.tau(j - 1) for j in range(len(row))]) for row in A]
    status, x = solver.solve(b2)
    assert status == "solved"
    _check_result(A, b2, status, x)


def test_kernel_pivot_rule():
    """The fixed pivot rule pins the exact witness (free variables zero)
    and the exact certificate, which reports depend on."""
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    status, x = solve_or_certify(A, [Scalar.tau(), Scalar.tau() * Fraction(2)])
    assert status == "solved" and x == [Scalar.tau(), Scalar.zero()]
    status, y = solve_or_certify(A, [Fraction(1), Scalar.of(0, 1)])
    assert status == "certificate" and y == [Fraction(-2), Fraction(1)]


def test_sort_sign():
    assert sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_sign((1, 0)) == ((0, 1), -1)
    assert sort_sign(()) == ((), 1)
    assert sort_sign((0, 2, 0)) == (None, 0)


# ---------------------------------------------------------------------------
# the Lie-algebra coordinate map, one PrecomputedSolver per algebra

ALGEBRAS = ["u1", "su2", "so3", "u2", "su3", "u3", "su4", "u4"]
# tau-Laurent Gaussian rationals: sums of up to three terms (a + b i) tau^k
LAURENT = st.lists(st.builds(Scalar.of, SMALL, SMALL, st.integers(-2, 2)), max_size=3).map(
    lambda terms: sum(terms, Scalar.zero())
)


def _in_span(name, M):
    """Whether M lies in the complex span of the basis: the u(n) bases span
    gl(n, C), su(n) is the traceless matrices, so3 the antisymmetric ones."""
    n = len(M)
    if name == "so3":
        return all(M[r][c] == -M[c][r] for r in range(n) for c in range(n))
    if name.startswith("su"):
        return sum((M[i][i] for i in range(n)), Scalar.zero()).is_zero()
    return True


@pytest.mark.parametrize("name", ALGEBRAS)
@settings(max_examples=25, deadline=None)
@given(st.lists(LAURENT, min_size=16, max_size=16))
@example([Scalar.zero()] + [Scalar.of(Fraction(a + 1, 3), 0, a % 3 - 1) for a in range(1, 16)])
def test_decompose_inverts_element(name, coords):
    alg = lie_algebra(name)
    x = coords[:alg.dim]
    assert coordinate_list(alg, element_matrix(alg, x)) == x


@pytest.mark.parametrize("name", ALGEBRAS)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_decompose_rebuilds_the_span_and_rejects_the_rest(name, data):
    """A random matrix, half the time pushed into the span (its
    antisymmetric part on so3, its traceless part on su(n)), rebuilds
    from its coordinates when it is in the span and raises otherwise."""
    alg = lie_algebra(name)
    n = alg.n
    M = [[data.draw(LAURENT) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        if name == "so3":
            M = [[(M[r][c] - M[c][r]) * Fraction(1, 2) for c in range(n)] for r in range(n)]
        elif name.startswith("su"):
            shift = sum((M[i][i] for i in range(n)), Scalar.zero()) * Fraction(1, n)
            M = [[v - shift if r == c else v for c, v in enumerate(row)] for r, row in enumerate(M)]
    if _in_span(name, M):
        assert element_matrix(alg, coordinate_list(alg, M)) == M
    else:
        with pytest.raises(LieAlgebraError):
            alg.coordinates(M)


def test_decompose_rejects_matrix_outside_algebra():
    """The identity is off the span of su(n) and so3 and on that of u(n)
    (coordinates -i on the diagonal basis); a symmetric matrix is off so3."""
    for name in ALGEBRAS:
        alg = lie_algebra(name)
        n = alg.n
        identity = [[Scalar.one() if r == c else Scalar.zero() for c in range(n)] for r in range(n)]
        if name.startswith("u"):
            assert coordinate_list(alg, identity) == [-Scalar.of(0, 1)] * n + [Scalar.zero()] * (alg.dim - n)
        else:
            with pytest.raises(LieAlgebraError):
                alg.coordinates(identity)
    symmetric = [[Scalar.of(r + c) for c in range(3)] for r in range(3)]
    with pytest.raises(LieAlgebraError):
        lie_algebra("so3").coordinates(symmetric)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_coordinates_need_no_elimination_after_construction(name, monkeypatch):
    """Once an algebra is built, coordinates and polarized tensors run no
    row reduction: the solver's transform is computed at construction."""
    alg = lie_algebra(name)

    def no_elimination(*args):
        raise AssertionError("row_reduce ran after the algebra was built")

    monkeypatch.setattr(chernweil.linalg, "row_reduce", no_elimination)
    # and any copy of the name bound into liealg itself
    monkeypatch.setattr(chernweil.liealg, "row_reduce", no_elimination, raising=False)
    x = [Scalar.of(i + 1, -i, i % 3 - 1) for i in range(alg.dim)]
    assert coordinate_list(alg, element_matrix(alg, x)) == x
    # (sum x)^2 polarizes to rho(e_a, e_b) = 1, so each entry is its multinomial
    T = polarize(alg, lambda v: sum(v) ** 2, 2).tensor()
    assert T == {a: multinomial(Counter(a).values()) for a in itertools.combinations_with_replacement(range(alg.dim), 2)}

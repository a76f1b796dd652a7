"""The exact row-reduction kernel, checked against sympy and by substitution."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chernweil.liealg import LieAlgebraError, lie_algebra
from chernweil.linalg import PrecomputedSolver, rank, solve_or_certify, sort_sign
from chernweil.scalars import Scalar
from oracles import rank_oracle

SMALL = st.sampled_from([Fraction(0)] * 3 + [Fraction(v, q) for v in (-2, -1, 1, 3) for q in (1, 2, 3)])


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
def systems(draw):
    """(A, b) with A m x n; some A get a dependent last row or column and
    some b lie in the column space, so full-rank, rank-deficient (with
    skipped pivot columns), solvable and unsolvable systems all occur."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 5))
    A = [[draw(SMALL) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        coeffs = [draw(SMALL) for _ in range(m - 1)]
        A[-1] = [sum((c * row[j] for c, row in zip(coeffs, A)), Fraction(0)) for j in range(n)]
    if n >= 2 and draw(st.booleans()):
        j, c = draw(st.integers(1, n - 1)), draw(SMALL)
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
        s = s + Scalar.coerce(v) * Fraction(c)
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
        assert all(isinstance(y, Fraction) for y in data)
        for j in range(n):
            assert sum((y * row[j] for y, row in zip(data, A)), Fraction(0)) == 0
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
    _check_result(A, b, status, data)
    solver = PrecomputedSolver(A)
    assert solver.rank == rank(A)
    assert solver.solve(b) == (status, data)


def test_kernel_pivot_rule():
    """The fixed pivot rule pins the exact witness (free variables zero)
    and the exact certificate, which reports depend on."""
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    status, x = solve_or_certify(A, [Scalar.tau(), Scalar.tau() * Fraction(2)])
    assert status == "solved" and x == [Scalar.tau(), Scalar.zero()]
    status, y = solve_or_certify(A, [Fraction(1), Scalar.i()])
    assert status == "certificate" and y == [Fraction(-2), Fraction(1)]


def test_sort_sign():
    assert sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_sign((1, 0)) == ((0, 1), -1)
    assert sort_sign(()) == ((), 1)
    assert sort_sign((0, 2, 0)) == (None, 0)


@pytest.mark.parametrize("name", ["u1", "su2", "so3", "u2", "su3"])
def test_decompose_inverts_element(name):
    alg = lie_algebra(name)
    coords = [Scalar.of(Fraction(a + 1, 3), 0, a % 3 - 1) for a in range(alg.dim)]
    coords[0] = Scalar.zero()
    assert alg.decompose(alg.element(coords).matrix()).coords == coords


def test_decompose_rejects_matrix_outside_algebra():
    su2 = lie_algebra("su2")
    identity = [[Scalar.one(), Scalar.zero()], [Scalar.zero(), Scalar.one()]]
    with pytest.raises(LieAlgebraError):
        su2.decompose(identity)

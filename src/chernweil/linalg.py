"""Exact linear algebra over the rationals.

Everything here rests on one kernel, ``row_reduce``: Gauss-Jordan
elimination on the first ``ncols`` columns of a list of rows, in place.
The pivot rule is fixed (columns in order, first nonzero entry at or
below the current row), which makes every result deterministic: free
variables are set to zero.  Columns past ``ncols`` are never pivoted
on but receive the same row operations, so callers append what they
want carried along:

    rank                   [A]
    solve_or_certify       [A | b | I]
    PrecomputedSolver      [A | I]    (I becomes the transform for any b)
    liealg._scalar_solve   [A | b]    (A of tau-free Gaussian rationals)

b may hold Scalars (tau-Laurent values); only A is pivoted on, so a
Scalar is only ever divided by a pivot of A.  After reduction the
trailing identity block of a zero row of A is a vector y with
y^T A = 0, the unsolvability certificate when y^T b != 0.

``sort_sign`` gives the sign of a sorting permutation, for wedge
products and determinants; ``multinomial`` counts the orderings of a
multiset, for Bernstein coefficients and symmetric tensors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .scalars import Scalar


def row_reduce(rows, ncols):
    """Gauss-Jordan on columns [0, ncols) of rows; returns the (row, col) pivots.

    Entries may be Fractions or exact Scalars; the pivots must be
    invertible under ``/``.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def _identity_row(i, m):
    return [Fraction(1) if j == i else Fraction(0) for j in range(m)]


def rank(matrix):
    """Rank of a list-of-rows Fraction matrix."""
    rows = [list(map(Fraction, r)) for r in matrix]
    return len(row_reduce(rows, len(rows[0]))) if rows else 0


def solution_from_pivots(pivots, values, n):
    """x with x[col] = values[row] at each pivot and zero elsewhere."""
    x = [Scalar.zero() for _ in range(n)]
    for ri, ci in pivots:
        x[ci] = values[ri]
    return x


def solve_or_certify(matrix, rhs):
    """Solve A x = b exactly, or certify unsolvability.

    A is a list of Fraction rows, b a list of Scalar (or Fraction)
    entries.  Returns ("solved", x) with x a list of Scalars (free
    variables zero), or ("certificate", y) where y is a list of
    Fractions with y^T A = 0 and y^T b != 0.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [
        list(map(Fraction, a)) + [Scalar.coerce(b)] + _identity_row(i, m)
        for i, (a, b) in enumerate(zip(matrix, rhs))
    ]
    pivots = row_reduce(rows, n)
    for row in rows[len(pivots):]:
        if not row[n].is_zero():
            return "certificate", row[n + 1:]
    return "solved", solution_from_pivots(pivots, [row[n] for row in rows], n)


class PrecomputedSolver:
    """Row-reduce a rational matrix once, then solve for many RHS vectors.

    Equivalent to solve_or_certify for every b, but the elimination runs
    a single time; solving costs one transform-times-vector product.
    """

    def __init__(self, matrix):
        m = len(matrix)
        n = len(matrix[0]) if m else 0
        rows = [list(map(Fraction, a)) + _identity_row(i, m) for i, a in enumerate(matrix)]
        self.m, self.n = m, n
        self.pivots = row_reduce(rows, n)
        self.rank = len(self.pivots)
        self.trans = [row[n:] for row in rows]

    def solve(self, rhs):
        b = [Scalar.coerce(x) for x in rhs]
        y = []
        for i in range(self.m):
            s = Scalar.zero()
            for j, t in enumerate(self.trans[i]):
                if t:
                    s = s + b[j] * t
            y.append(s)
        for i in range(self.rank, self.m):
            if not y[i].is_zero():
                return "certificate", self.trans[i]
        return "solved", solution_from_pivots(self.pivots, y, self.n)


def sort_sign(seq):
    """Sorted tuple and the sign of the sorting permutation, or (None, 0)
    when seq repeats an entry."""
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
            elif seq[a] == seq[b]:
                return None, 0
    return tuple(sorted(seq)), sign


def multinomial(parts):
    """(sum parts)! / prod(p!) for nonnegative integers parts."""
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out

"""Exact linear algebra over the rationals and Gaussian rationals.

Two kernels, each with a fixed rule, so every result is deterministic.

``row_reduce`` is Gauss-Jordan elimination on the first ``ncols``
columns of a list of dense rows, in place (columns in order, first
nonzero entry at or below the current row; free variables are set to
zero).  Columns past ``ncols`` are never pivoted on but receive the
same row operations.  Its one caller is ``PrecomputedSolver``, which
reduces [A | I] once (I becomes the transform T for any b;
``solve_or_certify`` and ``LieData`` use it).  A may hold Fractions or
tau-free Gaussian-rational Scalars, so every pivot is invertible; b may
hold any Scalars (tau-Laurent values) and only ever meets T.  After
reduction the row of T beside a zero row of A is a vector y with
y^T A = 0, the unsolvability certificate when y^T b != 0.

``column_reduce`` is the standard persistence reduction
(Zomorodian-Carlsson, Discrete Comput. Geom. 33, 2005) on sparse
columns ``{row: entry}`` of exact ints or Fractions: each column in
turn is reduced by the earlier pivot columns, keyed on its lowest
(largest) nonzero row, until that row is new or the column is zero.
It gives ``rank`` and, in ``simplicial``, Betti numbers (with
clearing) and coboundary witnesses and certificates (with the column
operations recorded).

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


def _ratio(a, b):
    """a / b exactly, for ints or Fractions."""
    if b == 1:
        return a
    if b == -1:
        return -a
    return Fraction(a, b)


def _sub_multiple(col, f, other):
    """col -= f * other, for sparse columns; zero entries are dropped."""
    for r, v in other.items():
        s = col.get(r, 0) - f * v
        if s:
            col[r] = s
        else:
            del col[r]


def column_reduce(columns, skip=(), ops=None):
    """Reduce sparse columns in place; returns {pivot row: column index}.

    Column j is reduced by the earlier pivot columns, keyed on its
    lowest (largest) nonzero row, until that row is new (a pivot) or the
    column is zero.  The columns with an index in ``skip`` are left as
    they are and take no pivot (clearing: they are known to reduce to
    zero).  When ``ops`` is given, it is a list of columns, one per
    input column (the identity to record V with R = D V), and receives
    the same column operations.
    """
    pivots = {}
    for j, col in enumerate(columns):
        if j in skip:
            continue
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                pivots[low] = j
                break
            piv = columns[p]
            f = _ratio(col[low], piv[low])
            _sub_multiple(col, f, piv)
            if ops is not None:
                _sub_multiple(ops[j], f, ops[p])
    return pivots


def rank(matrix):
    """Rank of a list-of-rows Fraction matrix, by column_reduce."""
    ncols = len(matrix[0]) if matrix else 0
    columns = [{i: Fraction(row[j]) for i, row in enumerate(matrix) if row[j]} for j in range(ncols)]
    return len(column_reduce(columns))


def solve_or_certify(matrix, rhs):
    """Solve A x = b exactly, or certify unsolvability.

    A is a list of rows of Fractions (or ints) and tau-free Scalars, b
    a list of Scalar (or Fraction) entries; this is
    PrecomputedSolver(A).solve(b).
    """
    return PrecomputedSolver(matrix).solve(rhs)


class PrecomputedSolver:
    """Row-reduce a matrix once, then solve A x = b for many b.

    Entries of A are Fractions (anything else that is not a Scalar is
    coerced to one) or tau-free Gaussian-rational Scalars, such as the
    flattened basis of a Lie algebra: square and invertible for u(n),
    whose basis spans gl(n, C), and of rank n^2 - 1 for su(n).
    solve(b) costs one transform-times-vector product and returns
    ("solved", x) with x a list of Scalars (free variables zero), or
    ("certificate", y) with y^T A = 0 and y^T b != 0; y is a list of
    Fractions when A is.
    """

    def __init__(self, matrix):
        m = len(matrix)
        n = len(matrix[0]) if m else 0
        rows = [
            [a if isinstance(a, Scalar) else Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(m)]
            for i, row in enumerate(matrix)
        ]
        self.m, self.n = m, n
        self.pivots = row_reduce(rows, n)
        self.rank = len(self.pivots)
        self.trans = [row[n:] for row in rows]

    def solve(self, rhs):
        b = [Scalar.coerce(x) for x in rhs]
        y = []
        for row in self.trans:
            s = Scalar.zero()
            for bj, t in zip(b, row):
                if t != 0:
                    s = s + bj * t
            y.append(s)
        for i in range(self.rank, self.m):
            if not y[i].is_zero():
                return "certificate", self.trans[i]
        x = [Scalar.zero()] * self.n
        for r, c in self.pivots:
            x[c] = y[r]
        return "solved", x


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

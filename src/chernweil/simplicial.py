"""Finite simplicial sets with formal degeneracies.

A simplicial set is presented by its nondegenerate simplices together
with face maps whose targets may carry a degeneracy word: the face
``d_i sigma`` is stored as ``(tau, w)`` meaning ``s_{w[0]} s_{w[1]} ...
tau``.  Words are kept in normalized, strictly decreasing form, so two
formal simplices are equal iff their representations are equal.  All
homological computations run on the normalized chain complex (the
nondegenerate generators), which has the same homology.

Degeneracy bookkeeping follows the simplicial identities

    d_i s_j = s_{j-1} d_i   (i < j)
    d_i s_j = id            (i = j, j+1)
    d_i s_j = s_j d_{i-1}   (i > j+1)
    s_i s_j = s_{j+1} s_i   (i <= j)

which are applied eagerly whenever a face or degeneracy operator meets a
word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .linalg import column_reduce
from .scalars import Scalar


class SimplexId(NamedTuple):
    """A nondegenerate simplex: its dimension and position in that dimension.

    A named tuple, so it equals, hashes and sorts like its (dim, index)
    pair, all in C.  The field ``index`` shadows the method
    ``tuple.index``.
    """

    dim: int
    index: int

    def __repr__(self):
        return f"{self.dim}.{self.index}"


# A formal simplex (sid, word): the simplex s_{word} sid, of dimension
# sid.dim + len(word).  word is strictly decreasing.
FormalSimplex = tuple


def compose_degeneracy(j, word):
    """Normalized word of s_j composed with s_word (s_j applied last)."""
    if not word or j > word[0]:
        return (j,) + word
    # s_j s_k = s_{k+1} s_j for j <= k
    return (word[0] + 1,) + compose_degeneracy(j, word[1:])


def compose_words(outer, inner):
    """Normalized word of s_outer composed with s_inner."""
    acc = tuple(inner)
    for j in reversed(outer):
        acc = compose_degeneracy(j, acc)
    return acc


def degenerate(fs, j):
    sid, word = fs
    return (sid, compose_degeneracy(j, word))


def strip_degeneracy(fs, j):
    """Write fs = s_j fs' and return fs'; j must lie in the word's index set."""
    sid, word = fs
    if j not in word:
        raise ValueError(f"degeneracy {j} not extractable from word {word}")
    rest = {i - 1 if i > j else i for i in word if i != j}
    return (sid, tuple(sorted(rest, reverse=True)))


def word_epi(word, top_dim):
    """Vertex map [top_dim] -> [top_dim - len(word)] of the collapse s_word."""
    out = []
    for v in range(top_dim + 1):
        for w in word:
            if v > w:
                v -= 1
        out.append(v)
    return tuple(out)


def compose_monotone(outer, inner):
    return tuple(outer[v] for v in inner)


def mono_skip(d, skip):
    """The injection [d - len(skip)] -> [d] missing the values in skip."""
    return tuple(v for v in range(d + 1) if v not in skip)


class SimplicialSet:
    """Finite simplicial set in nondegenerate presentation.

    Attributes
    ----------
    counts : list of int
        counts[d] is the number of nondegenerate d-simplices.
    faces : dict
        (SimplexId, i) -> FormalSimplex, for every d > 0 simplex and
        0 <= i <= d; iterating it walks the face maps by dimension,
        index and i.
    names : dict
        optional human-readable labels, SimplexId -> str.
    """

    def __init__(self, counts, faces, names=None):
        self.counts = list(counts)
        while self.counts and self.counts[-1] == 0:
            self.counts.pop()
        # sorted once, so every walk over the face maps takes one order
        self.faces = dict(sorted(faces.items()))
        self.names = dict(names or {})
        # the tuples of cells(d) and all_cells(), built on first use: a
        # space may declare more cells than could ever be listed
        self._cells = {}
        self._all_cells = None

    def __eq__(self, other):
        """Structural equality: same cells and face structure (names ignored)."""
        return (
            isinstance(other, SimplicialSet)
            and self.counts == other.counts
            and self.faces == other.faces
        )

    __hash__ = None

    @property
    def dim(self):
        return len(self.counts) - 1

    def cells(self, d):
        """The d-cells in index order, as a tuple built once per d."""
        c = self._cells.get(d)
        if c is None:
            if d < 0 or d > self.dim:
                return ()
            c = self._cells[d] = tuple(SimplexId(d, i) for i in range(self.counts[d]))
        return c

    def all_cells(self):
        """Every cell by dimension and index, as a tuple built once."""
        if self._all_cells is None:
            self._all_cells = tuple(itertools.chain.from_iterable(self.cells(d) for d in range(self.dim + 1)))
        return self._all_cells

    def face(self, sid, i):
        return self.faces[(sid, i)]

    def face_of(self, fs, i):
        """Face d_i of a formal simplex, normalized."""
        sid, word = fs
        if not word:
            return self.faces[(sid, i)]
        j = word[0]
        rest = (sid, word[1:])
        if i < j:
            return degenerate(self.face_of(rest, i), j - 1)
        if i in (j, j + 1):
            return rest
        return degenerate(self.face_of(rest, i - 1), j)

    def name(self, sid):
        return self.names.get(sid, f"{sid.dim}.{sid.index}")

    def validate(self):
        """Check the face table, then the simplicial identities.

        One walk over faces checks each face's source, index, target and
        word; names must label declared cells.  The face keys are
        distinct, so completeness is a count and lists no cells.

        Returns a list of violation strings (empty iff valid).
        """
        counts, top = self.counts, self.dim

        def declared(sid):
            return 0 <= sid.dim <= top and 0 <= sid.index < counts[sid.dim]

        bad = []
        valid = 0
        for (sid, i), (tgt, word) in self.faces.items():
            if not declared(sid):
                bad.append(f"face ({sid}, {i}) of undeclared cell {sid}")
                continue
            if sid.dim == 0 or not 0 <= i <= sid.dim:
                bad.append(f"face ({sid}, {i}) out of range for a {sid.dim}-cell")
                continue
            valid += 1
            if not declared(tgt):
                bad.append(f"face ({sid}, {i}) references missing {tgt}")
            if tgt.dim + len(word) != sid.dim - 1:
                bad.append(f"face ({sid}, {i}) has wrong dimension")
            if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
                bad.append(f"face ({sid}, {i}) word {word} not normalized")
            if any(not 0 <= j <= sid.dim - 2 for j in word):
                bad.append(f"face ({sid}, {i}) word {word} has a degeneracy out of range")
        bad += [f"name of undeclared cell {sid}" for sid in self.names if not declared(sid)]
        expected = sum((d + 1) * c for d, c in enumerate(counts) if d)
        if valid != expected:
            bad.append(f"{valid} faces given where the counts declare {expected}")
        if bad:
            return bad
        for d in range(2, self.dim + 1):
            for sid in self.cells(d):
                fs = (sid, ())
                for i in range(d + 1):
                    for j in range(i + 1, d + 1):
                        a = self.face_of(self.face_of(fs, j), i)
                        b = self.face_of(self.face_of(fs, i), j - 1)
                        if a != b:
                            bad.append(
                                f"simplicial identity fails on {sid}: "
                                f"d_{i} d_{j} != d_{j-1} d_{i}"
                            )
        return bad


class SimplicialMap:
    """Map of simplicial sets, given on nondegenerate generators.

    assignment maps each nondegenerate source simplex to a formal
    simplex of the target; the extension to degenerate simplices is by
    word composition.
    """

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def apply(self, fs):
        sid, word = fs
        tid, tword = self.assignment[sid]
        return (tid, compose_words(word, tword))

    def __call__(self, sid):
        return self.assignment[sid]

    @staticmethod
    def identity(X):
        return SimplicialMap(X, X, {sid: (sid, ()) for sid in X.all_cells()})

    @staticmethod
    def constant(X, Y, v):
        """X -> Y onto the vertex v of Y: s_{d-1} ... s_0 v on a d-cell."""
        return SimplicialMap(X, Y, {sid: (v, tuple(range(sid.dim - 1, -1, -1))) for sid in X.all_cells()})

    def compose(self, other):
        """self o other (other applied first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return SimplicialMap(
            other.source,
            self.target,
            {sid: self.apply(other.assignment[sid]) for sid in other.source.all_cells()},
        )


# ---------------------------------------------------------------------------
# standard geometries


def _from_subsets(n, subsets):
    """Subcomplex of Delta^n spanned by the given vertex subsets.

    Subsets must be downward closed.  Cells in each dimension are
    ordered lexicographically; names record the vertex tuples.
    """
    by_dim = {}
    for s in subsets:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    top = max(by_dim) if by_dim else 0
    counts = []
    index = {}
    names = {}
    for d in range(top + 1):
        cells = sorted(set(by_dim.get(d, [])))
        counts.append(len(cells))
        for i, s in enumerate(cells):
            index[s] = SimplexId(d, i)
            names[SimplexId(d, i)] = "".join(map(str, s))
    faces = {}
    for s, sid in index.items():
        d = sid.dim
        for i in range(d + 1) if d > 0 else []:
            t = s[:i] + s[i + 1:]
            faces[(sid, i)] = (index[t], ())
    X = SimplicialSet(counts, faces, names)
    X._subset_index = index  # used by horns and inclusions
    return X


def standard_simplex(n):
    """The standard simplicial n-simplex; C(n+1, m+1) cells in dim m."""
    subs = []
    for m in range(n + 1):
        subs.extend(itertools.combinations(range(n + 1), m + 1))
    return _from_subsets(n, subs)


def boundary_sphere(n):
    """The boundary of Delta^{n+1}: a simplicial n-sphere."""
    subs = []
    for m in range(n + 2):
        subs.extend(itertools.combinations(range(n + 2), m + 1))
    subs.remove(tuple(range(n + 2)))
    return _from_subsets(n + 1, subs)


def two_disk_sphere():
    """Two 2-cells N and S glued along their entire boundary.

    The realization is a 2-sphere; [N] - [S] is a fundamental cycle.
    """
    X = standard_simplex(2)
    counts = [3, 3, 2]
    faces = dict(X.faces)
    names = dict(X.names)
    top = SimplexId(2, 0)
    N, S = SimplexId(2, 0), SimplexId(2, 1)
    names[N], names[S] = "N", "S"
    for i in range(3):
        faces[(S, i)] = X.faces[(top, i)]
    return SimplicialSet(counts, faces, names)


class InvalidHornError(ValueError):
    pass


@dataclass
class HornPresentation:
    """The horn Lambda^n_k as a simplicial set plus its inclusion into
    standard_simplex(n)."""

    n: int
    k: int
    space: SimplicialSet
    inclusion: SimplicialMap


def horn(n, k):
    """All faces of Delta^n except the k'th, without the interior."""
    if not 0 <= k <= n:
        raise InvalidHornError(f"horn index {k} out of range for Delta^{n}")
    delta = standard_simplex(n)
    full = tuple(range(n + 1))
    omit = full[:k] + full[k + 1:]
    subs = [s for s in delta._subset_index if s != full and s != omit]
    space = _from_subsets(n, subs)
    cells = {sid: (delta._subset_index[s], ()) for s, sid in space._subset_index.items()}
    return HornPresentation(n, k, space, SimplicialMap(space, delta, cells))


# ---------------------------------------------------------------------------
# products


def _formal_simplices(X, m):
    """Every formal m-simplex s_I a of X, I as a strictly decreasing word."""
    return [(a, I[::-1]) for a in X.all_cells() if a.dim <= m for I in itertools.combinations(range(m), m - a.dim)]


def _formal_name(X, fs):
    return X.name(fs[0]) + "".join(f"s{j}" for j in fs[1])


def _pair_cell(cells, x, y):
    """The pair (x, y) of formal simplices as s_w c with c a cell of the
    product: strip the largest common degeneracy and recurse."""
    common = set(x[1]) & set(y[1])
    if not common:
        return cells[(x, y)], ()
    j = max(common)
    c, w = _pair_cell(cells, strip_degeneracy(x, j), strip_degeneracy(y, j))
    return c, compose_degeneracy(j, w)


@dataclass
class Product:
    """X x Y with its two projections (May, *Simplicial Objects in
    Algebraic Topology*, section 6).

    The nondegenerate m-cells are the pairs (s_I a, s_J b) of formal
    m-simplices with I and J disjoint; _cells maps each pair to its cell.
    """

    space: SimplicialSet
    pr_x: SimplicialMap
    pr_y: SimplicialMap
    _cells: dict = field(repr=False)

    def pair(self, f, g):
        """<f, g>: Z -> X x Y for maps f: Z -> X and g: Z -> Y."""
        if f.source != g.source:
            raise ValueError("pairing maps with different sources")
        Z = f.source
        return SimplicialMap(Z, self.space, {z: _pair_cell(self._cells, f(z), g(z)) for z in Z.all_cells()})


def product(X, Y):
    """The product X x Y of simplicial sets with both projections."""
    cells, counts = {}, []
    for m in range(X.dim + Y.dim + 1):
        fy = _formal_simplices(Y, m)
        pairs = [(x, y) for x in _formal_simplices(X, m) for y in fy if not set(x[1]) & set(y[1])]
        counts.append(len(pairs))
        cells.update((xy, SimplexId(m, i)) for i, xy in enumerate(pairs))
    faces = {
        (c, i): _pair_cell(cells, X.face_of(x, i), Y.face_of(y, i))
        for (x, y), c in cells.items() if c.dim for i in range(c.dim + 1)
    }
    names = {c: f"{_formal_name(X, x)}x{_formal_name(Y, y)}" for (x, y), c in cells.items()}
    P = SimplicialSet(counts, faces, names)
    pr_x, pr_y = (SimplicialMap(P, Z, {c: xy[k] for xy, c in cells.items()}) for k, Z in enumerate((X, Y)))
    return Product(P, pr_x, pr_y, cells)


def cylinder(X):
    """X x Delta^1 with its end inclusions <id, const_0> and <id, const_1>."""
    interval = standard_simplex(1)
    prod = product(X, interval)
    i0, i1 = (prod.pair(SimplicialMap.identity(X), SimplicialMap.constant(X, interval, SimplexId(0, e))) for e in (0, 1))
    return prod, i0, i1


# ---------------------------------------------------------------------------
# chains, cochains, homology


class Chain:
    """Finitely supported chain with Fraction coefficients."""

    def __init__(self, dim, coeffs=None):
        self.dim = dim
        self.coeffs = {}
        for sid, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[sid] = c

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError(f"sum of a {self.dim}-chain and a {other.dim}-chain")
        out = dict(self.coeffs)
        for sid, c in other.coeffs.items():
            s = out.get(sid, Fraction(0)) + c
            if s:
                out[sid] = s
            else:
                out.pop(sid, None)
        return Chain(self.dim, out)

    def __neg__(self):
        return Chain(self.dim, {sid: -c for sid, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, Chain) and self.dim == other.dim and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs


class Cochain:
    """Finitely supported cochain with Scalar values on nondegenerate cells."""

    def __init__(self, dim, values=None):
        self.dim = dim
        self.values = {}
        for sid, v in (values or {}).items():
            v = Scalar.coerce(v)
            if not v.is_zero():
                self.values[sid] = v

    def value(self, sid):
        return self.values.get(sid, Scalar.zero())

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError(f"sum of a {self.dim}-cochain and a {other.dim}-cochain")
        out = dict(self.values)
        for sid, v in other.values.items():
            s = out.get(sid, Scalar.zero()) + v
            if s.is_zero():
                out.pop(sid, None)
            else:
                out[sid] = s
        return Cochain(self.dim, out)

    def __neg__(self):
        return Cochain(self.dim, {sid: -v for sid, v in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, Cochain) and self.dim == other.dim and self.values == other.values

    def is_zero(self):
        return not self.values


def pairing(cochain, chain):
    if cochain.dim != chain.dim:
        raise ValueError("pairing dimension mismatch")
    out = Scalar.zero()
    for sid, c in chain.coeffs.items():
        out = out + cochain.value(sid) * c
    return out


def coboundary(X, cochain):
    """(dc)(sigma) = c(boundary sigma), read from boundary_operator's columns."""
    k, c = cochain.dim, cochain.values
    low = X.cells(k)
    return Cochain(k + 1, {
        sid: sum((c[low[r]] * m for r, m in col.items() if low[r] in c), Scalar.zero())
        for sid, col in zip(X.cells(k + 1), boundary_operator(X, k + 1))
    })


def pullback_cochain(f, cochain):
    """f^* on normalized cochains: degenerate images contribute zero."""
    out = {}
    for sid in f.source.cells(cochain.dim):
        tid, word = f.assignment[sid]
        if word:
            continue
        v = cochain.value(tid)
        if not v.is_zero():
            out[sid] = v
    return Cochain(cochain.dim, out)


def boundary_operator(X, k):
    """The boundary C_k -> C_{k-1} on nondegenerate generators, as sparse
    integer columns: one {(k-1)-cell index: coefficient} per k-cell.

    Built by one walk of X.faces; degenerate faces vanish in the
    normalized complex, and coefficients that cancel are dropped.
    """
    if k < 1:
        raise ValueError("boundary_operator needs k >= 1")
    columns = [{} for _ in X.cells(k)]
    for (sid, i), (tgt, word) in X.faces.items():
        if sid.dim != k or word:
            continue
        col = columns[sid.index]
        s = col.get(tgt.index, 0) + (-1 if i & 1 else 1)
        if s:
            col[tgt.index] = s
        else:
            del col[tgt.index]
    return columns


def betti_numbers(X, max_dim):
    """Ranks of rational homology, b_k = n_k - r_k - r_{k+1} with n_k the
    number of k-cells and r_k the rank of d_k.

    The boundaries are reduced from d_{max_dim+1} down to d_1 with
    clearing (Chen-Kerber, "Persistent homology computation with a
    twist", EuroCG 2011): a k-cell that is a pivot row of the reduced
    d_{k+1} bounds a cycle, so its column of d_k reduces to zero and is
    skipped.
    """
    n = [X.counts[k] if k <= X.dim else 0 for k in range(max_dim + 2)]
    r = [0] * (max_dim + 2)
    cleared = {}
    for k in range(max_dim + 1, 0, -1):
        cleared = column_reduce(boundary_operator(X, k), skip=cleared) if n[k] else {}
        r[k] = len(cleared)
    return [n[k] - r[k] - r[k + 1] for k in range(max_dim + 1)]


def is_coboundary(X, cochain):
    """Find b with db = cochain, or certify failure with a pairing cycle.

    Returns ("witness", Cochain) or ("cycle", Chain); in the second case
    the chain z is a cycle with <cochain, z> != 0.

    The boundary D = d_k is column reduced with its operations recorded,
    R = D V.  db = c reads D^T b = c, that is R^T b = V^T c.  A zero
    column of R has a cycle z = V e_j as its V-column, and <c, z> != 0
    certifies failure.  Otherwise the rows of R^T are solved by back
    substitution in the order of their pivot rows, with the rows that
    are no pivot set to zero.
    """
    k = cochain.dim
    cells_k = X.cells(k)
    R = boundary_operator(X, k) if k >= 1 else [{} for _ in cells_k]
    V = [{j: 1} for j in range(len(R))]
    pivots = column_reduce(R, ops=V)
    c = {sid.index: v for sid, v in cochain.values.items()}
    rhs = []
    for col, z in zip(R, V):
        s = Scalar.zero()
        for j, v in z.items():
            cj = c.get(j)
            if cj is not None:
                s = s + cj * v
        if not col and not s.is_zero():
            return "cycle", Chain(k, {cells_k[j]: v for j, v in z.items()})
        rhs.append(s)
    b = {}
    for i in sorted(pivots):
        col = R[pivots[i]]
        s = rhs[pivots[i]]
        for r, v in col.items():
            if r in b:  # the pivot rows before i; the other rows are zero
                s = s - b[r] * v
        b[i] = s / col[i]
    cells_low = X.cells(k - 1)
    return "witness", Cochain(k - 1, {cells_low[i]: v for i, v in b.items()})


def fundamental_cycle_two_disk(X):
    """[N] - [S] on two_disk_sphere."""
    return Chain(2, {SimplexId(2, 0): 1, SimplexId(2, 1): -1})

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.scalars import Scalar
from chernweil.simplicial import (
    Chain,
    Cochain,
    InvalidHornError,
    SimplexId,
    SimplicialMap,
    SimplicialSet,
    betti_numbers,
    boundary_operator,
    boundary_sphere,
    coboundary,
    cylinder,
    fundamental_cycle_two_disk,
    horn,
    is_coboundary,
    pairing,
    product,
    pullback_cochain,
    standard_simplex,
    two_disk_sphere,
)
from chernweil.linalg import column_reduce
from oracles import (
    betti_oracle,
    boundary_chain,
    boundary_matrix_oracle,
    is_coboundary_oracle,
    rank_oracle,
    simplicial_map_violations,
)
from strategies import subcomplexes


def test_standard_simplex_counts():
    assert standard_simplex(0).counts == [1]
    assert standard_simplex(2).counts == [3, 3, 1]
    assert standard_simplex(3).counts == [4, 6, 4, 1]


def test_standard_simplex_validates():
    for n in range(5):
        assert standard_simplex(n).validate() == []


def test_boundary_sphere_counts():
    assert boundary_sphere(2).counts == [4, 6, 4]
    assert boundary_sphere(1).counts == [3, 3]
    assert boundary_sphere(3).counts == [5, 10, 10, 5]


def test_two_disk_sphere():
    X = two_disk_sphere()
    assert X.counts == [3, 3, 2]
    assert X.validate() == []
    # Euler characteristic of a sphere
    assert 3 - 3 + 2 == 2
    z = fundamental_cycle_two_disk(X)
    assert boundary_chain(X, z).is_zero()
    assert betti_numbers(X, 2) == betti_oracle(X, 2) == [1, 0, 1]


def _horn_subsets(h):
    """The vertex tuple of each horn cell's image in Delta^n, read from
    the cell names of standard_simplex(n)."""
    delta = h.inclusion.target
    return [tuple(int(v) for v in delta.name(h.inclusion(sid)[0])) for sid in h.space.all_cells()]


def test_horn_cells():
    h = horn(2, 1)
    subsets = set(_horn_subsets(h))
    assert (0, 1) in subsets and (1, 2) in subsets
    assert (0, 2) not in subsets and (0, 1, 2) not in subsets
    assert horn(3, 0).space.counts == [4, 6, 3]
    with pytest.raises(InvalidHornError):
        horn(2, 5)


def test_horn_one_zero_single_vertex():
    # the k'th face is the one opposite vertex k, so Lambda^1_0 removes
    # the vertex {1} and keeps {0}
    h = horn(1, 0)
    assert sorted(_horn_subsets(h)) == [(0,)]
    assert h.space.counts == [1]


def test_horn_inclusion_valid():
    for n, k in [(2, 0), (2, 1), (3, 0), (3, 2)]:
        h = horn(n, k)
        assert h.inclusion.target == standard_simplex(n)
        assert simplicial_map_violations(h.inclusion) == []


def _compose(low, high):
    """The sparse columns of low o high, zero entries dropped."""
    out = []
    for col in high:
        acc = {}
        for m, v in col.items():
            for r, w in low[m].items():
                acc[r] = acc.get(r, 0) + v * w
        out.append({r: v for r, v in acc.items() if v})
    return out


def _dense(columns, nrows):
    return [[col.get(r, 0) for col in columns] for r in range(nrows)]


def test_boundary_squared_zero():
    X = boundary_sphere(2)
    d2 = boundary_operator(X, 2)
    d1 = boundary_operator(X, 1)
    assert len(d2) == 4 and len(d1) == 6
    assert _compose(d1, d2) == [{}] * 4


def test_boundary_of_edge():
    X = standard_simplex(1)
    # single edge {01}: boundary = v1 - v0
    assert boundary_operator(X, 1) == [{0: -1, 1: 1}]


def test_rank_boundary_two_disk():
    # N and S share every face, so the two columns of the boundary are
    # equal and the rank is 1 (consistent with betti = (1, 0, 1))
    X = two_disk_sphere()
    m = boundary_operator(X, 2)
    assert m[0] == m[1] == {0: 1, 1: -1, 2: 1}
    assert _dense(m, 3) == boundary_matrix_oracle(X, 2)
    assert rank_oracle(boundary_matrix_oracle(X, 2)) == 1
    assert len(column_reduce(m)) == 1 and m[1] == {}


def test_betti_reduces_each_boundary_once(monkeypatch):
    # b_k = n_k - r_k - r_{k+1}: one reduction per boundary that is not
    # empty, d_dim down to d_1 here and none for the empty d_{dim+1};
    # the columns of d_k skipped are the pivot rows of the reduced d_{k+1}
    import chernweil.simplicial as simplicial

    calls = []

    def recording(columns, skip=(), ops=None):
        pivots = column_reduce(columns, skip, ops)
        calls.append((len(columns), set(skip), set(pivots)))
        return pivots

    monkeypatch.setattr(simplicial, "column_reduce", recording)
    for X in (boundary_sphere(2), two_disk_sphere(), standard_simplex(3), product(two_disk_sphere(),
              two_disk_sphere()).space):
        calls.clear()
        assert betti_numbers(X, X.dim + 1) == betti_oracle(X, X.dim) + [0]
        assert [n for n, _, _ in calls] == X.counts[:0:-1]
        assert calls[0][1] == set()
        for (_, _, pivots), (_, skipped, _) in zip(calls, calls[1:]):
            assert skipped == pivots
        assert [len(p) for _, _, p in calls] == [rank_oracle(boundary_matrix_oracle(X, k))
                                                 for k in range(X.dim, 0, -1)]


def test_betti_against_oracle():
    for X, maxd in [(boundary_sphere(2), 2), (boundary_sphere(3), 3), (standard_simplex(4), 4)]:
        assert betti_numbers(X, maxd) == betti_oracle(X, maxd)
    assert betti_numbers(boundary_sphere(2), 2) == [1, 0, 1]
    assert betti_numbers(boundary_sphere(3), 3) == [1, 0, 0, 1]
    assert betti_numbers(standard_simplex(4), 4) == [1, 0, 0, 0, 0]


_FACTORS = st.one_of(
    st.sampled_from([standard_simplex(1), boundary_sphere(1), two_disk_sphere(), horn(2, 1).space]),
    subcomplexes(2),
)
# random down-closed subcomplexes of Delta^5, products and cylinders
_SPACES = st.one_of(
    subcomplexes(5),
    st.builds(lambda X, Y: product(X, Y).space, _FACTORS, _FACTORS),
    st.builds(lambda X: cylinder(X)[0].space, st.one_of(_FACTORS, subcomplexes(3))),
)
_VALUES = st.builds(Scalar.of, st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1))


@settings(max_examples=40, deadline=None)
@given(_SPACES)
def test_sparse_boundary_and_betti_against_dense_oracle(X):
    for k in range(1, X.dim + 1):
        assert _dense(boundary_operator(X, k), X.counts[k - 1]) == boundary_matrix_oracle(X, k)
    assert betti_numbers(X, X.dim) == betti_oracle(X, X.dim)


@settings(max_examples=40, deadline=None)
@given(_SPACES, st.integers(0, 2**32))
def test_boundary_chain_and_coboundary_against_dense_oracle(X, seed):
    """boundary_chain is the oracle's dense d_k applied to the
    coefficients, and coboundary its transpose applied to values that
    carry tau and i; d of a top-degree cochain is zero."""
    rng = random.Random(seed)
    for k in range(1, X.dim + 1):
        M = boundary_matrix_oracle(X, k)
        low, high = X.cells(k - 1), X.cells(k)
        z = [rng.randint(-3, 3) for _ in high]
        expected = Chain(k - 1, {low[r]: sum(m * a for m, a in zip(row, z)) for r, row in enumerate(M)})
        assert boundary_chain(X, Chain(k, dict(zip(high, z)))) == expected
        c = [Scalar.of(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-1, 1)) for _ in low]
        d = {sid: Scalar.zero() for sid in high}
        for r, row in enumerate(M):
            for j, m in enumerate(row):
                d[high[j]] = d[high[j]] + c[r] * m
        assert coboundary(X, Cochain(k - 1, dict(zip(low, c)))) == Cochain(k, d)
    top = Cochain(X.dim, {sid: Scalar.one() for sid in X.cells(X.dim)})
    assert coboundary(X, top) == Cochain(X.dim + 1, {})


@settings(max_examples=40, deadline=None)
@given(_SPACES, st.data())
def test_is_coboundary_witness_and_certificate(X, data):
    """A coboundary with tau and i in its values gets a witness, checked
    by substitution; a random rational cochain gets the oracle's verdict,
    with a witness or a cycle that pairs to nonzero."""
    k = data.draw(st.integers(0, X.dim))

    def cobounds(w, c):
        # the only coboundary of degree 0 is zero, d of the empty (-1)-cochain
        return w.dim == k - 1 and (coboundary(X, w) == c if k else c.is_zero() and w.is_zero())

    b = Cochain(k - 1, {sid: data.draw(_VALUES) for sid in X.cells(k - 1)})
    c = coboundary(X, b) if k else Cochain(0, {})
    status, w = is_coboundary(X, c)
    assert status == "witness" and cobounds(w, c)
    c = Cochain(k, {sid: Scalar.from_rational(data.draw(st.integers(-2, 2))) for sid in X.cells(k)})
    status, out = is_coboundary(X, c)
    assert (status == "witness") == is_coboundary_oracle(X, c)
    if status == "witness":
        assert cobounds(out, c)
    else:
        assert status == "cycle" and out.dim == k
        assert boundary_chain(X, out).is_zero()
        assert not pairing(c, out).is_zero()


def _random_cochain(X, k, rng):
    return Cochain(
        k, {sid: Scalar.from_rational(rng.randrange(-6, 7), rng.randrange(1, 5)) for sid in X.cells(k)}
    )


def test_coboundary_of_constant_vanishes():
    X = boundary_sphere(2)
    c = Cochain(0, {sid: Scalar.one() for sid in X.cells(0)})
    assert coboundary(X, c).is_zero()


def test_coboundary_squared_and_adjointness():
    X = boundary_sphere(2)
    rng = random.Random(0)
    for _ in range(100):
        k = rng.randrange(0, 2)
        c = _random_cochain(X, k, rng)
        assert coboundary(X, coboundary(X, c)).is_zero()
        z = Chain(
            k + 1, {sid: Fraction(rng.randrange(-3, 4)) for sid in X.cells(k + 1)}
        )
        assert pairing(coboundary(X, c), z) == pairing(c, boundary_chain(X, z))


def test_is_coboundary_constructed_solvable():
    X = boundary_sphere(2)
    rng = random.Random(1)
    for _ in range(10):
        b0 = _random_cochain(X, 1, rng)
        c = coboundary(X, b0)
        status, w = is_coboundary(X, c)
        assert status == "witness"
        assert (coboundary(X, w) - c).is_zero()


@pytest.mark.parametrize("kind", [Chain, Cochain])
def test_sum_rejects_another_dimension(kind):
    with pytest.raises(ValueError):
        kind(1, {SimplexId(1, 0): 1}) + kind(2, {SimplexId(2, 0): 1})


def test_is_coboundary_certificate():
    X = boundary_sphere(2)
    # dual of one 2-cell pairs to 1 with the fundamental cycle of S^2
    c = Cochain(2, {SimplexId(2, 0): Scalar.one()})
    status, z = is_coboundary(X, c)
    assert status == "cycle"
    assert boundary_chain(X, z).is_zero()
    assert not pairing(c, z).is_zero()


def test_is_coboundary_zero():
    X = boundary_sphere(2)
    status, w = is_coboundary(X, Cochain(1, {}))
    assert status == "witness" and w.is_zero()


def test_is_coboundary_dim0():
    X = standard_simplex(1)
    c = Cochain(0, {SimplexId(0, 0): Scalar.one()})
    status, z = is_coboundary(X, c)
    assert status == "cycle"
    assert not pairing(c, z).is_zero()


def test_is_coboundary_without_lower_cells():
    # the sphere as one 2-cell on one vertex, its faces all degenerate:
    # d_2 has no rows, and the dual of the 2-cell pairs to 1 with it
    v, top = SimplexId(0, 0), SimplexId(2, 0)
    X = SimplicialSet([1, 0, 1], {(top, i): (v, (0,)) for i in range(3)})
    assert X.validate() == []
    assert betti_numbers(X, 2) == betti_oracle(X, 2) == [1, 0, 1]
    c = Cochain(2, {top: Scalar.one()})
    status, z = is_coboundary(X, c)
    assert status == "cycle" and z == Chain(2, {top: 1})
    assert boundary_chain(X, z).is_zero() and pairing(c, z) == Scalar.one()


def _cylinder(X):
    prod, i0, i1 = cylinder(X)
    return prod.space, i0, i1


def test_product_with_point():
    P, i0, i1 = _cylinder(standard_simplex(0))
    assert P.counts == [2, 1]
    assert simplicial_map_violations(i0) == simplicial_map_violations(i1) == []
    assert i0.assignment[SimplexId(0, 0)] != i1.assignment[SimplexId(0, 0)]


def test_product_with_edge_is_square():
    P, _, _ = _cylinder(standard_simplex(1))
    assert P.counts == [4, 5, 2]
    assert P.validate() == []


def test_product_betti_invariance():
    X = two_disk_sphere()
    P, _, _ = _cylinder(X)
    assert P.validate() == []
    assert betti_numbers(P, 3) == betti_oracle(P, 3)
    assert betti_numbers(P, 2) == betti_numbers(X, 2)


def test_prism_cell_count():
    X = boundary_sphere(2)
    P, _, _ = _cylinder(X)
    # each nondegenerate n-cell contributes n+1 nondegenerate (n+1)-cells
    assert P.counts[3] == 3 * X.counts[2]


@pytest.mark.parametrize(
    "X", [standard_simplex(0), standard_simplex(3), boundary_sphere(2), boundary_sphere(3), two_disk_sphere(),
          horn(3, 0).space],
)
def test_cylinder_counts(X):
    # in dimension m: m+2 cells over each m-cell, one per monotone map
    # [m] -> [1], and m prism cells over each (m-1)-cell
    c = X.counts + [0]
    assert _cylinder(X)[0].counts == [(m + 2) * c[m] + m * c[m - 1] for m in range(len(c))]


def _point_sphere(n):
    """Delta^n / its boundary: one vertex and one n-cell, each face of
    which is the vertex, degenerated n - 1 times."""
    top, vertex = SimplexId(n, 0), SimplexId(0, 0)
    return SimplicialSet([1] + [0] * (n - 1) + [1], {(top, i): (vertex, tuple(range(n - 2, -1, -1))) for i in range(n + 1)})


def test_point_circle_boundary_cancels():
    S1 = _point_sphere(1)
    assert S1.validate() == []
    assert boundary_operator(S1, 1) == [{}]
    assert betti_numbers(S1, 1) == [1, 1]


@pytest.mark.parametrize(
    "n, counts, betti", [(1, [1, 3, 2], [1, 2, 1]), (2, [1, 0, 3, 6, 6], [1, 0, 2, 0, 1])], ids=["torus", "s2xs2"]
)
def test_point_sphere_squared(n, counts, betti):
    """Faces of product cells with a common degeneracy in both factors."""
    S = _point_sphere(n)
    P = product(S, S).space
    assert P.validate() == []
    assert P.counts == counts
    assert betti_numbers(P, P.dim) == betti_oracle(P, P.dim) == betti


def test_sphere_squared():
    S2 = two_disk_sphere()
    P = product(S2, S2).space
    assert P.counts == [9, 27, 58, 60, 24]
    assert P.validate() == []
    assert betti_numbers(P, 4) == [1, 0, 2, 0, 1]


PRODUCT_FACTORS = [standard_simplex(0), standard_simplex(1), standard_simplex(2), boundary_sphere(1),
                   boundary_sphere(2), two_disk_sphere(), horn(2, 1).space, _point_sphere(1), _point_sphere(2)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PRODUCT_FACTORS), st.sampled_from(PRODUCT_FACTORS))
def test_product_against_counts_and_kunneth(X, Y):
    prod = product(X, Y)
    P = prod.space
    assert P.validate() == []
    # an m-cell is a p-cell a and a q-cell b with degeneracy sets I and J,
    # |I| = m - p and |J| = m - q, disjoint in {0, .., m-1}
    cx, cy = X.counts, Y.counts
    assert P.counts == [
        sum(cx[p] * cy[q] * comb(m, p) * comb(p, m - q) for p in range(len(cx)) for q in range(min(len(cy), m + 1)))
        for m in range(X.dim + Y.dim + 1)
    ]
    # the oracle's dense sympy elimination is cubic in the cell count, so
    # the two larger products, boundary_sphere(2) times itself (240
    # 4-cells) and times two_disk_sphere() (120), are not compared with it
    if max(P.counts) <= 100:
        bx, by = betti_numbers(X, X.dim), betti_numbers(Y, Y.dim)
        kunneth = [sum(bx[p] * by[m - p] for p in range(len(bx)) if 0 <= m - p < len(by)) for m in range(P.dim + 1)]
        assert betti_numbers(P, P.dim) == betti_oracle(P, P.dim) == kunneth
    assert simplicial_map_violations(prod.pr_x) == simplicial_map_violations(prod.pr_y) == []
    assert prod.pair(prod.pr_x, prod.pr_y).assignment == SimplicialMap.identity(P).assignment
    v = SimplexId(0, 0)
    maps = [(prod.pr_x, prod.pr_y), (SimplicialMap.identity(X), SimplicialMap.constant(X, Y, v)),
            (SimplicialMap.constant(Y, X, v), SimplicialMap.identity(Y)),
            (SimplicialMap.constant(X, X, v), SimplicialMap.constant(X, Y, v))]
    if X == Y:
        maps.append((SimplicialMap.identity(X), SimplicialMap.identity(X)))
    for f, g in maps:
        h = prod.pair(f, g)
        assert simplicial_map_violations(h) == []
        assert prod.pr_x.compose(h).assignment == f.assignment
        assert prod.pr_y.compose(h).assignment == g.assignment


def test_chain_map_commutes(inclusion_of_north, fold_map, collapse_map, swap_map):
    for f in [inclusion_of_north, fold_map, collapse_map, swap_map]:
        assert simplicial_map_violations(f) == []


def test_map_checker_catches_broken_maps():
    d1, d2 = standard_simplex(1), standard_simplex(2)
    V = SimplexId
    # the edge 01 goes to the edge 02, but its vertex 0 goes to vertex 1
    swapped = SimplicialMap(d1, d2, {V(0, 0): (V(0, 1), ()), V(0, 1): (V(0, 2), ()), V(1, 0): (V(1, 1), ())})
    assert simplicial_map_violations(swapped) != []
    assert all("does not commute" in v for v in simplicial_map_violations(swapped))
    missing = SimplicialMap(d1, d2, {V(0, 0): (V(0, 0), ()), V(0, 1): (V(0, 1), ())})
    assert simplicial_map_violations(missing) == [f"no assignment for {V(1, 0)}"]
    flat = SimplicialMap(d1, d2, {V(0, 0): (V(0, 0), ()), V(0, 1): (V(0, 1), ()), V(1, 0): (V(0, 0), ())})
    assert simplicial_map_violations(flat) == [f"assignment for {V(1, 0)} has wrong dimension"]


def test_homotopic_maps_cohomology(tds):
    P, i0, i1 = _cylinder(tds)
    rng = random.Random(3)
    for _ in range(5):
        alpha = _random_cochain(P, 1, rng)
        closed = coboundary(P, alpha)  # exact, hence closed
        diff = pullback_cochain(i0, closed) - pullback_cochain(i1, closed)
        status, w = is_coboundary(tds, diff)
        assert status == "witness"
        assert (coboundary(tds, w) - diff).is_zero()


@pytest.mark.parametrize(
    "X",
    [standard_simplex(3), boundary_sphere(2), two_disk_sphere(), horn(3, 1).space, product(two_disk_sphere(),
     standard_simplex(1)).space, cylinder(boundary_sphere(1))[0].space],
    ids=["standard", "boundary-sphere", "two-disk", "horn", "product", "cylinder"],
)
def test_faces_walk_by_dimension_index_and_i(X):
    from chernweil.simplicial import SimplicialSet

    walk = [(sid, i) for d in range(1, X.dim + 1) for sid in X.cells(d) for i in range(d + 1)]
    assert list(X.faces) == walk
    assert list(SimplicialSet(X.counts, dict(reversed(X.faces.items()))).faces) == walk


@dataclass(frozen=True, order=True)
class _DataclassSimplexId:
    """SimplexId as it was before it became a named tuple."""

    dim: int
    index: int

    def __repr__(self):
        return f"{self.dim}.{self.index}"


CONTRACT_SPACES = (
    [standard_simplex(n) for n in range(5)]
    + [boundary_sphere(n) for n in (1, 2, 3)]
    + [two_disk_sphere(), horn(2, 0).space, horn(3, 1).space, horn(4, 4).space]
    + [product(standard_simplex(1), two_disk_sphere()).space, cylinder(boundary_sphere(1))[0].space]
)


@pytest.mark.parametrize("X", CONTRACT_SPACES)
def test_simplex_ids_and_cells_keep_the_dataclass_contract(X):
    # SimplexId is a named tuple: it equals its (dim, index) pair and
    # hashes, prints and sorts as the frozen dataclass did, so dict and
    # set orders and every report are unchanged.  Its field `index`
    # shadows the method tuple.index.
    old_cells = [SimplexId(d, i) for d in range(X.dim + 1) for i in range(X.counts[d])]
    assert list(X.all_cells()) == old_cells
    assert X.all_cells() is X.all_cells()
    for d in range(-1, X.dim + 2):
        assert X.cells(d) is X.cells(d)
        assert list(X.cells(d)) == [c for c in old_cells if c.dim == d]
    shuffled = old_cells[::-1]
    random.Random(len(old_cells)).shuffle(shuffled)
    old = {sid: _DataclassSimplexId(sid.dim, sid.index) for sid in old_cells}
    assert [old[sid] for sid in sorted(shuffled)] == sorted(old[sid] for sid in shuffled)
    for sid in old_cells:
        assert sid == (sid.dim, sid.index) and sid.index == old[sid].index
        assert hash(sid) == hash(old[sid]) == hash((sid.dim, sid.index))
        assert repr(sid) == str(sid) == f"{sid}" == repr(old[sid])
    assert list(X.faces) == sorted(X.faces, key=lambda k: (old[k[0]], k[1]))


def test_cells_are_listed_on_first_use():
    # a space may declare more cells than could ever be listed
    start = time.perf_counter()
    X = SimplicialSet([10**11], {})
    assert time.perf_counter() - start < 0.5
    assert X.counts == [10**11] and X.cells(1) == ()


def test_validator_catches_broken_identity():
    X = two_disk_sphere()
    faces = dict(X.faces)
    faces[(SimplexId(2, 1), 0)] = (SimplexId(1, 0), ())  # wrong face
    from chernweil.simplicial import SimplicialSet

    bad = SimplicialSet(X.counts, faces)
    assert bad.validate() != []


@pytest.mark.parametrize(
    "key, problem",
    [((SimplexId(2, 5), 0), "of undeclared cell 2.5"), ((SimplexId(1, 0), 2), "out of range for a 1-cell")],
    ids=["undeclared-cell", "face-index-past-dimension"],
)
def test_validator_catches_faces_outside_the_cells(key, problem):
    from chernweil.simplicial import SimplicialSet

    X = standard_simplex(1)
    bad = SimplicialSet(X.counts, {**X.faces, key: (SimplexId(0, 0), ())})
    assert bad.validate() == [f"face ({key[0]}, {key[1]}) {problem}"]

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.bundles import (
    BundleError,
    Cayley,
    LieValuedForm,
    TransitionMap,
    apply_gauge,
    clutch_bundle,
    clutch_winding,
    concordance,
    construct_connection,
    gauge_prescription,
    horn_fill_bundle,
    pullback_bundle,
    random_connection,
    random_u1_bundle,
    transition_of_morphism,
    transitions_equal,
    trivial_bundle,
    validate_bundle,
    validate_connection,
)
from chernweil.forms import AffineMap, PolyForm, random_poly
from chernweil.liealg import lie_algebra
from chernweil.poly import Poly
from chernweil.scalars import Scalar
from chernweil.simplicial import (
    SimplexId,
    SimplicialMap,
    boundary_sphere,
    horn,
    product,
    standard_simplex,
    two_disk_sphere,
)
from oracles import (
    horn_restriction_reference,
    pullback_bundle_reference,
    simplicial_map_violations,
    transitions_equal_reference,
    u1_transition_value,
    validate_bundle_reference,
    winding_of_samples,
)

V = SimplexId


def test_trivial_bundle_validates():
    for name in ["u1", "su2"]:
        P = trivial_bundle(boundary_sphere(2), lie_algebra(name))
        rep = validate_bundle(P)
        assert rep.ok


def test_clutch_validates_and_connection_compatible():
    for n in [-2, 0, 1, 3]:
        P, D = clutch_bundle(n)
        assert validate_bundle(P).ok
        rep = validate_connection(P, D)
        assert rep.ok


def test_perturbed_transition_located():
    rng = random.Random(0)
    P = random_u1_bundle(two_disk_sphere(), rng)
    assert validate_bundle(P).ok
    bad = P.copy()
    key = (V(2, 0), 1)
    tw = LieValuedForm.from_polys(P.algebra, [Poly(1, {(1,): Scalar.from_rational(1, 3)})])
    bad.transitions[key] = TransitionMap.single(tw).compose(bad.transitions[key])
    rep = validate_bundle(bad)
    assert not rep.ok
    assert any("N" in f for f in rep.failures)


def test_winding_oracle_range():
    for n in range(-5, 6):
        P, _ = clutch_bundle(n)
        assert clutch_winding(P) == Scalar.from_rational(n)


def test_winding_against_sampled_loop():
    # sample the S/N comparison map around the equator and count the
    # winding numerically, independent of the log bookkeeping
    n = 3
    P, _ = clutch_bundle(n)
    N, S = V(2, 0), V(2, 1)
    samples = []
    ts = np.linspace(0.0, 1.0, 400, endpoint=False)
    # the equator loop traverses face 2 (e01), face 0 (e12), then face 1
    # (e02) reversed; orientation signs follow the boundary of N
    for i, reverse in [(2, False), (0, False), (1, True)]:
        gN = [u1_transition_value(P.transitions[(N, i)], [t]) for t in ts]
        gS = [u1_transition_value(P.transitions[(S, i)], [t]) for t in ts]
        vals = [s / nn for s, nn in zip(gS, gN)]
        samples.extend(reversed(vals) if reverse else vals)
    w = winding_of_samples(samples)
    assert abs(w - n) < 1e-6


def test_clutch_zero_trivializable():
    P, D = clutch_bundle(0)
    assert all(t.is_identity() for t in P.transitions.values())
    assert clutch_winding(P) == Scalar.zero()


def test_pullback_identity(tds):
    P = random_u1_bundle(tds, random.Random(1))
    assert pullback_bundle(SimplicialMap.identity(tds), P).data_equal(P)


def test_pullback_of_trivial_is_trivial(inclusion_of_north, tds):
    u1 = lie_algebra("u1")
    P = trivial_bundle(tds, u1)
    assert pullback_bundle(inclusion_of_north, P).data_equal(
        trivial_bundle(standard_simplex(2), u1)
    )


def test_pullback_composition_data_equality(inclusion_of_north):
    # maps Delta^1 -> Delta^2 -> two_disk_sphere (a random pair of maps
    # between the triangle and the sphere's cells)
    tds = inclusion_of_north.target
    d1, d2 = standard_simplex(1), standard_simplex(2)
    P = random_u1_bundle(tds, random.Random(2))
    for f_assign in [
        {V(0, 0): (V(0, 1), ()), V(0, 1): (V(0, 2), ()), V(1, 0): (V(1, 2), ())},
        {V(0, 0): (V(0, 0), ()), V(0, 1): (V(0, 1), ()), V(1, 0): (V(1, 0), ())},
        {V(0, 0): (V(0, 0), ()), V(0, 1): (V(0, 0), ()), V(1, 0): (V(0, 0), (0,))},
    ]:
        f = SimplicialMap(d1, d2, f_assign)
        assert simplicial_map_violations(f) == []
        lhs = pullback_bundle(inclusion_of_north.compose(f), P)
        rhs = pullback_bundle(f, pullback_bundle(inclusion_of_north, P))
        assert lhs.data_equal(rhs)


def test_lie_valued_poly_pullback_memoised(monkeypatch):
    """A g-valued 0-form's pullback goes through the map's memo and
    equals substitution in each coordinate polynomial."""
    from chernweil import forms

    rng = random.Random(8)
    su2 = lie_algebra("su2")
    built = []
    pull = forms._pull_monomial
    monkeypatch.setattr(forms, "_pull_monomial", lambda *args: built.append(args) or pull(*args))
    for m, d in [((0, 2), 2), ((0, 1, 1), 2), ((1, 2, 3), 3), ((0, 0, 2, 3), 3), ((2,), 2)]:
        amap = AffineMap.from_monotone.__wrapped__(m, d)  # a fresh map with an empty memo
        X = LieValuedForm.from_polys(su2, [random_poly(rng, d, 3) for _ in range(su2.dim)])
        coords = amap.coords()
        expected = [f.component(()).compose(coords, source_dim=amap.source_dim) for f in X.coords]
        assert [f.component(()) for f in X.pullback(amap).coords] == expected
        assert built
        built.clear()
        assert [f.component(()) for f in X.pullback(amap).coords] == expected
        assert not built


def test_pullback_through_degeneracy(collapse_map):
    d1 = standard_simplex(1)
    P = random_u1_bundle(d1, random.Random(3))
    pulled = pullback_bundle(collapse_map, P)
    assert validate_bundle(pulled).ok


def test_construct_connection_zero_for_trivial():
    X = boundary_sphere(2)
    P = trivial_bundle(X, lie_algebra("su2"))
    D = construct_connection(P)
    assert all(f.is_zero() for f in D.forms.values())
    assert validate_connection(P, D).ok


def test_construct_connection_clutch_exact():
    for n in [1, 2, -3]:
        P, _ = clutch_bundle(n)
        D = construct_connection(P)
        rep = validate_connection(P, D)
        assert rep.ok


def test_random_connections_valid():
    P, _ = clutch_bundle(1)
    for seed in range(5):
        D = random_connection(P, seed)
        rep = validate_connection(P, D)
        assert rep.ok
    Ps = trivial_bundle(boundary_sphere(2), lie_algebra("su2"))
    for seed in range(3):
        assert validate_connection(Ps, random_connection(Ps, seed)).ok


def test_random_connection_on_four_simplex():
    # the headline cell: a whole su2 connection on Delta^4, exactly valid
    P = trivial_bundle(standard_simplex(4), lie_algebra("su2"))
    D = random_connection(P, 0)
    rep = validate_connection(P, D)
    assert rep.ok


def test_lie_valued_form_sum_rejects_other_algebra_or_degree():
    u1, su2 = lie_algebra("u1"), lie_algebra("su2")
    with pytest.raises(ValueError):
        LieValuedForm.zero(u1, 2, 1) + LieValuedForm.zero(su2, 2, 1)
    with pytest.raises(ValueError):
        LieValuedForm.zero(su2, 2, 1) - LieValuedForm.zero(su2, 2, 2)


def test_gauge_prescription_inverts_rule():
    # delta_i^* A recovered from the face data reproduces the connection
    P, D = clutch_bundle(2)
    X = P.base
    for sid in X.cells(2):
        for i in range(3):
            want = gauge_prescription(P, D.forms, sid, i)
            actual = D.forms[sid].pullback(AffineMap.face(2, i))
            assert want == actual


def test_concordance_same_connection():
    P, D = clutch_bundle(1)
    conc = concordance(P, D, D)
    for s in P.base.all_cells():
        assert conc.restrict(conc.end0)[s] == D.forms[s]
        assert conc.restrict(conc.end1)[s] == D.forms[s]


def test_concordance_random_pair():
    P, D0 = clutch_bundle(1)
    D1 = random_connection(P, 11)
    assert any(D0.forms[s] != D1.forms[s] for s in P.base.all_cells())
    conc = concordance(P, D0, D1)
    assert all(conc.restrict(conc.end0)[s] == D0.forms[s] for s in P.base.all_cells())
    assert all(conc.restrict(conc.end1)[s] == D1.forms[s] for s in P.base.all_cells())
    rep = validate_connection(conc.bundle, conc.connection)
    assert rep.ok


def test_concordance_su2():
    Ps = trivial_bundle(boundary_sphere(2), lie_algebra("su2"))
    Da, Db = random_connection(Ps, 1), random_connection(Ps, 2)
    assert any(Da.forms[s] != Db.forms[s] for s in Ps.base.all_cells())
    conc = concordance(Ps, Da, Db)
    assert all(conc.restrict(conc.end0)[s] == Da.forms[s] for s in Ps.base.all_cells())
    assert all(conc.restrict(conc.end1)[s] == Db.forms[s] for s in Ps.base.all_cells())
    rep = validate_connection(conc.bundle, conc.connection)
    assert rep.ok


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 2)])
def test_horn_fill_random(n, k):
    H = horn(n, k)
    P = random_u1_bundle(H.space, random.Random(37 + 10 * n + k))
    assert validate_bundle(P).ok
    filled = horn_fill_bundle(H, P)
    assert validate_bundle(filled).ok
    back = pullback_bundle(H.inclusion, filled)
    assert back.transitions == P.transitions
    filled2 = horn_fill_bundle(H, back)
    back2 = pullback_bundle(H.inclusion, filled2)
    assert back2.transitions == back.transitions


@pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 4) for k in range(n + 1)])
def test_horn_restriction_is_the_vertex_relabelling(n, k):
    """Pulling a filler back along the horn's inclusion moves each
    transition onto the horn cell with the same vertex tuple."""
    H = horn(n, k)
    P = random_u1_bundle(H.space, random.Random(100 * n + k))
    filled = horn_fill_bundle(H, P)
    back = pullback_bundle(H.inclusion, filled)
    assert back.transitions == horn_restriction_reference(filled, H) == P.transitions


def test_horn_fill_trivial_gives_trivial():
    H = horn(2, 1)
    P = trivial_bundle(H.space, lie_algebra("u1"))
    filled = horn_fill_bundle(H, P)
    assert all(t.is_identity() for t in filled.transitions.values())


def test_horn_fill_rejects_nonabelian():
    H = horn(2, 1)
    P = trivial_bundle(H.space, lie_algebra("su2"))
    with pytest.raises(BundleError):
        horn_fill_bundle(H, P)


def _cayley_gauges(alg, X, rng, num=3, den=4):
    """A Cayley gauge on every cell of X: coordinates randrange(-num, num + 1) / den."""
    return {s: TransitionMap.cayley(alg, s.dim, [Fraction(rng.randrange(-num, num + 1), den) for _ in range(alg.dim)])
            for s in X.all_cells()}


def _ad_reference_apply(M, A):
    """The g-valued form with coordinates M A, M a list of rows of Fractions."""
    return LieValuedForm(A.algebra, A.dim, A.deg, [
        sum((f.scale(m) for m, f in zip(row, A.coords)), PolyForm.zero(A.dim, A.deg)) for row in M
    ])


def _ad_reference(t):
    """Ad of a transition of Cayley factors on coordinates, the product of
    the oracle's matrices."""
    from oracles import cayley_ad_reference

    n = t.algebra.dim
    M = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for f in t.factors:
        R = cayley_ad_reference(t.algebra, f.h)
        M = [[sum(M[r][k] * R[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    return M


@pytest.mark.parametrize("group", ["su2", "u2", "so3"])
def test_constant_gauge_keeps_connection_coefficients_real(group):
    """Ad of a Cayley gauge is a rational matrix in the real basis of the
    algebra, so the gauged connection's coefficients stay real, and each
    chart's form is the oracle's Ad_{g^-1} of the old one, exactly."""
    alg = lie_algebra(group)
    X = boundary_sphere(2)
    P0 = trivial_bundle(X, alg)
    D0 = random_connection(P0, 1)
    gauges = _cayley_gauges(alg, X, random.Random(1))
    P, D = apply_gauge(P0, gauges, D0)
    triples = [t for A in D.forms.values() for f in A.coords for p in f.comps.values()
               for c in p.terms.values() for t in c.terms.values()]
    assert triples and all(b == 0 for _, b, _ in triples)
    for s in X.all_cells():
        assert D.forms[s] == _ad_reference_apply(_ad_reference(gauges[s].inverse()), D0.forms[s])
    rep = validate_connection(P, D)
    assert rep.ok


def test_curvature_gauge_covariance():
    """F_face = Ad_{phi^{-1}}(delta_i^* F) on every face, exactly, for a
    Cayley-gauged su2 connection; Ad from the oracle's matrices.  The
    3-sphere's 2-cells, the faces of its 3-cells, carry nonzero F."""
    from chernweil.cw import curvature

    su2 = lie_algebra("su2")
    bs = boundary_sphere(3)
    P0 = trivial_bundle(bs, su2)
    D0 = random_connection(P0, 5)
    P, D = apply_gauge(P0, _cayley_gauges(su2, bs, random.Random(6), 3, 8), D0)
    F = curvature(D)
    count = 0
    for (sid, i), (tgt, word) in bs.faces.items():
        assert not word
        phi = P.transitions[(sid, i)]
        assert phi.factors and all(type(f) is Cayley for f in phi.factors)
        pulled = F[sid].pullback(AffineMap.face(sid.dim, i))
        assert F[tgt] == _ad_reference_apply(_ad_reference(phi.inverse()), pulled)
        count += not F[tgt].is_zero()
    assert count == 20


def test_nonabelian_exp_gauge_with_a_connection_raises():
    """A gauge on a nonabelian algebra is a product of Cayley factors: a
    constant exp gauge on su2 is refused where it is built, and on u1 a
    nonconstant gauge given with a connection raises."""
    X = boundary_sphere(2)
    su2 = lie_algebra("su2")
    with pytest.raises(BundleError, match="exp factors are for abelian groups; a constant su2 factor is cay"):
        TransitionMap.single(LieValuedForm.from_polys(su2, [Poly.const(1, Fraction(1, 8)), Poly.zero(1), Poly.zero(1)]))
    u1 = lie_algebra("u1")
    P = trivial_bundle(X, u1)
    D = random_connection(P, 0)
    gauges = {s: TransitionMap.single(LieValuedForm.from_polys(u1, [Poly.var(s.dim, 0) if s.dim else Poly.const(0, 1)]))
              for s in X.all_cells()}
    with pytest.raises(BundleError):
        apply_gauge(P, gauges, D)
    assert apply_gauge(P, gauges)[1] is None


_CAYLEY_COORD = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 1000))


@st.composite
def cayley_gauged(draw):
    """(P, D, gauges, P2, D2): a random connection D on the trivial bundle
    P over the 3-sphere, and its gauge change by a Cayley gauge of any
    size on every cell."""
    alg = lie_algebra(draw(st.sampled_from(["su2", "so3", "u2", "su3"])))
    X = boundary_sphere(3)
    P = trivial_bundle(X, alg)
    D = random_connection(P, draw(st.integers(0, 3)))
    gauges = {s: TransitionMap.cayley(alg, s.dim, draw(st.lists(_CAYLEY_COORD, min_size=alg.dim, max_size=alg.dim)))
              for s in X.all_cells()}
    return (P, D, gauges, *apply_gauge(P, gauges, D))


@settings(max_examples=12, deadline=None)
@given(cayley_gauged())
def test_cayley_gauges_against_the_oracle(case):
    """Cayley gauges keep every check exact: the gauged connection
    validates with ==, each transition's matrix and each chart's
    curvature follow the oracle's Cayley matrices and Ad, and the
    Chern-Weil cochain does not change."""
    from oracles import cayley_matrix_reference, _pair_matmul

    from chernweil.cw import curvature, cw_cochain
    from chernweil.liealg import sym_trace_poly

    P, D, gauges, P2, D2 = case
    alg, X = P.algebra, P.base
    rep = validate_connection(P2, D2)
    assert rep.ok and rep.failures == []
    rep = validate_bundle(P2)
    assert rep.ok
    for (sid, i), t in P2.transitions.items():
        one = [[(Fraction(int(r == c)), Fraction(0)) for c in range(alg.n)] for r in range(alg.n)]
        want = one
        for f in t.factors:
            want = _pair_matmul(want, cayley_matrix_reference(alg, f.h))
        got = [[(Fraction(a, d), Fraction(b, d)) for a, b, d in (v.terms.get(0, (0, 0, 1)) for v in row)]
               for row in t.matrix()]
        assert got == want
    F, F2 = curvature(D), curvature(D2)
    for s in X.cells(3):
        assert F2[s] == _ad_reference_apply(_ad_reference(gauges[s].inverse()), F[s])
    rho = sym_trace_poly(alg, 1)
    assert cw_cochain(rho, D2) == cw_cochain(rho, D)


@pytest.mark.parametrize("group", ["su2", "so3", "u2", "su3"])
def test_cayley_gauged_connections_on_the_four_simplex_are_exact(group):
    """Gauged and rebuilt by construct_connection, whose facet
    prescriptions now agree exactly, connections over Delta^4 validate
    with ==; on su2 the second Chern-Weil cochain does not change."""
    from chernweil.cw import cw_cochain
    from chernweil.liealg import invariant_polynomial_from_selector

    alg = lie_algebra(group)
    X = standard_simplex(4)
    P = trivial_bundle(X, alg)
    D = random_connection(P, 0)
    P2, D2 = apply_gauge(P, _cayley_gauges(alg, X, random.Random(0), 50, 7), D)
    for conn in (D2, construct_connection(P2, rng=random.Random(1))):
        rep = validate_connection(P2, conn)
        assert rep.ok
    if group == "su2":
        rho = invariant_polynomial_from_selector(alg, "symtrace:2")
        assert cw_cochain(rho, D2) == cw_cochain(rho, D)


def test_cayley_factor_refuses_abelian_or_malformed_coordinates():
    with pytest.raises(BundleError):
        TransitionMap.cayley(lie_algebra("u1"), 1, [Fraction(1, 2)])
    su2 = lie_algebra("su2")
    for h in ([1, 2], [0.5, 0, 0], [Scalar.one(), 0, 0]):
        with pytest.raises(BundleError):
            TransitionMap.cayley(su2, 1, h)
    c = TransitionMap.cayley(su2, 1, [Fraction(1, 3), -2, 0])
    assert c.inverse().inverse() == c and c.pullback(AffineMap.face(1, 0)).factors == c.factors
    assert TransitionMap.cayley(su2, 1, [0, 0, 0]).is_identity()


def test_transition_of_morphism_identity():
    P, _ = clutch_bundle(1)
    t = transition_of_morphism(P, (0, 1, 2), V(2, 0))
    assert t.is_identity()


def test_transitions_evaluate_into_group():
    rng = random.Random(50)
    P = random_u1_bundle(two_disk_sphere(), rng)
    npr = np.random.default_rng(51)
    for (sid, i), t in P.transitions.items():
        for _ in range(5):
            w = npr.dirichlet(np.ones(t.dim + 1)) if t.dim else [1.0]
            pt = list(w[1:]) if t.dim else []
            g = u1_transition_value(t, pt)
            assert abs(abs(g) - 1.0) < 1e-10


def test_pullback_base_mismatch_rejected(inclusion_of_north):
    P = trivial_bundle(standard_simplex(3), lie_algebra("u1"))
    with pytest.raises(BundleError):
        pullback_bundle(inclusion_of_north, P)


def test_construct_connection_propagates_simplex_on_bad_data():
    from chernweil.forms import FaceConsistencyError

    # inconsistent facet prescriptions need a 3-cell: twist one face of
    # the tetrahedron so the 1-form prescriptions disagree on an edge
    X = standard_simplex(3)
    bad = trivial_bundle(X, lie_algebra("u1"))
    top = V(3, 0)
    tw = LieValuedForm.from_polys(bad.algebra, [Poly(2, {(2, 0): Scalar.tau()})])
    bad.transitions[(top, 0)] = TransitionMap.single(tw)
    with pytest.raises(FaceConsistencyError) as e:
        construct_connection(bad)
    assert "0123" in str(e.value)  # the offending simplex is named


def test_transitions_equal_mod_tau():
    u1 = lie_algebra("u1")
    p = LieValuedForm.from_polys(u1, [Poly(1, {(1,): Scalar.from_rational(1, 2)})])
    q = LieValuedForm.from_polys(u1, [Poly(1, {(1,): Scalar.from_rational(1, 2)}) + Poly.const(1, Scalar.tau())])
    assert transitions_equal(TransitionMap.single(p), TransitionMap.single(q))
    r = LieValuedForm.from_polys(u1, [Poly(1, {(1,): Scalar.from_rational(1, 2)}) + Poly.const(1, Scalar.tau() * Fraction(1, 2))])
    assert not transitions_equal(TransitionMap.single(p), TransitionMap.single(r))


def test_transitions_equal_refuses_other_algebra_or_dimension():
    """Identity maps have equal (empty) factor lists; the algebra and
    the dimension still have to agree."""
    u1, su2 = lie_algebra("u1"), lie_algebra("su2")
    assert transitions_equal(TransitionMap.identity(u1, 1), TransitionMap.identity(u1, 1))
    assert not transitions_equal(TransitionMap.identity(u1, 1), TransitionMap.identity(su2, 1))
    assert not transitions_equal(TransitionMap.identity(u1, 1), TransitionMap.identity(u1, 2))


_SMALL_FRACTIONS = st.sampled_from([Fraction(n, d) for n in (-2, -1, 1, 2, 3) for d in (1, 2, 3)])


@st.composite
def _zero_form(draw, alg, dim):
    """A g-valued 0-form on Delta^dim: each coordinate an affine
    polynomial with up to two small rational coefficients."""
    exps = [(0,) * dim] + [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    polys = []
    for _ in range(alg.dim):
        chosen = draw(st.lists(st.sampled_from(exps), max_size=2, unique=True))
        polys.append(Poly(dim, {e: Scalar.from_rational(draw(_SMALL_FRACTIONS)) for e in chosen}))
    return LieValuedForm.from_polys(alg, polys)


@st.composite
def _transition_pairs(draw):
    """(t1, t2, kind): t2 is t1's factor list copied, shifted by a
    constant in (tau/2)Z (u1 only), perturbed in one coefficient, or
    reordered (nonabelian only).  On a nonabelian algebra each factor is
    a Cayley factor."""
    name = draw(st.sampled_from(["u1", "su2", "u2", "so3"]))
    alg = lie_algebra(name)
    dim = draw(st.integers(1, 2))
    if alg.is_abelian:
        factor = _zero_form(alg, dim)
    else:
        factor = st.builds(Cayley, st.just(alg), st.lists(_SMALL_FRACTIONS, min_size=alg.dim, max_size=alg.dim))
    factors = draw(st.lists(factor, min_size=1, max_size=3))
    kinds = ["identical", "perturbed"] + (["tau-shift"] if alg.is_abelian else ["reordered"])
    kind = draw(st.sampled_from(kinds))
    others = list(factors)
    if kind == "tau-shift":
        # exp of the u1 coordinate m*tau is the identity exactly when m is an integer
        m = draw(st.sampled_from([Fraction(n, 2) for n in (-4, -3, -2, -1, 1, 2, 3, 4)]))
        others.append(LieValuedForm.from_polys(alg, [Poly.const(dim, Scalar.tau() * m)]))
    elif kind == "perturbed":
        f = draw(st.integers(0, len(others) - 1))
        a = draw(st.integers(0, alg.dim - 1))
        if type(others[f]) is Cayley:
            h = list(others[f].h)
            h[a] += draw(_SMALL_FRACTIONS)
            others[f] = Cayley(alg, h)
            return TransitionMap(alg, dim, factors), TransitionMap(alg, dim, others), kind
        e = draw(st.sampled_from([(0,) * dim, (1,) + (0,) * (dim - 1)]))
        bump = Poly(dim, {e: Scalar.from_rational(draw(_SMALL_FRACTIONS))})
        polys = [c.component(()) for c in others[f].coords]
        polys[a] = polys[a] + bump
        others[f] = LieValuedForm.from_polys(alg, polys)
    elif kind == "reordered":
        others = draw(st.permutations(others))
    return TransitionMap(alg, dim, factors), TransitionMap(alg, dim, others), kind


@settings(max_examples=150, deadline=None)
@given(_transition_pairs())
def test_transitions_equal_matches_reference(pair):
    """transitions_equal agrees with the comparison that takes no
    shortcut on identical factor lists: exact logs mod i*tau*Z on u1,
    the oracle's exact Cayley matrices otherwise."""
    t1, t2, kind = pair
    got = transitions_equal(t1, t2)
    assert got == transitions_equal_reference(t1, t2)
    assert got == transitions_equal(t2, t1)
    if kind == "identical":
        assert got


def test_identical_nonabelian_transitions_compare_without_sampling(monkeypatch):
    """Equal factor lists are equal before any matrix is built; a
    reordered pair of noncommuting Cayley factors builds each factor's
    matrices once and compares them."""
    import chernweil.bundles as bn

    su2 = lie_algebra("su2")
    calls = []
    real = bn._cayley_pair
    monkeypatch.setattr(bn, "_cayley_pair", lambda *a: calls.append(a) or real(*a))
    p, q = Cayley(su2, [1, 0, 0]), Cayley(su2, [0, Fraction(1, 2), 0])
    t = TransitionMap(su2, 1, [p, q])
    assert transitions_equal(t, TransitionMap(su2, 1, [p, q]))
    assert transitions_equal(TransitionMap.identity(su2, 1), TransitionMap.identity(su2, 1))
    assert not calls
    assert not transitions_equal(t, TransitionMap(su2, 1, [q, p]))
    assert len(calls) == 2


@pytest.mark.parametrize("X", [boundary_sphere(2), two_disk_sphere()], ids=["boundary_sphere2", "two_disk"])
def test_constant_u1_gauge_keeps_connection_exactly(X):
    """Ad is the identity on u1, so a constant gauge leaves the connection
    forms unchanged; a float Ad matrix scaled some of them by 1 - 2^-53."""
    u1 = lie_algebra("u1")
    P = trivial_bundle(X, u1)
    D = random_connection(P, 0)
    for n in (-7, -5, -2, -1, 1, 2, 5, 7):
        h = Scalar.from_rational(n, 8)
        gauges = {s: TransitionMap.single(LieValuedForm.from_polys(u1, [Poly.const(s.dim, h)])) for s in X.all_cells()}
        P2, D2 = apply_gauge(P, gauges, D)
        assert D2.forms == D.forms
        report = validate_connection(P2, D2)
        assert report.ok


def _assert_validates_as_reference(P):
    rep = validate_bundle(P)
    assert (rep.ok, rep.failures) == validate_bundle_reference(P)
    return rep


@pytest.mark.parametrize(
    "X",
    [boundary_sphere(3), horn(3, 0).space, horn(3, 2).space, horn(4, 1).space, horn(4, 4).space],
    ids=["boundary_sphere3", "horn3_0", "horn3_2", "horn4_1", "horn4_4"],
)
def test_validate_bundle_route_memo_matches_reference(X):
    """validate_bundle routes through one memo per call; the reports
    equal those of routes recomputed for each face pair, on valid u1
    bundles and on each with one transition twisted."""
    rng = random.Random(X.dim * 100 + len(X.cells(X.dim)))
    u1 = lie_algebra("u1")
    for _ in range(2):
        P = random_u1_bundle(X, rng)
        assert _assert_validates_as_reference(P).ok
        bad = P.copy()
        sid = rng.choice(X.cells(X.dim))
        key = (sid, rng.randrange(X.dim + 1))
        tw = LieValuedForm.from_polys(u1, [Poly(X.dim - 1, {(1,) + (0,) * (X.dim - 2): Scalar.from_rational(1, 3)})])
        bad.transitions[key] = TransitionMap.single(tw).compose(bad.transitions[key])
        assert not _assert_validates_as_reference(bad).ok


def test_validate_bundle_route_memo_failing_clutch_and_su2():
    P, _ = clutch_bundle(2)
    bad = P.copy()
    key = (V(2, 1), 2)
    tw = LieValuedForm.from_polys(P.algebra, [Poly(1, {(1,): Scalar.from_rational(1, 3)})])
    bad.transitions[key] = TransitionMap.single(tw)
    rep = _assert_validates_as_reference(bad)
    assert not rep.ok and rep.failures
    rng = random.Random(11)
    su2 = lie_algebra("su2")
    X = boundary_sphere(2)
    sid = X.cells(2)[0]
    # a Cayley-gauged su2 bundle is validated exactly; a Cayley twist breaks it
    P3, _ = apply_gauge(trivial_bundle(X, su2), _cayley_gauges(su2, X, rng))
    rep = _assert_validates_as_reference(P3)
    assert rep.ok
    bad3 = P3.copy()
    bad3.transitions[(sid, 0)] = TransitionMap.cayley(su2, 1, [Fraction(1, 3), 0, 0]).compose(bad3.transitions[(sid, 0)])
    rep = _assert_validates_as_reference(bad3)
    assert not rep.ok


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_validate_bundle_stops_on_a_missing_or_misshapen_transition(group):
    """Either defect is reported before any cocycle is routed, and
    both are listed, in face order."""
    alg = lie_algebra(group)
    P = trivial_bundle(standard_simplex(2), alg)
    top = V(2, 0)
    del P.transitions[(top, 0)]
    P.transitions[(top, 2)] = TransitionMap.identity(alg, 2)
    rep = validate_bundle(P)
    assert not rep.ok
    assert rep.failures == [f"missing transition ({top}, 0)", f"transition ({top}, 2) has wrong domain"]


def test_pullback_bundle_route_memo_matches_reference(inclusion_of_north, fold_map, swap_map, collapse_map):
    tds = two_disk_sphere()
    cyl = product(tds, standard_simplex(1))
    cases = [
        (inclusion_of_north, random_u1_bundle(tds, random.Random(4))),
        (swap_map, random_u1_bundle(tds, random.Random(5))),
        (fold_map, random_u1_bundle(standard_simplex(2), random.Random(6))),
        (collapse_map, random_u1_bundle(standard_simplex(1), random.Random(7))),
        (cyl.pr_x, clutch_bundle(3)[0]),
        (cyl.pr_y, random_u1_bundle(standard_simplex(1), random.Random(8))),
    ]
    for f, P in cases:
        assert pullback_bundle(f, P).transitions == pullback_bundle_reference(f, P)

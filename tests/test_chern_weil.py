import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.bundles import (
    Connection,
    LieValuedForm,
    TransitionMap,
    apply_gauge,
    clutch_bundle,
    pullback_bundle,
    random_connection,
    random_u1_bundle,
    trivial_bundle,
    validate_connection,
)
from chernweil.cw import (
    ClassReport,
    calibrate_cw_constant,
    class_report,
    classical_agreement_check,
    connection_independence,
    curvature,
    curvature_form,
    cw_cochain,
    cw_form,
    cw_form_permutation,
    iterated_integrate,
    naturality_check,
    pullback_connection,
)
from chernweil.forms import (
    PolyForm,
    _monomials_up_to,
    check_simplicial_form,
    induced_form_on_standard_simplex,
    integrate_to_cochain,
    random_polyform,
)
from chernweil.liealg import (
    LieData,
    chern_polynomial,
    invariant_polynomial_from_selector,
    lie_algebra,
    mat_mul,
    mat_trace,
    sym_trace_poly,
)
from chernweil.poly import Poly
from chernweil.scalars import Scalar
from chernweil.simplicial import (
    Cochain,
    SimplexId,
    SimplicialMap,
    boundary_sphere,
    coboundary,
    cylinder,
    fundamental_cycle_two_disk,
    is_coboundary,
    pairing,
    product,
    standard_simplex,
    two_disk_sphere,
)
from chernweil.verify import generic_curvature
from oracles import bianchi_defect, boundary_chain, bracket_wedge, element_matrix, polynomial_from_evaluator

u1 = lie_algebra("u1")
su2 = lie_algebra("su2")


def _rand_lie_form(rng, alg, dim, pdeg=1):
    return LieValuedForm(alg, dim, 1, [random_polyform(rng, dim, 1, pdeg) for _ in range(alg.dim)])


def test_zero_connection_zero_curvature():
    A = LieValuedForm.zero(su2, 2, 1)
    assert curvature_form(A).is_zero()


def test_u1_curvature_is_dA():
    # A with matrix value i*tau*x1 dx2 has curvature i*tau dx1^dx2
    A = LieValuedForm(u1, 2, 1, [PolyForm(2, 1, {(1,): Poly.var(2, 0).scale(Scalar.tau())})])
    F = curvature_form(A)
    assert F.coords == [PolyForm(2, 2, {(0, 1): Poly.const(2, Scalar.tau())})]
    assert element_matrix(u1, [Scalar.tau()]) == [[Scalar.of(0, 1, 1)]]


def test_bianchi_exact_on_random_su2():
    rng = random.Random(0)
    for _ in range(50):
        A = _rand_lie_form(rng, su2, 2, 2)
        F = curvature_form(A)
        assert (F.d() + bracket_wedge(A, F)).is_zero()


def test_bianchi_on_connections():
    Ps = trivial_bundle(boundary_sphere(2), su2)
    D = random_connection(Ps, 3)
    assert all(v.is_zero() for v in bianchi_defect(D).values())


def test_cw_form_clutch_one():
    P, D = clutch_bundle(1)
    rho = chern_polynomial(u1, 1)
    om = cw_form(rho, D)
    assert check_simplicial_form(om) == []
    assert all(f.is_zero() for f in om.d().forms.values())
    c = cw_cochain(rho, D)
    assert pairing(c, fundamental_cycle_two_disk(P.base)) == Scalar.one()


def test_cw_form_zero_polynomial():
    P, D = clutch_bundle(1)
    zero_rho = polynomial_from_evaluator(u1, 1, lambda mats: Poly.zero(mats[0][0][0].dim) if isinstance(mats[0][0][0], Poly) else 0, "zero")
    om = cw_form(zero_rho, D)
    assert all(f.is_zero() for f in om.forms.values())


def test_zero_tensor_skips_the_curvature(monkeypatch):
    """su2 is traceless, so symtrace:1 has no nonzero coefficient: the
    characteristic cochain and form are the curvature path's zero values,
    with no curvature computed and no cell's integer pass entered."""
    from chernweil import cw

    X = boundary_sphere(2)
    D = random_connection(trivial_bundle(X, su2), 0)
    rho = sym_trace_poly(su2, 1)
    assert rho.tensor() == {}
    curv = {sid: F for sid, F in curvature(D).items() if sid.dim >= 2}
    want_forms = {sid: cw._cw_polyform_wedge(rho, curv[sid]) if sid in curv else PolyForm.zero(sid.dim, 2)
                  for sid in X.all_cells()}
    assert all(cw_form_permutation(rho, F).is_zero() for F in curv.values())
    calls = []
    for name in ("curvature_form", "_cell_form", "_int_curvature", "_contract"):
        real = getattr(cw, name)
        monkeypatch.setattr(cw, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert cw_cochain(rho, D) == Cochain(2, {sid: f.integrate_top() for sid, f in want_forms.items() if sid.dim == 2})
    assert cw_form(rho, D).forms == want_forms
    assert calls == []


def test_cw_cochain_trivial_zero():
    X = boundary_sphere(2)
    P = trivial_bundle(X, u1)
    D = Connection(P, {s: LieValuedForm.zero(u1, s.dim, 1) for s in X.all_cells()})
    assert cw_cochain(chern_polynomial(u1, 1), D).is_zero()


def test_cw_cochain_closed_on_test_bundles():
    rho = chern_polynomial(u1, 1)
    for n in [-2, 0, 3]:
        P, D = clutch_bundle(n)
        for DD in [D, random_connection(P, n + 10)]:
            alpha = cw_cochain(rho, DD)
            assert coboundary(P.base, alpha).is_zero()


def test_clutch_pairing_connection_invariant():
    rho = chern_polynomial(u1, 1)
    z_name = fundamental_cycle_two_disk(two_disk_sphere())
    for n in [-1, 2]:
        P, D = clutch_bundle(n)
        z = fundamental_cycle_two_disk(P.base)
        for seed in range(3):
            DD = random_connection(P, seed)
            assert pairing(cw_cochain(rho, DD), z) == Scalar.from_rational(n)


def test_connection_independence_same_connection():
    P, D = clutch_bundle(1)
    rep = connection_independence(P, D, D, chern_polynomial(u1, 1))
    assert rep.ok and rep.witness.is_zero()


def test_connection_independence_random_pairs():
    rho = chern_polynomial(u1, 1)
    P, D0 = clutch_bundle(1)
    for seed in range(3):
        D1 = random_connection(P, seed + 20)
        rep = connection_independence(P, D0, D1, rho)
        assert rep.ok and rep.witness is not None
        diff = cw_cochain(rho, D0) - cw_cochain(rho, D1)
        assert (coboundary(P.base, rep.witness) - diff).is_zero()


def test_connection_independence_negative_control():
    rho = chern_polynomial(u1, 1)
    P2, D2 = clutch_bundle(2)
    P3, D3 = clutch_bundle(3)
    diff = cw_cochain(rho, D2) - cw_cochain(rho, D3)
    assert pairing(diff, fundamental_cycle_two_disk(P2.base)) == Scalar.from_rational(-1)
    status, cert = is_coboundary(P2.base, diff)
    assert status == "cycle"
    assert not pairing(diff, cert).is_zero()


def test_connection_independence_reports_the_cycle_certificate():
    """Connections of two different bundles on one base: the difference
    is no coboundary, and the report carries a cycle pairing to 1 with it."""
    rho = chern_polynomial(u1, 1)
    P2, D2 = clutch_bundle(2)
    _, D3 = clutch_bundle(3)
    rep = connection_independence(P2, D2, D3, rho)
    assert not rep.ok and rep.witness is None
    assert rep.detail == "difference pairs nontrivially with a cycle"
    assert boundary_chain(P2.base, rep.certificate).is_zero()
    assert pairing(cw_cochain(rho, D2) - cw_cochain(rho, D3), rep.certificate) == Scalar.one()


def test_naturality_identity_and_inclusion(inclusion_of_north):
    rho = chern_polynomial(u1, 1)
    P, _ = clutch_bundle(1)
    D = random_connection(P, 31)
    assert naturality_check(SimplicialMap.identity(P.base), P, rho, D).ok
    assert naturality_check(inclusion_of_north, P, rho, D).ok


def test_naturality_fold_with_trivial(fold_map):
    rho = chern_polynomial(u1, 1)
    d2 = standard_simplex(2)
    Pt = trivial_bundle(d2, u1)
    Dt = random_connection(Pt, 32)
    assert naturality_check(fold_map, Pt, rho, Dt).ok


def test_naturality_collapse_map(collapse_map):
    rho = chern_polynomial(u1, 1)
    d1 = standard_simplex(1)
    Pt = trivial_bundle(d1, u1)
    Dt = random_connection(Pt, 33)
    assert naturality_check(collapse_map, Pt, rho, Dt).ok


def test_pullback_connection_validates(inclusion_of_north):
    P, _ = clutch_bundle(2)
    D = random_connection(P, 34)
    Pp = pullback_bundle(inclusion_of_north, P)
    Dp = pullback_connection(inclusion_of_north, P, D)
    rep = validate_connection(Pp, Dp)
    assert rep.ok


def test_classical_agreement_clutch():
    rho = chern_polynomial(u1, 1)
    for n in [-2, 1, 4]:
        P, D = clutch_bundle(n)
        verdict, simp, classical = classical_agreement_check(D, rho, fundamental_cycle_two_disk(P.base))
        assert verdict.ok
        assert simp == Scalar.from_rational(n)
        assert classical == Scalar.from_rational(n)


def test_classical_agreement_trivial():
    X = two_disk_sphere()
    P = trivial_bundle(X, u1)
    D = Connection(P, {s: LieValuedForm.zero(u1, s.dim, 1) for s in X.all_cells()})
    verdict, simp, classical = classical_agreement_check(D, chern_polynomial(u1, 1), fundamental_cycle_two_disk(X))
    assert verdict.ok and simp.is_zero() and classical.is_zero()


def test_classical_agreement_swap_orientation(swap_map):
    # pulling clutch(1) back along the N/S swap reverses the sign
    rho = chern_polynomial(u1, 1)
    P, D = clutch_bundle(1)
    Ps = pullback_bundle(swap_map, P)
    Ds = pullback_connection(swap_map, P, D)
    z = fundamental_cycle_two_disk(Ps.base)
    verdict, simp, classical = classical_agreement_check(Ds, rho, z)
    assert verdict.ok
    assert simp == Scalar.from_rational(-1)
    assert classical == Scalar.from_rational(-1)


def test_calibration_constant_stable_and_exact():
    rng = random.Random(40)
    consts = {1: set(), 2: set()}
    for _ in range(5):
        F1 = curvature_form(_rand_lie_form(rng, u1, 2, 2))
        if not F1.is_zero():
            consts[1].add(calibrate_cw_constant(sym_trace_poly(u1, 1), F1))
        F2 = curvature_form(_rand_lie_form(rng, su2, 4, 1))
        if not F2.is_zero():
            consts[2].add(calibrate_cw_constant(sym_trace_poly(su2, 2), F2))
    assert consts[1] == {Scalar.one()}
    assert consts[2] == {Scalar.from_rational(6)}


def test_calibration_refuses_a_vanishing_permutation_form():
    F = curvature_form(LieValuedForm.zero(su2, 4))
    with pytest.raises(ValueError, match="permutation form vanished"):
        calibrate_cw_constant(sym_trace_poly(su2, 2), F)


def test_calibration_refuses_a_nonmultilinear_evaluator():
    # the wedge path reads rho through its tensor on basis matrices, which
    # only a multilinear rho determines; tr(m0 m1)^2 is quadratic in each slot
    def evaluator(mats):
        t = mat_trace(mat_mul(mats[0], mats[1]))
        return t * t

    rho = polynomial_from_evaluator(su2, 2, evaluator, "tr(m0 m1)^2")
    F = generic_curvature(su2, 4, random.Random(0))
    with pytest.raises(ValueError, match="not proportional"):
        calibrate_cw_constant(rho, F)


def test_calibration_reads_no_coordinates_off_matrices(monkeypatch):
    # the permutation oracle contracts rho with F's own coordinates: no
    # curvature matrix is built for the algebra's solver to read back
    calls = []
    coordinates = LieData.coordinates
    monkeypatch.setattr(LieData, "coordinates", lambda self, m: calls.append(m) or coordinates(self, m))
    for alg, k, dim in [(u1, 1, 2), (su2, 2, 4)]:
        F = generic_curvature(alg, dim, random.Random(3))
        assert calibrate_cw_constant(sym_trace_poly(alg, k), F) == factorial(2 * k) // 2**k
    assert calls == []


def test_permutation_formula_matches_wedge_up_to_constant():
    # wedge path = ((2k)!/2^k) * permutation path, spot-checked at k=1
    rng = random.Random(41)
    from chernweil.cw import _cw_polyform_wedge

    for _ in range(5):
        F = curvature_form(_rand_lie_form(rng, u1, 2, 2))
        rho = sym_trace_poly(u1, 1)
        assert _cw_polyform_wedge(rho, F) == cw_form_permutation(rho, F)


def test_gauge_chart_independence_u2():
    ualg = lie_algebra("u2")
    bs = boundary_sphere(2)
    P = trivial_bundle(bs, ualg)
    D = random_connection(P, 42)
    rho = sym_trace_poly(ualg, 1)
    before = cw_cochain(rho, D)
    assert len(before.values) > 0
    rng = random.Random(43)
    gauges = {
        s: TransitionMap.cayley(ualg, s.dim, [Fraction(rng.randrange(-4, 5), 8) for _ in range(4)])
        for s in bs.all_cells()
    }
    P2, D2 = apply_gauge(P, gauges, D)
    rep = validate_connection(P2, D2)
    assert rep.ok
    assert D2.forms != D.forms
    assert cw_cochain(rho, D2) == before


def test_gauge_chart_independence_abelian_exact():
    P, D = clutch_bundle(1)
    rho = chern_polynomial(u1, 1)
    before = cw_cochain(rho, D)
    rng = random.Random(44)
    gauges = {
        s: TransitionMap.single(LieValuedForm.from_polys(u1, [Poly.const(s.dim, Scalar.from_rational(rng.randrange(-4, 5), 8))]))
        for s in P.base.all_cells()
    }
    P2, D2 = apply_gauge(P, gauges, D)
    after = cw_cochain(rho, D2)
    # constant abelian gauges leave the connection untouched; exact equality
    assert before == after


def test_overflow_degree_zero_not_error():
    P, D = clutch_bundle(1)
    rho2 = chern_polynomial(u1, 2)  # degree-4 form on a 2-dim base
    om = cw_form(rho2, D)
    assert all(f.is_zero() for f in om.forms.values())
    assert cw_cochain(rho2, D).is_zero()


def test_class_report():
    P, D = clutch_bundle(2)
    rep = class_report(chern_polynomial(u1, 1), P, D, [fundamental_cycle_two_disk(P.base)], "clutch(2)")
    line = rep.machine_line()
    assert line == "class rho=chern:1 bundle=clutch(2): closed=yes pairings=[2] witness=absent"


def test_class_report_prints_rationals_and_laurent_pairings():
    pairings = [Scalar.from_rational(1, 2), Scalar.from_rational(-3), Scalar.zero(), Scalar.of(0, 3, 1)]
    line = ClassReport("symtrace:1", "b", True, pairings).machine_line()
    assert line == "class rho=symtrace:1 bundle=b: closed=yes pairings=[1/2, -3, 0, 3i*tau^1] witness=absent"


@pytest.mark.parametrize("X", [boundary_sphere(2), two_disk_sphere(), standard_simplex(3)],
                         ids=["sphere2", "two-disk", "simplex3"])
def test_u1_characteristic_form_is_face_compatible(X):
    """On twisted u1 bundles F = dA commutes with face pullback, so a
    connection that validates has a simplicial characteristic form, and
    cw_cochain is its integral: class_report needs no check of its own."""
    for seed in range(3):
        P = random_u1_bundle(X, random.Random(seed))
        D = random_connection(P, seed)
        assert validate_connection(P, D).ok
        for rho in (chern_polynomial(u1, 1), sym_trace_poly(u1, 1)):
            omega = cw_form(rho, D)
            assert check_simplicial_form(omega) == []
            assert cw_cochain(rho, D) == integrate_to_cochain(omega)


def test_quadrature_matches_exact_integral():
    rng = random.Random(45)
    for _ in range(10):
        f = random_polyform(rng, 2, 2, 3)
        assert iterated_integrate(f) == f.integrate_top()


def _rational(rng):
    return Scalar.from_rational(rng.choice((-1, 1)) * rng.randrange(1, 6), rng.randrange(1, 6))


def _degree_one_global_connection(rng, P, scalar=_rational, extra=None):
    """A g-valued 1-form on Delta^n, n = P.base.dim, whose coefficients
    have two terms of degree <= 1 each, plus the monomial extra when it
    is given, with coefficients scalar(rng) (numerators and denominators
    in 1..5 by default), pulled back to every face."""
    X, alg = P.base, P.algebra
    n = X.dim
    monos = _monomials_up_to(n, 1)

    def coefficient():
        terms = {e: scalar(rng) for e in rng.sample(monos, 2)}
        if extra is not None:
            terms[extra] = scalar(rng)
        return Poly(n, terms)

    per_coord = [
        induced_form_on_standard_simplex(X, PolyForm(n, 1, {(j,): coefficient() for j in range(n)}))
        for _ in range(alg.dim)
    ]
    return Connection(P, {s: LieValuedForm(alg, s.dim, 1, [f.form(s) for f in per_coord]) for s in X.all_cells()})


def _gaussian(rng):
    """A coefficient with an imaginary part and a tau power in -1..1."""
    re, im = (Fraction(rng.randrange(-5, 6), rng.randrange(1, 6)) for _ in range(2))
    return Scalar.of(re or 1, im or 1, rng.choice((-1, 0, 1)))


# how each case builds its connection from a seed: "global" is a
# degree-1 form on Delta^n pulled back to every face, "gaussian" one with
# Gaussian-rational tau-monomial coefficients, "steep" one with an extra
# x1^300 term (so the exponent of a product needs more than 8 bits),
# and "random" is random_connection (on Delta^4 its interior noise gives
# A degree 4)
_CONNECTIONS = {
    "global": lambda P, seed: _degree_one_global_connection(random.Random(seed), P),
    "gaussian": lambda P, seed: _degree_one_global_connection(random.Random(seed), P, _gaussian),
    "steep": lambda P, seed: _degree_one_global_connection(random.Random(seed), P, extra=(300, 0)),
    "random": lambda P, seed: random_connection(P, seed),
}

# (base, group, selector, connection): bases with cells above the degree
# 2k of the class, then top cells of arity 1, 2 and 3 with connections
# of every kind
_ABOVE_2K = [
    (standard_simplex(3), "u2", "chern:1", "global"),
    (standard_simplex(4), "u2", "chern:1", "global"),
    (cylinder(boundary_sphere(2))[0].space, "u2", "chern:1", "random"),
    (product(two_disk_sphere(), two_disk_sphere()).space, "u1", "chern:1", "random"),
    (standard_simplex(5), "su2", "symtrace:2", "global"),
    (standard_simplex(4), "so3", "symtrace:2", "global"),
    (standard_simplex(6), "u2", "symtrace:3", "global"),
    (standard_simplex(4), "su2", "symtrace:2", "random"),
    (standard_simplex(4), "u2", "chern:2", "gaussian"),
    (standard_simplex(2), "u2", "chern:1", "steep"),
]


@pytest.mark.parametrize("case", _ABOVE_2K, ids=[
    "simplex3", "simplex4", "cylinder", "sphere-squared", "simplex5",
    "so3-simplex4", "arity3-simplex6", "su2-random-simplex4", "gaussian-simplex4", "steep-simplex2",
])
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**16))
def test_cw_cochain_reads_only_the_2k_cells(case, seed):
    """cw_cochain computes each 2k-cell's value in one integer pass from
    the connection form; it equals the integral of the whole
    characteristic form."""
    X, group, selector, kind = case
    alg = lie_algebra(group)
    P = trivial_bundle(X, alg)
    D = _CONNECTIONS[kind](P, seed)
    rho = invariant_polynomial_from_selector(alg, selector)
    assert cw_cochain(rho, D) == integrate_to_cochain(cw_form(rho, D))


def test_invariant_polynomial_of_another_algebra_is_refused():
    """cw_cochain, cw_form and _cw_polyform_wedge refuse an invariant
    polynomial of another algebra than the connection's, before the
    zero-tensor shortcut (su3 symtrace:1 has no nonzero coefficient)."""
    from chernweil.cw import _cw_polyform_wedge

    D = random_connection(trivial_bundle(standard_simplex(2), su2), 0)
    F = curvature_form(D.forms[SimplexId(2, 0)])
    for rho in (chern_polynomial(lie_algebra("u2"), 1), sym_trace_poly(lie_algebra("su3"), 1)):
        for build in (lambda: cw_cochain(rho, D), lambda: cw_form(rho, D), lambda: _cw_polyform_wedge(rho, F)):
            with pytest.raises(ValueError, match=f"{rho.algebra.name} on a su2 connection"):
                build()


@pytest.mark.parametrize("group, selector, n, kind", [
    ("u2", "symtrace:3", 6, "global"),
    ("su2", "symtrace:2", 4, "random"),
], ids=["u2-symtrace3-simplex6", "su2-symtrace2-simplex4"])
def test_diagonal_head_takes_each_component_pair_once(monkeypatch, group, selector, n, kind):
    """On the top cell of Delta^n, an entry's diagonal pair (a, a) wedges
    F^a with itself (the same lowered form): at arity 3 the head's first
    product, at arity 2 the entry's last wedge, so that su2 symtrace:2
    (a diagonal tensor) wedges only squares.  Each square, taken on its
    own, multiplies each unordered pair of components once, to the value
    of the wedge with a copy; the cochain still equals the integral of
    the characteristic form.  cw's pair loop is _wedge_into, which adds
    the entry's product into the running sum, so the spy takes the square
    alone first."""
    from chernweil import cw

    alg = lie_algebra(group)
    P = trivial_bundle(standard_simplex(n), alg)
    D = random_connection(P, 0) if kind == "random" else _CONNECTIONS[kind](P, 0)
    rho = invariant_polynomial_from_selector(alg, selector)
    merges, squares = [], []
    merge, wedge = cw._merge, cw._wedge_into

    def counted_merge(I, J):
        merges.append((I, J))
        return merge(I, J)

    def watched_wedge(out, X, Y, coef):
        if Y is X:
            start = len(merges)
            alone = wedge({}, X, Y, coef)
            squares.append((X, coef, alone, merges[start:]))
        return wedge(out, X, Y, coef)

    monkeypatch.setattr(cw, "_merge", counted_merge)
    monkeypatch.setattr(cw, "_wedge_into", watched_wedge)
    alpha = cw_cochain(rho, D)
    # one square per distinct diagonal first pair: per head at arity 3,
    # per entry at arity 2
    assert len(squares) == len({a[:2] for a in rho.tensor() if a[0] == a[1]}) > 0
    for X, coef, alone, pairs in squares:
        assert sorted(map(sorted, pairs)) == sorted(map(sorted, itertools.combinations_with_replacement(X, 2)))
        assert alone == wedge({}, X, dict(X), coef)
    assert alpha == integrate_to_cochain(cw_form(rho, D))


@pytest.mark.parametrize("group, selector, value", [
    ("su2", "symtrace:2", Scalar.from_rational(-85915326487, 25660800000)),
    # a mixed tensor: one off-diagonal head and two squares
    ("u2", "chern:2", Scalar.of(Fraction(-178997366159, 29937600000), tau_power=-2)),
], ids=["su2-symtrace2", "u2-chern2"])
def test_second_chern_headline_value_pinned(group, selector, value):
    """The top cell of standard_simplex(4) with random_connection(P, 0),
    whose interior noise gives A degree 4."""
    alg = lie_algebra(group)
    P = trivial_bundle(standard_simplex(4), alg)
    alpha = cw_cochain(invariant_polynomial_from_selector(alg, selector), random_connection(P, 0))
    assert alpha.value(SimplexId(4, 0)) == value


@pytest.mark.parametrize(
    "group, selector, seed, value",
    [
        ("su2", "symtrace:2", 7, Scalar.from_rational(-3124949, 2880000)),
        ("u2", "chern:2", 7, Scalar.of(Fraction(-403607, 60000), tau_power=-2)),
        ("su2", "symtrace:2", 2021, Scalar.from_rational(74017, 432000)),
        ("u2", "chern:2", 2021, Scalar.of(Fraction(523811, 486000), tau_power=-2)),
    ],
)
def test_second_chern_top_cell_values_pinned(group, selector, seed, value):
    """Exact top-cell values of degree-4 characteristic cochains on
    standard_simplex(4), recorded before the integer product kernel."""
    alg = lie_algebra(group)
    P = trivial_bundle(standard_simplex(4), alg)
    D = _degree_one_global_connection(random.Random(seed), P)
    alpha = cw_cochain(invariant_polynomial_from_selector(alg, selector), D)
    assert alpha.value(SimplexId(4, 0)) == value

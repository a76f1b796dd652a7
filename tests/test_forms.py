import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil import verify
from chernweil.bundles import random_connection, trivial_bundle, validate_connection
from chernweil.cw import iterated_integrate
from chernweil.forms import (
    AffineMap,
    BernsteinMap,
    DegreeMismatchError,
    FaceConsistencyError,
    PolyForm,
    PolyMap,
    SimplicialForm,
    _from_basis,
    _lam_power,
    check_simplicial_form,
    induced_form_on_standard_simplex,
    integrate_to_cochain,
    random_poly,
    random_polyform,
    random_simplicial_form,
    whitney_extend,
)
from chernweil.liealg import lie_algebra
from chernweil.poly import Poly, _exponent
from chernweil.scalars import Scalar
from chernweil.simplicial import (
    SimplexId,
    boundary_sphere,
    coboundary,
    fundamental_cycle_two_disk,
    pairing,
    standard_simplex,
    two_disk_sphere,
)
from oracles import (
    affine_coords_reference,
    bernstein_coords_reference,
    check_coefficient_consistency,
    check_prescription_consistency,
    integrate_form_oracle,
    lam_power_reference,
    poly_eval_complex,
    pullback_reference,
    scalar_to_complex,
    whitney_combination_reference,
    whitney_extend_reference,
    whitney_keys_reference,
)
from test_scalar_kernel import MODELS, to_scalar


def test_d_coordinate_example():
    f = PolyForm(2, 1, {(1,): Poly.var(2, 0)})  # x1 dx2
    assert f.d() == PolyForm(2, 2, {(0, 1): Poly.const(2, 1)})


def test_d_of_constant():
    assert PolyForm(2, 0, {(): Poly.const(2, 5)}).d().is_zero()


def test_d_squared_random():
    rng = random.Random(0)
    for _ in range(100):
        dim = rng.choice([2, 3, 4])
        k = rng.randrange(0, dim)
        f = random_polyform(rng, dim, k, 4)
        assert f.d().d().is_zero()


def test_wedge_basics():
    dx1, dx2 = (PolyForm(2, 1, {(i,): Poly.const(2, 1)}) for i in (0, 1))
    assert dx1.wedge(dx1).is_zero()
    assert dx1.wedge(dx2) == PolyForm(2, 2, {(0, 1): Poly.const(2, 1)})
    assert dx1.wedge(dx2) == (dx2.wedge(dx1)).scale(Fraction(-1))


def test_leibniz_random():
    rng = random.Random(1)
    for _ in range(100):
        dim = rng.choice([2, 3])
        p = rng.randrange(0, dim)
        q = rng.randrange(0, dim - p + 1)
        a = random_polyform(rng, dim, p, 2)
        b = random_polyform(rng, dim, q, 2)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) + a.wedge(b.d()).scale(Fraction((-1) ** p))
        assert lhs == rhs


def test_graded_commutativity_random():
    rng = random.Random(2)
    for _ in range(100):
        dim = rng.choice([2, 3])
        p = rng.randrange(0, dim + 1)
        q = rng.randrange(0, dim - p + 1)
        a = random_polyform(rng, dim, p, 2)
        b = random_polyform(rng, dim, q, 2)
        assert a.wedge(b) == b.wedge(a).scale(Fraction((-1) ** (p * q)))


def test_pullback_face_against_sympy():
    # pull dx1 + x1 x2 dx2 on Delta^2 back along each face, vs sympy chain rule
    t = sympy.symbols("t")
    x1, x2 = sympy.symbols("x1 x2")
    comp = [sympy.Integer(1), x1 * x2]
    form = PolyForm(2, 1, {(0,): Poly.const(2, 1), (1,): Poly.var(2, 0) * Poly.var(2, 1)})
    face_exprs = {0: [1 - t, t], 1: [sympy.Integer(0), t], 2: [t, sympy.Integer(0)]}
    for i, coords in face_exprs.items():
        pulled = form.pullback(AffineMap.face(2, i))
        want = sympy.expand(
            comp[0].subs({x1: coords[0], x2: coords[1]}) * sympy.diff(coords[0], t)
            + comp[1].subs({x1: coords[0], x2: coords[1]}) * sympy.diff(coords[1], t)
        )
        got = pulled.component((0,))
        got_sym = sympy.expand(
            sum(
                sympy.Rational(str(c.rational_value())) * t ** e[0]
                for e, c in got.terms.items()
            )
        )
        assert sympy.simplify(got_sym - want) == 0, (i, got_sym, want)


def test_pullback_identity_and_commutes_with_d():
    rng = random.Random(3)
    ident = AffineMap.from_monotone((0, 1, 2, 3), 3)
    for _ in range(100):
        k = rng.randrange(0, 3)
        f = random_polyform(rng, 3, k, 2)
        assert f.pullback(ident) == f
        phi = BernsteinMap.random(rng, 2, 3, 2)
        assert f.pullback(phi).d() == f.d().pullback(phi)


def test_pullback_contravariant_functorial():
    rng = random.Random(4)
    for _ in range(20):
        phi = BernsteinMap.random(rng, 2, 3, 2)
        psi = BernsteinMap.random(rng, 1, 2, 2)
        comp = PolyMap(1, 3, [c.compose(psi.coords(), source_dim=1) for c in phi.coords()])
        omega = random_polyform(rng, 3, rng.choice([0, 1]), 2)
        assert omega.pullback(comp) == omega.pullback(phi).pullback(psi)


def test_integrate_top_values():
    one_d1 = PolyForm(1, 1, {(0,): Poly.const(1, 1)})
    assert one_d1.integrate_top() == Scalar.one()
    vol2 = PolyForm(2, 2, {(0, 1): Poly.const(2, 1)})
    assert vol2.integrate_top() == Scalar.from_rational(1, 2)
    x1v = PolyForm(2, 2, {(0, 1): Poly.var(2, 0)})
    assert x1v.integrate_top() == Scalar.from_rational(1, 6)


@pytest.mark.parametrize("c", [Scalar.of(3, -2), Scalar.from_rational(-5, 7), Scalar.zero(),
                               Scalar.of(Fraction(1, 3), 2, -2) + Scalar.one()],
                         ids=["gaussian", "rational", "zero", "laurent"])
def test_integrals_on_the_point(c):
    """Delta^0 is one point of volume 1: both integrals of a 0-form give
    its constant, with no special case for dimension 0."""
    f = PolyForm(0, 0, {(): Poly.const(0, c)})
    assert f.integrate_top() == c
    assert iterated_integrate(f) == c


def test_integrate_top_against_quadrature():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.choice([1, 2, 3])
        f = random_polyform(rng, dim, dim, 3)
        exact = scalar_to_complex(f.integrate_top())
        quad = integrate_form_oracle(f, order=8)
        assert abs(exact - quad) <= 1e-9 * max(1.0, abs(exact))


def test_integrate_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        PolyForm(2, 1, {(0,): Poly.const(2, 1)}).integrate_top()


def test_bernstein_validity_and_containment():
    rng = random.Random(6)
    npr = np.random.default_rng(6)
    for _ in range(5):
        phi = BernsteinMap.random(rng, 2, 3, 3)
        assert phi.is_valid()
        coords = phi.coords()
        for _ in range(200):
            w = npr.dirichlet(np.ones(3))
            pt = [w[1], w[2]]
            vals = [poly_eval_complex(c, pt).real for c in coords]
            assert all(v >= -1e-12 for v in vals)
            assert sum(vals) <= 1 + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bernstein_coefficients_invert_the_control_points(seed):
    """The Bernstein coefficients of each coordinate of the product-basis
    oracle's polynomials are the map's control points, exactly, for
    source dim 1-3 and degree 1-3."""
    rng = random.Random(seed)
    for source_dim in (1, 2, 3):
        for degree in (1, 2, 3):
            phi = BernsteinMap.random(rng, source_dim, 3, degree)
            for l, p in enumerate(bernstein_coords_reference(phi)):
                assert verify._bernstein_coefficients(p, degree) == {a: pt[l] for a, pt in phi.control.items()}


def _nudge_first_coordinate(monkeypatch):
    coords = BernsteinMap.coords
    monkeypatch.setattr(BernsteinMap, "coords", lambda self: (
        coords(self)[0] + Poly.var(self.source_dim, 0).scale(Fraction(1, 10**9)),) + coords(self)[1:])


def _shift_integrals_on_delta3(monkeypatch):
    integrate_top = PolyForm.integrate_top
    monkeypatch.setattr(PolyForm, "integrate_top", lambda self: integrate_top(self) + (
        Fraction(1, 10**12) if self.dim == 3 else 0))


@pytest.mark.parametrize("mutate, check, detail", [
    (_nudge_first_coordinate, verify.check_bernstein_containment,
     "coordinate 0 is not the Bernstein form of the control points"),
    (_shift_integrals_on_delta3, verify.check_integration, "factorial identity != iterated integral on Delta^3"),
], ids=["bernstein-containment", "integration-oracle"])
def test_exact_checks_catch_tiny_defects(mutate, check, detail, monkeypatch):
    """A defect far below the old float tolerances fails the == checks: a
    Bernstein coordinate nudged by 1e-9 x1, and integrate_top off by
    1e-12 on Delta^3."""
    mutate(monkeypatch)
    for seed in range(3):
        assert check(seed) == (False, detail)


@pytest.mark.parametrize("source_dim", range(4))
def test_bernstein_coords_match_the_product_basis(source_dim):
    rng = random.Random(source_dim)
    for degree in range(4):
        for target_dim in range(4):
            phi = BernsteinMap.random(rng, source_dim, target_dim, degree)
            assert list(phi.coords()) == bernstein_coords_reference(phi)


def test_affine_coords_match_the_barycentric_sums():
    for d in range(4):
        for k in range(4):
            for m in itertools.combinations_with_replacement(range(d + 1), k + 1):
                assert list(AffineMap.from_monotone(m, d).coords()) == affine_coords_reference(m, d)


def test_induced_form_passes_check():
    X = standard_simplex(2)
    rng = random.Random(7)
    glob = random_polyform(rng, 2, 1, 2)
    om = induced_form_on_standard_simplex(X, glob)
    assert check_simplicial_form(om) == []


def test_induced_form_coherence_under_polynomial_maps():
    # coherence: pullbacks along arbitrary polynomial simplices are
    # themselves compatible (sampled through composition equality)
    X = standard_simplex(2)
    rng = random.Random(8)
    glob = random_polyform(rng, 2, 1, 2)
    for _ in range(10):
        sigma = BernsteinMap.random(rng, 1, 2, 2)
        tau = BernsteinMap.random(rng, 1, 1, 2)
        comp = PolyMap(1, 2, [c.compose(tau.coords(), source_dim=1) for c in sigma.coords()])
        assert glob.pullback(comp) == glob.pullback(sigma).pullback(tau)


def test_perturbed_form_fails_check():
    X = two_disk_sphere()
    rng = random.Random(9)
    om = random_simplicial_form(X, 1, rng)
    bad = dict(om.forms)
    sid = SimplexId(2, 1)
    bad[sid] = bad[sid] + PolyForm(2, 1, {(0,): Poly.const(2, 1)})
    violations = check_simplicial_form(SimplicialForm(X, 1, bad))
    assert violations and all(s == sid for s, _ in violations)


def test_zero_form_passes():
    X = two_disk_sphere()
    assert check_simplicial_form(SimplicialForm(X, 1, {})) == []


def test_global_ops():
    X = boundary_sphere(2)
    rng = random.Random(10)
    for _ in range(50):
        k = rng.randrange(0, 2)
        om = random_simplicial_form(X, k, rng)
        assert check_simplicial_form(om) == []
        assert check_simplicial_form(om.d()) == []
        other = random_simplicial_form(X, rng.randrange(0, 2 - k + 1), rng)
        wedge = {s: f.wedge(other.form(s)) for s, f in om.forms.items()}
        assert check_simplicial_form(SimplicialForm(X, k + other.deg, wedge)) == []
        assert om.d().d() == SimplicialForm(X, k + 2, {})


def test_integrate_to_cochain_point_evaluations():
    X = boundary_sphere(2)
    rng = random.Random(12)
    om = random_simplicial_form(X, 0, rng)
    c = integrate_to_cochain(om)
    for sid in X.cells(0):
        assert c.value(sid) == om.form(sid).component(()).eval([])


def test_integration_commutes_with_d():
    rng = random.Random(13)
    for X in [boundary_sphere(2), two_disk_sphere()]:
        for _ in range(25):
            k = rng.randrange(0, 3)
            om = random_simplicial_form(X, k, rng)
            lhs = integrate_to_cochain(om.d())
            rhs = coboundary(X, integrate_to_cochain(om))
            assert (lhs - rhs).is_zero()


def test_exact_form_pairs_to_zero_on_cycle():
    X = two_disk_sphere()
    rng = random.Random(14)
    eta = random_simplicial_form(X, 1, rng)
    om = eta.d()
    c = integrate_to_cochain(om)
    assert pairing(c, fundamental_cycle_two_disk(X)).is_zero()


def test_whitney_zero_and_constant():
    zero_pres = {i: PolyForm.zero(1, 0) for i in range(3)}
    ext = whitney_extend(2, 0, zero_pres)
    for i in range(3):
        assert ext.pullback(AffineMap.face(2, i)).is_zero()
    const_pres = {i: PolyForm(1, 0, {(): Poly.const(1, 7)}) for i in range(3)}
    ext = whitney_extend(2, 0, const_pres)
    for i in range(3):
        assert ext.pullback(AffineMap.face(2, i)) == const_pres[i]


def test_whitney_random_edge_data_on_triangle():
    rng = random.Random(15)
    for _ in range(20):
        # 1-forms on the three edges of a triangle: no corner constraints
        pres = {i: random_polyform(rng, 1, 1, 2) for i in range(3)}
        assert check_prescription_consistency(2, pres) == []
        ext = whitney_extend(2, 1, pres)
        for i in range(3):
            assert ext.pullback(AffineMap.face(2, i)) == pres[i]


def test_whitney_inconsistent_data_raises():
    # 0-forms with mismatched corner values cannot extend
    pres = {
        0: PolyForm(1, 0, {(): Poly.const(1, 1)}),
        1: PolyForm(1, 0, {(): Poly.const(1, 2)}),
        2: PolyForm(1, 0, {(): Poly.const(1, 3)}),
    }
    with pytest.raises(FaceConsistencyError):
        whitney_extend(2, 0, pres)


ONE = PolyForm(1, 0, {(): Poly.const(1, 1)})


@pytest.mark.parametrize(
    "bad",
    [
        (2, 0, {0: ONE, 1: PolyForm.zero(2, 0)}, "prescription 1 has wrong shape"),
        (2, 0, {0: ONE, 1: PolyForm.zero(1, 1)}, "prescription 1 has wrong shape"),
        (2, 0, {0: ONE, 1: PolyForm.zero(0, 0)}, "prescription 1 has wrong shape"),
        # an index outside 0..d names no facet of Delta^d
        (2, 0, {3: ONE}, r"prescriptions: facet index 3 is not in 0\.\.2"),
        (2, 0, {5: ONE}, r"prescriptions: facet index 5 is not in 0\.\.2"),
        (2, 0, {0: ONE, -1: ONE}, r"prescriptions: facet index -1 is not in 0\.\.2"),
        (2, -1, {}, "deg must be nonnegative, got -1"),
        (0, 0, {}, "d must be at least 1, got 0"),
        (-1, 0, {}, "d must be at least 1, got -1"),
    ],
)
def test_whitney_rejects_prescription_of_wrong_shape(bad):
    d, deg, pres, match = bad
    with pytest.raises(ValueError, match=match):
        whitney_extend(d, deg, pres)


def test_whitney_overflow_degree():
    # a form on Delta^{d-1} of degree above d-1 has no components, so for
    # d >= 1 every such prescription is zero and extends to zero
    assert whitney_extend(2, 2, {0: PolyForm.zero(1, 2), 2: PolyForm.zero(1, 2)}) == PolyForm.zero(2, 2)
    # Delta^0 has no facets to extend from (its facet would be Delta^-1)
    with pytest.raises(ValueError, match="d must be at least 1, got 0"):
        whitney_extend(0, 0, {0: PolyForm(-1, 0, {(): Poly.const(-1, 1)})})


def test_whitney_compatible_function_data():
    # random compatible 0-form data on the boundary of a triangle,
    # generated from a global polynomial
    rng = random.Random(16)
    for _ in range(10):
        glob = random_poly(rng, 2, 2)
        pres = {
            i: PolyForm(1, 0, {(): glob.compose(AffineMap.face(2, i).coords(), source_dim=1)})
            for i in range(3)
        }
        ext = whitney_extend(2, 0, pres)
        for i in range(3):
            assert ext.pullback(AffineMap.face(2, i)) == pres[i]


def test_interior_noise_vanishes_on_facets():
    rng = random.Random(18)
    for d in [1, 2, 3, 4]:
        for k in range(d + 1):
            noise = whitney_extend(d, k, {}, rng)
            assert noise.dim == d and noise.deg == k
            assert noise.total_poly_degree() <= d - k + 1
            for i in range(d + 1):
                assert noise.pullback(AffineMap.face(d, i)).is_zero()


@st.composite
def facet_data(draw):
    """A global form's pullbacks to some facets of Delta^d, and one perturbation."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, d - 1))
    degree = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    glob = random_polyform(rng, d, k, degree)
    facets = draw(st.sets(st.integers(0, d), min_size=1))
    pres = {i: glob.pullback(AffineMap.face(d, i)) for i in facets}
    i = draw(st.sampled_from(sorted(facets)))
    perturbed = dict(pres)
    perturbed[i] = pres[i] + random_polyform(rng, d - 1, k, draw(st.integers(0, 3)))
    return d, k, pres, perturbed


@settings(max_examples=80, deadline=None)
@given(facet_data())
def test_whitney_extend_copies_facet_data(case):
    d, k, pres, perturbed = case
    ext = whitney_extend(d, k, pres)
    D = max(f.total_poly_degree() for f in pres.values())
    assert ext.total_poly_degree() <= D + 1
    for i, f in pres.items():
        assert ext.pullback(AffineMap.face(d, i)) == f
    # the library reports exactly the pairs both oracles do: the pullbacks
    # to each intersection, and the eliminated coefficients that survive
    # on both facets
    bad = check_prescription_consistency(d, perturbed)
    assert check_coefficient_consistency(d, k, perturbed) == bad
    if not bad:
        ext = whitney_extend(d, k, perturbed)
        for i, f in perturbed.items():
            assert ext.pullback(AffineMap.face(d, i)) == f
        return
    with pytest.raises(FaceConsistencyError) as err:
        whitney_extend(d, k, perturbed)
    assert str(err.value) == "inconsistent facet data on intersections: " + ", ".join(
        f"faces {i} and {j}" for i, j in bad
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_expansion_and_extension_match_the_oracle(data):
    """_from_basis on random coefficients, and whitney_extend on the facet
    data of a random form, against the basis functions multiplied out by
    Poly and PolyForm arithmetic (and, for the extension, the facet
    coefficients found by elimination); d <= 4, k <= 3."""
    d = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, min(d, 3)))
    keys = whitney_keys_reference(d, k, data.draw(st.integers(0, 2)))
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)) if keys else []
    coeffs = {key: to_scalar(data.draw(MODELS)) for key in chosen}
    assert _from_basis(d, k, coeffs) == whitney_combination_reference(d, k, coeffs)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    glob = random_polyform(rng, d, k, data.draw(st.integers(0, 2 if d < 4 else 1)))
    facets = data.draw(st.sets(st.integers(0, d), min_size=1))
    pres = {i: glob.pullback(AffineMap.face(d, i)) for i in facets}
    assert whitney_extend(d, k, pres) == whitney_extend_reference(d, k, pres)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_noise_adds_to_the_extension(data):
    """The seeded interior coefficients sit on basis functions whose
    support is every vertex, which no copied facet coefficient has, so
    the seeded extension is the plain one plus the noise alone; facet
    data drawn as in test_basis_expansion_and_extension_match_the_oracle,
    d <= 4, k <= d."""
    d = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, d))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    glob = random_polyform(rng, d, k, data.draw(st.integers(0, 2 if d < 4 else 1)))
    facets = data.draw(st.sets(st.integers(0, d), min_size=1))
    pres = {i: glob.pullback(AffineMap.face(d, i)) for i in facets}
    s = data.draw(st.integers(0, 2**32))
    assert whitney_extend(d, k, pres, random.Random(s)) == (
        whitney_extend(d, k, pres) + whitney_extend(d, k, {}, random.Random(s))
    )


@pytest.mark.parametrize("deg,compared", [(2, False), (1, True)])
def test_whitney_compares_traces_only_where_facets_meet_in_deg_forms(deg, compared, monkeypatch):
    """Two facets of Delta^3 meet in an edge, which carries no 2-form, so
    with all four facets of a 2-form given no pair is compared; a
    1-form's facet data are compared by pulling them back to the edges."""
    glob = random_polyform(random.Random(0), 3, deg, 2)
    pres = {i: glob.pullback(AffineMap.face(3, i)) for i in range(4)}
    calls = []
    pullback = PolyForm.pullback
    monkeypatch.setattr(PolyForm, "pullback", lambda f, phi: calls.append(phi) or pullback(f, phi))
    ext = whitney_extend(3, deg, pres)
    monkeypatch.undo()
    assert all(ext.pullback(AffineMap.face(3, i)) == f for i, f in pres.items())
    # every comparison pulls facet data on Delta^2 back to an edge
    assert all(phi.target_dim == 2 and phi.source_dim == 1 for phi in calls)
    assert (len(calls) > 0) == compared


@pytest.mark.parametrize("deg", [0, 1])
def test_whitney_tables_depend_on_the_earlier_facets(deg):
    """A coefficient is copied from the first given facet whose trace
    holds it, so facet 1's cached tables with facet 0 given leave out
    what facet 0 owns, and without it keep that: extending on Delta^3
    with every facet given, then without facet 0 (the same degree r),
    matches the elimination oracle both times."""
    from chernweil import forms

    forms._owned_table.cache_clear()
    glob = random_polyform(random.Random(7), 3, deg, 2)
    pres = {i: glob.pullback(AffineMap.face(3, i)) for i in range(4)}
    rest = {i: pres[i] for i in (1, 2, 3)}
    assert max(f.total_poly_degree() for f in pres.values()) == max(f.total_poly_degree() for f in rest.values())
    assert whitney_extend(3, deg, pres) == whitney_extend_reference(3, deg, pres)
    assert whitney_extend(3, deg, rest) == whitney_extend_reference(3, deg, rest)


def _gaussian_tau_scalar(draw):
    """A sum over one or two tau-powers of Gaussian rationals with nonzero real part."""
    fr = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    out = Scalar.zero()
    for power in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2, unique=True)):
        out = out + Scalar.of(draw(fr.filter(bool)), draw(fr), power)
    return out


@st.composite
def top_forms(draw):
    """A top-degree form on Delta^d (d <= 3) whose one component has tau
    and Gaussian-rational coefficients and exponents up to 12."""
    d = draw(st.integers(0, 3))
    monos = [e for e in itertools.product(range(13), repeat=d) if sum(e) <= 12]
    es = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    p = Poly(d, {e: _gaussian_tau_scalar(draw) for e in es})
    return PolyForm(d, d, {tuple(range(d)): p})


@settings(max_examples=80, deadline=None)
@given(top_forms())
def test_iterated_integral_is_integrate_top(f):
    """The Fubini moments and the factorial identity give the same exact
    integral of Gaussian tau-Laurent coefficients."""
    assert iterated_integrate(f) == f.integrate_top()


@st.composite
def form_and_map(draw):
    """A form of any degree on Delta^d (d <= 4) with tau and Gaussian-rational
    coefficients, and a map into Delta^d: the shared affine map of an
    injective (faces and other inclusions) or degenerate (collapses)
    monotone vertex map, or a random Bernstein map or the PolyMap of its
    coordinates."""
    d = draw(st.integers(0, 4))
    k = draw(st.integers(0, d))
    monos = [e for e in itertools.product(range(3), repeat=d) if sum(e) <= 2]
    comps = {}
    for I in itertools.combinations(range(d), k):
        es = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        comps[I] = Poly(d, {e: _gaussian_tau_scalar(draw) for e in es})
    form = PolyForm(d, k, comps)
    kind = draw(st.sampled_from(["injective", "degenerate", "bernstein", "polynomial"]))
    if kind == "injective":
        m = tuple(sorted(draw(st.sets(st.integers(0, d), min_size=1))))
    elif kind == "degenerate":
        vals = draw(st.lists(st.integers(0, d), min_size=1, max_size=4))
        m = tuple(sorted(vals + [draw(st.sampled_from(vals))]))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        phi = BernsteinMap.random(rng, draw(st.integers(0, 3)), d, draw(st.integers(1, 2)))
        if kind == "polynomial":
            phi = PolyMap(phi.source_dim, d, phi.coords())
        return form, phi
    phi = AffineMap.from_monotone(m, d)
    assert phi is AffineMap.from_monotone(m, d)
    return form, phi


@settings(max_examples=160, deadline=None)
@given(form_and_map())
def test_pullback_matches_reference(case):
    """Pullback equals the oracle, cold and warm.  The warm result along a
    shared affine map is the one kept in the form's memo; a Bernstein or
    polynomial map leaves no memo entry; a form with a filled memo equals
    a fresh equal form."""
    form, phi = case
    expected = pullback_reference(form, phi)
    cold = form.pullback(phi)
    assert cold == expected
    warm = form.pullback(phi)
    assert warm == expected
    affine = type(phi) is AffineMap
    assert (warm is cold) == affine
    assert form.pulled == ({phi: cold} if affine else None)
    fresh = PolyForm(form.dim, form.deg, form.comps)
    assert fresh.pulled is None
    assert form == fresh and fresh == form


@st.composite
def form_and_fresh_map(draw):
    """A form of degree 0-2 with tau and Gaussian-rational coefficients on
    Delta^d, and a map into Delta^d with an empty memo and image table:
    a random Bernstein map (source and target dimension 0-3, degree <= 3),
    or the affine map of a face (strictly increasing vertex map) or of a
    collapse (onto and nondecreasing) built outside from_monotone's cache."""
    kind = draw(st.sampled_from(["bernstein", "face", "collapse"]))
    if kind == "bernstein":
        d = draw(st.integers(0, 3))
        rng = random.Random(draw(st.integers(0, 2**32)))
        phi = BernsteinMap.random(rng, draw(st.integers(0, 3)), d, draw(st.integers(0, 3)))
    elif kind == "face":
        d = draw(st.integers(0, 3))
        m = tuple(sorted(draw(st.sets(st.integers(0, d), min_size=1))))
        phi = AffineMap.from_monotone.__wrapped__(m, d)
    else:
        d = draw(st.integers(0, 2))
        extra = draw(st.lists(st.integers(0, d), min_size=1, max_size=3 - d))
        phi = AffineMap.from_monotone.__wrapped__(tuple(sorted(list(range(d + 1)) + extra)), d)
    k = draw(st.integers(0, min(d, 2)))
    monos = [e for e in itertools.product(range(4), repeat=d) if sum(e) <= 3]
    comps = {}
    for I in itertools.combinations(range(d), k):
        es = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        comps[I] = Poly(d, {e: _gaussian_tau_scalar(draw) for e in es})
    return PolyForm(d, k, comps), phi


@settings(max_examples=150, deadline=None)
@given(form_and_fresh_map(), st.data())
def test_cold_pullback_matches_the_table_free_oracle(case, data):
    """A pullback along a fresh map, which fills its image table, equals
    chained products and wedged coordinate differentials; so do the warm
    repeat, which along an affine map is the cold result itself, kept in
    the form's memo, and a second form that reuses part of the table."""
    form, phi = case
    assert not phi.memo and not phi.images
    expected = pullback_reference(form, phi)
    cold = form.pullback(phi)
    assert cold == expected
    warm = form.pullback(phi)
    assert warm == expected
    assert (warm is cold) == (type(phi) is AffineMap)
    other = form.d() if form.deg < phi.target_dim else form.scale(data.draw(st.integers(-3, 3)))
    assert other.pullback(phi) == pullback_reference(other, phi)


def _pairs_of_maps(draw, mid):
    """A map into Delta^mid and one out of it: Bernstein maps, or an
    affine face or collapse on either side when the dimensions allow."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    outer = BernsteinMap.random(rng, mid, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    inner = BernsteinMap.random(rng, draw(st.integers(0, 3)), mid, draw(st.integers(0, 3)))
    if mid and draw(st.booleans()):
        inner = AffineMap.from_monotone.__wrapped__(tuple(sorted({0, mid} | {draw(st.integers(0, mid))})), mid)
    if draw(st.booleans()):
        skip = draw(st.integers(0, mid + 1))
        outer = AffineMap.from_monotone.__wrapped__(tuple(v for v in range(mid + 2) if v != skip), mid + 1)
    return outer, inner


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compose_substitutes_each_coordinate(data):
    """PolyMap.compose reads the inner map's image table and equals
    Poly.compose applied to each outer coordinate."""
    mid = data.draw(st.integers(0, 3))
    outer, inner = _pairs_of_maps(data.draw, mid)
    comp = outer.compose(inner)
    assert (comp.source_dim, comp.target_dim) == (inner.source_dim, outer.target_dim)
    src = inner.source_dim
    assert list(comp.coords()) == [c.compose(inner.coords(), source_dim=src) for c in outer.coords()]


@pytest.mark.parametrize("inner_target", [1, 3])
def test_compose_rejects_a_wrong_inner_dimension(inner_target):
    rng = random.Random(4)
    outer = BernsteinMap.random(rng, 2, 3, 2)
    inner = BernsteinMap.random(rng, 1, inner_target, 1)
    with pytest.raises(ValueError):
        outer.compose(inner)
    with pytest.raises(ValueError):
        outer.coords()[0].compose(inner.coords(), source_dim=1)


def test_fresh_map_makes_one_product_per_new_monomial_image(monkeypatch):
    """Each monomial image x^e is the image of x^(e - 1_i) times
    coordinate i, i the last nonzero index: a cold pullback makes one
    Poly product per exponent on those chains and none for the zero
    exponent, and a warm one makes none."""
    rng = random.Random(11)
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: calls.append(q) or mul(p, q))
    for src, tgt, deg, k in [(2, 3, 2, 1), (1, 2, 3, 0), (3, 3, 1, 2), (0, 2, 2, 0), (2, 0, 1, 0)]:
        phi = BernsteinMap.random(rng, src, tgt, deg)
        phi.coords()
        form = random_polyform(rng, tgt, k, 4)
        chains = set()
        for p in form.comps.values():
            for e in p.terms:
                while any(e) and e not in chains:
                    chains.add(e)
                    i = max(j for j, n in enumerate(e) if n)
                    e = e[:i] + (e[i] - 1,) + e[i + 1:]
        calls.clear()
        pulled = form.pullback(phi)
        assert len(calls) == len(chains)
        assert all(q in phi.coords() for q in calls)
        assert {_exponent(tgt, key) for key in phi.images if type(key) is int and key} == chains
        calls.clear()
        assert form.pullback(phi) == pulled
        assert not calls


@pytest.mark.parametrize("d", range(7))
def test_lam_power_matches_the_expansion(d):
    """lam^b from the table of powers of lam_0 has the multinomial
    expansion's terms in the same order, which fixes the term order of
    the forms built from it, for every |b| <= 8."""
    rng = random.Random(d)
    for b0 in range(9):
        for _ in range(3):
            rest = []
            for _ in range(d):
                rest.append(rng.randrange(9 - b0 - sum(rest)))
            b = (b0,) + tuple(rest)
            assert [(_exponent(d, e), c) for e, c in _lam_power(d, b).items()] == list(lam_power_reference(d, b).items())


def test_affine_maps_shared_and_memoised(monkeypatch):
    """Repeat validations of one connection build no maps and no memo
    entries, and the repeat gets each pullback from its form's memo."""
    from chernweil import forms

    P = trivial_bundle(boundary_sphere(2), lie_algebra("su2"))
    D = random_connection(P, 3)
    results = []
    pullback = PolyForm.pullback
    monkeypatch.setattr(PolyForm, "pullback", lambda f, phi: results.append(pullback(f, phi)) or results[-1])
    assert validate_connection(P, D).ok
    first = results[:]
    maps = [
        AffineMap.from_monotone(m, d)
        for d in range(3)
        for k in range(3)
        for m in itertools.combinations_with_replacement(range(d + 1), k + 1)
    ]
    sizes = [len(phi.memo) for phi in maps]
    assert sum(sizes) > 0
    before = AffineMap.from_monotone.cache_info()
    faces = AffineMap.face.cache_info()
    built = []
    pull = forms._pull_monomial
    monkeypatch.setattr(forms, "_pull_monomial", lambda *args: built.append(args) or pull(*args))
    results.clear()
    assert validate_connection(P, D).ok
    assert not built
    after = AffineMap.from_monotone.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert AffineMap.face.cache_info().hits > faces.hits
    assert first and len(results) == len(first)
    assert all(g is f for f, g in zip(first, results))
    assert [len(phi.memo) for phi in maps] == sizes


def test_serialization_is_canonical_equality():
    from chernweil.io import polyform_to_str

    rng = random.Random(17)
    for _ in range(20):
        f = random_polyform(rng, 3, 2, 2)
        g = PolyForm(3, 2, dict(reversed(list(f.comps.items()))))
        assert polyform_to_str(f) == polyform_to_str(g)

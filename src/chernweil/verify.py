"""Named invariant checks behind the CLI's verify command.

Each check returns (name, ok, detail).  All randomness is drawn from a
single seeded generator per check, so reports are byte-identical for a
fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import bundles as bn
from . import cw
from . import forms as fm
from . import liealg as la
from . import simplicial as sc
from .poly import Poly
from .scalars import Scalar


def _maps_for_tests():
    tds = sc.two_disk_sphere()
    d2 = sc.standard_simplex(2)
    # the inclusion of the first disk, and the fold of both disks onto it
    incl = sc.SimplicialMap(d2, tds, {s: (s, ()) for s in d2.all_cells()})
    top = sc.SimplexId(2, 0)
    fold = sc.SimplicialMap(tds, d2, {s: (top if s.dim == 2 else s, ()) for s in tds.all_cells()})
    return tds, d2, incl, fold


def check_boundary_squared(seed):
    for X in [sc.boundary_sphere(2), sc.boundary_sphere(3), sc.two_disk_sphere()]:
        for k in range(2, X.dim + 1):
            low = sc.boundary_operator(X, k - 1)
            for col in sc.boundary_operator(X, k):
                out = {}
                for m, v in col.items():
                    for r, w in low[m].items():
                        out[r] = out.get(r, 0) + v * w
                if any(out.values()):
                    return False, f"boundary composite nonzero on {X.counts}"
    return True, "d o d = 0 on all test spaces"


def check_coboundary_squared(seed):
    rng = random.Random(seed)
    X = sc.boundary_sphere(2)
    for _ in range(30):
        c = sc.Cochain(0, {sid: Scalar.from_rational(rng.randrange(-5, 6), rng.randrange(1, 4)) for sid in X.cells(0)})
        if not sc.coboundary(X, sc.coboundary(X, c)).is_zero():
            return False, "d(d c) != 0"
    return True, "coboundary squared vanishes on random cochains"


def check_betti(seed):
    expect = [
        (sc.boundary_sphere(2), [1, 0, 1]),
        (sc.boundary_sphere(3), [1, 0, 0, 1]),
        (sc.two_disk_sphere(), [1, 0, 1]),
        (sc.standard_simplex(3), [1, 0, 0, 0]),
    ]
    for X, want in expect:
        got = sc.betti_numbers(X, len(want) - 1)
        if got != want:
            return False, f"betti {got} != {want}"
    return True, "betti numbers match on spheres and simplices"


def check_homotopy_invariance(seed):
    X = sc.two_disk_sphere()
    prod, i0, i1 = sc.cylinder(X)
    P = prod.space
    if sc.betti_numbers(P, 2) != sc.betti_numbers(X, 2):
        return False, "product with interval changed betti numbers"
    # pullbacks of a closed cochain along homotopic maps differ by a coboundary
    rng = random.Random(seed)
    alpha = sc.Cochain(1, {sid: Scalar.from_rational(rng.randrange(-3, 4)) for sid in P.cells(1)})
    closed = sc.coboundary(P, alpha)  # exact, hence closed
    diff = sc.pullback_cochain(i0, closed) - sc.pullback_cochain(i1, closed)
    status, _ = sc.is_coboundary(X, diff)
    if status != "witness":
        return False, "end-inclusion pullbacks not cohomologous"
    return True, "homotopic end inclusions induce equal maps on cohomology"


def check_exterior_calculus(seed):
    rng = random.Random(seed)
    for _ in range(40):
        dim = rng.choice([2, 3])
        k = rng.randrange(0, dim)
        a = fm.random_polyform(rng, dim, k, 2)
        b = fm.random_polyform(rng, dim, rng.randrange(0, dim - k + 1), 2)
        da, db = a.d(), b.d()
        if not da.d().is_zero():
            return False, "d^2 != 0"
        ab = a.wedge(b)
        if ab != b.wedge(a).scale((-1) ** (a.deg * b.deg)):
            return False, "graded commutativity fails"
        lhs = ab.d()
        rhs = da.wedge(b) + a.wedge(db).scale((-1) ** a.deg)
        if lhs != rhs:
            return False, "Leibniz fails"
    return True, "d^2, graded commutativity, Leibniz exact on random forms"


def check_pullback_functorial(seed):
    rng = random.Random(seed)
    for _ in range(10):
        phi = fm.BernsteinMap.random(rng, 2, 3, 2)
        psi = fm.BernsteinMap.random(rng, 1, 2, 2)
        omega = fm.random_polyform(rng, 3, rng.choice([1, 2]), 1)
        lhs = omega.pullback(phi.compose(psi))
        rhs = omega.pullback(phi).pullback(psi)
        if lhs != rhs:
            return False, "(phi o psi)^* != psi^* o phi^*"
        if omega.d().pullback(phi) != omega.pullback(phi).d():
            return False, "pullback does not commute with d"
    return True, "pullback functorial and commutes with d, exactly"


def check_integration(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(60):
        dim = rng.choice([1, 2, 3])
        f = fm.random_polyform(rng, dim, dim, 3)
        exact = f.integrate_top().to_complex()
        quad = cw.quadrature_integrate(f, order=8)
        worst = max(worst, abs(exact - quad) / max(1.0, abs(exact)))
    ok = worst < 1e-9
    return ok, f"factorial-identity vs quadrature, worst rel err {worst:.2e}"


def _simplex_points(rng, n):
    """n uniform points (x1, x2) of Delta^2: three exponential draws
    normalised to barycentric coordinates (x0, x1, x2)."""
    points = []
    for _ in range(n):
        e0, e1, e2 = rng.expovariate(1.0), rng.expovariate(1.0), rng.expovariate(1.0)
        s = e0 + e1 + e2
        points.append((e1 / s, e2 / s))
    return points


def _real_values(polys, points):
    """Per point, the real parts of the polynomials' values: each term's
    complex coefficient (Poly._complex_terms) times complex integer powers
    of the coordinates, multiplied in coordinate order and summed in terms
    order.  Terms are evaluated on all points at once, and each column of
    powers z_i**k is built once."""
    cols = [list(map(complex, c)) for c in zip(*points)]
    powers = {}
    rows = []
    for p in polys:
        total = [0j] * len(points)
        for e, c in p._complex_terms():
            v = [c] * len(points)
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = [z**k for z in cols[i]]
                    v = [a * b for a, b in zip(v, powers[i, k])]
            total = [t + a for t, a in zip(total, v)]
        rows.append([t.real for t in total])
    return [list(r) for r in zip(*rows)]


def check_bernstein_containment(seed):
    rng = random.Random(seed)
    # the points have their own stream, so the maps drawn from rng do not
    # depend on how the points are drawn
    point_rng = random.Random(seed)
    for _ in range(5):
        phi = fm.BernsteinMap.random(rng, 2, 3, 2)
        if not phi.is_valid():
            return False, "random Bernstein map has invalid control points"
        for v in _real_values(phi.coords(), _simplex_points(point_rng, 200)):
            if any(x < -1e-12 for x in v) or sum(v) > 1 + 1e-12:
                return False, "image point escaped the simplex"
    return True, "Bernstein maps stay inside the target simplex (1000 samples)"


def check_stokes(seed):
    rng = random.Random(seed)
    for X in [sc.boundary_sphere(2), sc.two_disk_sphere()]:
        for _ in range(15):
            k = rng.randrange(0, 3)
            om = fm.random_simplicial_form(X, k, rng)
            lhs = fm.integrate_to_cochain(om.d())
            rhs = sc.coboundary(X, fm.integrate_to_cochain(om))
            if not (lhs - rhs).is_zero():
                return False, "integration does not commute with d"
    return True, "integration commutes with d, exactly"


def check_whitney(seed):
    rng = random.Random(seed)
    for _ in range(10):
        om = fm.random_simplicial_form(sc.boundary_sphere(2), 1, rng)
        if fm.check_simplicial_form(om):
            return False, "random simplicial form incompatible"
        sid = sc.SimplexId(2, 0)
        pres = {i: fm.form_on(om.forms, sc.boundary_sphere(2).face(sid, i)) for i in range(3)}
        ext = fm.whitney_extend(2, 1, pres)
        for i in range(3):
            if ext.pullback(fm.AffineMap.face(2, i)) != pres[i]:
                return False, "extension does not restrict to prescription"
    return True, "boundary-prescribed extension restricts exactly"


def check_lie_invariance(seed):
    su2 = la.lie_algebra("su2")
    for rho in [
        la.sym_trace_poly(su2, 2),
        la.sym_trace_poly(su2, 3),
        la.chern_polynomial(su2, 2),
        la.reznikov_pullback(su2, 2),
        la.reznikov_pullback(su2, 4),
    ]:
        bad = la.check_invariant_polynomial(rho, random.Random(seed))
        if bad:
            return False, f"{rho.provenance}: {bad}"
    return True, "symtrace/chern/reznikov Ad-invariant, symmetric, multilinear, exactly"


def check_polarize(seed):
    su2 = la.lie_algebra("su2")

    def p(v):
        return (v[0] + 2 * v[1]) * (v[0] + 2 * v[1]) * v[2]

    rho = la.polarize(su2, p, 3)
    rng = random.Random(seed)
    for _ in range(20):
        coords = [Fraction(rng.randrange(-6, 7), 3) for _ in range(3)]
        x = {a: Scalar.coerce(c) for a, c in enumerate(coords) if c}
        if rho.contract([x] * rho.arity, Scalar.zero()) != Scalar.coerce(p(coords)):
            return False, "polarize/diagonal round trip failed"
    return True, "polarize o diagonal is the identity, exactly"


def check_reznikov(seed):
    su2 = la.lie_algebra("su2")
    trace_form = la.sym_trace_poly(su2, 2).tensor()
    if la.reznikov_pullback(su2, 2).tensor() != {a: v * Fraction(-2, 3) for a, v in trace_form.items()}:
        return False, "reznikov:2 is not -2/3 times the trace form"
    for k in (1, 3):
        if la.reznikov_pullback(su2, k).tensor():
            return False, f"reznikov:{k} does not vanish"
    return True, "reznikov:2 == -2/3 * trace form; reznikov:1 and reznikov:3 vanish, exactly"


def check_ad_cayley(seed):
    """Cayley factors' exact kernels against matrix products: for 20
    rational h on su2, cay(h) cay(-h) is the identity, and for either
    sign the coordinates of cay(h) e_b cay(-h) are column b of Ad."""
    su2 = la.lie_algebra("su2")
    rng = random.Random(seed)
    one = [[Scalar.of(int(r == c)) for c in range(su2.n)] for r in range(su2.n)]
    for _ in range(20):
        k = bn.Cayley(su2, [Fraction(rng.randrange(-8, 9), rng.randrange(1, 9)) for _ in range(su2.dim)])
        for c in (k, -k):
            g, gi = c.matrix, (-c).matrix
            if la.mat_mul(g, gi) != one:
                return False, f"cay(h) cay(-h) is not the identity for h = {[str(x) for x in c.h]}"
            L, rows = c.ad
            for b, e in enumerate(su2.basis):
                col = {a: Scalar.from_rational(row[b], L) for a, row in enumerate(rows) if row[b]}
                if su2.coordinates(la.mat_mul(la.mat_mul(g, e), gi)) != col:
                    return False, f"Ad(cay(h)) column {b} is not cay(h) e_{b} cay(-h) for h = {[str(x) for x in c.h]}"
    return True, "Ad(cay(h)) e_b == cay(h) e_b cay(-h) for 20 rational h, exactly"


def check_clutch_winding(seed):
    for n in range(-5, 6):
        P, D = bn.clutch_bundle(n)
        if not bn.validate_bundle(P).ok:
            return False, f"clutch({n}) fails cocycle"
        if not bn.validate_connection(P, D).ok:
            return False, f"clutch({n}) connection fails gauge check"
        if bn.clutch_winding(P) != Scalar.from_rational(n):
            return False, f"clutch({n}) winding oracle mismatch"
    return True, "clutch winding oracle exact for n in -5..5"


def check_bundle_validation(seed):
    rng = random.Random(seed)
    tds = sc.two_disk_sphere()
    P = bn.random_u1_bundle(tds, rng)
    if not bn.validate_bundle(P).ok:
        return False, "random u1 bundle fails validation"
    # perturb one transition; the validator must locate a failure
    bad = P.copy()
    key = (sc.SimplexId(2, 0), 1)
    tw = bn.LieValuedForm.from_polys(P.algebra, [Poly(1, {(1,): Scalar.from_rational(1, 3)})])
    bad.transitions[key] = bn.TransitionMap.single(tw).compose(bad.transitions[key])
    rep = bn.validate_bundle(bad)
    if rep.ok:
        return False, "perturbed bundle passed validation"
    return True, "cocycle validator accepts valid and locates broken transitions"


def check_connections(seed):
    P, D0 = bn.clutch_bundle(1)
    D1 = bn.random_connection(P, seed)
    if not bn.validate_connection(P, D1).ok:
        return False, "constructed clutch connection invalid"
    su2 = la.lie_algebra("su2")
    Ps = bn.trivial_bundle(sc.boundary_sphere(2), su2)
    Ds = bn.random_connection(Ps, seed + 1)
    rep = bn.validate_connection(Ps, Ds)
    if not rep.ok:
        return False, "su2 trivial-bundle connection not exactly compatible"
    return True, "skeletal constructor yields gauge-compatible connections"


def check_concordance(seed):
    P, D0 = bn.clutch_bundle(1)
    D1 = bn.random_connection(P, seed)
    conc = bn.concordance(P, D0, D1)
    r0 = conc.restrict(conc.end0)
    r1 = conc.restrict(conc.end1)
    if not all(r0[s] == D0.forms[s] for s in P.base.all_cells()):
        return False, "concordance end 0 restriction differs"
    if not all(r1[s] == D1.forms[s] for s in P.base.all_cells()):
        return False, "concordance end 1 restriction differs"
    if not bn.validate_connection(conc.bundle, conc.connection).ok:
        return False, "concordance connection fails gauge check"
    return True, "concordance restricts exactly to both ends"


def check_horn_filling(seed):
    rng = random.Random(seed)
    for (n, k) in [(2, 1), (3, 0)]:
        H = sc.horn(n, k)
        P = bn.random_u1_bundle(H.space, rng)
        try:
            filled = bn.horn_fill_bundle(H, P)
        except bn.BundleError as e:
            return False, f"no filler over Lambda^{n}_{k}: {e}"
        rep = bn.validate_bundle(filled)
        if not rep.ok:
            return False, f"no filler over Lambda^{n}_{k}: {rep.failures[0]}"
        back = bn.pullback_bundle(H.inclusion, filled)
        if back.transitions != P.transitions:
            return False, f"filler restriction differs on Lambda^{n}_{k}"
    return True, "horn fillers restrict to their input data exactly"


def check_bundle_pullback(seed):
    tds, d2, incl, fold = _maps_for_tests()
    rng = random.Random(seed)
    P = bn.random_u1_bundle(tds, rng)
    d1 = sc.standard_simplex(1)
    V = sc.SimplexId
    f = sc.SimplicialMap(d1, d2, {V(0, 0): (V(0, 1), ()), V(0, 1): (V(0, 2), ()), V(1, 0): (V(1, 2), ())})
    lhs = bn.pullback_bundle(incl.compose(f), P)
    rhs = bn.pullback_bundle(f, bn.pullback_bundle(incl, P))
    if not lhs.data_equal(rhs):
        return False, "(g o f)^* P != f^*(g^* P) as data"
    if not bn.pullback_bundle(sc.SimplicialMap.identity(tds), P).data_equal(P):
        return False, "identity pullback changed data"
    return True, "bundle pullback functorial as data equality"


def check_clutch_integrality(seed):
    u1 = la.lie_algebra("u1")
    c1 = la.chern_polynomial(u1, 1)
    for n in range(-5, 6):
        P, D = bn.clutch_bundle(n)
        rep = cw.class_report(c1, P, D, [sc.fundamental_cycle_two_disk(P.base)])
        if not rep.closed:
            return False, f"chern cochain not closed for clutch({n})"
        v = rep.pairings[0]
        if v != Scalar.from_rational(n):
            return False, f"pairing for clutch({n}) is {v!r}"
    return True, "chern:1 pairing equals the winding, exactly, for n in -5..5"


def check_connection_independence(seed):
    u1 = la.lie_algebra("u1")
    c1 = la.chern_polynomial(u1, 1)
    P, D0 = bn.clutch_bundle(1)
    D1 = bn.random_connection(P, seed)
    rep = cw.connection_independence(P, D0, D1, c1)
    if not rep.ok:
        return False, "clutch(1) difference not a coboundary"
    su2 = la.lie_algebra("su2")
    Ps = bn.trivial_bundle(sc.boundary_sphere(2), su2)
    rep = cw.connection_independence(
        Ps, bn.random_connection(Ps, seed + 1), bn.random_connection(Ps, seed + 2), la.sym_trace_poly(su2, 2)
    )
    if not rep.ok:
        return False, "su2 difference not a coboundary"
    # negative control: different bundles have different classes
    P2, D2 = bn.clutch_bundle(2)
    P3, D3 = bn.clutch_bundle(3)
    status, _ = sc.is_coboundary(P2.base, cw.cw_cochain(c1, D2) - cw.cw_cochain(c1, D3))
    if status != "cycle":
        return False, "negative control failed: clutch(2) vs clutch(3)"
    return True, "characteristic cochains connection-independent; negative control holds"


def check_naturality(seed):
    tds, d2, incl, fold = _maps_for_tests()
    u1 = la.lie_algebra("u1")
    c1 = la.chern_polynomial(u1, 1)
    P, D = bn.clutch_bundle(1)
    D1 = bn.random_connection(P, seed)
    if not cw.naturality_check(incl, P, c1, D1).ok:
        return False, "naturality fails along the inclusion"
    Pt = bn.trivial_bundle(d2, u1)
    if not cw.naturality_check(fold, Pt, c1, bn.random_connection(Pt, seed + 1)).ok:
        return False, "naturality fails along the fold map"
    if not cw.naturality_check(sc.SimplicialMap.identity(tds), P, c1, D1).ok:
        return False, "naturality fails along the identity"
    return True, "cochain-level naturality exact on test maps"


def check_classical_agreement(seed):
    u1 = la.lie_algebra("u1")
    c1 = la.chern_polynomial(u1, 1)
    for n in [-2, 1, 3]:
        P, D = bn.clutch_bundle(n)
        verdict, simp, classical = cw.classical_agreement_check(
            P, D, c1, sc.fundamental_cycle_two_disk(P.base)
        )
        if not verdict.ok:
            return False, f"clutch({n}): {verdict.detail}"
    Pt = bn.trivial_bundle(sc.two_disk_sphere(), u1)
    Dt = bn.Connection(Pt, {s: bn.LieValuedForm.zero(u1, s.dim, 1) for s in Pt.base.all_cells()})
    verdict, simp, classical = cw.classical_agreement_check(Pt, Dt, c1, sc.fundamental_cycle_two_disk(Pt.base))
    if not verdict.ok or abs(classical) > 1e-12:
        return False, "trivial bundle classical comparison failed"
    return True, "simplicial pairing matches the quadrature of the curvature integrand"


def generic_curvature(alg, dim, rng):
    """Random curvature with a nonvanishing top characteristic form."""
    for _ in range(50):
        A = bn.LieValuedForm(
            alg, dim, 1, [fm.random_polyform(rng, dim, 1, 1) for _ in range(alg.dim)]
        )
        F = cw.curvature_form(A)
        if not F.is_zero():
            return F
    raise RuntimeError("could not draw a generic curvature")


def check_calibration(seed):
    rng = random.Random(seed)
    su2 = la.lie_algebra("su2")
    u1 = la.lie_algebra("u1")
    found = {}
    for name, alg, k, dim in [("u1", u1, 1, 2), ("su2", su2, 2, 4)]:
        rho = la.sym_trace_poly(alg, k)
        vals = set()
        for _ in range(6):
            F = generic_curvature(alg, dim, rng)
            vals.add(cw.calibrate_cw_constant(rho, F))
        if len(vals) != 1:
            return False, f"calibration constant not stable for k={k}"
        found[k] = vals.pop()
    return True, (
        "wedge/permutation constants stable: "
        f"k=1 -> {found[1]!r}, k=2 -> {found[2]!r}"
    )


def check_gauge_independence(seed):
    u2 = la.lie_algebra("u2")
    bs = sc.boundary_sphere(2)
    P = bn.trivial_bundle(bs, u2)
    D = bn.random_connection(P, seed)
    rho = la.sym_trace_poly(u2, 1)
    before = cw.cw_cochain(rho, D)
    rng = random.Random(seed + 1)
    gauges = {
        sid: bn.TransitionMap.cayley(u2, sid.dim, [Fraction(rng.randrange(-4, 5), 8) for _ in range(4)])
        for sid in bs.all_cells()
    }
    P2, D2 = bn.apply_gauge(P, gauges, D)
    rep = bn.validate_connection(P2, D2)
    if not rep.ok:
        return False, "gauge-transformed connection not exactly compatible"
    ok = cw.cw_cochain(rho, D2) == before
    return ok, "cochain values gauge-chart independent, exactly"


SUITES = {
    "simplicial": [
        ("boundary-squared-zero", check_boundary_squared),
        ("coboundary-squared-zero", check_coboundary_squared),
        ("betti-numbers", check_betti),
        ("homotopy-invariance", check_homotopy_invariance),
    ],
    "forms": [
        ("exterior-calculus", check_exterior_calculus),
        ("pullback-functorial", check_pullback_functorial),
        ("integration-oracle", check_integration),
        ("bernstein-containment", check_bernstein_containment),
        ("stokes-commutation", check_stokes),
        ("whitney-extension", check_whitney),
    ],
    "liealg": [
        ("invariant-polynomials", check_lie_invariance),
        ("polarize-roundtrip", check_polarize),
        ("reznikov-pullback", check_reznikov),
        ("ad-cayley", check_ad_cayley),
    ],
    "bundles": [
        ("clutch-winding", check_clutch_winding),
        ("bundle-validation", check_bundle_validation),
        ("connection-construction", check_connections),
        ("concordance-ends", check_concordance),
        ("horn-filling", check_horn_filling),
        ("bundle-pullback-functorial", check_bundle_pullback),
    ],
    "chernweil": [
        ("clutch-integrality", check_clutch_integrality),
        ("connection-independence", check_connection_independence),
        ("naturality", check_naturality),
        ("classical-agreement", check_classical_agreement),
        ("calibration-stability", check_calibration),
        ("gauge-independence", check_gauge_independence),
    ],
}


def run_suite(names, seed=0):
    """Run the requested suites; yields (check name, ok, detail)."""
    results = []
    for suite in names:
        for name, fn in SUITES[suite]:
            ok, detail = fn(seed)
            results.append((name, ok, detail))
    return results

"""Polynomial differential forms on standard simplices.

A PolyForm of degree k on Delta^d stores one Poly per strictly
increasing index tuple (antisymmetry lives in the indexing).  Exterior
derivative, wedge and pullback are all exact; integration of a
top-degree form uses the Dirichlet monomial identity

    int_{Delta^d} x^a dV = (prod a_i!) / (d + sum a_i)!

applied termwise, so no quadrature enters the main path.

A SimplicialForm assigns a PolyForm to every nondegenerate simplex of a
base simplicial set, compatibly under face pullback; degenerate
simplices implicitly carry the pullback along their collapse map.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .linalg import PrecomputedSolver, sort_sign
from .poly import Poly, bernstein_basis
from .scalars import Scalar
from .simplicial import (
    Cochain,
    mono_skip,
    word_epi,
)


class DegreeMismatchError(ValueError):
    pass


class FaceConsistencyError(ValueError):
    pass


class PolyForm:
    __slots__ = ("dim", "deg", "comps")

    def __init__(self, dim, deg, comps=None):
        if not 0 <= deg:
            raise ValueError("negative form degree")
        self.dim = dim
        self.deg = deg
        c = {}
        for I, p in (comps or {}).items():
            I = tuple(I)
            if list(I) != sorted(set(I)):
                raise ValueError(f"component index {I} not strictly increasing")
            if not isinstance(p, Poly):
                p = Poly.const(dim, p)
            if not p.is_zero():
                c[I] = p
        self.comps = c

    @staticmethod
    def zero(dim, deg):
        return PolyForm(dim, deg, {})

    @staticmethod
    def from_poly(p):
        return PolyForm(p.dim, 0, {(): p})

    @staticmethod
    def dx(dim, i):
        return PolyForm(dim, 1, {(i,): Poly.const(dim, 1)})

    def component(self, I):
        return self.comps.get(tuple(I), Poly.zero(self.dim))

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and self.dim == other.dim
            and self.deg == other.deg
            and self.comps == other.comps
        )

    def __add__(self, other):
        if (self.dim, self.deg) != (other.dim, other.deg):
            raise ValueError("form shape mismatch")
        c = dict(self.comps)
        for I, p in other.comps.items():
            s = c.get(I, Poly.zero(self.dim)) + p
            if s.is_zero():
                c.pop(I, None)
            else:
                c[I] = s
        return PolyForm(self.dim, self.deg, c)

    def __neg__(self):
        return PolyForm(self.dim, self.deg, {I: -p for I, p in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return PolyForm(self.dim, self.deg, {I: p.scale(c) for I, p in self.comps.items()})

    def mul_poly(self, q):
        return PolyForm(self.dim, self.deg, {I: p * q for I, p in self.comps.items()})

    def d(self):
        """Exterior derivative; d o d = 0 exactly."""
        out = {}
        for I, p in self.comps.items():
            for j in range(self.dim):
                if j in I:
                    continue
                dp = p.diff(j)
                if dp.is_zero():
                    continue
                sign = (-1) ** sum(1 for i in I if i < j)
                K = tuple(sorted(I + (j,)))
                s = out.get(K, Poly.zero(self.dim)) + dp.scale(Fraction(sign))
                if s.is_zero():
                    out.pop(K, None)
                else:
                    out[K] = s
        return PolyForm(self.dim, self.deg + 1, out)

    def wedge(self, other):
        if self.dim != other.dim:
            raise ValueError("wedge dimension mismatch")
        out = {}
        for I, p in self.comps.items():
            for J, q in other.comps.items():
                K, sign = sort_sign(I + J)
                if sign == 0:
                    continue
                s = out.get(K, Poly.zero(self.dim)) + (p * q).scale(Fraction(sign))
                if s.is_zero():
                    out.pop(K, None)
                else:
                    out[K] = s
        return PolyForm(self.dim, self.deg + other.deg, out)

    def pullback(self, phi):
        """Pullback along a polynomial or affine map into Delta^dim."""
        if phi.target_dim != self.dim:
            raise ValueError("pullback target dimension mismatch")
        coords = phi.coords()
        src = phi.source_dim
        if self.deg > src:
            return PolyForm(src, self.deg, {})
        dcoords = []
        for c in coords:
            dcoords.append(
                PolyForm(src, 1, {(j,): c.diff(j) for j in range(src) if not c.diff(j).is_zero()})
            )
        out = PolyForm.zero(src, self.deg)
        for I, p in self.comps.items():
            term = PolyForm.from_poly(p.compose(coords, source_dim=src))
            for i in I:
                term = term.wedge(dcoords[i])
            out = out + term
        return out

    def integrate_top(self):
        """Exact integral over Delta^dim of a top-degree form."""
        if self.deg != self.dim:
            raise DegreeMismatchError(
                f"integrate_top needs degree {self.dim}, got {self.deg}"
            )
        if self.dim == 0:
            return self.component(()).eval([])
        p = self.component(tuple(range(self.dim)))
        out = Scalar.zero()
        for e, c in p.terms.items():
            num = 1
            for a in e:
                num *= factorial(a)
            out = out + c * Fraction(num, factorial(self.dim + sum(e)))
        return out

    def eval_at(self, point):
        """Component values at a float point, as a dict I -> complex."""
        return {I: p.eval_complex(point) for I, p in self.comps.items()}

    def total_poly_degree(self):
        return max((p.total_degree() for p in self.comps.values()), default=0)

    def __repr__(self):
        if not self.comps:
            return f"PolyForm(0; dim={self.dim}, deg={self.deg})"
        bits = [f"dx{I}: {p!r}" for I, p in sorted(self.comps.items())]
        return "PolyForm(" + "; ".join(bits) + ")"


# ---------------------------------------------------------------------------
# maps into simplices


class AffineMap:
    """Affine map Delta^k -> Delta^d induced by a monotone vertex map."""

    def __init__(self, source_dim, target_dim, coord_polys):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self._coords = coord_polys

    def coords(self):
        return self._coords

    @staticmethod
    def from_monotone(m, target_dim):
        k = len(m) - 1
        # barycentric coordinates of the source
        lam0 = Poly.const(k, 1)
        for i in range(k):
            lam0 = lam0 - Poly.var(k, i)
        lams = [lam0] + [Poly.var(k, i) for i in range(k)]
        coords = []
        for target_coord in range(1, target_dim + 1):
            p = Poly.zero(k)
            for j, v in enumerate(m):
                if v == target_coord:
                    p = p + lams[j]
            coords.append(p)
        am = AffineMap(k, target_dim, coords)
        am.vertex_map = tuple(m)
        return am

    @staticmethod
    def face(d, i):
        """The inclusion Delta^{d-1} -> Delta^d omitting vertex i."""
        return AffineMap.from_monotone(mono_skip(d, {i}), d)

    @staticmethod
    def collapse(word, top_dim):
        """The degeneracy collapse s_word: Delta^top -> Delta^{top-|word|}."""
        return AffineMap.from_monotone(word_epi(word, top_dim), top_dim - len(word))

    @staticmethod
    def identity(d):
        return AffineMap.from_monotone(tuple(range(d + 1)), d)

    def compose(self, inner):
        """self o inner as an affine map (vertex maps compose)."""
        m = tuple(self.vertex_map[v] for v in inner.vertex_map)
        return AffineMap.from_monotone(m, self.target_dim)


class BernsteinMap:
    """Polynomial map Delta^k -> Delta^d in Bernstein-Bezier form.

    Control points live in Delta^d, so the image is contained in
    Delta^d by convexity; validity is the syntactic check that each
    control point has nonnegative coordinates summing to at most 1.
    """

    def __init__(self, source_dim, target_dim, degree, control):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.degree = degree
        self.control = {tuple(a): tuple(Fraction(x) for x in pt) for a, pt in control.items()}
        self._coord_cache = None

    def is_valid(self):
        for pt in self.control.values():
            if len(pt) != self.target_dim:
                return False
            if any(x < 0 for x in pt) or sum(pt) > 1:
                return False
        return True

    def coords(self):
        if self._coord_cache is None:
            basis = bernstein_basis(self.source_dim, self.degree)
            coords = []
            for l in range(self.target_dim):
                p = Poly.zero(self.source_dim)
                for a, B in basis.items():
                    c = self.control[a][l]
                    if c:
                        p = p + B.scale(c)
                coords.append(p)
            self._coord_cache = coords
        return self._coord_cache

    @staticmethod
    def random(rng, source_dim, target_dim, degree, denominator=8):
        from .poly import _compositions

        control = {}
        for a in _compositions(degree, source_dim + 1):
            weights = [Fraction(rng.randrange(denominator + 1)) for _ in range(target_dim + 1)]
            total = sum(weights) or Fraction(1)
            pt = [w / total for w in weights[1:]]
            control[a] = pt
        return BernsteinMap(source_dim, target_dim, degree, control)


# ---------------------------------------------------------------------------
# simplicial forms


def form_on(forms_by_sid, fs):
    """The form a formal simplex (sid, word) carries: forms_by_sid[sid]
    pulled back along the degeneracy collapse s_word.  Works for any
    per-simplex data with a ``pullback`` (forms, Lie-valued forms and
    polynomials)."""
    sid, word = fs
    f = forms_by_sid[sid]
    if not word:
        return f
    return f.pullback(AffineMap.collapse(word, sid.dim + len(word)))


class SimplicialForm:
    """One PolyForm per nondegenerate simplex, compatible under faces."""

    def __init__(self, base, deg, forms):
        self.base = base
        self.deg = deg
        self.forms = {}
        for sid in base.all_cells():
            f = forms.get(sid)
            self.forms[sid] = f if f is not None else PolyForm.zero(sid.dim, deg)

    @staticmethod
    def zero(base, deg):
        return SimplicialForm(base, deg, {})

    def form(self, sid):
        return self.forms[sid]

    def form_on(self, fs):
        """Value on a formal simplex: pullback along the collapse."""
        return form_on(self.forms, fs)

    def d(self):
        return SimplicialForm(self.base, self.deg + 1, {s: f.d() for s, f in self.forms.items()})

    def wedge(self, other):
        if other.base != self.base:
            raise ValueError("wedge of forms over different bases")
        return SimplicialForm(
            self.base,
            self.deg + other.deg,
            {s: f.wedge(other.forms[s]) for s, f in self.forms.items()},
        )

    def __add__(self, other):
        return SimplicialForm(
            self.base, self.deg, {s: f + other.forms[s] for s, f in self.forms.items()}
        )

    def __sub__(self, other):
        return SimplicialForm(
            self.base, self.deg, {s: f - other.forms[s] for s, f in self.forms.items()}
        )

    def scale(self, c):
        return SimplicialForm(self.base, self.deg, {s: f.scale(c) for s, f in self.forms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialForm)
            and self.base == other.base
            and self.deg == other.deg
            and self.forms == other.forms
        )

    def pullback(self, f):
        """f^* along a simplicial map into this form's base."""
        if f.target != self.base:
            raise ValueError("pullback along a map into a different base")
        out = {}
        for sid in f.source.all_cells():
            out[sid] = self.form_on(f.assignment[sid])
        return SimplicialForm(f.source, self.deg, out)


def check_simplicial_form(omega):
    """Verify i^* omega_{Sigma_2} = omega_{Sigma_1} for every face map.

    Returns a list of violations (sigma, face index); empty means the
    compatibility holds exactly.
    """
    X = omega.base
    bad = []
    for d in range(1, X.dim + 1):
        for sid in X.cells(d):
            for i in range(d + 1):
                lhs = omega.form(sid).pullback(AffineMap.face(d, i))
                rhs = omega.form_on(X.face(sid, i))
                if lhs != rhs:
                    bad.append((sid, i))
    return bad


def integrate_to_cochain(omega):
    """The integration cochain; commutes with d exactly (Stokes)."""
    X = omega.base
    k = omega.deg
    values = {}
    for sid in X.cells(k):
        values[sid] = omega.form(sid).integrate_top()
    return Cochain(k, values)


def induced_form_on_standard_simplex(X, global_form):
    """Pull a global form on Delta^n back to every cell of a subcomplex of it.

    X must come from the subset-indexed builders (standard_simplex,
    boundary_sphere, horn spaces); this is the induced simplicial form
    of a globally defined form, and it is coherent by construction.
    """
    n = global_form.dim
    out = {}
    for subset, sid in X._subset_index.items():
        out[sid] = global_form.pullback(AffineMap.from_monotone(subset, n))
    return SimplicialForm(X, global_form.deg, out)


# ---------------------------------------------------------------------------
# boundary-prescribed extension


def _monomials_up_to(dim, degree):
    out = []
    for total in range(degree + 1):
        for e in itertools.product(range(total + 1), repeat=dim):
            if sum(e) == total:
                out.append(e)
    return out


def check_prescription_consistency(d, prescriptions):
    """Exact agreement of facet data on facet intersections.

    prescriptions: dict facet index -> PolyForm on Delta^{d-1}.  Uses
    the cosimplicial identity delta_i o delta_{j-1} = delta_j o delta_i
    for i < j.
    """
    bad = []
    idx = sorted(prescriptions)
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            lhs = prescriptions[i].pullback(AffineMap.face(d - 1, j - 1))
            rhs = prescriptions[j].pullback(AffineMap.face(d - 1, i))
            if lhs != rhs:
                bad.append((i, j))
    return bad


def whitney_extend(d, deg, prescriptions, extra_degree=0):
    """Polynomial form on Delta^d with prescribed facet pullbacks.

    prescriptions maps facet indices to PolyForms on Delta^{d-1};
    missing facets are unconstrained.  The data must agree exactly on
    facet intersections.  The extension is found by an exact linear
    solve over a monomial ansatz whose degree starts at the prescribed
    degree and is bumped until the system is solvable; with fixed
    variable ordering and pivoting the result is deterministic.
    """
    prescriptions = {
        i: (f if isinstance(f, PolyForm) else PolyForm(d - 1, deg, f))
        for i, f in prescriptions.items()
    }
    for i, f in prescriptions.items():
        if f.dim != d - 1 or f.deg != deg:
            raise ValueError(f"prescription {i} has wrong shape")
    bad = check_prescription_consistency(d, prescriptions)
    if bad:
        raise FaceConsistencyError(
            "inconsistent facet data on intersections: "
            + ", ".join(f"faces {i} and {j}" for i, j in bad)
        )
    if deg > d - 1:
        # facet pullbacks of a deg > d-1 form vanish identically
        if any(not f.is_zero() for f in prescriptions.values()):
            raise FaceConsistencyError("nonzero prescription of overflow degree")
        return PolyForm.zero(d, deg)

    facets = tuple(sorted(prescriptions))
    if not facets:
        return PolyForm.zero(d, deg)
    base_degree = max(
        [f.total_poly_degree() for f in prescriptions.values()] + [0]
    ) + extra_degree
    for D in range(base_degree, base_degree + 4):
        unknowns, row_index, solver = _facet_system(d, deg, D, facets)
        rhs = [Scalar.zero()] * len(row_index)
        for (i, J, mu), r in row_index.items():
            rhs[r] = prescriptions[i].component(J).terms.get(mu, Scalar.zero())
        status, data = solver.solve(rhs)
        if status == "solved":
            out = {}
            for (I, e), v in zip(unknowns, data):
                if not v.is_zero():
                    out.setdefault(I, {})[e] = v
            return PolyForm(d, deg, {I: Poly(d, t) for I, t in out.items()})
    raise RuntimeError("no polynomial extension found; ansatz degree exhausted")


_FACET_SYSTEMS = {}


def _facet_system(d, deg, D, facets):
    """The (cached) linear system 'facet pullbacks of a degree-D ansatz'."""
    key = (d, deg, D, facets)
    if key in _FACET_SYSTEMS:
        return _FACET_SYSTEMS[key]
    comps = list(itertools.combinations(range(d), deg))
    tgt_comps = list(itertools.combinations(range(d - 1), deg))
    monos = _monomials_up_to(d, D)
    target_monos = _monomials_up_to(d - 1, D)
    unknowns = [(I, e) for I in comps for e in monos]
    col_of = {u: c for c, u in enumerate(unknowns)}
    row_index = {}
    rows = []
    for i in facets:
        fm = AffineMap.face(d, i)
        pulled = {}
        for I in comps:
            for e in monos:
                basis_form = PolyForm(d, deg, {I: Poly(d, {e: Scalar.one()})})
                pulled[(I, e)] = basis_form.pullback(fm)
        for J in tgt_comps:
            for mu in target_monos:
                row = [Fraction(0)] * len(unknowns)
                for u, pf in pulled.items():
                    c = pf.component(J).terms.get(mu)
                    if c is not None:
                        row[col_of[u]] = c.rational_value()
                row_index[(i, J, mu)] = len(rows)
                rows.append(row)
    solver = PrecomputedSolver(rows)
    out = (unknowns, row_index, solver)
    _FACET_SYSTEMS[key] = out
    return out


def bubble(dim):
    """Product of all barycentric coordinates; vanishes on every facet."""
    p = Poly.const(dim, 1)
    for i in range(dim):
        p = p - Poly.var(dim, i)
    for i in range(dim):
        p = p * Poly.var(dim, i)
    return p


# ---------------------------------------------------------------------------
# random generators (seeded, for property tests and the verify suite)


def random_poly(rng, dim, degree, denominator=6):
    terms = {}
    for e in _monomials_up_to(dim, degree):
        if rng.randrange(2):
            num = rng.randrange(-denominator, denominator + 1)
            if num:
                terms[e] = Scalar.from_rational(num, rng.randrange(1, denominator))
    return Poly(dim, terms)


def random_polyform(rng, dim, deg, degree=2):
    comps = {}
    for I in itertools.combinations(range(dim), deg):
        comps[I] = random_poly(rng, dim, degree)
    return PolyForm(dim, deg, comps)


def random_simplicial_form(X, deg, rng, degree=2):
    """Seeded random compatible simplicial form, built skeletally.

    Faces prescribe each cell's boundary data (via whitney_extend); a
    random bubble-damped interior term keeps the result generic without
    disturbing the facet pullbacks.
    """
    forms = {}
    for d in range(X.dim + 1):
        for sid in X.cells(d):
            if d < deg:
                forms[sid] = PolyForm.zero(d, deg)
                continue
            if d == 0:
                forms[sid] = PolyForm(0, 0, {(): random_poly(rng, 0, 0)})
                continue
            prescriptions = {i: form_on(forms, X.face(sid, i)) for i in range(d + 1)}
            f = whitney_extend(d, deg, prescriptions)
            if deg <= d:
                f = f + random_polyform(rng, d, deg, degree).mul_poly(bubble(d))
            forms[sid] = f
    return SimplicialForm(X, deg, forms)

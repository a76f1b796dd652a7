"""Polynomial differential forms on standard simplices.

A PolyForm of degree k on Delta^d stores one Poly per strictly
increasing index tuple (antisymmetry lives in the indexing).  Exterior
derivative, wedge and pullback are all exact; integration of a
top-degree form uses the Dirichlet monomial identity

    int_{Delta^d} x^a dV = (prod a_i!) / (d + sum a_i)!

applied termwise, so no quadrature enters the main path.  All of them
work on the Polys' int numerators and packed int keys (poly's one
encoding: a shift is one int add, x_i's exponent key // RADIX^i % RADIX),
each output component summed over one denominator and reduced once.  A
wedge, and the bracket of Lie-valued forms with each structure constant
folded into its products, is one _wedge_sum, reading each pair's merged
index and sign from the cache _merge.  integrate_top's own factorial
formula checks cw's integer integral.  PolyForm(...) validates its
components and is for input from outside (parsers, user code); results
canonical by construction are built by the unchecked _form.

Pullback goes through map objects (PolyMap and its AffineMap and
BernsteinMap), which are immutable.  Each map keeps a memo of the
monomial forms x^e dx_I pulled back along it, as int numerators over one
denominator grouped by slot (output component, part), so a form's
pullback only multiplies and adds ints.  A memo miss is one wedge,
image(x^e) ^ image(dx_I), of two entries of the map's image table
(map.images), filled bottom-up on first use: the image of x^e is the
image of x^(e - 1_i) times coordinate i, i the last nonzero index of e,
so each new monomial costs one Poly product; the image of dx_I, keyed
("d", I) apart from the int keys, is the image of dx_I[:-1] wedged with
d(coordinate I[-1]).  PolyMap.compose reads the inner map's table too.
So len(map.images) next to len(map.memo) counts the keys on the chains
below the memo's monomials (0 included) and the prefixes of its
differentials.
AffineMap.from_monotone returns one shared map per vertex map, so every
face and collapse map of a given shape, and its memo and image table, is
built once per process (AffineMap.from_monotone.cache_info() reports
them).

A SimplicialForm assigns a PolyForm to every nondegenerate simplex of a
base simplicial set, compatibly under face pullback; degenerate
simplices implicitly carry the pullback along their collapse map.

Boundary-prescribed extension (whitney_extend) works in the
Whitney-Bernstein basis of Arnold-Falk-Winther, in which the pullback
to a facet keeps a subset of the coefficients: facet data are written
in that basis by closed-form rewriting (_facet_coeffs) and copied to the
simplex, with no linear solve.  Facet data that agree on each facet
intersection (compared by pullback) agree on every shared coefficient,
so each coefficient is taken from the first given facet that holds it.
A facet monomial's owned coefficients, already multiplied out into the
simplex's monomials (_basis_form), are one cached table of small ints
keyed by int slots (component, key) (_owned_table, _slot), and one pass,
_sum_tables, adds every facet term's numerator times its table over one
common denominator.  Given an rng it adds seeded coefficients on
interior basis functions, which vanish on every facet, for
construct_connection and random_simplicial_form, in the same pass.
Each lam^a is lam_0^a_0 read from the cached table _lam0_power, each
power one product of the one below it with lam_0 = 1 - sum x, shifted
by x^(a_1 .. a_d); _lam0_power.cache_info() reports how many powers are
built.  Its order is the exponent tuples' (_exponent), not the keys'.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import attrgetter

from .linalg import multinomial, sort_sign
from .poly import (_CAP, _ONE, _REAL, RADIX, Poly, _check_degree, _compositions, _constant, _exponent, _from_parts,
                   _key, _part_mul, _product_into, _reduce, _scaled)
from .simplicial import (
    Cochain,
    mono_skip,
    word_epi,
)


_new = object.__new__
_den = attrgetter("L")


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
            if len(I) != deg or (I and not 0 <= I[0] <= I[-1] < dim):
                raise ValueError(f"component index {I} is not a degree-{deg} index on Delta^{dim}")
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

    def component(self, I):
        return self.comps.get(tuple(I)) or Poly.zero(self.dim)

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
            q = c.get(I)
            if q is None:
                c[I] = p
                continue
            s = q + p
            if s.parts:
                c[I] = s
            else:
                del c[I]
        return _form(self.dim, self.deg, c)

    def __neg__(self):
        return _form(self.dim, self.deg, {I: -p for I, p in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        const = _constant(c)
        if not const[1]:
            return _form(self.dim, self.deg, {})
        # a nonzero multiple of a nonzero Poly is nonzero
        return _form(self.dim, self.deg, {I: _scaled(p, const) for I, p in self.comps.items()})

    def d(self):
        """Exterior derivative; d o d = 0 exactly.  The term c x^e dx_I
        gives sign * e_j * c x^(e - 1_j) dx_K for dx_j ^ dx_I = sign dx_K,
        over the lcm L of the components' denominators."""
        L = lcm(*map(_den, self.comps.values()))
        acc = {}
        for I, p in self.comps.items():
            _d_into(acc, self.dim, I, p.parts, L // p.L)
        return _form_of(self.dim, self.deg + 1, L, acc)

    def wedge(self, other):
        if self.dim != other.dim:
            raise ValueError("wedge dimension mismatch")
        return _wedge_sum(self.dim, self.deg + other.deg, ((self, other, (1, _ONE)),))

    def pullback(self, phi):
        """Pullback along a polynomial or affine map into Delta^dim.

        Each term c x^e dx_I adds c times the pullback of x^e dx_I, held
        in phi's memo after its first use.  Each slot (output component,
        image part) sums over its first term's denominator, rescaled only
        when a later term needs more, so a copied component keeps its own.
        """
        if phi.target_dim != self.dim:
            raise ValueError("pullback target dimension mismatch")
        src = phi.source_dim
        if self.deg > src:
            return _form(src, self.deg, {})
        memo = phi.memo
        acc = {}
        for I, p in self.comps.items():
            LI = p.L
            for part, t in p.parts.items():
                out = acc.setdefault(part, {})
                for e, n in t.items():
                    pulled = memo.get((e, I))
                    if pulled is None:
                        pulled = memo[(e, I)] = _pull_monomial(phi, e, I)
                    Lm, groups = pulled
                    d = LI * Lm
                    for slot, entries in groups:
                        rec = out.get(slot)
                        if rec is None:
                            rec = out[slot] = [d, {}]
                        m = n if rec[0] == d else n * _rescale(rec, d)
                        o = rec[1]
                        get = o.get
                        for e2, k in entries:
                            o[e2] = get(e2, 0) + m * k
        comps = {}
        for part, out in acc.items():
            for slot, (d, t) in out.items():
                J, q = _slot_keys[slot]
                P, s = (part, 1) if q == _REAL else _part_mul(part, q)
                p = _reduce(src, d, {P: t if s == 1 else {e2: -n for e2, n in t.items()}})
                c = comps.get(J)
                if c is not None:
                    p = c + p
                if p.parts:
                    comps[J] = p
                elif c is not None:
                    del comps[J]
        return _form(src, self.deg, comps)

    def integrate_top(self):
        """Exact integral over Delta^dim of a top-degree form: each
        numerator n of x^e adds n * e! * (dim + N)! / (dim + |e|)!, N the
        top total degree, reduced once over L (dim + N)!."""
        if self.deg != self.dim:
            raise DegreeMismatchError(
                f"integrate_top needs degree {self.dim}, got {self.deg}"
            )
        d, p = self.dim, self.component(tuple(range(self.dim)))
        top = factorial(d + p.total_degree())
        return _from_parts({part: sum(n * (top // factorial(d + e % _CAP)) * prod(map(factorial, _exponent(d, e)))
                                      for e, n in t.items()) for part, t in p.parts.items()}, p.L * top)

    def total_poly_degree(self):
        return max((p.total_degree() for p in self.comps.values()), default=0)

    def __repr__(self):
        if not self.comps:
            return f"PolyForm(0; dim={self.dim}, deg={self.deg})"
        bits = [f"dx{I}: {p!r}" for I, p in sorted(self.comps.items())]
        return "PolyForm(" + "; ".join(bits) + ")"


# ---------------------------------------------------------------------------
# maps into simplices


class PolyMap:
    """Polynomial map Delta^k -> Delta^d given by its coordinate polynomials.

    Map objects are immutable.  Each keeps a memo of the monomial forms
    x^e dx_I pulled back along it, so pulling back along the same map
    again only multiplies and adds coefficients, and a table of the
    images those are built from (_image, _dx_image), filled on first use.
    """

    def __init__(self, source_dim, target_dim, coord_polys):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self._coords = tuple(coord_polys)
        self.memo = {}
        self.images = {}

    def coords(self):
        return self._coords

    def compose(self, inner):
        """self o inner: each term c x^e of each of self's coordinates
        adds c times inner's image of x^e, over one denominator."""
        if inner.target_dim != self.source_dim:
            raise ValueError("need one substitution polynomial per variable")
        src = inner.source_dim
        coords = []
        for p in self.coords():
            rows = [(part, n, _image(inner, e)) for part, t in p.parts.items() for e, n in t.items()]
            LM = lcm(*{q.L for _, _, q in rows})
            out = {}
            for part, n, q in rows:
                _product_into(out, {part: {0: n * (LM // q.L)}}, q.parts, _ONE)
            coords.append(_reduce(src, p.L * LM, out))
        return PolyMap(src, self.target_dim, coords)


def _image(phi, e):
    """x^e (e a key) composed with phi's coordinates, from phi.images: the
    image of x^e is the image of x^(e - 1_i) times coordinate i, i the
    last nonzero index of e, so each new monomial costs one Poly product.
    The missing images below e are found first, then filled bottom-up."""
    images = phi.images
    todo = []
    while e not in images:
        if not e:
            images[e] = Poly.const(phi.source_dim, 1)
            break
        i = max(j for j, x in enumerate(_exponent(phi.target_dim, e)) if x)
        todo.append((e, i))
        e -= RADIX**i
    p = images[e]
    coords = phi.coords()
    for e, i in reversed(todo):
        p = images[e] = p * coords[i]
    return p


def _dx_image(phi, I):
    """dx_I, I nonempty, pulled back along phi, from phi.images under the
    key ("d", I), apart from the exponents: d(coordinate I[0]) for one
    index, else the image of dx_I[:-1] wedged with that of dx_I[-1:],
    built once per I and filled bottom-up."""
    images = phi.images
    todo = []
    while ("d", I) not in images and len(I) > 1:
        todo.append(I)
        I = I[:-1]
    f = images.get(("d", I))
    if f is None:
        src = phi.source_dim
        p = phi.coords()[I[0]]
        f = images["d", I] = _form(src, 1, {(j,): q for j in range(src) if (q := p.diff(j)).parts})
    for I in reversed(todo):
        f = images["d", I] = f.wedge(_dx_image(phi, I[-1:]))
    return f


def _pull_monomial(phi, e, I):
    """x^e dx_I pulled back along phi, image(x^e) ^ image(dx_I), as (L,
    groups): one denominator L and per component J and part q the group
    (_slot(J, q), ((e', numerator over L), ...))."""
    p = _image(phi, e)
    term = _form(phi.source_dim, 0, {(): p} if p.parts else {})
    if I:
        term = term.wedge(_dx_image(phi, I))
    L = lcm(*map(_den, term.comps.values()))
    return L, tuple((_slot(J, q), tuple((e2, n * (L // p.L)) for e2, n in t.items()))
                    for J, p in term.comps.items() for q, t in p.parts.items())


def _form(dim, deg, comps):
    """A PolyForm over a fresh dict of strictly increasing index tuples
    and nonzero Polys on Delta^dim (no checks)."""
    f = _new(PolyForm)
    f.dim, f.deg, f.comps = dim, deg, comps
    return f


@cache
def _merge(I, J):
    """sort_sign(I + J) for two component index tuples: the sorted
    index of dx_I ^ dx_J and its sign; (None, 0) when they share an index."""
    return sort_sign(I + J)


def _d_into(acc, dim, I, parts, f):
    """acc += f d(x dx_I), x one component's parts: dx_j ^ dx_I = sign dx_K gives sign e_j f n x^(e - 1_j)."""
    for j in range(dim):
        K, sign = _merge((j,), I)
        if not sign:
            continue
        u = RADIX**j
        for part, t in parts.items():
            terms = [(e - u, sign * f * k * n) for e, n in t.items() if (k := e // u % RADIX)]
            if terms:
                o = acc.setdefault(K, {}).setdefault(part, {})
                for e2, n in terms:
                    o[e2] = o.get(e2, 0) + n


def _rescale(rec, d):
    """Bring the sum rec = [its denominator, its dict] to the lcm of that
    and d; the multiplier that takes a numerator over d to it."""
    L = lcm(rec[0], d)
    r, rec[0] = L // rec[0], L
    if r != 1:
        for e in rec[1]:
            rec[1][e] *= r
    return L // d


def _form_of(dim, deg, L, comps):
    """The PolyForm of a dict I -> parts over one denominator L, each
    component reduced on its own, zero components dropped."""
    return _form(dim, deg, {I: p for I, t in comps.items() if (p := _reduce(dim, L, t)).parts})


def _combination(dim, deg, L, terms):
    """The form (1/L) sum m * F over the terms (m, F), m a nonzero int:
    every numerator over L times the lcm of the components' denominators,
    each output component reduced once."""
    Lf = lcm(*(p.L for _, F in terms for p in F.comps.values()))
    acc = {}
    for m, F in terms:
        for I, p in F.comps.items():
            f = m * (Lf // p.L)
            parts = acc.setdefault(I, {})
            for part, t in p.parts.items():
                o = parts.setdefault(part, {})
                get = o.get
                for e, n in t.items():
                    o[e] = get(e, 0) + f * n
    return _form_of(dim, deg, L * Lf, acc)


def _wedge_sum(dim, deg, terms):
    """The sum of c * (F ^ G) over the terms (F, G, c), c lowered by
    _constant: one pass finds each output component's pairs and the lcm of
    their denominators, a second adds their products, sign and scaling folded."""
    pairs, dens = [], {}
    for F, G, (Lc, coef) in terms:
        _check_degree(F.total_poly_degree() + G.total_poly_degree())
        for I, p in F.comps.items():
            for J, q in G.comps.items():
                K, sign = _merge(I, J)
                if sign:
                    den = p.L * q.L * Lc
                    dens[K] = lcm(dens.get(K, 1), den)
                    pairs.append((K, sign, den, p.parts, q.parts, coef))
    acc = {K: {} for K in dens}
    for K, sign, den, x, y, coef in pairs:
        _product_into(acc[K], x, y, coef, sign * (dens[K] // den))
    return _form(dim, deg, {K: p for K, t in acc.items() if (p := _reduce(dim, dens[K], t)).parts})


@cache
def _affine_map(m, target_dim):
    """The AffineMap of the monotone vertex map m (a tuple) into
    Delta^target_dim: target coordinate t is the sum of the source's
    lam_j over the j with m[j] == t."""
    k = len(m) - 1
    units = [tuple(int(i == j) for i in range(k + 1)) for j in range(k + 1)]
    coords = [_lam_poly(k, {units[j]: 1 for j, v in enumerate(m) if v == t}) for t in range(1, target_dim + 1)]
    am = AffineMap(k, target_dim, coords)
    am.vertex_map = m
    return am


class AffineMap(PolyMap):
    """Affine map Delta^k -> Delta^d induced by a monotone vertex map.

    from_monotone(m, d) returns one shared instance per (m, d), m a
    tuple, so its pullback memo serves every caller.
    """

    from_monotone = staticmethod(_affine_map)

    @staticmethod
    def face(d, i):
        """The inclusion Delta^{d-1} -> Delta^d omitting vertex i."""
        return AffineMap.from_monotone(mono_skip(d, {i}), d)

    @staticmethod
    def collapse(word, top_dim):
        """The degeneracy collapse s_word: Delta^top -> Delta^{top-|word|}."""
        return AffineMap.from_monotone(word_epi(word, top_dim), top_dim - len(word))


class BernsteinMap(PolyMap):
    """Polynomial map Delta^k -> Delta^d in Bernstein-Bezier form.

    Control points live in Delta^d, so the image is contained in
    Delta^d by convexity; validity is the syntactic check that each
    control point has nonnegative coordinates summing to at most 1.
    The coordinate polynomials are built on first use.
    """

    def __init__(self, source_dim, target_dim, degree, control):
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.degree = degree
        self.control = {tuple(a): tuple(Fraction(x) for x in pt) for a, pt in control.items()}
        self._coords = None
        self.memo = {}
        self.images = {}

    def is_valid(self):
        for pt in self.control.values():
            if len(pt) != self.target_dim:
                return False
            if any(x < 0 for x in pt) or sum(pt) > 1:
                return False
        return True

    def coords(self):
        if self._coords is None:
            self._coords = tuple(
                _lam_poly(self.source_dim, {a: multinomial(a) * pt[l] for a, pt in self.control.items()})
                for l in range(self.target_dim)
            )
        return self._coords

    @staticmethod
    def random(rng, source_dim, target_dim, degree):
        control = {}
        for a in _compositions(degree, source_dim + 1):
            weights = [Fraction(rng.randrange(9)) for _ in range(target_dim + 1)]
            total = sum(weights) or Fraction(1)
            pt = [w / total for w in weights[1:]]
            control[a] = pt
        return BernsteinMap(source_dim, target_dim, degree, control)


# ---------------------------------------------------------------------------
# simplicial forms


def form_on(forms_by_sid, fs):
    """The form a formal simplex (sid, word) carries: forms_by_sid[sid]
    pulled back along the degeneracy collapse s_word.  Works for any
    per-simplex data with a ``pullback``: PolyForms and LieValuedForms."""
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

    def form(self, sid):
        return self.forms[sid]

    def d(self):
        return SimplicialForm(self.base, self.deg + 1, {s: f.d() for s, f in self.forms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialForm)
            and self.base == other.base
            and self.deg == other.deg
            and self.forms == other.forms
        )


def check_simplicial_form(omega):
    """Verify i^* omega_{Sigma_2} = omega_{Sigma_1} for every face map.

    Returns a list of violations (sigma, face index); empty means the
    compatibility holds exactly.
    """
    X = omega.base
    bad = []
    for (sid, i), face in X.faces.items():
        if omega.form(sid).pullback(AffineMap.face(sid.dim, i)) != form_on(omega.forms, face):
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
# boundary-prescribed extension in the Whitney-Bernstein basis
#
# On Delta^d write lam_0 = 1 - sum x and lam_v = x_v for the barycentric
# coordinates.  The Whitney form of an increasing vertex tuple
# s = (s_0, .., s_k) is
#
#     phi_s = sum_j (-1)^j lam_{s_j} dlam_{s_0} ^ .. (omit j) .. ^ dlam_{s_k},
#
# and the forms lam^a phi_s with |a| = r and a_v = 0 for v < min s are a
# basis of P^-_{r+1} Lambda^k, a space holding every k-form of
# polynomial degree r (Arnold-Falk-Winther, "Geometric decompositions
# and local bases for spaces of finite element differential forms",
# CMAME 198, 2009).  For k = 0 the Bernstein monomials lam^b, |b| = r,
# serve instead.  Call [[a]] u s the support of a basis function.  On a
# face missing a vertex of the support it pulls back to zero; on a face
# holding the support it pulls back to the face's own basis function,
# with the indices renumbered.  So the trace on facet i is the set of
# coefficients whose support avoids i, and extending facet data copies
# those coefficients, with zero on the rest.  Keys are pairs (a, s) over
# the vertices of Delta^d, s = () for the Bernstein basis.


def _facet_coeffs(d, i, k, r, J, mu):
    """x^mu dx_J (mu a key) on facet i of Delta^d in the degree-r basis,
    keyed over Delta^d.

    No solve: x^mu is homogenized with (sum lam)^(r - |mu|), dlam_J is
    rewritten as sum_{a not in J} phi_{(a, J)}, and a term lam^b phi_s
    with m = min [[b]] < min s is brought into the basis in one step by
    lam_m phi_s = sum_j (-1)^j lam_{s_j} phi_{(m) u s - s_j}, which is
    kappa(kappa(dlam_{(m) u s})) = 0 for the Koszul operator kappa.
    Returns a tuple of (key, int) pairs, which _owned_table multiplies out.
    """
    verts = [v for v in range(d + 1) if v != i]  # facet vertex j is verts[j]
    Jv = tuple(verts[j + 1] for j in J)
    mu = _exponent(d - 1, mu)
    out = {}

    def add(b, s, c):
        key = (b, s)
        out[key] = out.get(key, 0) + c

    for g in _compositions(r - sum(mu), d):
        c = multinomial(g)
        b = [0] * (d + 1)
        b[verts[0]] = g[0]
        for j in range(1, d):
            b[verts[j]] = g[j] + mu[j - 1]
        if k == 0:
            add(tuple(b), (), c)
            continue
        m = next((v for v in range(d + 1) if b[v]), d + 1)
        for a in verts:
            if a in Jv:
                continue
            s = tuple(sorted(Jv + (a,)))
            sign = c if sum(1 for v in Jv if v < a) % 2 == 0 else -c
            if m >= s[0]:
                add(tuple(b), s, sign)
                continue
            for j, v in enumerate(s):
                b2 = list(b)
                b2[m] -= 1
                b2[v] += 1
                add(tuple(b2), (m,) + s[:j] + s[j + 1:], sign if j % 2 == 0 else -sign)
    return tuple((key, c) for key, c in out.items() if c)


@cache
def _lam0_power(d, k):
    """lam_0^k = (1 - sum x)^k on Delta^d as a tuple of (key, int) pairs,
    highest total degree first, then lexicographic in the exponent
    tuples: one product of lam_0^(k-1) with lam_0.  The powers below k
    are looked up in increasing order first, so a cold power fills the
    table bottom-up instead of recursing once per power."""
    if k == 0:
        return ((0, 1),)
    for j in range(1, k):
        _lam0_power(d, j)
    out = {}
    for e, c in _lam0_power(d, k - 1):
        out[e] = out.get(e, 0) + c
        for i in range(d):
            e2 = e + RADIX**i
            out[e2] = out.get(e2, 0) - c
    return tuple(sorted(out.items(), key=lambda ec: (-(ec[0] % _CAP), _exponent(d, ec[0]))))


def _lam_power(d, b):
    """lam^b on Delta^d as a dict key -> int: lam_0^b_0 from the table
    _lam0_power, shifted by x^(b_1 .. b_d)."""
    shift = _key(d, tuple(b[1:]))
    return {e + shift: c for e, c in _lam0_power(d, b[0])}


def _lam_poly(d, coeffs):
    """The Poly sum c * lam^a over coeffs.items() on Delta^d."""
    return _from_basis(d, 0, {(a, ()): c for a, c in coeffs.items() if c}).component(())


def _dlam_wedge(d, t):
    """dlam_{t_0} ^ .. ^ dlam_{t_k} for increasing t, as a dict I -> sign."""
    if not t or t[0] != 0:
        return {tuple(v - 1 for v in t): 1}
    # dlam_0 = -sum_l dx_l
    rest = tuple(v - 1 for v in t[1:])
    return {
        tuple(sorted(rest + (l,))): -1 if sum(1 for v in rest if v < l) % 2 == 0 else 1
        for l in range(d)
        if l not in rest
    }


# slots: each pair (I, key) of a form on some Delta^d, or (J, part) of a
# pullback's memo entry, interned as a small int once per process, so the
# sums of _sum_tables and pullback are keyed by small ints; _slot_keys[n]
# is the pair of slot n
_slots = {}
_slot_keys = []


def _slot(I, e):
    n = _slots.get((I, e))
    if n is None:
        n = _slots[(I, e)] = len(_slot_keys)
        _slot_keys.append((I, e))
    return n


@cache
def _basis_form(d, a, s):
    """lam^a phi_s (lam^a for s == ()) on Delta^d, as a tuple of
    (monomial slot, int) pairs, the tables _sum_tables reads."""
    comps = {}
    if not s:
        comps[()] = _lam_power(d, a)
    for j, v in enumerate(s):
        b = list(a)
        b[v] += 1
        p = _lam_power(d, b)
        for I, sign in _dlam_wedge(d, s[:j] + s[j + 1:]).items():
            sign = sign if j % 2 == 0 else -sign
            t = comps.setdefault(I, {})
            for e, c in p.items():
                t[e] = t.get(e, 0) + sign * c
    return tuple((_slot(I, e), c) for I, t in comps.items() for e, c in t.items() if c)


@cache
def _owned_table(d, i, k, r, J, mu, earlier):
    """x^mu dx_J on facet i of Delta^d, as the Delta^d monomials of the
    degree-r basis functions facet i owns: those in its trace that are
    in the trace of no facet in earlier, the facets given before i.  A
    tuple of (monomial slot, int) pairs, the tables _sum_tables reads."""
    out = {}
    for (a, s), c in _facet_coeffs(d, i, k, r, J, mu):
        if any(not a[g] and g not in s for g in earlier):
            continue
        for n, m in _basis_form(d, a, s):
            out[n] = out.get(n, 0) + c * m
    return tuple((n, c) for n, c in out.items() if c)


def _sum_tables(d, k, rows):
    """The k-form on Delta^d summing n / L_r * i^im * tau^j times the
    table of (monomial slot, int) pairs over the rows (L_r, (j, im), n,
    table), each numerator scaled once to the lcm L of the L_r."""
    L = lcm(*{r[0] for r in rows})
    parts = {}
    for Lr, part, n, table in rows:
        t = parts.setdefault(part, {})
        get = t.get
        n *= L // Lr
        for slot, m in table:
            t[slot] = get(slot, 0) + n * m
    comps = {}
    for part, t in parts.items():
        for slot, n in t.items():
            if n:
                I, e = _slot_keys[slot]
                comps.setdefault(I, {}).setdefault(part, {})[e] = n
    return _form_of(d, k, L, comps)


def _from_basis(d, k, coeffs):
    """The PolyForm sum c * (basis function key) over coeffs.items(), by _sum_tables."""
    return _sum_tables(d, k, [(Lc, part, n, _basis_form(d, *key))
                              for key, c in coeffs.items() for Lc, coef in (_constant(c),) for part, n in coef])


def whitney_extend(d, deg, prescriptions, rng=None):
    """Polynomial form on Delta^d with prescribed facet pullbacks.

    prescriptions maps facet indices 0..d to PolyForms on Delta^{d-1} of
    degree deg (any other index or shape, deg < 0 or d < 1 raises
    ValueError); missing facets are unconstrained.  Each facet's data is
    written in the Whitney-Bernstein basis of degree D, the highest
    polynomial degree of the data (max(D, 1) for 0-forms), and its
    coefficients are copied to Delta^d; all other coefficients are zero.
    Nothing is solved.  The result has polynomial degree at most D + 1.
    Two facets' data whose pullbacks to the facets' common Delta^(d-2)
    differ raise FaceConsistencyError naming each such pair of facets.
    Data that agree there agree on every shared coefficient, so each
    coefficient is copied from the first given facet whose trace holds
    it: every term of every facet adds its cached table of the monomials
    of the basis functions its facet owns (_owned_table), times its
    numerator, all in one _sum_tables pass.

    With a seeded rng, random rationals are also put on the lowest-degree
    interior basis functions lam^a phi_s: s holds vertex 0 and a is 1 on
    the other vertices, so |a| = d - deg and the support is every vertex.
    No copied coefficient has that support, so the noise pulls back to
    zero on every facet; its rows join the same pass.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if deg < 0:
        raise ValueError(f"deg must be nonnegative, got {deg}")
    for i, f in prescriptions.items():
        if not 0 <= i <= d:
            raise ValueError(f"prescriptions: facet index {i} is not in 0..{d}")
        if f.dim != d - 1 or f.deg != deg:
            raise ValueError(f"prescription {i} has wrong shape")

    # a deg-form on Delta^(d-1) is zero for deg >= d (each edge of a
    # connection): nothing to extend or compare
    facets = sorted(prescriptions) if deg < d else []
    D = max([prescriptions[i].total_poly_degree() for i in facets] + [0])
    r = max(D, 1) if deg == 0 else D
    # facets i < j meet in Delta^(d-2) by delta_i o delta_(j-1) = delta_j o
    # delta_i; it carries no deg-form for deg >= d - 1, so no pair can
    # disagree there
    bad = [(i, j) for a, i in enumerate(facets) for j in facets[a + 1:]
           if deg < d - 1 and prescriptions[i].pullback(AffineMap.face(d - 1, j - 1))
           != prescriptions[j].pullback(AffineMap.face(d - 1, i))]
    if bad:
        raise FaceConsistencyError(
            "inconsistent facet data on intersections: " + ", ".join(f"faces {i} and {j}" for i, j in bad)
        )
    rows = [(p.L, part, v, _owned_table(d, i, deg, r, J, mu, tuple(facets[:n])))
            for n, i in enumerate(facets) for J, p in prescriptions[i].comps.items()
            for part, t in p.parts.items() for mu, v in t.items()]
    if rng is not None:
        for t in itertools.combinations(range(1, d + 1), deg):
            s = (0,) + t
            a = tuple(0 if v in s else 1 for v in range(d + 1))
            num = rng.randrange(-6, 7)
            if num:
                rows.append((rng.randrange(1, 6), _REAL, num, _basis_form(d, a, s)))
    return _sum_tables(d, deg, rows)


# ---------------------------------------------------------------------------
# random generators (seeded, for property tests and the verify suite)


@cache
def _monomials_up_to(dim, degree):
    """The exponents of total degree <= degree on Delta^dim, by degree."""
    out = []
    for total in range(degree + 1):
        for e in itertools.product(range(total + 1), repeat=dim):
            if sum(e) == total:
                out.append(e)
    return tuple(out)


def random_poly(rng, dim, degree):
    terms = []
    for e in _monomials_up_to(dim, degree):
        if rng.randrange(2):
            num = rng.randrange(-6, 7)
            if num:
                terms.append((e, num, rng.randrange(1, 6)))
    L = lcm(*{q for _, _, q in terms})
    return _reduce(dim, L, {_REAL: {_key(dim, e): num * (L // q) for e, num, q in terms}})


def random_polyform(rng, dim, deg, degree=2):
    comps = {}
    for I in itertools.combinations(range(dim), deg):
        comps[I] = random_poly(rng, dim, degree)
    return PolyForm(dim, deg, comps)


def random_simplicial_form(X, deg, rng):
    """Seeded random compatible simplicial form, built skeletally.

    Each 0-cell gets a random constant (for deg 0; zero otherwise).  On
    every higher cell whitney_extend copies the faces' data and, with
    the rng, puts random coefficients on the lowest-degree interior
    basis functions, which keep the result generic without disturbing
    the facet pullbacks.  A cell of dimension below deg gets the zero
    form and draws nothing.
    """
    forms = {}
    for d in range(X.dim + 1):
        for sid in X.cells(d):
            if d == 0:
                forms[sid] = PolyForm.from_poly(random_poly(rng, 0, 0)) if deg == 0 else PolyForm.zero(0, deg)
                continue
            prescriptions = {i: form_on(forms, X.face(sid, i)) for i in range(d + 1)}
            forms[sid] = whitney_extend(d, deg, prescriptions, rng)
    return SimplicialForm(X, deg, forms)

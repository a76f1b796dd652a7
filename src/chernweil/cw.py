"""Curvature and the Chern-Weil pipeline.

Per chart the curvature of a connection form A is F = dA + A ^ A (kept
in Lie-algebra coordinates as dA + (1/2)[A ^ A]).  Evaluating an
Ad-invariant symmetric multilinear functional on k curvature slots and
wedging the scalar parts yields the characteristic form; integrating
over every simplex gives a closed cochain whose class is independent of
the connection and natural under pullback.

The characteristic class is built by one integer pass on the Polys'
own packed keys (see poly).  A chart's connection form's stored
numerators are scaled to one denominator (_int_coords); the curvature F
is built on those ints (_int_curvature), and the coefficient tensor T in
Sym^k(g*) is contracted with it, sum_a T[a] F^a1 ^ .. ^ F^ak, each
entry's last factor wedged on its own, so that a diagonal entry's
F^a ^ F^a is a square (_contract).  Every product is _wedge_into's loop
over pairs of components, each pair's terms multiplied by
poly._product_into with the structure constant or tensor entry folded
in as its multiplier.  That product is one cell's form (_cell_form):
the cochain (cw_cochain) reads only the 2k-cells and sums its top
component against factorial weights (_weights); the characteristic form
(cw_form) reduces it into stored Polys (forms._form_of), as
curvature_form reduces F.  integrate_to_cochain(cw_form(rho, D)),
through integrate_top's own factorial formula, is the cochain's oracle;
the form's is the brute-force
alternating-sum-over-permutations formula, rho contracted with the
curvature's coordinates.  The ratio of these two forms is a single
combinatorial constant per arity, measured (never assumed) by
calibrate_cw_constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import cos, factorial, lcm, pi

from .bundles import Connection, LieValuedForm, pullback_bundle
from .forms import PolyForm, SimplicialForm, _d_into, _form_of, _merge, form_on, integrate_to_cochain
from .io import scalar_to_str
from .linalg import sort_sign
from .poly import _CAP, _ONE, _REAL, Poly, _check_degree, _exponent, _from_parts, _lowered, _product_into
from .scalars import Scalar
from .simplicial import Cochain, coboundary, is_coboundary, pairing, pullback_cochain


def curvature_form(A):
    """F = dA + A ^ A for one chart's connection 1-form: the integer
    curvature brought back to a form."""
    F, L, _ = _int_curvature(A, 1)
    return LieValuedForm(A.algebra, A.dim, 2, [_form_of(A.dim, 2, L, f) for f in F])


def curvature(D):
    """Per-simplex curvature of a connection; a dict sid -> LieValuedForm."""
    return {sid: curvature_form(A) for sid, A in D.forms.items()}


def _check_algebra(rho, algebra):
    if rho.algebra is not algebra:
        raise ValueError(f"invariant polynomial of {rho.algebra.name} on a {algebra.name} connection")


def _cw_polyform_wedge(rho, F):
    """rho(F, .., F) with scalar parts wedged; one chart: _contract on
    the lowered F, reduced once over L_F^k * L_T."""
    _check_algebra(rho, F.algebra)
    Fl, LF, _ = _int_coords(F.coords, rho.arity)
    heads, LT = _int_tensor(rho)
    return _form_of(F.dim, 2 * rho.arity, LF**rho.arity * LT, _contract(heads, Fl))


def cw_form(rho, D):
    """The degree-2k characteristic simplicial form of (rho, D).

    A degree-2k form vanishes on cells of dimension below 2k, so
    _cell_form runs only on the others, and on none when the tensor is
    zero.  Closed and face compatible; zero in overflow degrees rather
    than an error.
    """
    _check_algebra(rho, D.bundle.algebra)
    k = rho.arity
    forms = {}
    if rho.tensor():
        rho_int = _int_tensor(rho)
        for sid, A in D.forms.items():
            if sid.dim >= 2 * k:
                X, L, _ = _cell_form(rho_int, k, A)
                forms[sid] = _form_of(A.dim, 2 * k, L, X)
    return SimplicialForm(D.bundle.base, 2 * k, forms)


def cw_form_permutation(rho, F):
    """One-chart characteristic form by the alternating permutation sum,

        w(v_1,..,v_{2k}) = (1/(2k)!) sum_eta sign(eta)
                            rho(F(v_eta(1), v_eta(2)), ..),

    evaluated on coordinate frames; the oracle side of the calibration
    check.  rho is symmetric and each slot F(v_a, v_b) flips sign under
    swapping its arguments, so a permutation's term is its sign times
    rho on the sorted multiset of pairs (a < b) it forms.  All (2k)!
    permutations are walked once and their integer signs summed per
    pairing; rho is then contracted once per pairing, on the
    curvature's coordinates grouped by 2-form index ({I: {a: F^a_I}}),
    and scaled by count / (2k)!.
    """
    k = rho.arity
    dim, zero = F.dim, Poly.zero(F.dim)
    comps = {}
    for a, f in enumerate(F.coords):
        for I, p in f.comps.items():
            comps.setdefault(I, {})[a] = p
    # signed count per pairing of the slot positions 0..2k-1; a frame K
    # is increasing, so it maps sorted position pairs to sorted pairs
    counts = {}
    for eta in itertools.permutations(range(2 * k)):
        _, sign = sort_sign(eta)
        pairs = []
        for s in range(k):
            a, b = eta[2 * s], eta[2 * s + 1]
            if a > b:
                a, b = b, a
                sign = -sign
            pairs.append((a, b))
        key = tuple(sorted(pairs))
        counts[key] = counts.get(key, 0) + sign

    n_perms = factorial(2 * k)
    out = {}
    for K in itertools.combinations(range(dim), 2 * k):
        total = zero
        for key, count in counts.items():
            pairs = [(K[a], K[b]) for a, b in key]
            if any(p not in comps for p in pairs):
                continue
            total = total + rho.contract([comps[p] for p in pairs], zero).scale(Fraction(count, n_perms))
        if not total.is_zero():
            out[K] = total
    return PolyForm(dim, 2 * k, out)


def calibrate_cw_constant(rho, F):
    """Measure the constant c with wedge path = c * permutation formula.

    Returns the exact Scalar ratio, or raises if the two forms are not
    proportional (which would signal an implementation bug).
    """
    wedge = _cw_polyform_wedge(rho, F)
    perm = cw_form_permutation(rho, F)
    if perm.is_zero():
        raise ValueError("permutation form vanished; calibration needs a generic input")
    # components and coefficients are stored nonzero: the first one fixes the ratio
    I, p = next(iter(perm.comps.items()))
    e, c = next(iter(p.terms.items()))
    ratio = wedge.component(I).terms.get(e, Scalar.zero()) / c
    if perm.scale(ratio) != wedge:
        raise ValueError("wedge and permutation forms are not proportional")
    return ratio


# ---------------------------------------------------------------------------
# the integer pass: a lowered form is a dict component index -> a Poly's
# parts, over a denominator kept beside it; a lowered constant is its
# ((part, int numerator), ...) pairs, _product_into's multiplier.


@cache
def _weights(d, N):
    """W[e] = e! * (d + N)! / (d + |e|)! for the keys e of total degree
    at most N on Delta^d, so that the integral of x^e over Delta^d is
    W[e] / (d + N)!.  Each entry is filled on first use and kept for the
    life of the process."""
    top = factorial(d + N)

    class Weights(dict):
        def __missing__(self, key):
            num = top // factorial(d + key % _CAP)
            for x in _exponent(d, key):
                num *= factorial(x)
            self[key] = num
            return num

    return Weights()


def _wedge_into(out, X, Y, coef):
    """out += c X ^ Y for lowered forms X, Y and lowered constant c (coef): one
    _product_into per pair of components, degrees bounded by _int_coords; a
    square X ^ X of even degree takes each unordered pair once, I != J twice."""
    square = Y is X and not len(next(iter(X), ())) % 2
    comps = list(Y.items())
    for n, (I, x) in enumerate(X.items()):
        for m, (J, y) in enumerate(comps[n:] if square else comps):
            K, sign = _merge(I, J)
            if sign:
                t = out.get(K)
                if t is None:
                    t = out[K] = {}
                _product_into(t, x, y, coef, 2 * sign if square and m else sign)
    return out


_UNIT = {(): {_REAL: {0: 1}}}  # the constant 0-form 1, lowered


def _lower_constants(rows):
    """({key[:-1]: [(key[-1], c lowered), ...]}, L) for the (key, Scalar c)
    rows, keys distinct tuples, in sorted key order over one denominator L."""
    L, parts = _lowered(rows)
    coefs, out = {}, {}
    for p, t in parts.items():
        for key, n in t.items():
            coefs.setdefault(key, []).append((p, n))
    for key in sorted(coefs):
        out.setdefault(key[:-1], []).append((key[-1], coefs[key]))
    return out, L


@cache
def _int_structure(algebra):
    """The structure constants s^c_ab, a < b, lowered once per algebra:
    ({(a, b): [(c, s lowered), ...]}, L)."""
    return _lower_constants(((a, b, c), s) for a, b in itertools.combinations(range(algebra.dim), 2)
                            for c, s in algebra.structure[a][b])


def _int_tensor(rho):
    """rho's tensor T lowered, by sorted head: ({a[:-1]: [(a[-1], T[a] lowered), ...]}, L)."""
    return _lower_constants(rho.tensor().items())


def _int_coords(coords, k):
    """(the coordinate forms lowered over one denominator L, L, N): N, k
    times their top degree, bounds a product of k factors (_check_degree)."""
    L = lcm(*{p.L for f in coords for p in f.comps.values()})
    N = k * max((f.total_poly_degree() for f in coords), default=0)
    _check_degree(N)
    return [{J: p.parts if p.L == L else {q: {e: L // p.L * n for e, n in t.items()} for q, t in p.parts.items()}
             for J, p in f.comps.items()} for f in coords], L, N


def _int_curvature(A, k):
    """F = dA + (1/2)[A ^ A] of one chart's connection form, lowered:
    (one lowered 2-form per coordinate, L_F, N), N = 2k deg A bounding
    every product of k curvature factors.

    A is lowered once, over L_A.  The (a, b) and (b, a) terms of [A ^ A]
    are equal (s^c_ba = -s^c_ab and A^b ^ A^a = -A^a ^ A^b), so the half
    bracket is the sum over a < b of s^c_ab A^a ^ A^b, each product
    once, over L_F = L_s * L_A^2; dA is scaled to that denominator."""
    coords, LA, N = _int_coords(A.coords, 2 * k)
    pairs, Ls = _int_structure(A.algebra)
    F = [{} for _ in coords]
    for f, out in zip(coords, F):
        for J, x in f.items():
            _d_into(out, A.dim, J, x, Ls * LA)
    for (a, b), cs in pairs.items():
        if coords[a] and coords[b]:
            for c, s in cs:
                _wedge_into(F[c], coords[a], coords[b], s)
    return F, Ls * LA * LA, N


def _contract(heads, F):
    """sum_a T[a] F^a1 ^ .. ^ F^ak on a lowered curvature F, for the heads
    of _int_tensor.  Per head a[:-1], H is the product of its factors,
    starting from F[a1] itself (the constant 1 for arity 1); each last
    factor c adds T[a] (H ^ F[c]), a square when H is F[c]."""
    out = {}
    for head, lasts in heads.items():
        H = F[head[0]] if head else _UNIT
        for a in head[1:]:
            H = _wedge_into({}, H, F[a], _ONE)
        for c, t in lasts:
            _wedge_into(out, H, F[c], t)
    return out


def _cell_form(rho_int, k, A):
    """rho(F, .., F) from one chart's connection form A, by _contract on
    its integer curvature: (the lowered 2k-form, its denominator
    L_F^k L_T, N = 2k deg A)."""
    heads, LT = rho_int
    F, LF, N = _int_curvature(A, k)
    return _contract(heads, F), LF**k * LT, N


def cw_cochain(rho, D):
    """alpha = integral of the characteristic form; closed exactly.

    Each 2k-cell's value is the top component of its _cell_form summed
    against the weights W[e] of _weights(d, N), N = 2k deg A bounding
    its degree, reduced once over L (d + N)!; it equals
    integrate_to_cochain(cw_form(rho, D)).  A zero tensor gives the zero
    cochain with nothing computed.
    """
    _check_algebra(rho, D.bundle.algebra)
    k = rho.arity
    if not rho.tensor():
        return Cochain(2 * k)
    rho_int = _int_tensor(rho)
    values = {}
    for sid in D.bundle.base.cells(2 * k):
        if sid in D.forms:
            X, L, N = _cell_form(rho_int, k, D.forms[sid])
            W = _weights(sid.dim, N)
            top = X.get(tuple(range(sid.dim)), {})
            values[sid] = _from_parts({p: sum(n * W[e] for e, n in t.items()) for p, t in top.items()},
                                      L * factorial(sid.dim + N))
    return Cochain(2 * k, values)


def pullback_connection(f, P, D):
    """The pullback connection on f^* P: (f^* D)_a = D_{f(a)} in charts."""
    forms = {sid: form_on(D.forms, f(sid)) for sid in f.source.all_cells()}
    return Connection(pullback_bundle(f, P), forms)


@dataclass
class VerdictReport:
    ok: bool
    detail: str = ""
    witness: object = None
    certificate: object = None


def connection_independence(P, D1, D2, rho):
    """Exact coboundary witness for alpha(D1) - alpha(D2).

    The difference of the characteristic cochains of two connections on
    the same bundle is solved for db = diff; failure returns the cycle
    certificate (a negative control, or an implementation bug).
    """
    a1 = cw_cochain(rho, D1)
    a2 = cw_cochain(rho, D2)
    diff = a1 - a2
    status, data = is_coboundary(P.base, diff)
    if status == "witness":
        check = coboundary(P.base, data)
        if not (check - diff).is_zero():
            raise AssertionError("solver returned an invalid witness")
        return VerdictReport(True, "difference is an exact coboundary", witness=data)
    return VerdictReport(False, "difference pairs nontrivially with a cycle", certificate=data)


def naturality_check(f, P, rho, D):
    """Cochain-level naturality f^*(alpha^{rho,D}) = alpha^{rho, f^*D}.

    The pullback connection makes this an exact equality, not merely a
    class-level one.
    """
    alpha = cw_cochain(rho, D)
    lhs = pullback_cochain(f, alpha)
    Dp = pullback_connection(f, P, D)
    rhs = cw_cochain(rho, Dp)
    same = (lhs - rhs).is_zero()
    return VerdictReport(same, "cochain-level naturality" if same else "naturality violated")


# ---------------------------------------------------------------------------
# quadrature oracle for the classical comparison


@cache
def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1]: its nodes in ascending
    order and their weights, each correctly rounded to a float.

    Newton's method on the three-term Legendre recurrence, in 50-digit
    decimal arithmetic, finds each positive root far below half an ulp;
    the rule is symmetric, and for odd n the centre node is exactly 0.0."""
    with localcontext() as ctx:
        ctx.prec = 50

        def legendre(x):
            """(P_n(x), P_n'(x))."""
            p0, p1 = Decimal(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            return p1, n * (x * p1 - p0) / (x * x - 1)

        def weight(x):
            return float(2 / ((1 - x * x) * legendre(x)[1] ** 2))

        half = []
        for i in range(n // 2, 0, -1):
            x = Decimal(cos(pi * (i - 0.25) / (n + 0.5)))
            for _ in range(100):
                p, dp = legendre(x)
                x -= (dx := p / dp)
                if abs(dx) < Decimal("1e-45"):
                    break
            half.append((float(x), weight(x)))
        centre = [(0.0, weight(Decimal(0)))] if n % 2 else []
    rule = [(-x, w) for x, w in reversed(half)] + centre + half
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


@cache
def _duffy_grid(order, d):
    """Nodes (a list of d-tuples) and weights (a list of w * jac) of the
    product Gauss-Legendre rule on [0,1]^d under the Duffy map, in
    itertools.product order."""
    nodes, weights = _gauss_legendre(order)
    nodes = [0.5 * (x + 1.0) for x in nodes]
    weights = [0.5 * w for w in weights]
    points = []
    wjac = []
    for idx in itertools.product(range(order), repeat=d):
        w = 1.0
        for i in idx:
            w *= weights[i]
        x = []
        remaining = 1.0
        jac = 1.0
        for i in idx:
            xi = nodes[i] * remaining
            x.append(xi)
            jac *= remaining
            remaining -= xi
        points.append(tuple(x))
        wjac.append(w * jac)
    return points, wjac


@cache
def _moment(order, d, e):
    """The product rule's value on the monomial x^e: the sum, in node
    order, of each node's w * jac times its coordinates' powers, taken in
    coordinate order."""
    points, wjac = _duffy_grid(order, d)
    total = 0.0
    for x, v in zip(points, wjac):
        for xi, k in zip(x, e):
            if k:
                v *= xi**k
        total += v
    return total


def quadrature_integrate(form, order=12):
    """Float integral of a top-degree form over Delta^d by a product
    Gauss-Legendre rule under the Duffy (collapsed-coordinates) map.
    Independent of the exact factorial-identity path.

    The rule is linear, so the integral is the sum, in terms order, of
    each term's complex coefficient (Poly._complex_terms) times the
    rule's cached value on its monomial (_moment)."""
    d = form.dim
    if form.deg != d:
        raise ValueError("quadrature oracle needs a top-degree form")
    total = 0j
    for e, c in form.component(tuple(range(d)))._complex_terms():
        total += c * _moment(order, d, e)
    return total


def classical_agreement_check(P, D, rho, cycle):
    """Simplicial pairing vs the independent global quadrature.

    The characteristic form is built once and integrated both ways: the
    exact cochain paired with the cycle, and the quadrature of its top
    component on each cycle cell."""
    omega = cw_form(rho, D)
    simplicial = pairing(integrate_to_cochain(omega), cycle)
    classical = 0.0 + 0.0j
    for sid, c in cycle.coeffs.items():
        classical += float(c) * quadrature_integrate(omega.form(sid))
    diff = abs(simplicial.to_complex() - classical)
    return VerdictReport(diff <= 1e-8, f"|simplicial - classical| = {diff:.3e}"), simplicial, classical


# ---------------------------------------------------------------------------
# reporting


@dataclass
class ClassReport:
    """The CLI's record of one characteristic-class computation."""

    poly_name: str
    bundle_name: str
    closed: bool
    pairings: list = field(default_factory=list)

    def machine_line(self):
        vals = [scalar_to_str(v) for v in self.pairings]
        return (
            f"class rho={self.poly_name} bundle={self.bundle_name}: "
            f"closed={'yes' if self.closed else 'no'} pairings=[{', '.join(vals)}] witness=absent"
        )


def class_report(rho, P, D, cycles, bundle_name="bundle"):
    """Characteristic cochain of (rho, D), its closedness and its pairings.

    The cochain comes from cw_cochain for every group, and closed means
    d alpha = 0.  Face compatibility of D is validate_connection's
    verdict, which the chern command reports as connection-valid.
    """
    alpha = cw_cochain(rho, D)
    closed = coboundary(P.base, alpha).is_zero()
    pairings = [pairing(alpha, z) for z in cycles]
    return ClassReport(rho.provenance, bundle_name, closed, pairings)

"""Curvature and the Chern-Weil pipeline.

Per chart the curvature of a connection form A is F = dA + A ^ A (kept
in Lie-algebra coordinates as dA + (1/2)[A ^ A]).  Evaluating an
Ad-invariant symmetric multilinear functional on k curvature slots and
wedging the scalar parts yields the characteristic form; integrating
over every simplex gives a closed cochain whose class is independent of
the connection and natural under pullback.

The characteristic class is built by one integer pass.  A chart's
connection form's stored numerators are scaled to one denominator, each
monomial's exponents packed into one int (_int_coords); the curvature F
is built on those ints (_int_curvature), and the coefficient tensor T in
Sym^k(g*) is contracted with it, sum_a T[a] F^a1 ^ .. ^ F^ak, each
entry's last factor wedged on its own, so that a diagonal entry's
F^a ^ F^a is a square (_contract).  That product is one cell's form
(_cell_form): the cochain (cw_cochain) reads only the 2k-cells and sums
its top component against factorial weights (_weights); the
characteristic form (cw_form) unpacks it into stored Polys (_unlower),
as curvature_form unpacks F.  integrate_to_cochain(cw_form(rho, D)),
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
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .bundles import Connection, LieValuedForm, pullback_bundle
from .forms import PolyForm, SimplicialForm, _form, _merge, form_on, integrate_to_cochain
from .io import scalar_to_str
from .linalg import sort_sign
from .poly import Poly, _from_parts, _lowered, _part_mul, _reduce
from .scalars import Scalar
from .simplicial import Cochain, coboundary, is_coboundary, pairing, pullback_cochain


def curvature_form(A):
    """F = dA + A ^ A for one chart's connection 1-form: the integer
    curvature, of degree at most 2 deg A, brought back to a form."""
    w = (2 * _degree(A)).bit_length()
    F, L = _int_curvature(A, w)
    return LieValuedForm(A.algebra, A.dim, 2, [_unlower(f, L, A.dim, 2, w) for f in F])


def curvature(D):
    """Per-simplex curvature of a connection; a dict sid -> LieValuedForm."""
    return {sid: curvature_form(A) for sid, A in D.forms.items()}


def _check_algebra(rho, algebra):
    if rho.algebra is not algebra:
        raise ValueError(f"invariant polynomial of {rho.algebra.name} on a {algebra.name} connection")


def _cw_polyform_wedge(rho, F):
    """rho(F, .., F) with scalar parts wedged; one chart: _contract on
    the lowered F, reduced once over L_F^k * L_T.  k deg F bounds the
    degree of every product."""
    _check_algebra(rho, F.algebra)
    k = rho.arity
    w = (k * _degree(F)).bit_length()
    Fl, LF = _int_coords(F.coords, w)
    heads, LT = _int_tensor(rho)
    return _unlower(_contract(heads, Fl), LF**k * LT, F.dim, 2 * k, w)


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
                X, L, N = _cell_form(rho_int, k, A)
                forms[sid] = _unlower(X, L, A.dim, 2 * k, N.bit_length())
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
# the integer pass
#
# A lowered polynomial is a Poly's layout with packed exponents: a dict
# part -> {packed exponent: int numerator} over a denominator kept beside
# it; a lowered form is a dict component index -> lowered polynomial.  A
# monomial x^e on Delta^d is packed into the one int sum e_i << (w * i),
# with the field width w read from a bound N on the degree of every
# product, so the exponents of a product are one int add that never
# carries into the next field.


def _pack(e, w):
    return sum(x << (w * i) for i, x in enumerate(e))


@cache
def _weights(d, N):
    """W[e] = e! * (d + N)! / (d + |e|)! for the packed exponents e of
    total degree at most N on Delta^d (N.bit_length()-bit fields), so
    that the integral of x^e over Delta^d is W[e] / (d + N)!.  Each
    entry is filled on first use and kept for the life of the process."""
    w = N.bit_length()
    mask = (1 << w) - 1
    top = factorial(d + N)

    class Weights(dict):
        def __missing__(self, key):
            e = [(key >> (w * i)) & mask for i in range(d)]
            num = top // factorial(d + sum(e))
            for x in e:
                num *= factorial(x)
            self[key] = num
            return num

    return Weights()


def _iwedge_into(out, X, Y):
    """out += X ^ Y for lowered forms, returning out; a constant c is the
    0-form {(): c}, so X ^ {(): c} is c * X.  A square X ^ X of even
    degree takes each unordered pair of components once, I != J twice."""
    square = Y is X and not len(next(iter(X), ())) % 2
    comps = list(Y.items())
    for n, (I, x) in enumerate(X.items()):
        for m, (J, y) in enumerate(comps[n:] if square else comps):
            K, sign = _merge(I, J)
            if not sign:
                continue
            if square and m:
                sign *= 2
            t = out.get(K)
            if t is None:
                t = out[K] = {}
            for p1, t1 in x.items():
                for p2, t2 in y.items():
                    p, s = _part_mul(p1, p2)
                    o = t.get(p)
                    if o is None:
                        o = t[p] = {}
                    get = o.get
                    s *= sign
                    ys = [(e2, s * n2) for e2, n2 in t2.items()]
                    for e1, n1 in t1.items():
                        for e2, n2 in ys:
                            e = e1 + e2
                            o[e] = get(e, 0) + n1 * n2
    return out


def _lower_constants(rows):
    """({key: c as a lowered 0-form polynomial {part: {0: n}}}, L) for
    the (key, Scalar c) rows, keys distinct: one denominator L."""
    L, parts = _lowered(rows)
    out = {}
    for p, t in parts.items():
        for key, n in t.items():
            out.setdefault(key, {})[p] = {0: n}
    return out, L


@cache
def _int_structure(algebra):
    """The structure constants s^c_ab, a < b, lowered once per algebra:
    ({(a, b): [(c, s as a lowered 0-form), ...]}, L)."""
    consts, L = _lower_constants(((a, b, c), s) for a, b in itertools.combinations(range(algebra.dim), 2)
                                 for c, s in algebra.structure[a][b])
    pairs = {}
    for (a, b, c), s in consts.items():
        pairs.setdefault((a, b), []).append((c, {(): s}))
    return pairs, L


def _int_tensor(rho):
    """rho's coefficient tensor T lowered, grouped by head: ({a[:-1]:
    [(a[-1], T[a] as a lowered 0-form), ...]}, L), the heads in sorted
    order."""
    entries, L = _lower_constants(rho.tensor().items())
    heads = {}
    for a in sorted(entries):
        heads.setdefault(a[:-1], []).append((a[-1], {(): entries[a]}))
    return heads, L


def _degree(X):
    return max((f.total_poly_degree() for f in X.coords), default=0)


def _int_coords(coords, w):
    """(one lowered form per coordinate form, their one denominator L):
    the stored numerators scaled to L, exponents packed in w-bit fields."""
    L = lcm(*{p.L for f in coords for p in f.comps.values()})
    out = [{} for _ in coords]
    for f, x in zip(coords, out):
        for J, p in f.comps.items():
            m = L // p.L
            x[J] = {q: {_pack(e, w): m * n for e, n in t.items()} for q, t in p.parts.items()}
    return out, L


def _unlower(X, L, dim, deg, w):
    """The PolyForm of a degree-deg lowered form X over L on Delta^dim,
    its exponents unpacked from w-bit fields; zero sums dropped."""
    mask = (1 << w) - 1
    comps = {}
    for I, x in X.items():
        p = _reduce(dim, L, {q: {tuple((e >> (w * i)) & mask for i in range(dim)): n for e, n in t.items()}
                             for q, t in x.items()})
        if p.parts:
            comps[I] = p
    return _form(dim, deg, comps)


def _int_curvature(A, w):
    """F = dA + (1/2)[A ^ A] of one chart's connection form, lowered with
    w-bit exponent fields: (one lowered 2-form per coordinate, L_F).

    A is lowered once, over L_A.  The (a, b) and (b, a) terms of [A ^ A]
    are equal (s^c_ba = -s^c_ab and A^b ^ A^a = -A^a ^ A^b), so the half
    bracket is the sum over a < b of s^c_ab A^a ^ A^b, each product
    once, over L_F = L_s * L_A^2; dA is scaled to that denominator."""
    dim = A.dim
    coords, LA = _int_coords(A.coords, w)
    pairs, Ls = _int_structure(A.algebra)
    F = [{} for _ in A.coords]
    scale = Ls * LA
    mask = (1 << w) - 1
    for f, out in zip(coords, F):
        for (j,), x in f.items():
            for i in range(dim):
                K, sign = _merge((i,), (j,))
                if not sign:
                    continue
                unit, shift = 1 << (w * i), w * i
                lp = out.setdefault(K, {})
                for p, t in x.items():
                    o = lp.setdefault(p, {})
                    for e, n in t.items():
                        k = (e >> shift) & mask
                        if k:
                            o[e - unit] = o.get(e - unit, 0) + sign * scale * k * n
    for (a, b), cs in pairs.items():
        if coords[a] and coords[b]:
            for c, s in cs:
                _iwedge_into(F[c], _iwedge_into({}, coords[a], s), coords[b])
    return F, Ls * LA * LA


def _contract(heads, F):
    """sum_a T[a] F^a1 ^ .. ^ F^ak on a lowered curvature F, for the heads
    of _int_tensor.  Per head a[:-1], H is the product of its factors,
    starting from F[a1] itself; each last factor c adds T[a] (H ^ F[c]),
    a square when H is F[c].  An arity-1 tensor scales F[c] itself."""
    out = {}
    for head, lasts in heads.items():
        H = F[head[0]] if head else None
        for a in head[1:]:
            H = _iwedge_into({}, H, F[a])
        for c, t in lasts:
            _iwedge_into(out, _iwedge_into({}, H, F[c]) if head else F[c], t)
    return out


def _cell_form(rho_int, k, A):
    """rho(F, .., F) from one chart's connection form A, by _contract on
    its integer curvature: (the lowered 2k-form, its denominator
    L_F^k L_T, N), N = 2k deg A bounding the degree of every product and
    so fixing the exponent fields."""
    heads, LT = rho_int
    N = 2 * k * _degree(A)
    F, LF = _int_curvature(A, N.bit_length())
    return _contract(heads, F), LF**k * LT, N


def cw_cochain(rho, D):
    """alpha = integral of the characteristic form; closed exactly.

    Each 2k-cell's value is the top component of its _cell_form summed
    against the weights W[e] of _weights(d, N), reduced once over
    L (d + N)!; it equals integrate_to_cochain(cw_form(rho, D)).  A zero
    tensor gives the zero cochain with nothing computed.
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
def _duffy_grid(order, d):
    """Nodes (an (order^d, d) array) and weights (a list of w * jac) of
    the product Gauss-Legendre rule on [0,1]^d under the Duffy map,
    in itertools.product order."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
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
        points.append(x)
        wjac.append(float(w * jac))
    return np.array(points), wjac


def quadrature_integrate(form, order=12):
    """Float integral of a top-degree form over Delta^d by a product
    Gauss-Legendre rule under the Duffy (collapsed-coordinates) map.
    Independent of the exact factorial-identity path.

    The nodes and weights of each (order, d) are built once and cached;
    the integrand is evaluated on all nodes at once (eval_complex_many)
    and the terms w*jac*f(x) are added one by one in node order, so the
    result equals the per-node loop of tests/oracles.integrate_form_oracle
    bit for bit.  (np.sum would add pairwise and change the last bits.)"""
    d = form.dim
    if form.deg != d:
        raise ValueError("quadrature oracle needs a top-degree form")
    points, wjac = _duffy_grid(order, d)
    vals = form.component(tuple(range(d))).eval_complex_many(points).tolist()
    total = 0.0 + 0.0j
    for wj, v in zip(wjac, vals):
        total += wj * v
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

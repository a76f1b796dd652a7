"""Independent oracles for the test suite.

These deliberately avoid the library's own code paths: ranks come from
sympy, exact solves from an [A | b | I] elimination written out here,
integrals from quadrature, pullbacks from sympy's symbolic
differentiation, polarization from finite differences, characteristic
forms from invariant polynomials evaluated on the curvature's matrices,
the curvature itself from the matrix of the connection's 1-forms.
Constructions the library now builds once are kept here in their older,
separate form (horn restriction by vertex relabelling, Bernstein and
affine coordinates and the Whitney-Bernstein basis as products of
barycentric polynomials, lam^b by its multinomial expansion, pullback
by chained products with no image table, the Chern and polarize loops
written out, the invariant polynomials as multilinear evaluators on
matrices), for the tests to compare against.  Helpers that only tests
use live here too: element_matrix and its float versions, the float
value of a u1 transition, a polynomial's complex value, the bracket of
g-valued forms, and simplicial_map_violations, the checker of
constructed simplicial maps.
"""

import functools
import itertools
import math
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import sympy


def _sympy_number(x):
    """An int, a Fraction or a tau-free Scalar as an exact sympy number."""
    if not hasattr(x, "terms"):
        return sympy.Rational(x)
    assert set(x.terms) <= {0}, "tau-free entries only"
    a, b, d = x.terms.get(0, (0, 0, 1))
    return sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d)


def rank_oracle(matrix):
    """Exact rank via sympy's row reduction, over the Gaussian rationals."""
    if not matrix or not matrix[0]:
        return 0
    return sympy.Matrix([[_sympy_number(x) for x in row] for row in matrix]).rank()


def solve_or_certify_reference(matrix, rhs):
    """solve_or_certify by its older route: one Gauss-Jordan elimination
    of [A | b | I] per system, written out here, for rational A.

    The pivot rule is the library's (columns in order, first nonzero
    entry at or below the current row), so the witness (free variables
    zero) and the certificate (the identity block beside the first zero
    row of A whose b entry is nonzero) are the exact values it returns.
    """
    from chernweil.scalars import Scalar

    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [
        list(map(Fraction, a)) + [Scalar.coerce(b)] + [Fraction(int(i == j)) for j in range(m)]
        for i, (a, b) in enumerate(zip(matrix, rhs))
    ]
    pivot_cols = _gauss_jordan(rows, n)
    for row in rows[len(pivot_cols):]:
        if not row[n].is_zero():
            return "certificate", row[n + 1:]
    x = [Scalar.zero()] * n
    for r, c in enumerate(pivot_cols):
        x[c] = rows[r][n]
    return "solved", x


def _gauss_jordan(rows, n):
    """Reduce the rows in place, pivoting on their first n columns by the
    library's rule (columns in order, first nonzero entry at or below the
    current row); returns the pivot columns."""
    m = len(rows)
    pivot_cols = []
    for c in range(n):
        r = len(pivot_cols)
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
    return pivot_cols


def boundary_matrix_oracle(X, k):
    """The boundary C_k -> C_{k-1} as dense rows, written out from X.faces:
    entry (tgt, sid) sums (-1)^i over the nondegenerate faces d_i sid = tgt."""
    rows = [[0] * X.counts[k] for _ in range(X.counts[k - 1])]
    for (sid, i), (tgt, word) in X.faces.items():
        if sid.dim == k and not word:
            rows[tgt.index][sid.index] += (-1) ** i
    return rows


def boundary_chain(X, chain):
    """The boundary of a chain, read from boundary_operator's columns."""
    from chernweil.simplicial import Chain, boundary_operator

    k = chain.dim
    if k == 0:
        return Chain(-1, {})
    columns, low = boundary_operator(X, k), X.cells(k - 1)
    out = {}
    for sid, c in chain.coeffs.items():
        for r, v in columns[sid.index].items():
            out[low[r]] = out.get(low[r], 0) + c * v
    return Chain(k - 1, out)


def simplicial_map_violations(f):
    """Every way the SimplicialMap f fails to be a map of simplicial
    sets, as a list of strings (empty when it is one): a generator with
    no assignment or one of the wrong dimension, or a face map it does
    not commute with.  The checker of the maps horn, product and
    cylinder build."""
    bad = []
    for d in range(f.source.dim + 1):
        for sid in f.source.cells(d):
            if sid not in f.assignment:
                bad.append(f"no assignment for {sid}")
                continue
            tid, word = f.assignment[sid]
            if tid.dim + len(word) != d:
                bad.append(f"assignment for {sid} has wrong dimension")
    if bad:
        return bad
    for (sid, i), face in f.source.faces.items():
        if f.apply(face) != f.target.face_of(f.apply((sid, ())), i):
            bad.append(f"does not commute with d_{i} on {sid}")
    return bad


def betti_oracle(X, max_dim):
    """Betti numbers from sympy ranks of the dense boundary matrices."""
    out = []
    for k in range(max_dim + 1):
        nk = X.counts[k] if k <= X.dim else 0
        if k == 0:
            ker = nk
        else:
            ker = nk - rank_oracle(boundary_matrix_oracle(X, k))
        if k + 1 <= X.dim and X.counts[k + 1]:
            img = rank_oracle(boundary_matrix_oracle(X, k + 1))
        else:
            img = 0
        out.append(ker - img)
    return out


def is_coboundary_oracle(X, cochain):
    """Whether a rational cochain c is a coboundary: c lies in the column
    space of d_k^T iff appending it as a column keeps the sympy rank."""
    k = cochain.dim
    cells = X.cells(k)
    if k == 0 or k > X.dim or not X.counts[k - 1]:
        return all(cochain.value(sid).is_zero() for sid in cells)
    dt = [list(col) for col in zip(*boundary_matrix_oracle(X, k))]
    c = [cochain.value(sid).rational_value() for sid in cells]
    return rank_oracle([row + [v] for row, v in zip(dt, c)]) == rank_oracle(dt)


def simplex_quadrature(f, dim, order=10):
    """Gauss-Legendre product rule over Delta^dim via the collapsed map.

    f is a callable on float coordinate lists.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    total = 0.0j
    for idx in itertools.product(range(order), repeat=dim):
        u = [nodes[i] for i in idx]
        w = 1.0
        for i in idx:
            w *= weights[i]
        x = []
        remaining = 1.0
        jac = 1.0
        for ui in u:
            xi = ui * remaining
            x.append(xi)
            jac *= remaining
            remaining -= xi
        total += w * jac * f(x)
    return total


def poly_eval_complex(p, point):
    """The complex value of the Poly p at a point: each term's complex
    coefficient (Poly._complex_terms) times complex integer powers of
    the coordinates, multiplied in coordinate order and summed in terms
    order, the arithmetic of each point of verify._real_values."""
    out = 0j
    for e, v in p._complex_terms():
        for i, k in enumerate(e):
            if k:
                v *= complex(point[i]) ** k
        out += v
    return out


def integrate_form_oracle(form, order=10):
    """Quadrature of a top-degree PolyForm (complex float)."""
    if form.dim == 0:
        return poly_eval_complex(form.component(()), [])
    p = form.component(tuple(range(form.dim)))
    return simplex_quadrature(lambda x: poly_eval_complex(p, x), form.dim, order)


@functools.cache
def gauss_legendre_reference(n):
    """The n-point Gauss-Legendre rule on [-1, 1] from mpmath at 60
    digits, nodes ascending: the i-th root cos(theta) of P_n by a
    bracketing findroot on Bruns' interval (i - 1/2) pi / (n + 1/2) <
    theta < i pi / (n + 1/2) (Szego, Orthogonal Polynomials, 6.21.5; the
    middle root of an odd P_n is 0), and its weight
    2 (1 - x^2) / (n P_{n-1}(x))^2, both rounded to the nearest float."""
    with mpmath.workdps(60):
        rule = []
        for i in range(n, 0, -1):
            if 2 * i == n + 1:
                x = mpmath.mpf(0)
            else:
                lo, hi = (mpmath.cos(mpmath.pi * j / (n + mpmath.mpf(1) / 2)) for j in (i, i - mpmath.mpf(1) / 2))
                x = mpmath.findroot(lambda t: mpmath.legendre(n, t), (lo, hi), solver="anderson")
            w = 2 * (1 - x**2) / (n * mpmath.legendre(n - 1, x)) ** 2
            rule.append((float(x), float(w)))
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


def moment_quadrature_oracle(form, order):
    """The float arithmetic of cw.quadrature_integrate from mpmath's
    rule, node by node: per term of the top component, in terms order,
    its complex coefficient times the rule's value on its monomial, that
    value summed over the Duffy product nodes in itertools.product order
    as w * jac times the coordinates' powers in coordinate order."""
    d = form.dim
    nodes, weights = gauss_legendre_reference(order)
    nodes = [0.5 * (x + 1.0) for x in nodes]
    weights = [0.5 * w for w in weights]
    total = 0j
    for e, c in form.component(tuple(range(d)))._complex_terms():
        moment = 0.0
        for idx in itertools.product(range(order), repeat=d):
            v = 1.0
            for i in idx:
                v *= weights[i]
            remaining = 1.0
            jac = 1.0
            x = []
            for i in idx:
                x.append(nodes[i] * remaining)
                jac *= remaining
                remaining -= x[-1]
            v *= jac
            for xi, k in zip(x, e):
                if k:
                    v *= xi**k
            moment += v
        total += c * moment
    return total


def sympy_pullback_one_form(comp_polys, coord_exprs, src_vars):
    """Chain-rule pullback of a 1-form via sympy differentiation.

    comp_polys: list of sympy expressions f_i (coefficients of dx_i) in
    target variables; coord_exprs: target coordinates as expressions in
    src_vars.  Returns the coefficient expressions of the pulled-back
    form in the source variables.
    """
    tgt_vars = sorted({v for e in coord_exprs for v in e.free_symbols} | set(src_vars), key=str)
    out = []
    for j, s in enumerate(src_vars):
        acc = sympy.Integer(0)
        for i, f in enumerate(comp_polys):
            sub = {v: coord_exprs[k] for k, v in enumerate(tgt_vars[: len(coord_exprs)])}
            acc += f.subs(sub, simultaneous=True) * sympy.diff(coord_exprs[i], s)
        out.append(sympy.expand(acc))
    return out


def pullback_reference(form, phi):
    """Pullback by whole-component substitution: each component p dx_I
    becomes p(phi) dphi_i1 ^ .. ^ dphi_ik, with p composed by chained
    Poly products (Poly.compose) and the 1-forms dphi_i wedged in turn;
    nothing is memoised and no image table of phi is read."""
    from chernweil.forms import PolyForm

    coords = phi.coords()
    src = phi.source_dim
    if form.deg > src:
        return PolyForm(src, form.deg, {})
    dcoords = [PolyForm(src, 1, {(j,): c.diff(j) for j in range(src)}) for c in coords]
    out = PolyForm.zero(src, form.deg)
    for I, p in form.comps.items():
        term = PolyForm.from_poly(p.compose(coords, source_dim=src))
        for i in I:
            term = term.wedge(dcoords[i])
        out = out + term
    return out


def finite_difference_polarization(p, k, dim, args, h=Fraction(1)):
    """Exact multilinear polarization by finite differences:

        rho(x_1,..,x_k) = (1/k!) sum_{S != empty} (-1)^{k-|S|} p(sum_S x_i)

    evaluated with Fraction arithmetic on coordinate vectors.
    """
    total = Fraction(0)
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            v = [Fraction(0)] * dim
            for i in subset:
                v = [a + b for a, b in zip(v, args[i])]
            total += Fraction((-1) ** (k - size)) * p(v)
    return total / factorial(k)


def charpoly_coefficient_oracle(M, k):
    """Degree-k coefficient of det(I + t M) via numpy eigenvalues."""
    eig = np.linalg.eigvals(np.asarray(M, dtype=complex))
    total = 0.0j
    for subset in itertools.combinations(range(len(eig)), k):
        prod = 1.0 + 0.0j
        for i in subset:
            prod *= eig[i]
        total += prod
    return total


def reznikov_quadrature(k, order=32):
    """The Reznikov functional (a_1..a_k) -> int_{S^2} <a_1,x>..<a_k,x>
    on su2, by a product Gauss-Legendre x uniform-angle rule on the unit
    sphere (area mass 1), as a float evaluator on complex matrices.
    Exact for k < 2 * order.  Coordinates come from a least-squares
    solve against the basis, not from the trace pairing.
    """
    from chernweil.liealg import lie_algebra

    su2 = lie_algebra("su2")
    z_nodes, z_weights = np.polynomial.legendre.leggauss(order)
    m_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(m_phi) / m_phi
    st = np.sqrt(1.0 - z_nodes**2)
    X = np.outer(st, np.cos(phi))
    Y = np.outer(st, np.sin(phi))
    Z = np.repeat(z_nodes[:, None], m_phi, axis=1)
    # Gauss weights sum to 2; the angle average is folded in
    W = np.repeat(z_weights[:, None] / (2.0 * m_phi), m_phi, axis=1)

    def evaluator(mats):
        vals = np.ones_like(X)
        for m in mats:
            a = decompose_float(su2, m).real
            vals = vals * (a[0] * X + a[1] * Y + a[2] * Z)
        return float(np.sum(W * vals))

    return evaluator


def winding_of_samples(values):
    """Integer winding number of a discretely sampled loop in U(1)."""
    total = 0.0
    for a, b in zip(values, values[1:] + values[:1]):
        total += np.angle(b / a)
    return total / (2.0 * np.pi)


@functools.cache
def basis_float(alg):
    """The basis of the algebra alg as complex numpy matrices."""
    return [np.array([[v.to_complex() for v in row] for row in b]) for b in alg.basis]


def decompose_float(alg, matrix):
    """Least-squares coordinates of a complex matrix in the basis of alg."""
    B = np.array([bf.flatten() for bf in basis_float(alg)]).T
    coords, *_ = np.linalg.lstsq(B, np.asarray(matrix, dtype=complex).flatten(), rcond=None)
    return coords


def element_matrix_float(alg, coords):
    """The complex matrix sum_a coords[a] e_a over the basis of alg."""
    m = np.zeros((alg.n, alg.n), dtype=complex)
    for c, b in zip(coords, basis_float(alg)):
        m = m + complex(c) * b
    return m


def u1_transition_value(t, point):
    """The complex value of a u1 transition at a point: the basis is
    [[i]], so exp of the coordinate p is e^{i p(point)}."""
    import cmath

    return cmath.exp(1j * sum(poly_eval_complex(f.coords[0].component(()), point) for f in t.factors))


def bracket_wedge(A, B):
    """[A ^ B] of two g-valued forms via the structure constants; degree
    adds.  On constant 0-forms over Delta^0 it is the bracket of g.  One
    forms._wedge_sum per coordinate c, over the pairs (a, b) with each
    s^c_ab folded into its pair's products."""
    from chernweil.bundles import LieValuedForm
    from chernweil.forms import _wedge_sum
    from chernweil.poly import _constant

    if A.algebra is not B.algebra:
        raise ValueError(f"bracket of {A.algebra.name} and {B.algebra.name} forms")
    terms = [[] for _ in A.coords]
    for a, b in itertools.product(range(A.algebra.dim), repeat=2):
        fa, fb = A.coords[a], B.coords[b]
        if not (fa.is_zero() or fb.is_zero()):
            for c, x in A.algebra.structure[a][b]:
                terms[c].append((fa, fb, _constant(x)))
    deg = A.deg + B.deg
    return LieValuedForm(A.algebra, A.dim, deg, [_wedge_sum(A.dim, deg, t) for t in terms])


def element_matrix(alg, coords):
    """The Scalar matrix sum_a coords[a] e_a over the basis of the
    algebra alg; the coordinates may be any exact numbers or Scalars."""
    from chernweil.scalars import Scalar

    out = [[Scalar.zero()] * alg.n for _ in range(alg.n)]
    for c, b in zip(coords, alg.basis):
        c = Scalar.coerce(c)
        if not c.is_zero():
            for r, row in enumerate(b):
                for s, x in enumerate(row):
                    if x.terms:
                        out[r][s] = out[r][s] + x * c
    return out


def cw_matrix_contraction(rho, F):
    """rho(F, .., F) with scalar parts wedged, by evaluating rho on the
    curvature's component matrices: for every k-tuple of 2-form
    components I_1..I_k, rho(F_I1, .., F_Ik) dx^I1 ^ .. ^ dx^Ik.

    Each component F_I is split by monomial first, and each monomial's
    coordinates are put through element_matrix, so rho is only ever
    evaluated on exact Scalar matrices (a polarized functional cannot
    decompose a matrix of polynomials).  Independent of the coefficient
    tensor the library contracts.
    """
    from chernweil.forms import PolyForm
    from chernweil.poly import Poly
    from chernweil.scalars import Scalar

    k, dim, alg = rho.arity, F.dim, F.algebra
    by_component = {}  # 2-form index -> monomial -> coordinate list
    for a, f in enumerate(F.coords):
        for I, p in f.comps.items():
            for e, v in p.terms.items():
                by_component.setdefault(I, {}).setdefault(e, [0] * alg.dim)[a] = v
    # (2-form index, monomial, Scalar matrix)
    slots = [(I, e, element_matrix(alg, x)) for I, xs in by_component.items() for e, x in xs.items()]
    out = {}
    for tup in itertools.product(slots, repeat=k):
        idx = sum((I for I, _, _ in tup), ())
        if len(set(idx)) < len(idx):
            continue
        inversions = sum(1 for i, j in itertools.combinations(range(len(idx)), 2) if idx[i] > idx[j])
        val = Scalar.coerce(rho.eval([M for _, _, M in tup])) * (-1) ** inversions
        e = tuple(sum(col) for col in zip(*(e for _, e, _ in tup)))
        terms = out.setdefault(tuple(sorted(idx)), {})
        terms[e] = terms.get(e, Scalar.zero()) + val
    return PolyForm(dim, 2 * k, {K: Poly(dim, terms) for K, terms in out.items()})


# ---------------------------------------------------------------------------
# The canonical layout that structural == relies on, checked from scratch


def canonical_violations(x, where="x"):
    """Every way a Scalar, Poly, PolyForm or LieValuedForm breaks the
    canonical layout, as a list of strings (empty when canonical).

    Scalar: int tau powers -> int triples (a, b, d) with d > 0,
    gcd(a, b, d) == 1 and a or b nonzero.  Poly: an int denominator
    L > 0 and parts (int tau power, 0 or 1) -> nonempty dicts of keys
    -> nonzero int numerators, with gcd(L, every numerator) == 1; a key
    is an int in [0, RADIX^dim) whose dim base-RADIX digits, decoded
    here, are the exponents, each below RADIX, of total degree below
    RADIX - 1 and equal to key % (RADIX - 1); its terms view holds
    canonical nonzero Scalars keyed by exactly those exponents, as
    dim-tuples of nonnegative ints.  PolyForm: strictly increasing
    deg-tuples of indices below dim -> nonzero Polys on Delta^dim.
    LieValuedForm: one such PolyForm of its dim and deg per coordinate.
    The library's unchecked constructors (_scalar, _poly, _form) trust
    their callers to keep this layout.
    """
    from chernweil.bundles import LieValuedForm
    from chernweil.forms import PolyForm
    from chernweil.poly import RADIX, Poly
    from chernweil.scalars import Scalar

    bad = []
    if type(x) is LieValuedForm:
        if len(x.coords) != x.algebra.dim:
            bad.append(f"{where}: {len(x.coords)} coordinates for a {x.algebra.dim}-dim algebra")
        for a, f in enumerate(x.coords):
            w = f"{where}.coords[{a}]"
            if type(f) is not PolyForm or (f.dim, f.deg) != (x.dim, x.deg):
                bad.append(f"{w}: not a PolyForm of dim {x.dim} and degree {x.deg}")
            else:
                bad += canonical_violations(f, w)
    elif type(x) is PolyForm:
        for I, p in x.comps.items():
            w = f"{where}[{I!r}]"
            if not (type(I) is tuple and len(I) == x.deg and all(type(i) is int for i in I)
                    and all(0 <= i < x.dim for i in I) and all(i < j for i, j in zip(I, I[1:]))):
                bad.append(f"{w}: not a strictly increasing {x.deg}-tuple of indices below {x.dim}")
            if type(p) is not Poly or p.dim != x.dim:
                bad.append(f"{w}: not a Poly on Delta^{x.dim}")
            elif not p.terms:
                bad.append(f"{w}: zero Poly")
            else:
                bad += canonical_violations(p, w)
    elif type(x) is Poly:
        if not (type(x.L) is int and x.L > 0):
            bad.append(f"{where}: denominator {x.L!r} is not a positive int")
        numerators, exponents = [], set()
        for p, t in x.parts.items():
            w = f"{where}.parts[{p!r}]"
            if not (type(p) is tuple and len(p) == 2 and type(p[0]) is int and p[1] in (0, 1) and type(p[1]) is int):
                bad.append(f"{w}: not a part (tau power, 0 or 1)")
            if type(t) is not dict or not t:
                bad.append(f"{w}: empty or not a dict")
                continue
            for e, n in t.items():
                if not (type(e) is int and 0 <= e < RADIX**x.dim):
                    bad.append(f"{w}[{e!r}]: not a key in [0, RADIX^{x.dim})")
                else:
                    digits, k = [], e
                    for _ in range(x.dim):
                        digits.append(k % RADIX)
                        k //= RADIX
                    if not all(0 <= k < RADIX for k in digits):
                        bad.append(f"{w}[{e!r}]: a field is not below RADIX")
                    if not (sum(digits) < RADIX - 1 and e % (RADIX - 1) == sum(digits)):
                        bad.append(f"{w}[{e!r}]: total degree {sum(digits)} not below RADIX - 1 or not key % (RADIX - 1)")
                    exponents.add(tuple(digits))
                if type(n) is not int or not n:
                    bad.append(f"{w}[{e!r}]: numerator {n!r} is not a nonzero int")
                else:
                    numerators.append(n)
        if type(x.L) is int and x.L > 0 and math.gcd(x.L, *numerators) != 1:
            bad.append(f"{where}: denominator {x.L} shares a factor with every numerator")
        if set(x.terms) != exponents:
            bad.append(f"{where}: terms view exponents are not the decoded keys")
        for e, c in x.terms.items():
            w = f"{where}[{e!r}]"
            if not (type(e) is tuple and len(e) == x.dim and all(type(k) is int and k >= 0 for k in e)):
                bad.append(f"{w}: not an exponent tuple of length {x.dim}")
            if type(c) is not Scalar:
                bad.append(f"{w}: coefficient is not a Scalar")
            elif not c.terms:
                bad.append(f"{w}: zero coefficient")
            else:
                bad += canonical_violations(c, w)
    elif type(x) is Scalar:
        for k, t in x.terms.items():
            w = f"{where}[tau^{k!r}]"
            if type(k) is not int:
                bad.append(f"{w}: tau power is not an int")
            if not (type(t) is tuple and len(t) == 3 and all(type(v) is int for v in t)):
                bad.append(f"{w}: {t!r} is not an int triple")
                continue
            a, b, d = t
            if d <= 0:
                bad.append(f"{w}: denominator {d} is not positive")
            elif math.gcd(a, b, d) != 1:
                bad.append(f"{w}: {t!r} is not in lowest terms")
            if not (a or b):
                bad.append(f"{w}: zero coefficient")
    else:
        raise TypeError(f"no canonical layout for {type(x).__name__}")
    return bad


# ---------------------------------------------------------------------------
# Gaussian-rational tau-Laurent scalars as plain dicts: tau power -> (re, im)
# with Fraction parts and no (0, 0) entries; polynomials as dicts
# exponent tuple -> such a scalar.

_GR_ZERO = (Fraction(0), Fraction(0))


def gr_clean(x):
    return {k: (re, im) for k, (re, im) in x.items() if re != 0 or im != 0}


def gr_add(x, y):
    out = dict(x)
    for k, (re, im) in y.items():
        r0, i0 = out.get(k, _GR_ZERO)
        out[k] = (r0 + re, i0 + im)
    return gr_clean(out)


def gr_neg(x):
    return {k: (-re, -im) for k, (re, im) in x.items()}


def gr_mul(x, y):
    out = {}
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            r0, i0 = out.get(k1 + k2, _GR_ZERO)
            out[k1 + k2] = (r0 + a * c - b * d, i0 + a * d + b * c)
    return gr_clean(out)


def gr_monomial_inverse(x):
    """1/x for a nonzero tau-monomial x."""
    ((k, (a, b)),) = x.items()
    n = a * a + b * b
    return {-k: (a / n, -b / n)}


def gr_to_complex(x, tau):
    """Float value at tau, each part through float(Fraction), tau powers in order."""
    total = 0j
    for k in sorted(x):
        re, im = x[k]
        total += (complex(re) + 1j * complex(im)) * tau**k
    return total


def gr_poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = gr_add(out.get(e, {}), c)
    return {e: c for e, c in out.items() if c}


def gr_poly_mul(p, q):
    """Term-by-term product: every pair of terms, exponents added."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = gr_add(out.get(e, {}), gr_mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def sym_trace_oracle(mats):
    """(1/k!) sum over all k! orderings pi of tr(M_pi(1) .. M_pi(k)), every
    product a full matrix product; the entries are polynomial dicts."""
    k, n = len(mats), len(mats[0])
    total = {}
    for perm in itertools.permutations(range(k)):
        prod = mats[perm[0]]
        for i in perm[1:]:
            prod = [[functools.reduce(gr_poly_add, (gr_poly_mul(prod[r][m], mats[i][m][c]) for m in range(n)), {})
                     for c in range(n)] for r in range(n)]
        for r in range(n):
            total = gr_poly_add(total, prod[r][r])
    inv = Fraction(1, factorial(k))
    return {e: {t: (re * inv, im * inv) for t, (re, im) in c.items()} for e, c in total.items()}


# Forms as dicts: strictly increasing index tuple -> polynomial dict as
# above, with no empty components.


def gr_form_add(f, g):
    out = dict(f)
    for I, p in g.items():
        out[I] = gr_poly_add(out.get(I, {}), p)
    return {I: p for I, p in out.items() if p}


def gr_wedge(f, g):
    """Term-by-term wedge; the sign of each index concatenation is its
    inversion count, counted here."""
    out = {}
    for I, p in f.items():
        for J, q in g.items():
            idx = I + J
            if len(set(idx)) < len(idx):
                continue
            inversions = sum(1 for a, b in itertools.combinations(idx, 2) if a > b)
            pq = gr_poly_mul(p, q)
            if inversions % 2:
                pq = {e: gr_neg(c) for e, c in pq.items()}
            out = gr_form_add(out, {tuple(sorted(idx)): pq})
    return out


def gr_affine_coords(m, target_dim):
    """The target coordinates of the affine map of the monotone vertex
    map m, as polynomial dicts in the source coordinates y_1..y_k:
    x_i is the sum of the source barycentric coordinates of the
    vertices sent to i, where lam_0 = 1 - sum y and lam_j = y_j."""
    k = len(m) - 1
    one = {0: (Fraction(1), Fraction(0))}
    minus_one = {0: (Fraction(-1), Fraction(0))}

    def unit(l):
        return tuple(int(a == l) for a in range(k))

    lams = [gr_poly_add({(0,) * k: one}, {unit(l): minus_one for l in range(k)})]
    lams += [{unit(l): one} for l in range(k)]
    coords = []
    for i in range(1, target_dim + 1):
        x = {}
        for j, v in enumerate(m):
            if v == i:
                x = gr_poly_add(x, lams[j])
        coords.append(x)
    return coords


def gr_pullback_monotone(form, m, target_dim):
    """Pullback along the affine map of the monotone vertex map m: each
    x^e dx_I becomes x(y)^e dx_i1(y) ^ .. ^ dx_ik(y), with x(y)^e a
    product of gr_poly_mul and each dx_i(y) the constant 1-form of the
    linear part of the affine coordinate x_i."""
    k = len(m) - 1
    coords = gr_affine_coords(m, target_dim)
    const = (0,) * k
    dcoords = []
    for x in coords:
        dx = {}
        for l in range(k):
            c = x.get(tuple(int(a == l) for a in range(k)))
            if c:
                dx[(l,)] = {const: c}
        dcoords.append(dx)
    out = {}
    for I, p in form.items():
        composed = {}
        for e, c in p.items():
            t = {const: c}
            for i, n in enumerate(e):
                for _ in range(n):
                    t = gr_poly_mul(t, coords[i])
            composed = gr_poly_add(composed, t)
        term = {(): composed} if composed else {}
        for i in I:
            term = gr_wedge(term, dcoords[i])
        out = gr_form_add(out, term)
    return out


def gr_scalar(s):
    """The dict model of a library Scalar."""
    return {k: (Fraction(a, d), Fraction(b, d)) for k, (a, b, d) in s.terms.items()}


def gr_form_scale(f, c, dim):
    """The form dict f times the scalar dict c."""
    const = {(0,) * dim: c} if c else {}
    return {I: q for I, p in f.items() if (q := gr_poly_mul(p, const))}


def gr_d(f, dim):
    """Exterior derivative of a form dict: d(p dx_I) is the sum over j of
    (dp/dx_j) dx_j ^ dx_I, its sign counted by gr_wedge."""
    one = {(0,) * dim: {0: (Fraction(1), Fraction(0))}}
    out = {}
    for I, p in f.items():
        for j in range(dim):
            dp = {}
            for e, c in p.items():
                if e[j]:
                    dp[e[:j] + (e[j] - 1,) + e[j + 1:]] = {k: (re * e[j], im * e[j]) for k, (re, im) in c.items()}
            out = gr_form_add(out, gr_wedge({(j,): dp} if dp else {}, {I: one}))
    return out


@functools.cache
def _coordinate_functionals(name):
    """The matrix L with x = L m for every x in the algebra and its
    matrix m flattened row by row: L = (B^H B)^{-1} B^H for the basis
    matrices B as columns, solved in sympy, entries as scalar dicts."""
    from chernweil.liealg import lie_algebra

    alg = lie_algebra(name)
    n = alg.n

    def entry(s):
        assert set(s.terms) <= {0}  # the bases are tau-free
        a, b, d = s.terms.get(0, (0, 0, 1))
        return sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d)

    B = sympy.Matrix(n * n, alg.dim, lambda j, c: entry(alg.basis[c][j // n][j % n]))
    L = (B.H * B).inv() * B.H
    out = []
    for c in range(alg.dim):
        row = []
        for j in range(n * n):
            re, im = sympy.expand(L[c, j]).as_real_imag()
            row.append(gr_clean({0: (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))}))
        out.append(row)
    return out


def curvature_reference(A):
    """F = dA + A ^ A of a Lie-valued 1-form by matrices: the matrix of
    1-forms sum_a A^a e_a, d of each entry plus the matrix wedge square,
    by gr_d and gr_wedge, decomposed in the basis by the coordinate
    functionals.  No structure constant or bracket is used.  Raises if
    the matrix does not lie in the algebra."""
    from chernweil.bundles import LieValuedForm
    from chernweil.forms import PolyForm
    from chernweil.poly import Poly
    from chernweil.scalars import Scalar

    alg, dim, n = A.algebra, A.dim, A.algebra.n
    basis = [[[gr_scalar(v) for v in row] for row in b] for b in alg.basis]

    def combine(coords, r, c):
        return functools.reduce(
            gr_form_add, (gr_form_scale(f, basis[a][r][c], dim) for a, f in enumerate(coords)), {}
        )

    coords = [{I: {e: gr_scalar(v) for e, v in p.terms.items()} for I, p in f.comps.items()} for f in A.coords]
    M = [[combine(coords, r, c) for c in range(n)] for r in range(n)]
    F = [
        [functools.reduce(gr_form_add, (gr_wedge(M[r][m], M[m][c]) for m in range(n)), gr_d(M[r][c], dim))
         for c in range(n)]
        for r in range(n)
    ]
    flat = [F[r][c] for r in range(n) for c in range(n)]
    L = _coordinate_functionals(alg.name)
    out = [
        functools.reduce(gr_form_add, (gr_form_scale(flat[j], L[a][j], dim) for j in range(n * n)), {})
        for a in range(alg.dim)
    ]
    if [[combine(out, r, c) for c in range(n)] for r in range(n)] != F:
        raise AssertionError("dA + A ^ A is not in the algebra")

    def to_scalar(x):
        return sum((Scalar.of(re, im, k) for k, (re, im) in x.items()), Scalar.zero())

    return LieValuedForm(alg, dim, 2, [
        PolyForm(dim, 2, {I: Poly(dim, {e: to_scalar(x) for e, x in p.items()}) for I, p in f.items()}) for f in out
    ])


def _pair_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _pair_matmul(A, B):
    """The product of two square matrices of (re, im) Fraction pairs."""
    n = len(A)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            re = im = Fraction(0)
            for k in range(n):
                x, y = _pair_mul(A[r][k], B[k][c])
                re, im = re + x, im + y
            row.append((re, im))
        out.append(row)
    return out


def _basis_pairs(alg):
    """The basis matrices of alg as (re, im) Fraction pairs."""
    return [[[gr_scalar(s).get(0, _GR_ZERO) for s in row] for row in b] for b in alg.basis]


def cayley_matrix_reference(alg, h):
    """cay(h) = (I + h/2)(I - h/2)^{-1} for rational coordinates h, as
    (re, im) Fraction pairs: the complex matrix X + iY is taken as the
    real block matrix [[X, -Y], [Y, X]], whose inverse _gauss_jordan
    computes on [B | I] over Fractions; no library arithmetic.  Built
    once per (alg, h)."""
    return _cayley_matrix_reference(alg, tuple(map(Fraction, h)))


@functools.cache
def _cayley_matrix_reference(alg, h):
    n = alg.n
    H = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for x, b in zip(h, _basis_pairs(alg)):
        H = [[(H[r][c][0] + Fraction(x) * b[r][c][0], H[r][c][1] + Fraction(x) * b[r][c][1]) for c in range(n)]
             for r in range(n)]

    def half_shift(sign):
        return [[(Fraction(int(r == c)) + sign * H[r][c][0] / 2, sign * H[r][c][1] / 2) for c in range(n)]
                for r in range(n)]

    A = half_shift(-1)
    block = [[A[r % n][c % n][0] if (r < n) == (c < n) else (A[r % n][c % n][1] * (1 if r >= n else -1))
              for c in range(2 * n)] for r in range(2 * n)]
    rows = [row + [Fraction(int(i == j)) for j in range(2 * n)] for i, row in enumerate(block)]
    assert _gauss_jordan(rows, 2 * n) == list(range(2 * n))
    inv = [[(rows[r][2 * n + c], rows[n + r][2 * n + c]) for c in range(n)] for r in range(n)]
    return _pair_matmul(half_shift(1), inv)


def cayley_ad_reference(alg, h):
    """The rational matrix M of Ad_cay(h) on coordinates, M[c][b] the
    coordinate c of cay(h) e_b cay(-h), read by the sympy coordinate
    functionals; each coordinate must be real."""
    g, gi = cayley_matrix_reference(alg, h), cayley_matrix_reference(alg, [-Fraction(x) for x in h])
    L = _coordinate_functionals(alg.name)
    n = alg.n
    cols = []
    for b in _basis_pairs(alg):
        m = _pair_matmul(_pair_matmul(g, b), gi)
        col = []
        for c in range(alg.dim):
            re = im = Fraction(0)
            for j in range(n * n):
                x, y = _pair_mul(L[c][j].get(0, _GR_ZERO), m[j // n][j % n])
                re, im = re + x, im + y
            assert im == 0, "Ad of a Cayley factor left the real algebra"
            col.append(re)
        cols.append(col)
    return [[cols[b][c] for b in range(alg.dim)] for c in range(alg.dim)]


def route_reference(P, m, sid):
    """The composite transition of the bundle P over the monotone map m
    into sid's chart, recomputed on every call: peel the largest missed
    vertex i, apply face i's transition, then recurse inside the face
    through its degeneracy collapse."""
    from chernweil.bundles import TransitionMap

    missed = [v for v in range(sid.dim + 1) if v not in m]
    if not missed:
        return TransitionMap.identity(P.algebra, len(m) - 1)
    i = max(missed)
    return face_route_reference(P, sid, i, tuple(v - (v > i) for v in m))


def face_route_reference(P, sid, i, m):
    """Face i's transition of sid, then the route inside face i over m."""
    from chernweil.forms import AffineMap
    from chernweil.simplicial import word_epi

    d = sid.dim
    tgt, word = P.base.face(sid, i)
    collapse = word_epi(word, d - 1)
    rest = route_reference(P, tuple(collapse[v] for v in m), tgt)
    return P.transitions[(sid, i)].pullback(AffineMap.from_monotone(m, d - 1)).compose(rest)


def transitions_equal_reference(t1, t2):
    """transitions_equal with no shortcut on equal factor lists.

    Abelian: the summed factor logs differ, in every coordinate, by a
    constant in tau*Z (the u1 basis is [[i]]).  Nonabelian, where every
    factor is a Cayley factor: the products of cayley_matrix_reference
    are equal.
    """
    from chernweil.poly import Poly
    from chernweil.scalars import Scalar

    if t1.algebra is not t2.algebra or t1.dim != t2.dim:
        return False
    alg, dim = t1.algebra, t1.dim
    if alg.is_abelian:
        for a in range(alg.dim):
            diff = Poly.zero(dim)
            for sign, t in ((1, t1), (-1, t2)):
                for f in t.factors:
                    diff = diff + f.coords[a].component(()) * Fraction(sign)
            if any(any(e) for e in diff.terms):
                return False
            q = diff.terms.get((0,) * dim, Scalar.zero()) / Scalar.tau()
            if not q.is_rational() or q.rational_value().denominator != 1:
                return False
        return True

    def exact(t):
        one = [[(Fraction(int(r == c)), Fraction(0)) for c in range(alg.n)] for r in range(alg.n)]
        return functools.reduce(_pair_matmul, (cayley_matrix_reference(alg, f.h) for f in t.factors), one)

    return exact(t1) == exact(t2)


def validate_bundle_reference(P):
    """validate_bundle's (ok, failures), each face pair i < j of each
    cell compared through its two routes, computed with no memo and
    compared by transitions_equal_reference."""
    X = P.base
    failures = []
    for d in range(1, X.dim + 1):
        for sid in X.cells(d):
            for i in range(d + 1):
                t = P.transitions.get((sid, i))
                if t is None:
                    failures.append(f"missing transition ({sid}, {i})")
                elif t.dim != d - 1:
                    failures.append(f"transition ({sid}, {i}) has wrong domain")
    if not failures:
        for d in range(2, X.dim + 1):
            for sid in X.cells(d):
                for i, j in itertools.combinations(range(d + 1), 2):
                    # vertex j of sid is vertex j - 1 of face i; vertex i stays i in face j
                    via_i = face_route_reference(P, sid, i, tuple(v for v in range(d) if v != j - 1))
                    via_j = face_route_reference(P, sid, j, tuple(v for v in range(d) if v != i))
                    if not transitions_equal_reference(via_i, via_j):
                        failures.append(f"cocycle fails on {X.name(sid)} faces ({i},{j})")
    return not failures, failures


def pullback_bundle_reference(f, P):
    """The transitions of f^* P, each routed with no memo."""
    from chernweil.simplicial import word_epi

    transitions = {}
    for d in range(1, f.source.dim + 1):
        for sid in f.source.cells(d):
            core, word = f.assignment[sid]
            epi = word_epi(word, d)
            for i in range(d + 1):
                transitions[(sid, i)] = route_reference(P, tuple(epi[v] for v in range(d + 1) if v != i), core)
    return transitions


def horn_restriction_reference(filled, H):
    """The transitions of a bundle over Delta^n relabelled onto the horn
    H: each horn cell takes the data of the cell of Delta^n with the same
    vertex tuple, both read from the cell names."""
    by_name = {filled.base.name(sid): sid for sid in filled.base.all_cells()}
    return {(sid, i): filled.transitions[(by_name[H.space.name(sid)], i)] for sid, i in H.space.faces}


# ---------------------------------------------------------------------------
# Barycentric polynomials as products of the lam_j, built by Poly arithmetic


def barycentric_reference(dim):
    """lam_0 = 1 - sum x_i, lam_j = x_j on Delta^dim."""
    from chernweil.poly import Poly

    lam0 = Poly.const(dim, 1)
    for i in range(dim):
        lam0 = lam0 - Poly.var(dim, i)
    return [lam0] + [Poly.var(dim, i) for i in range(dim)]


def bernstein_basis_reference(dim, degree):
    """Every Bernstein polynomial multinomial(a) prod_j lam_j^a_j of the
    given degree on Delta^dim, keyed by a."""
    from chernweil.linalg import multinomial
    from chernweil.poly import Poly

    lams = barycentric_reference(dim)
    out = {}
    for a in itertools.product(range(degree + 1), repeat=dim + 1):
        if sum(a) != degree:
            continue
        p = Poly.const(dim, multinomial(a))
        for lam, e in zip(lams, a):
            for _ in range(e):
                p = p * lam
        out[a] = p
    return out


def bernstein_coords_reference(phi):
    """The coordinate polynomials of a BernsteinMap: sum_a c_a B_a."""
    from chernweil.poly import Poly

    coords = []
    for l in range(phi.target_dim):
        p = Poly.zero(phi.source_dim)
        for a, B in bernstein_basis_reference(phi.source_dim, phi.degree).items():
            p = p + B.scale(phi.control[a][l])
        coords.append(p)
    return coords


def affine_coords_reference(m, target_dim):
    """The coordinates of the affine map of the vertex map m: target
    coordinate t is the sum of lam_j over the j with m[j] == t."""
    from chernweil.poly import Poly

    k = len(m) - 1
    lams = barycentric_reference(k)
    coords = []
    for t in range(1, target_dim + 1):
        p = Poly.zero(k)
        for j, v in enumerate(m):
            if v == t:
                p = p + lams[j]
        coords.append(p)
    return coords


# ---------------------------------------------------------------------------
# Whitney-Bernstein basis functions from Poly and PolyForm arithmetic


def lam_power_reference(d, b):
    """lam^b = (1 - sum x)^b_0 x_1^b_1 .. x_d^b_d on Delta^d as a dict
    exponent -> int, by the multinomial expansion of lam_0^b_0: each
    composition g of b_0 into d + 1 parts (stars and bars, in
    lexicographic order) gives (-1)^(b_0 - g_0) multinomial(g) times
    x^(g_1 + b_1, .., g_d + b_d)."""
    n = b[0]
    out = {}
    for bars in itertools.combinations(range(n + d), d):
        cuts = (-1,) + bars + (n + d,)
        g = [cuts[j + 1] - cuts[j] - 1 for j in range(d + 1)]
        c = factorial(n)
        for gj in g:
            c //= factorial(gj)
        e = tuple(gj + bj for gj, bj in zip(g[1:], b[1:]))
        out[e] = out.get(e, 0) + (-1) ** (n - g[0]) * c
    return out


def whitney_basis_reference(d, a, s):
    """lam^a phi_s on Delta^d (lam^a for s == ()), multiplied out:
    lam_0 = 1 - sum x, lam_v = x_v, dlam_0 = -sum dx, dlam_v = dx_v, and
    phi_s = sum_j (-1)^j lam_{s_j} dlam_{s_0} ^ .. (omit j) .. ^ dlam_{s_k}."""
    from chernweil.forms import PolyForm
    from chernweil.poly import Poly

    lams = barycentric_reference(d)
    dxs = [PolyForm(d, 1, {(i,): Poly.const(d, 1)}) for i in range(d)]
    dlams = [PolyForm.zero(d, 1)] + dxs
    for dx in dxs:
        dlams[0] = dlams[0] - dx
    mono = Poly.const(d, 1)
    for lam, e in zip(lams, a):
        mono = mono * lam**e
    if not s:
        return PolyForm.from_poly(mono)
    out = PolyForm.zero(d, len(s) - 1)
    for j, v in enumerate(s):
        term = PolyForm.from_poly(mono * lams[v])
        for u in s[:j] + s[j + 1:]:
            term = term.wedge(dlams[u])
        out = out + term if j % 2 == 0 else out - term
    return out


def whitney_keys_reference(d, k, r):
    """The keys (a, s) of the degree-r basis of k-forms on Delta^d: the
    Bernstein (b, ()) with |b| = r for k = 0, else every increasing
    s of k + 1 vertices and |a| = r with a_v = 0 for v < min s."""
    out = []
    for s in itertools.combinations(range(d + 1), k + 1) if k else [()]:
        for a in itertools.product(range(r + 1), repeat=d + 1):
            if sum(a) == r and not any(a[:s[0]] if s else ()):
                out.append((a, s))
    return out


def whitney_combination_reference(d, k, coeffs):
    """sum c * lam^a phi_s over coeffs.items(), by PolyForm scale and add."""
    from chernweil.forms import PolyForm

    out = PolyForm.zero(d, k)
    for key, c in coeffs.items():
        out = out + whitney_basis_reference(d, *key).scale(c)
    return out


@functools.cache
def _reduced_facet_basis(dim, k, r):
    """The degree-r basis of k-forms on Delta^dim (whitney_keys_reference)
    as the columns of a matrix A over every slot (component, exponent)
    of degree <= r + 1, reduced once as [A | I] by _gauss_jordan:
    (keys, {slot: row}, pivot columns, the transform T with T A reduced).
    The pivots depend on A alone, so T b is the b column that reducing
    [A | b | I] for facet data b would give."""
    keys = whitney_keys_reference(dim, k, r) if k <= dim else []
    cols = [{m: c.rational_value() for m, c in _flat_form(whitney_basis_reference(dim, *key)).items()}
            for key in keys]
    exps = [e for e in itertools.product(range(r + 2), repeat=dim) if sum(e) <= r + 1]
    slots = sorted((I, e) for I in itertools.combinations(range(dim), k) for e in exps)
    m, n = len(slots), len(keys)
    rows = [[col.get(t, Fraction(0)) for col in cols] + [Fraction(int(i == j)) for j in range(m)]
            for i, t in enumerate(slots)]
    pivots = _gauss_jordan(rows, n)
    return keys, {t: i for i, t in enumerate(slots)}, pivots, [row[n:] for row in rows]


def whitney_facet_coeffs_reference(d, k, prescriptions):
    """Each facet's data solved for by elimination in the facet's degree-r
    basis (r as whitney_extend picks it) against whitney_basis_reference
    on Delta^(d-1): a dict facet index -> {key over Delta^d: nonzero
    coefficient}, the keys renumbered to the vertices of Delta^d.  The
    basis matrix is reduced once per shape (_reduced_facet_basis); data
    whose transformed column is nonzero below the pivots lies outside the
    basis's span."""
    from chernweil.scalars import Scalar

    D = max([f.total_poly_degree() for f in prescriptions.values()] + [0])
    r = max(D, 1) if k == 0 else D
    keys, row_of, pivots, T = _reduced_facet_basis(d - 1, k, r)
    out = {}
    for i, f in prescriptions.items():
        data = [(row_of[t], c) for t, c in _flat_form(f).items()]
        y = [sum((c * row[j] for j, c in data), Scalar.zero()) for row in T]
        assert all(v.is_zero() for v in y[len(pivots):]), f"facet {i} data outside the degree-{r} basis"
        x = [Scalar.zero()] * len(keys)
        for row, c in enumerate(pivots):
            x[c] = y[row]
        verts = [v for v in range(d + 1) if v != i]
        out[i] = {}
        for (a, s), c in zip(keys, x):
            if not c.is_zero():
                lifted = [0] * (d + 1)
                for j, v in enumerate(verts):
                    lifted[v] = a[j]
                out[i][(tuple(lifted), tuple(verts[j] for j in s))] = c
    return out


def whitney_extend_reference(d, k, prescriptions):
    """whitney_extend by elimination: the facets' coefficients
    (whitney_facet_coeffs_reference) are combined and multiplied out."""
    coeffs = {}
    for lifted in whitney_facet_coeffs_reference(d, k, prescriptions).values():
        coeffs.update(lifted)
    return whitney_combination_reference(d, k, coeffs)


def check_coefficient_consistency(d, k, prescriptions):
    """The pairs i < j of facets whose coefficients found by elimination
    (whitney_facet_coeffs_reference) differ on a basis function whose
    support avoids both i and j, the ones that survive on both facets.
    An oracle for whitney_extend's consistency check that shares no step
    with check_prescription_consistency."""
    lifted = whitney_facet_coeffs_reference(d, k, prescriptions)

    def shared(i, j):
        return {(a, s): c for (a, s), c in lifted[i].items() if not a[j] and j not in s}

    idx = sorted(prescriptions)
    return [(i, j) for n, i in enumerate(idx) for j in idx[n + 1:] if shared(i, j) != shared(j, i)]


def _flat_form(f):
    """A PolyForm as a dict (component, exponent) -> coefficient."""
    return {(I, e): c for I, p in f.comps.items() for e, c in p.terms.items()}


# ---------------------------------------------------------------------------
# Invariant polynomials by their multilinear evaluators, the library's
# older route: each functional evaluated on matrices, and its tensor read
# off the basis one sorted index tuple at a time


def polynomial_from_evaluator(algebra, k, evaluator, provenance):
    """An InvariantPolynomial read off a multilinear evaluator by the basis
    loop: the diagonal's coefficient of x^a is multinomial(a) times
    evaluator(e_a1, .., e_ak), for each sorted basis tuple a.  Its eval is
    the evaluator itself, and its contract the evaluator on the matrices
    sum_a x_a e_a built from zero, so a check that compares eval or
    contract with the tensor still sees a nonsymmetric or nonmultilinear
    evaluator."""
    from chernweil.liealg import InvariantPolynomial
    from chernweil.poly import Poly
    from chernweil.scalars import Scalar

    terms = {}
    for a in itertools.combinations_with_replacement(range(algebra.dim), k):
        val = Scalar.coerce(evaluator([algebra.basis[i] for i in a]))
        if not val.is_zero():
            counts = [a.count(i) for i in range(algebra.dim)]
            terms[tuple(counts)] = val * (factorial(k) // math.prod(map(factorial, counts)))
    rho = InvariantPolynomial(algebra, k, Poly(algebra.dim, terms), provenance)
    rho.eval = evaluator

    def contract(coords, zero):
        mats = []
        for x in coords:
            m = [[zero] * algebra.n for _ in range(algebra.n)]
            for a, v in x.items():
                for r, row in enumerate(algebra.basis[a]):
                    for c, b in enumerate(row):
                        if b.terms:
                            m[r][c] = m[r][c] + v * b
            mats.append(m)
        return evaluator(mats)

    rho.contract = contract
    return rho


def _scale(v, c):
    """v * c for a ring element v and an exact rational or Scalar c; a
    number v meets the complex value of c."""
    if isinstance(v, (complex, float, int)):
        return v * (c.to_complex() if hasattr(c, "terms") else c.numerator / c.denominator)
    return v * c


def sym_trace_evaluator(k):
    """(1/(k-1)!) times the sum over the (k-1)! orderings of the matrices
    that start with the first of tr(M_1 M_pi(2) .. M_pi(k)): the trace is
    cyclic when the entries commute, so the k rotations of an ordering
    share one trace."""
    from chernweil.liealg import mat_mul, mat_trace

    def evaluator(mats):
        total = None
        for perm in itertools.permutations(range(1, k)):
            prod = mats[0]
            for i in perm:
                prod = mat_mul(prod, mats[i])
            t = mat_trace(prod)
            total = t if total is None else total + t
        return _scale(total, Fraction(1, factorial(k - 1)))

    return evaluator


def _det(A):
    """The Leibniz sum over all permutations, signs by counted inversions."""
    n = len(A)
    total = None
    for perm in itertools.permutations(range(n)):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        term = _scale(term, Fraction((-1) ** inversions))
        total = term if total is None else total + term
    return total


def elementary_invariant(A, k):
    """Sum of the principal k x k minors (the degree-k coefficient of
    det(I + tA)); the ring's zero for k > n."""
    n = len(A)
    if k > n:
        return A[0][0] * 0
    total = None
    for rows in itertools.combinations(range(n), k):
        d = _det([[A[r][c] for c in rows] for r in rows])
        total = d if total is None else total + d
    return total


def chern_evaluator(k):
    """chern:k with its polarization loop written out over matrices: each
    entry divided by i*tau, then (1/k!) sum over nonempty S of
    (-1)^(k-|S|) e_k(sum of the matrices in S)."""
    from chernweil.scalars import TAU, Scalar

    def inv_itau(v):
        if isinstance(v, (complex, float, int)):
            return v / (1j * TAU)
        return v * (Scalar.one() / Scalar.of(0, 1, 1))

    def evaluator(mats):
        scaled = [[[inv_itau(v) for v in row] for row in m] for m in mats]
        total = None
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                m = scaled[subset[0]]
                for i in subset[1:]:
                    m = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(m, scaled[i])]
                term = _scale(elementary_invariant(m, k), Fraction((-1) ** (k - size)))
                total = term if total is None else total + term
        return _scale(total, Fraction(1, factorial(k)))

    return evaluator


def monomial_moment(alpha):
    """E[|z^alpha|^2] for z uniform on the unit sphere of C^n, n = len(alpha).

    alpha! (n-1)! / (n-1+|alpha|)! (Rudin, "Function Theory in the Unit
    Ball of C^n", Prop. 1.4.9).
    """
    n = len(alpha)
    return Fraction(math.prod(map(factorial, alpha)) * factorial(n - 1), factorial(n - 1 + sum(alpha)))


@functools.cache
def _hamiltonian_moments(n, k):
    """(2i)^k monomial_moment(alpha) for each alpha in N^n with |alpha| = k,
    keyed by the code sum_i alpha_i (k+1)^i."""
    from chernweil.scalars import Scalar

    base, i2k = k + 1, Scalar.of(0, 2) ** k
    out = {}
    for a in itertools.combinations_with_replacement(range(n), k):
        alpha = [a.count(i) for i in range(n)]
        out[sum(c * base**i for i, c in enumerate(alpha))] = i2k * monomial_moment(alpha)
    return out


def reznikov_evaluator(n, k):
    """The integrated-Hamiltonian functional on su(n) by sphere moments:
    with H_j([z]) = 2i z*X_j z, the mean over the unit sphere of C^n of
    H_1 .. H_k is the sum over row and column tuples r, c in [n]^k of
    prod_j 2i X_j[r_j][c_j] E[zbar^count(r) z^count(c)], and the
    expectation vanishes unless count(r) == count(c).  The sum is
    contracted slot by slot over the nonzero entries, keyed by the codes
    of the row and column counts so far."""
    base = k + 1
    moments = _hamiltonian_moments(n, k)

    def evaluator(mats):
        states = {(0, 0): 1}
        for mat in mats:
            entries = [
                (base**r, base**c, v)
                for r, row in enumerate(mat)
                for c, v in enumerate(row)
                if not (v == 0 if isinstance(v, (complex, float, int)) else v.is_zero())
            ]
            nxt = {}
            for (rs, cs), acc in states.items():
                for dr, dc, v in entries:
                    key = (rs + dr, cs + dc)
                    term = acc * v
                    nxt[key] = nxt[key] + term if key in nxt else term
            states = nxt
        total = mats[0][0][0] * 0
        for (rs, cs), acc in states.items():
            if rs == cs:
                total = total + _scale(acc, moments[rs])
        return total

    return evaluator


def evaluator_reference(algebra, selector):
    """The evaluator of a symtrace:k, chern:k or reznikov:k selector."""
    kind, k = selector.split(":")
    k = int(k)
    if kind == "symtrace":
        return sym_trace_evaluator(k)
    return chern_evaluator(k) if kind == "chern" else reznikov_evaluator(algebra.n, k)


def invariant_polynomial_reference(algebra, selector):
    """The selector's polynomial with its tensor read off its evaluator."""
    return polynomial_from_evaluator(algebra, int(selector.split(":")[1]), evaluator_reference(algebra, selector),
                                     selector)


def polarize_reference(algebra, p, k):
    """polarize(algebra, p, k) with its polarization loop written out over
    coordinate vectors, each sum started from the zero vector."""
    from chernweil.scalars import Scalar

    def evaluator(mats):
        elems = [algebra.decompose(m) for m in mats]
        total = None
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                v = [Scalar.zero()] * algebra.dim
                for i in subset:
                    v = [a + b for a, b in zip(v, elems[i])]
                term = _scale(p(v), Fraction((-1) ** (k - size)))
                total = term if total is None else total + term
        return _scale(total, Fraction(1, factorial(k)))

    return polynomial_from_evaluator(algebra, k, evaluator, f"polarized:{k}")


def check_prescription_consistency(d, prescriptions):
    """Exact agreement of facet data on facet intersections.

    prescriptions: dict facet index -> PolyForm on Delta^{d-1}.  Uses
    the cosimplicial identity delta_i o delta_{j-1} = delta_j o delta_i
    for i < j.  whitney_extend makes the same comparison, so
    check_coefficient_consistency, which compares Whitney-Bernstein
    coefficients instead, is the oracle that shares none of its steps;
    all three report the same pairs.
    """
    from chernweil.forms import AffineMap

    bad = []
    idx = sorted(prescriptions)
    for a, i in enumerate(idx):
        for j in idx[a + 1:]:
            lhs = prescriptions[i].pullback(AffineMap.face(d - 1, j - 1))
            rhs = prescriptions[j].pullback(AffineMap.face(d - 1, i))
            if lhs != rhs:
                bad.append((i, j))
    return bad


def bianchi_defect(D):
    """dF + [A ^ F] on every simplex of the connection D; identically zero."""
    from chernweil.cw import curvature_form

    out = {}
    for sid, A in D.forms.items():
        F = curvature_form(A)
        out[sid] = F.d() + bracket_wedge(A, F)
    return out

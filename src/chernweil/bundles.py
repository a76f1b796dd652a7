"""Simplicial G-bundles in trivialized per-simplex charts.

Every nondegenerate simplex carries the chart Delta^d x G; a face map
into a simplex is a bundle map (t, g) |-> (delta_i(t), phi(t) g) for a
group-valued transition phi, stored as an ordered product of factors:
on an abelian algebra exponentials of g-valued 0-forms, and on a
nonabelian one constant Cayley factors cay(h) = (I + h/2)(I - h/2)^{-1}
(Weyl, The Classical Groups, ch. II), whose matrices are exact.
Transition logs, gauges, connections and curvatures are all one type,
LieValuedForm, in degrees 0, 0, 1 and 2.  Degenerate simplices
implicitly carry the pullback of their core's chart along the collapse,
with identity comparison maps, so the whole functor is determined by
finitely much data.

Connections are Lie-algebra-valued polynomial 1-forms per chart, tied
together by the trivialized gauge rule

    A_face = Ad_{phi^{-1}}(delta_i^* A) + phi^{-1} d phi.

Every check here is decided by ==.  On an abelian algebra Ad is the
identity and a transition is one exp factor, whose log derivative is the
d of its log.  On a nonabelian one a transition is a product of constant
Cayley factors: its Ad is one exact rational matrix and it adds no log
derivative.  TransitionMap refuses an exp factor on a nonabelian
algebra, where phi^{-1} d phi need not be polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm

from .forms import (
    AffineMap,
    FaceConsistencyError,
    PolyForm,
    _combination,
    form_on,
    random_poly,
    whitney_extend,
)
from .liealg import mat_mul
from .linalg import PrecomputedSolver
from .poly import Poly
from .scalars import Scalar
from .simplicial import (
    SimplexId,
    compose_monotone,
    cylinder,
    mono_skip,
    word_epi,
)


_new = object.__new__


class BundleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lie-algebra-valued forms (coordinates in a fixed basis)


class LieValuedForm:
    """g-valued polynomial differential form, one PolyForm per basis vector.

    Degree 0 holds the g-valued functions: transition logs and gauges."""

    __slots__ = ("algebra", "dim", "deg", "coords")

    def __init__(self, algebra, dim, deg, coords):
        self.algebra = algebra
        self.dim = dim
        self.deg = deg
        self.coords = list(coords)

    @staticmethod
    def zero(algebra, dim, deg=1):
        return LieValuedForm(algebra, dim, deg, [PolyForm.zero(dim, deg)] * algebra.dim)

    @staticmethod
    def from_polys(algebra, polys):
        """The 0-form with these basis coordinates."""
        return LieValuedForm(algebra, polys[0].dim, 0, [PolyForm.from_poly(p) for p in polys])

    def is_zero(self):
        return all(f.is_zero() for f in self.coords)

    def __add__(self, other):
        if self.algebra is not other.algebra:
            raise ValueError(f"sum of {self.algebra.name} and {other.algebra.name} forms")
        return LieValuedForm(self.algebra, self.dim, self.deg, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return LieValuedForm(self.algebra, self.dim, self.deg, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, LieValuedForm)
            and self.algebra is other.algebra
            and self.deg == other.deg
            and self.coords == other.coords
        )

    def d(self):
        return LieValuedForm(self.algebra, self.dim, self.deg + 1, [f.d() for f in self.coords])

    def pullback(self, amap):
        return LieValuedForm(self.algebra, amap.source_dim, self.deg, [f.pullback(amap) for f in self.coords])


# ---------------------------------------------------------------------------
# transitions


class Cayley:
    """The constant transition factor cay(h) = (I + h/2)(I - h/2)^{-1},
    for a constant h in a nonabelian algebra, stored by its coordinates
    (real rationals, as an element of a compact algebra has) as key =
    (den, nums), h_a = nums[a] / den in lowest terms: its inverse is
    cay(-h), and a pullback keeps it.  Its exact matrix (matrix) and the
    (L, rows) int matrix of its Ad on coordinates (ad, entry [c][b] =
    rows[c][b] / L) are built on first use by _cayley_pair, with those of
    cay(-h), into the dict pair, which the factor shares with its inverse
    and its inverse's inverse: once per factor and its inverses."""

    __slots__ = ("algebra", "key", "pair")

    def __init__(self, algebra, h):
        h = tuple(h)
        if algebra.is_abelian:
            raise BundleError(f"Cayley factors are for nonabelian algebras, not {algebra.name}")
        if len(h) != algebra.dim or not all(type(x) in (int, Fraction) for x in h):
            raise BundleError(f"a Cayley factor on {algebra.name} needs {algebra.dim} rational coordinates")
        den = lcm(*(x.denominator for x in h))
        self.algebra = algebra
        self.key = (den, tuple(x.numerator * (den // x.denominator) for x in h))
        self.pair = {}

    @property
    def h(self):
        den, nums = self.key
        return tuple(Fraction(x, den) for x in nums)

    def is_zero(self):
        return not any(self.key[1])

    def __neg__(self):
        c = _new(Cayley)
        den, nums = self.key
        c.algebra, c.key, c.pair = self.algebra, (den, tuple(-x for x in nums)), self.pair
        return c

    def pullback(self, amap):
        return self

    def _data(self):
        data = self.pair.get(self.key)
        if data is None:
            self.pair.update(_cayley_pair(self.algebra, self.key))
            data = self.pair[self.key]
        return data

    @property
    def matrix(self):
        return self._data()[0]

    @property
    def ad(self):
        return self._data()[1]

    def __eq__(self, other):
        return isinstance(other, Cayley) and self.algebra is other.algebra and self.key == other.key

    def __hash__(self):
        return hash((self.algebra.name, self.key))

    def __repr__(self):
        return f"Cayley({self.algebra.name}, {[str(x) for x in self.h]})"


def _gaussian(values):
    """(D, [(re, im), ...]) for tau-free Gaussian rationals (Scalars,
    Fractions or ints): their numerators over D, the lcm of their
    denominators."""
    triples = [Scalar.coerce(v).terms.get(0, (0, 0, 1)) for v in values]
    D = lcm(*(d for _, _, d in triples))
    return D, [(a * (D // d), b * (D // d)) for a, b, d in triples]


@cache
def _int_tables(algebra):
    """(Db, basis, Dt, reads): basis[b] lists the (j, re, im) with
    e_b = sum (re + im i) / Db E_j over the flattened matrix units E_j, and
    reads[c] the (j, re, im) with coordinate c of a matrix M equal to
    sum (re + im i) M_j / Dt: the row of the algebra's solver transform
    at coordinate c's pivot."""
    nn = algebra.n ** 2
    Db, flat = _gaussian([v for b in algebra.basis for row in b for v in row])
    basis = [[(j, *flat[b * nn + j]) for j in range(nn) if flat[b * nn + j] != (0, 0)] for b in range(algebra.dim)]
    row_of = {c: r for r, c in algebra.solver.pivots}
    Dt, flat = _gaussian([t for c in range(algebra.dim) for t in algebra.solver.trans[row_of[c]]])
    reads = [[(j, *flat[c * nn + j]) for j in range(nn) if flat[c * nn + j] != (0, 0)] for c in range(algebra.dim)]
    return Db, basis, Dt, reads


def _cayley_pair(algebra, key):
    """{key: (matrix, ad)} for cay(h) and cay(-h), h_a = nums[a] / den.

    (I - h/2)^{-1} is the transform of PrecomputedSolver on I - h/2, which
    is invertible because h is skew-Hermitian; cay(h) = 2 (I - h/2)^{-1} - I.
    Every supported basis is skew-Hermitian, so cay(h) is unitary and
    cay(-h) = cay(h)^H.  Column b of Ad_cay(h) holds the coordinates of
    g e_b g^H, that of Ad_cay(-h) those of g^H e_b g; the products and
    reads are Gaussian ints over one denominator, and a coordinate with
    an imaginary part is a BundleError (Ad maps the real algebra to itself).
    """
    n, nn = algebra.n, algebra.n ** 2
    Db, basis, Dt, reads = _int_tables(algebra)
    den, nums = key
    out = {}
    # 2 den Db (I - h/2) = 2 den Db I - sum nums[a] Db e_a
    D2 = 2 * den * Db
    M = [[D2 * (j % (n + 1) == 0), 0] for j in range(nn)]
    for x, e in zip(nums, basis):
        for j, re, im in e:
            M[j][0] -= x * re
            M[j][1] -= x * im
    solver = PrecomputedSolver([[Scalar({0: (*M[r * n + c], D2)}) for c in range(n)] for r in range(n)])
    if solver.rank != n:
        raise BundleError(f"I - h/2 is singular on {algebra.name} for h = {key}")
    Du, U = _gaussian([v for row in solver.trans for v in row])
    G = [(2 * re - Du * (j % (n + 1) == 0), 2 * im) for j, (re, im) in enumerate(U)]
    Gh = [(G[c * n + r][0], -G[c * n + r][1]) for r in range(n) for c in range(n)]
    for sign, (g, gh) in ((1, (G, Gh)), (-1, (Gh, G))):
        cols = []
        for e in basis:
            # (g e_b g^H)[r][c] = sum of g[r][k] x gh[l][c] over the entries x of e_b at (k, l)
            Y = []
            for r in range(n):
                for c in range(n):
                    ya = yb = 0
                    for j, xa, xb in e:
                        ga, gb = g[r * n + j // n]
                        ha, hb = gh[(j % n) * n + c]
                        pa, pb = ga * xa - gb * xb, ga * xb + gb * xa
                        ya += pa * ha - pb * hb
                        yb += pa * hb + pb * ha
                    Y.append((ya, yb))
            col = []
            for read in reads:
                re = im = 0
                for j, ta, tb in read:
                    ya, yb = Y[j]
                    re += ta * ya - tb * yb
                    im += ta * yb + tb * ya
                if im:
                    raise BundleError(f"Ad of a Cayley factor on {algebra.name} left the real algebra")
                col.append(re)
            cols.append(col)
        L = Dt * Du * Du * Db
        q = gcd(L, *(v for col in cols for v in col))
        ad = L // q, tuple(tuple(col[c] // q for col in cols) for c in range(algebra.dim))
        matrix = [[Scalar({0: (*g[r * n + c], Du)}) for c in range(n)] for r in range(n)]
        out[den, tuple(sign * x for x in nums)] = matrix, ad
    return out


def _ad_product(m1, m2):
    """The (L, rows) matrix m1 m2, brought to lowest terms."""
    (L1, A), (L2, B) = m1, m2
    cols = list(zip(*B))
    rows = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]
    g = gcd(L1 * L2, *(v for row in rows for v in row))
    return L1 * L2 // g, tuple(tuple(v // g for v in row) for row in rows)


def _ad_apply(m, X):
    """The g-valued form with coordinates (rows X) / L, one combination
    over one denominator per coordinate (forms._combination)."""
    L, rows = m
    terms = [(b, f) for b, f in enumerate(X.coords) if not f.is_zero()]
    return LieValuedForm(X.algebra, X.dim, X.deg, [
        _combination(X.dim, X.deg, L, [(row[b], f) for b, f in terms if row[b]]) for row in rows
    ])


class TransitionMap:
    """Ordered product p_1 p_2 ... p_r of factors: on an abelian algebra
    exponentials exp(p) of g-valued 0-forms p (LieValuedForm), merged
    eagerly into at most one, which makes the representation canonical
    for u1 and keeps syntactic equality meaningful there; on a
    nonabelian algebra constant Cayley factors.  An exp factor on a
    nonabelian algebra is a BundleError: its log derivative need not be
    polynomial, so no check could be exact.
    """

    __slots__ = ("algebra", "dim", "factors")

    def __init__(self, algebra, dim, factors):
        factors = [f for f in factors if not f.is_zero()]
        if algebra.is_abelian:
            if len(factors) > 1:
                total = reduce(LieValuedForm.__add__, factors)
                factors = [] if total.is_zero() else [total]
        elif any(type(f) is not Cayley for f in factors):
            raise BundleError(f"exp factors are for abelian groups; a constant {algebra.name} factor is cay([...])")
        self.algebra = algebra
        self.dim = dim
        self.factors = factors

    @staticmethod
    def identity(algebra, dim):
        return TransitionMap(algebra, dim, [])

    @staticmethod
    def single(p):
        return TransitionMap(p.algebra, p.dim, [p])

    @staticmethod
    def cayley(algebra, dim, h):
        """The constant map cay(h) on Delta^dim, h a list of rational coordinates."""
        return TransitionMap(algebra, dim, [Cayley(algebra, h)])

    def is_identity(self):
        return not self.factors

    def pullback(self, amap):
        return TransitionMap(self.algebra, amap.source_dim, [f.pullback(amap) for f in self.factors])

    def compose(self, other):
        """Pointwise product self(t) * other(t)."""
        return TransitionMap(self.algebra, self.dim, self.factors + other.factors)

    def inverse(self):
        return TransitionMap(self.algebra, self.dim, [-f for f in reversed(self.factors)])

    def log_total(self):
        """Sum of factor logs; exact group log for abelian algebras."""
        if not self.algebra.is_abelian:
            raise BundleError("log_total is only defined for abelian groups")
        # the constructor merges abelian factors into at most one
        return self.factors[0] if self.factors else LieValuedForm.zero(self.algebra, self.dim, 0)

    def matrix(self):
        """The exact product of the factors' matrices, for a map of Cayley factors."""
        n = self.algebra.n
        g = [[Scalar.of(int(r == c)) for c in range(n)] for r in range(n)]
        for f in self.factors:
            g = mat_mul(g, f.matrix)
        return g

    def __eq__(self, other):
        return (
            isinstance(other, TransitionMap)
            and self.algebra is other.algebra
            and self.dim == other.dim
            and self.factors == other.factors
        )

    def __repr__(self):
        return f"TransitionMap({self.algebra.name}, dim={self.dim}, {len(self.factors)} factors)"


def _constant_value(p):
    """The value of the polynomial p if it is constant, else None."""
    if any(any(e) for e in p.terms):
        return None
    return p.terms.get((0,) * p.dim, Scalar.zero())


def transitions_equal(t1, t2):
    """Group-level equality of two transition maps, decided by == in order:

    1. identical factor lists: equal (the same product of factors), with
       no log algebra and no matrix;
    2. abelian: the logs must differ by a constant in i*tau*Z (exp of
       such a constant is the identity);
    3. nonabelian: the exact matrices of the two products of Cayley
       factors are equal.

    Step 1 gives the verdict the later steps would give: a zero log
    difference, or equal matrices.
    """
    if t1.algebra is not t2.algebra or t1.dim != t2.dim:
        return False
    if t1.factors == t2.factors:
        return True
    if not t1.algebra.is_abelian:
        return t1.matrix() == t2.matrix()
    diff = t1.log_total() - t2.log_total()
    for f in diff.coords:
        c = _constant_value(f.component(()))
        if c is None:
            return False
        # u1 coordinates multiply the basis [[i]]: exp is the identity
        # exactly when the coordinate is an integer multiple of tau
        q = c / Scalar.tau()
        if not q.is_rational() or q.rational_value().denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# bundle data


class BundleData:
    """Trivialized simplicial G-bundle: one transition per face map."""

    def __init__(self, base, algebra, transitions):
        self.base = base
        self.algebra = algebra
        self.transitions = dict(transitions)

    def data_equal(self, other):
        return (
            self.base == other.base
            and self.algebra is other.algebra
            and self.transitions == other.transitions
        )

    def copy(self):
        return BundleData(self.base, self.algebra, dict(self.transitions))


def trivial_bundle(X, algebra):
    transitions = {(sid, i): TransitionMap.identity(algebra, sid.dim - 1) for sid, i in X.faces}
    return BundleData(X, algebra, transitions)


def transition_of_morphism(P, m, sid):
    """Composite transition of the bundle map over the monotone map m
    from Delta^{len(m)-1} into the chart of the nondegenerate simplex sid.

    Peels off face maps at the largest missed vertex (the canonical
    factorization); pure degeneracies contribute identity transitions
    because degenerate simplices carry pulled-back charts.
    """
    return _route(P, m, sid, {})


def _route(P, m, sid, memo):
    """transition_of_morphism through memo, a dict (sid, m) -> TransitionMap
    that stays valid while P.transitions does not change."""
    key = (sid, m)
    t = memo.get(key)
    if t is None:
        hit = set(m)
        missed = [v for v in range(sid.dim + 1) if v not in hit]
        if not missed:
            t = TransitionMap.identity(P.algebra, len(m) - 1)
        else:
            i = max(missed)
            t = _through_face(P, sid, i, tuple(v if v < i else v - 1 for v in m), memo)
        memo[key] = t
    return t


def _through_face(P, sid, i, m, memo):
    """Face i's transition, then the route inside the face, over the
    monotone map m into the face's Delta^{d-1}."""
    d = sid.dim
    tgt, word = P.base.face(sid, i)
    rest = _route(P, compose_monotone(word_epi(word, d - 1), m), tgt, memo)
    t = P.transitions[(sid, i)]
    if m != tuple(range(d)):
        t = t.pullback(AffineMap.from_monotone(m, d - 1))
    return t if rest.is_identity() else t.compose(rest)


@dataclass
class BundleReport:
    ok: bool
    failures: list = field(default_factory=list)


def validate_bundle(P):
    """Cocycle/functoriality check on all composable face pairs, each
    decided by == (transitions_equal).

    The composite transitions inside the faces recur across face pairs;
    one route memo per call, keyed (simplex, monotone map), computes each
    once.
    """
    X = P.base
    failures = []
    for sid, i in X.faces:
        t = P.transitions.get((sid, i))
        if t is None:
            failures.append(f"missing transition ({sid}, {i})")
        elif t.dim != sid.dim - 1:
            failures.append(f"transition ({sid}, {i}) has wrong domain")
    if failures:
        return BundleReport(False, failures)
    memo = {}
    for d in range(2, X.dim + 1):
        for sid in X.cells(d):
            for i in range(d + 1):
                for j in range(i + 1, d + 1):
                    # the two composite transitions into sid's chart over faces i < j
                    psiA = _through_face(P, sid, i, mono_skip(d - 1, {j - 1}), memo)
                    psiB = _through_face(P, sid, j, mono_skip(d - 1, {i}), memo)
                    if not transitions_equal(psiA, psiB):
                        failures.append(f"cocycle fails on {X.name(sid)} faces ({i},{j})")
    return BundleReport(not failures, failures)


def pullback_bundle(f, P):
    """f^* P: charts reindexed along f; equal data under composition."""
    if f.target != P.base:
        raise BundleError("pullback along a map into a different base")
    transitions, memo = {}, {}
    for sid, i in f.source.faces:
        core, word = f.assignment[sid]
        m = compose_monotone(word_epi(word, sid.dim), mono_skip(sid.dim, {i}))
        transitions[(sid, i)] = _route(P, m, core, memo)
    return BundleData(f.source, P.algebra, transitions)


# ---------------------------------------------------------------------------
# connections


class Connection:
    """Per-simplex g-valued 1-form in the trivialized charts."""

    def __init__(self, bundle, forms):
        self.bundle = bundle
        self.forms = dict(forms)


def _ad(factors, X):
    """Ad_{c_1 ... c_r} X for Cayley factors c_1 .. c_r: the one product
    of their exact Ad matrices, applied once.  Ad of zero, or by no
    factor, builds no matrix."""
    if X.is_zero() or not factors:
        return X
    return _ad_apply(reduce(_ad_product, (c.ad for c in factors)), X)


def gauge_prescription(P, D_forms, sid, i):
    """What delta_i^* A_sid must equal, given the face's assigned form.

    From A_face = Ad_{phi^{-1}}(delta_i^* A) + phi^{-1} d phi:
        delta_i^* A = Ad_phi(A_face) - (d phi) phi^{-1}.
    On an abelian algebra Ad is the identity and (d phi) phi^{-1} is the
    d of phi's log; on a nonabelian one phi is constant.
    """
    f = form_on(D_forms, P.base.face(sid, i))
    phi = P.transitions[(sid, i)]
    if phi.is_identity():
        return f
    if P.algebra.is_abelian:
        return f - phi.log_total().d()
    return _ad(phi.factors, f)


@dataclass
class ConnectionReport:
    ok: bool
    failures: list = field(default_factory=list)
    # every verdict is decided by ==; perfbench/workloads.py reads the flag
    exact = True


def validate_connection(P, D):
    """Gauge compatibility across every face map, an exact polynomial
    identity per face; each failure names its simplex and face."""
    X = P.base
    failures = [
        f"gauge compatibility fails at ({X.name(sid)}, {i})"
        for sid, i in X.faces
        if D.forms[sid].pullback(AffineMap.face(sid.dim, i)) != gauge_prescription(P, D.forms, sid, i)
    ]
    return ConnectionReport(not failures, failures)


def construct_connection(P, preset=None, rng=None):
    """Skeletal-induction connection constructor.

    Dimension by dimension, each simplex's boundary data is forced by
    the gauge rule from already-assigned faces and extended to the
    interior by one whitney_extend call per Lie coordinate, which copies
    the facets' Whitney-Bernstein coefficients and solves nothing.  With
    a seeded rng, whitney_extend also puts random coefficients on the
    lowest-degree interior basis functions, which randomize the output
    without touching the boundary prescriptions.  Inconsistent
    prescriptions (from an invalid bundle) surface as
    FaceConsistencyError with the simplex.
    """
    X = P.base
    alg = P.algebra
    forms = {}
    preset = dict(preset or {})
    for d in range(X.dim + 1):
        for sid in X.cells(d):
            if sid in preset:
                forms[sid] = preset[sid]
                continue
            if d == 0:
                forms[sid] = LieValuedForm.zero(alg, 0, 1)
                continue
            prescriptions = {}
            for i in range(d + 1):
                prescriptions[i] = gauge_prescription(P, forms, sid, i)
            try:
                coords = [whitney_extend(d, 1, {i: f.coords[a] for i, f in prescriptions.items()}, rng)
                          for a in range(alg.dim)]
            except FaceConsistencyError as e:
                raise FaceConsistencyError(f"simplex {X.name(sid)}: {e}") from e
            forms[sid] = LieValuedForm(alg, d, 1, coords)
    return Connection(P, forms)


def random_connection(P, seed):
    import random as _random

    return construct_connection(P, rng=_random.Random(seed))


# ---------------------------------------------------------------------------
# concordance


@dataclass
class ConcordanceConnection:
    """A connection on pr^* P over X x Delta^1 restricting to the ends."""

    bundle: BundleData
    connection: Connection
    end0: object
    end1: object

    def restrict(self, end):
        """The connection on X obtained along an end inclusion."""
        out = {}
        for sid in end.source.all_cells():
            tid, word = end.assignment[sid]
            if word:
                raise BundleError("end inclusion hit a degenerate cell")
            out[sid] = self.connection.forms[tid]
        return out


def concordance(P, D1, D2):
    """Connection on P x I restricting exactly to D1 and D2 at the ends."""
    X = P.base
    prod, i0, i1 = cylinder(X)
    PP = pullback_bundle(prod.pr_x, P)
    preset = {end(sid)[0]: D.forms[sid] for end, D in ((i0, D1), (i1, D2)) for sid in X.all_cells()}
    return ConcordanceConnection(PP, construct_connection(PP, preset=preset), i0, i1)


# ---------------------------------------------------------------------------
# clutching over the two-disk sphere


def clutch_bundle(n):
    """U(1) bundle over the two-disk sphere with first Chern number n.

    All transitions are trivial except the S-chart's equatorial face 0,
    which carries exp(i n tau t); the packaged connection is

        A_S = i n tau (x2 dx1 - x1 dx2),   A = 0 elsewhere,

    gauge compatible exactly.  Sign conventions are fixed so that the
    winding oracle and the chern:1 pairing against [N] - [S] both
    return +n.
    """
    from .liealg import lie_algebra
    from .simplicial import two_disk_sphere

    alg = lie_algebra("u1")
    X = two_disk_sphere()
    P = trivial_bundle(X, alg)
    S = SimplexId(2, 1)
    # u1 coordinates multiply the basis matrix [[i]]: coordinate n*tau*t
    # is the matrix log i*n*tau*t
    log = LieValuedForm.from_polys(alg, [Poly(1, {(1,): Scalar.of(n, 0, 1)})])
    P.transitions[(S, 0)] = TransitionMap.single(log)

    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    a_s = PolyForm(2, 1, {(0,): x2.scale(Scalar.of(n, 0, 1)), (1,): x1.scale(Scalar.of(-n, 0, 1))})
    forms = {sid: LieValuedForm.zero(alg, sid.dim, 1) for sid in X.all_cells()}
    forms[S] = LieValuedForm(alg, 2, 1, [a_s])
    return P, Connection(P, forms)


def clutch_winding(P):
    """Discrete winding oracle: signed log increments of the S/N comparison.

    winding = (1/(i tau)) * sum_i (-1)^i [c_i(1) - c_i(0)],
    c_i = log phi_{S,i} - log phi_{N,i}; exact and integral for any
    valid U(1) bundle over the two-disk sphere.
    """
    if not P.algebra.is_abelian:
        raise BundleError("winding oracle needs an abelian group")
    N, S = SimplexId(2, 0), SimplexId(2, 1)
    total = Scalar.zero()
    for i in range(3):
        # u1 basis coordinate = matrix log / i, so divide deltas by tau
        cN = P.transitions[(N, i)].log_total().coords[0].component(())
        cS = P.transitions[(S, i)].log_total().coords[0].component(())
        diff = cS - cN
        delta = diff.eval([1]) - diff.eval([0])
        total = total + delta * Fraction((-1) ** i)
    return total / Scalar.tau()


# ---------------------------------------------------------------------------
# gauge changes and random bundles


def apply_gauge(P, gauges, D=None):
    """Change every chart by a gauge map g_sid.

    gauges: dict sid -> TransitionMap on that simplex (TransitionMap.single(h)
    for exp(h)).  Transitions pick up g_sid^{-1} o delta_i, phi, g_face, in
    one factor list.  A supplied connection is transformed only for
    constant gauges, which leave polynomial coefficients polynomial and
    add no log derivative: A_sid becomes Ad_{g_sid^{-1}} A_sid, exactly.
    On an abelian algebra Ad is the identity, so a constant gauge keeps
    the connection forms as they are; on a nonabelian one each gauge is
    a product of Cayley factors, whose Ad matrices are exact.
    """
    X = P.base
    alg = P.algebra
    transitions = {}
    for (sid, i), face in X.faces.items():
        amap = AffineMap.face(sid.dim, i)
        # the factors of (g_sid o delta_i)^{-1}, phi, then g_face
        factors = [-f.pullback(amap) for f in reversed(gauges[sid].factors)]
        factors += P.transitions[(sid, i)].factors
        factors += form_on(gauges, face).factors
        transitions[(sid, i)] = TransitionMap(alg, sid.dim - 1, factors)
    P2 = BundleData(X, alg, transitions)
    if D is None:
        return P2, None
    if alg.is_abelian:
        if any(not f.d().is_zero() for sid in X.all_cells() for f in gauges[sid].factors):
            raise BundleError("connection gauge transform implemented for constant gauges")
        return P2, Connection(P2, {sid: D.forms[sid] for sid in X.all_cells()})
    return P2, Connection(P2, {sid: _ad(gauges[sid].inverse().factors, D.forms[sid]) for sid in X.all_cells()})


def random_u1_bundle(X, rng):
    """Seeded random valid U(1) bundle: a gauge change of the trivial
    bundle, plus, on bases of dimension at most 2, integer windings on
    the face-0 transitions of 2-cells (exp(i tau m t) is endpoint-trivial,
    so the 2-cell cocycles survive; on a 3-cell they would not)."""
    from .liealg import lie_algebra

    alg = lie_algebra("u1")
    gauges = {}
    for sid in X.all_cells():
        p = random_poly(rng, sid.dim, 2)
        gauges[sid] = TransitionMap.single(LieValuedForm.from_polys(alg, [p]))
    P, _ = apply_gauge(trivial_bundle(X, alg), gauges)
    if X.dim <= 2:
        for sid in X.cells(2):
            m = rng.randrange(-2, 3)
            if m:
                tw = LieValuedForm.from_polys(alg, [Poly(1, {(1,): Scalar.of(m, 0, 1)})])
                P.transitions[(sid, 0)] = TransitionMap.single(tw).compose(P.transitions[(sid, 0)])
    return P


# ---------------------------------------------------------------------------
# horn filling


def horn_fill_bundle(H, P):
    """Fill a bundle over the horn Lambda^n_k to one over Delta^n.

    Follows the Kan-property proof shape: the retained faces of the new
    top cell get compensating gauge factors, the top transition over the
    missing face is the identity, and the missing face's own data is
    forced by the cocycle conditions (all twisting is pushed into it).
    Pulling back along H.inclusion returns the input data unchanged.
    Exact, abelian structure groups only.  Validates nothing: a valid
    input gives a valid filler (test_horn_fill_random checks this), an
    invalid one need not, and callers that report validity (horn-fill's
    filler-valid, verify's horn-filling) validate the filler themselves.
    """
    if not P.algebra.is_abelian:
        raise BundleError("horn filling implemented for abelian structure groups")
    if P.base != H.space:
        raise BundleError("bundle is not over the horn")

    n, k = H.n, H.k
    alg = P.algebra
    delta = H.inclusion.target
    top = delta.cells(n)[0]
    fk = delta.face(top, k)[0]
    # routes into the horn's cells run through out, which holds P's
    # transitions on the horn's image and each gamma_i as it is chosen
    out = BundleData(delta, alg, {(H.inclusion(sid)[0], i): t for (sid, i), t in P.transitions.items()})

    # choose the compensating top transitions gamma_i (i != k)
    others = [i for i in range(n + 1) if i != k]
    for pos, j in enumerate(others):
        prescriptions = {}
        for i in others[:pos]:
            # route equality over the cell omitting {i, j}: i < j here,
            # so gamma_j o (face i of its domain) must equal
            # route_i * (the route inside face j)^{-1}
            psiA = _through_face(out, top, i, mono_skip(n - 1, {j - 1}), {})
            rest = transition_of_morphism(out, mono_skip(n - 1, {i}), delta.face(top, j)[0])
            prescriptions[i] = psiA.compose(rest.inverse()).log_total()
        if not prescriptions:
            out.transitions[(top, j)] = TransitionMap.identity(alg, n - 1)
            continue
        # align the free i*tau*Z constants so facet data agree exactly
        keys = sorted(prescriptions)
        base_key = keys[0]
        adjusted = {base_key: prescriptions[base_key]}
        for i in keys[1:]:
            mism = _facet_mismatch_constant(
                prescriptions[base_key], prescriptions[i], base_key, i, n - 1
            )
            shift = LieValuedForm.from_polys(alg, [Poly.const(n - 2, v) for v in mism])
            adjusted[i] = prescriptions[i] + shift
        coords = [
            whitney_extend(n - 1, 0, {i: adjusted[i].coords[a] for i in keys}) for a in range(alg.dim)
        ]
        out.transitions[(top, j)] = TransitionMap(alg, n - 1, [LieValuedForm(alg, n - 1, 0, coords)])
    out.transitions[(top, k)] = TransitionMap.identity(alg, n - 1)

    # the missing face's data is forced by the cocycle conditions with k
    # (gamma_k is the identity, so the route via k is f_k's own transition)
    for i in others:
        m_i = mono_skip(n - 1, {k - 1}) if i < k else mono_skip(n - 1, {k})
        out.transitions[(fk, i if i < k else i - 1)] = _through_face(out, top, i, m_i, {})
    return out


def _facet_mismatch_constant(pres_a, pres_b, ia, ib, domain_dim):
    """Constant (in i*tau*Z) by which two facet log-prescriptions differ
    on their shared subface; zero when they already agree.

    Facet ia < ib of Delta^{domain_dim}: within facet ia's domain the
    intersection is its face (ib - 1); within facet ib's it is face ia.
    """
    pa = pres_a.pullback(AffineMap.face(domain_dim - 1, ib - 1)).coords
    pb = pres_b.pullback(AffineMap.face(domain_dim - 1, ia)).coords
    consts = [_constant_value((a - b).component(())) for a, b in zip(pa, pb)]
    if any(c is None for c in consts):
        raise BundleError("horn prescriptions differ by a nonconstant; input invalid")
    return consts

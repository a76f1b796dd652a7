"""Simplicial G-bundles in trivialized per-simplex charts.

Every nondegenerate simplex carries the chart Delta^d x G; a face map
into a simplex is a bundle map (t, g) |-> (delta_i(t), phi(t) g) for a
group-valued transition phi, stored as an ordered product of
exponentials of g-valued 0-forms.  Transition logs, gauges, connections
and curvatures are all one type, LieValuedForm, in degrees 0, 0, 1
and 2.  Degenerate simplices implicitly carry the pullback of their
core's chart along the collapse, with identity comparison maps, so the
whole functor is determined by finitely much data.

Connections are Lie-algebra-valued polynomial 1-forms per chart, tied
together by the trivialized gauge rule

    A_face = Ad_{phi^{-1}}(delta_i^* A) + phi^{-1} d phi.

For abelian groups (and for identity transitions) every check here is
exact polynomial identity.  Otherwise Ad_phi and the differential of the
exponential come from _exp_series, which stops at its first zero bracket
or at order SERIES_ORDER = 6, and the checks are sampled against SAMPLE_TOL,
with phi and d phi at each point from exp_skew: one Hermitian
eigendecomposition per factor gives its exponential and, through the
Daleckii-Krein formula, the exponential's Frechet derivatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial

from .forms import (
    AffineMap,
    FaceConsistencyError,
    PolyForm,
    _wedge_sum,
    form_on,
    random_poly,
    whitney_extend,
)
from .poly import Poly, _constant
from .scalars import Scalar
from .simplicial import (
    SimplexId,
    compose_monotone,
    cylinder,
    mono_skip,
    word_epi,
)


SERIES_ORDER = 6
SAMPLE_TOL = 1e-9  # bound on the sampled float defects of the nonabelian checks


class BundleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lie-algebra-valued forms (coordinates in a fixed basis)


@cache
def _lowered_structure(algebra):
    """algebra.structure with each s^c_ab lowered (poly._constant), once per algebra."""
    return [[tuple((c, _constant(s)) for c, s in pairs) for pairs in row] for row in algebra.structure]


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

    def scale(self, c):
        return LieValuedForm(self.algebra, self.dim, self.deg, [f.scale(c) for f in self.coords])

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

    def bracket_wedge(self, other):
        """[A ^ B] via the structure constants; degree adds.  On constant
        0-forms over Delta^0 it is the bracket of g."""
        if self.algebra is not other.algebra:
            raise ValueError(f"bracket of {self.algebra.name} and {other.algebra.name} forms")
        # the sum over (a, b) of s^c_ab A^a ^ B^b e_c, one _wedge_sum per
        # coordinate c, each structure constant folded into its pair's products
        terms = [[] for _ in self.coords]
        structure = _lowered_structure(self.algebra)
        for a, b in itertools.product(range(self.algebra.dim), repeat=2):
            fa, fb = self.coords[a], other.coords[b]
            if fa.is_zero() or fb.is_zero():
                continue
            for c, s in structure[a][b]:
                terms[c].append((fa, fb, s))
        deg = self.deg + other.deg
        return LieValuedForm(self.algebra, self.dim, deg, [_wedge_sum(self.dim, deg, t) for t in terms])

    def eval_matrix_coeffs(self, point):
        """Evaluate each form component to a float matrix at a point."""
        indices = {I for f in self.coords for I in f.comps}
        return {I: self.algebra.element_matrix_float([f.component(I).eval_complex(point) for f in self.coords])
                for I in indices}


# ---------------------------------------------------------------------------
# transitions


class TransitionMap:
    """Ordered product of exponentials exp(p_1) exp(p_2) ... exp(p_r).

    Abelian factors are merged eagerly, which makes the representation
    canonical for u1 and keeps syntactic equality meaningful there.
    """

    __slots__ = ("algebra", "dim", "factors")

    def __init__(self, algebra, dim, factors):
        factors = [f for f in factors if not f.is_zero()]
        if algebra.is_abelian and len(factors) > 1:
            total = factors[0]
            for f in factors[1:]:
                total = total + f
            factors = [] if total.is_zero() else [total]
        self.algebra = algebra
        self.dim = dim
        self.factors = factors

    @staticmethod
    def identity(algebra, dim):
        return TransitionMap(algebra, dim, [])

    @staticmethod
    def single(p):
        return TransitionMap(p.algebra, p.dim, [p])

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

    def evaluate(self, point):
        import numpy as np

        g = np.eye(self.algebra.n, dtype=complex)
        for f in self.factors:
            g = g @ exp_skew(_matrix_at(f, point))[0]
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


def exp_skew(a, directions=()):
    """(exp(a), [L(a, e) for e in directions]) for a skew-Hermitian matrix
    a, the float value of an element of a compact algebra with real
    coordinates; L(a, e) is the Frechet derivative of exp at a in the
    direction e.  One Hermitian eigendecomposition 1j*a = V diag(w) V^H
    gives both (Higham, Functions of Matrices, SIAM 2008, ch. 3): with
    lam = -1j*w, exp(a) = V diag(e^lam) V^H, and by the Daleckii-Krein
    formula L(a, e) = V (Phi * (V^H e V)) V^H, where the divided
    difference Phi_jk = (e^lam_j - e^lam_k) / (lam_j - lam_k) is written
    e^lam_k e^(i theta/2) sinc(theta/2pi), theta = Im(lam_j - lam_k), which
    stays accurate for equal and nearly equal eigenvalues.  A matrix that
    is not skew-Hermitian is a ValueError."""
    import numpy as np

    if np.linalg.norm(a + a.conj().T) > 1e-12 * max(1.0, np.linalg.norm(a)):
        raise ValueError("exp_skew needs a skew-Hermitian matrix")
    w, v = np.linalg.eigh(1j * a)
    e = np.exp(-1j * w)
    vh = v.conj().T
    derivs = []
    if directions:
        theta = w - w[:, None]
        phi = e * np.exp(0.5j * theta) * np.sinc(theta / (2 * np.pi))
        derivs = [v @ (phi * (vh @ d @ v)) @ vh for d in directions]
    return (v * e) @ vh, derivs


def _matrix_at(p, point):
    """A g-valued 0-form's float matrix at a point."""
    import numpy as np

    n = p.algebra.n
    return p.eval_matrix_coeffs(point).get((), np.zeros((n, n), dtype=complex))


def _sample_points(dim, count, seed):
    import numpy as np

    return [list(w[1:]) for w in np.random.default_rng(seed).dirichlet(np.ones(dim + 1), size=count)]


def _constant_value(p):
    """The value of the polynomial p if it is constant, else None."""
    if any(any(e) for e in p.terms):
        return None
    return p.terms.get((0,) * p.dim, Scalar.zero())


def transitions_equal(t1, t2, seed=0):
    """Group-level equality of two transition maps, decided in order:

    1. identical factor lists: equal, exactly (the same product of
       exponentials), with no log algebra or sampling;
    2. abelian: exact; the logs must differ by a constant in i*tau*Z
       (exp of such a constant is the identity);
    3. otherwise: sampled matrix comparison at interior points.

    Step 1 gives the verdict steps 2 and 3 would give: a zero log
    difference, a zero sampled deviation.
    """
    if t1.algebra is not t2.algebra or t1.dim != t2.dim:
        return False
    if t1.factors == t2.factors:
        return True
    alg = t1.algebra
    if alg.is_abelian:
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
    import numpy as np

    for pt in _sample_points(t1.dim, 7, seed):
        if np.abs(t1.evaluate(pt) - t2.evaluate(pt)).max() > SAMPLE_TOL:
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
    exact: bool
    failures: list = field(default_factory=list)


def validate_bundle(P, seed=0):
    """Cocycle/functoriality check on all composable face pairs.

    The report's exact flag names the algebra's comparison mode (exact
    for abelian groups, sampled otherwise), whichever step of
    transitions_equal decided each pair.

    The composite transitions inside the faces recur across face pairs;
    one route memo per call, keyed (simplex, monotone map), computes each
    once.
    """
    X = P.base
    exact = P.algebra.is_abelian
    failures = []
    for sid, i in X.faces:
        t = P.transitions.get((sid, i))
        if t is None:
            failures.append(f"missing transition ({sid}, {i})")
        elif t.dim != sid.dim - 1:
            failures.append(f"transition ({sid}, {i}) has wrong domain")
    if failures:
        return BundleReport(False, exact, failures)
    memo = {}
    for d in range(2, X.dim + 1):
        for sid in X.cells(d):
            for i in range(d + 1):
                for j in range(i + 1, d + 1):
                    # the two composite transitions into sid's chart over faces i < j
                    psiA = _through_face(P, sid, i, mono_skip(d - 1, {j - 1}), memo)
                    psiB = _through_face(P, sid, j, mono_skip(d - 1, {i}), memo)
                    if not transitions_equal(psiA, psiB, seed):
                        failures.append(f"cocycle fails on {X.name(sid)} faces ({i},{j})")
    return BundleReport(not failures, exact, failures)


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


def _exp_series(p, X, shift):
    """sum_{m <= SERIES_ORDER} ad_p^m(X) / (m + shift)!, exact when it stops
    at a zero bracket.  shift 0 is Ad_{exp(p)} X = e^{ad_p} X; shift 1 is
    the differential of exp, (e^{ad_p} - 1)/ad_p applied to X."""
    out = cur = X
    for m in range(1, SERIES_ORDER + 1):
        cur = p.bracket_wedge(cur)
        if cur.is_zero():
            break
        out = out + cur.scale(Fraction(1, factorial(m + shift)))
    return out


def right_log_derivative(t):
    """(d phi) phi^{-1} for a product of exponentials, as a g-valued 1-form.

    Exact where each factor's series stops at a zero bracket (always on
    an abelian algebra); otherwise the series is truncated at
    SERIES_ORDER (error O(|p|^7), which the sampled checks bound).
    """
    out = LieValuedForm.zero(t.algebra, t.dim, 1)
    for r, p in enumerate(t.factors):
        term = _exp_series(p, p.d(), 1)
        for q in reversed(t.factors[:r]):
            term = _exp_series(q, term, 0)
        out = out + term
    return out


def gauge_prescription(P, D_forms, sid, i):
    """What delta_i^* A_sid must equal, given the face's assigned form.

    From A_face = Ad_{phi^{-1}}(delta_i^* A) + phi^{-1} d phi:
        delta_i^* A = Ad_phi(A_face) - (d phi) phi^{-1}.
    """
    f = form_on(D_forms, P.base.face(sid, i))
    phi = P.transitions[(sid, i)]
    if phi.is_identity():
        return f
    for p in reversed(phi.factors):
        f = _exp_series(p, f, 0)
    return f - right_log_derivative(phi)


@dataclass
class ConnectionReport:
    ok: bool
    exact: bool
    worst: float = 0.0
    failures: list = field(default_factory=list)


def _values_and_partials(t, points):
    """(pt, phi(pt), [d_j phi(pt) for each coordinate j]) at each point.

    phi is the product of the factors' exponentials, as in
    TransitionMap.evaluate, and each d_j phi follows by the product rule
    from the Frechet derivative of each factor's exponential in the
    direction d_j p, which exp_skew takes from the same eigendecomposition
    as the exponential, exact to machine precision.  Each factor's d p
    is taken once for all points, and a direction in which it has no
    component costs no derivative."""
    import numpy as np

    n = t.algebra.n
    dps = [p.d() for p in t.factors]
    for pt in points:
        g = np.eye(n, dtype=complex)
        dg = [np.zeros((n, n), dtype=complex) for _ in range(t.dim)]
        for p, dp in zip(t.factors, dps):
            partials = dp.eval_matrix_coeffs(pt)
            e, derivs = exp_skew(_matrix_at(p, pt), partials.values())
            dg = [x @ e for x in dg]
            for (j,), dej in zip(partials, derivs):
                dg[j] = dg[j] + g @ dej
            g = g @ e
        yield pt, g, dg


def validate_connection(P, D, seed=0):
    """Gauge compatibility across every face map.

    Exact polynomial identity when the algebra is abelian or all
    transitions are identity; otherwise sampled numerically against the
    defining formula A_face = Ad_{phi^{-1}}(delta_i^* A) + phi^{-1}dphi.
    Each failure names its simplex and face, and a sampled one its defect.
    """
    X = P.base
    exact = P.algebra.is_abelian or all(t.is_identity() for t in P.transitions.values())
    failures = []
    worst = 0.0
    for sid, i in X.faces:
        actual = D.forms[sid].pullback(AffineMap.face(sid.dim, i))
        if exact:
            if actual != gauge_prescription(P, D.forms, sid, i):
                failures.append(f"gauge compatibility fails at ({X.name(sid)}, {i})")
            continue
        defect = _sampled_gauge_defect(P, D, sid, i, actual, seed)
        worst = max(worst, defect)
        if defect > SAMPLE_TOL:
            failures.append(f"gauge compatibility fails at ({X.name(sid)}, {i}), defect {defect:.2e}")
    return ConnectionReport(not failures, exact, worst, failures)


def _sampled_gauge_defect(P, D, sid, i, actual, seed):
    """Largest entry of A_face - phi^{-1}(delta_i^* A)phi - phi^{-1}d phi
    at sampled points of face i of sid; actual is delta_i^* A."""
    import numpy as np

    face_form = form_on(D.forms, P.base.face(sid, i))
    phi = P.transitions[(sid, i)]
    z = np.zeros((P.algebra.n, P.algebra.n), dtype=complex)
    worst = 0.0
    for pt, g, dg in _values_and_partials(phi, _sample_points(phi.dim, 4, seed)):
        fv = face_form.eval_matrix_coeffs(pt)
        av = actual.eval_matrix_coeffs(pt)
        gi = np.linalg.inv(g)
        for j, dgj in enumerate(dg):
            rhs = gi @ (av.get((j,), z) @ g + dgj)
            worst = max(worst, float(np.abs(fv.get((j,), z) - rhs).max()))
    return worst


def construct_connection(P, preset=None, rng=None):
    """Skeletal-induction connection constructor.

    Dimension by dimension, each simplex's boundary data is forced by
    the gauge rule from already-assigned faces and extended to the
    interior by one whitney_extend call per Lie coordinate, which copies
    the facets' Whitney-Bernstein coefficients and solves nothing.  With
    a seeded rng, whitney_extend also puts random coefficients on the
    lowest-degree interior basis functions, which randomize the output
    without touching the boundary prescriptions.  Inconsistent
    prescriptions (from a truncated gauge series) surface as
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
    """Change every chart by a gauge map exp(h_sid).

    gauges: dict sid -> g-valued 0-form on that simplex.  Transitions
    pick up exp(-h_sid o delta_i) phi exp(h_face); a supplied connection
    is transformed only for constant gauges (Ad by a constant matrix,
    which leaves polynomial coefficients polynomial).  For an abelian
    algebra Ad is the identity and the connection forms are kept as
    they are; otherwise the matrix is computed in floats and each entry
    enters as its exact rational.  Every supported algebra is a real
    form with a real basis, so the matrix is real: the imaginary parts
    the float solve leaves are noise and are dropped.
    """
    X = P.base
    transitions = {}
    for (sid, i), face in X.faces.items():
        h_here = gauges[sid].pullback(AffineMap.face(sid.dim, i))
        h_face = form_on(gauges, face)
        phi = P.transitions[(sid, i)]
        transitions[(sid, i)] = TransitionMap(P.algebra, sid.dim - 1, [-h_here, *phi.factors, h_face])
    P2 = BundleData(X, P.algebra, transitions)
    if D is None:
        return P2, None
    if any(not gauges[sid].d().is_zero() for sid in X.all_cells()):
        raise BundleError("connection gauge transform implemented for constant gauges")
    alg = P.algebra
    if alg.is_abelian:
        return P2, Connection(P2, {sid: D.forms[sid] for sid in X.all_cells()})
    import numpy as np

    forms = {}
    for sid in X.all_cells():
        g = TransitionMap.single(gauges[sid]).evaluate([Fraction(0)] * sid.dim)
        gi = np.linalg.inv(g)
        # matrix R of Ad_{g^{-1}} in the chosen basis
        R = np.array([alg.decompose_float(gi @ bf @ g) for bf in alg.basis_float]).T.real
        coords = []
        for a in range(alg.dim):
            f = PolyForm.zero(sid.dim, 1)
            for b in range(alg.dim):
                c = R[a, b]
                if abs(c) > 1e-15:
                    f = f + D.forms[sid].coords[b].scale(Fraction(c))
            coords.append(f)
        forms[sid] = LieValuedForm(alg, sid.dim, 1, coords)
    return P2, Connection(P2, forms)


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
        gauges[sid] = LieValuedForm.from_polys(alg, [p])
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

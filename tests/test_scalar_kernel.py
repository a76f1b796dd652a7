"""The integer Gaussian-rational kernel against the dict-of-Fractions oracle.

Coefficients are drawn from a small pool so that sums cancel often,
which is where the gcd reduction and the pruning of zero terms matter.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chernweil.bundles import LieValuedForm
from chernweil.forms import AffineMap, BernsteinMap, PolyForm, _slot, _sum_tables, _wedge_sum, whitney_extend
from chernweil.poly import Poly, _constant, _key
from chernweil.liealg import lie_algebra
from chernweil.scalars import Scalar
from oracles import (
    bracket_wedge,
    canonical_violations,
    gr_add,
    gr_d,
    gr_form_scale,
    gr_monomial_inverse,
    gr_mul,
    gr_neg,
    gr_poly_add,
    gr_poly_mul,
    gr_pullback_monotone,
    gr_wedge,
)

PARTS = st.sampled_from([Fraction(0)] * 4 + [Fraction(v, q) for v in (-4, -1, 1, 2, 3) for q in (1, 2, 3, 6)])
PAIRS = st.tuples(PARTS, PARTS)
MODELS = st.dictionaries(st.integers(-2, 2), PAIRS, max_size=3).map(
    lambda x: {k: c for k, c in x.items() if c != (0, 0)}
)
MONOMIALS = st.tuples(st.integers(-2, 2), PAIRS.filter(lambda c: c != (0, 0))).map(lambda kc: {kc[0]: kc[1]})
EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2))
POLY_MODELS = st.dictionaries(EXPONENTS, MODELS.filter(bool), max_size=4)


def to_scalar(x):
    # unreduced triples over the product of the denominators; the
    # constructor brings them to lowest terms
    return Scalar(
        {k: (re.numerator * im.denominator, im.numerator * re.denominator, re.denominator * im.denominator)
         for k, (re, im) in x.items()}
    )


def model(s):
    return {k: (Fraction(a, d), Fraction(b, d)) for k, (a, b, d) in s.terms.items()}


def to_poly(p):
    return Poly(2, {e: to_scalar(c) for e, c in p.items()})


def poly_model(p):
    return {e: model(c) for e, c in p.terms.items()}


def assert_canonical(x):
    assert canonical_violations(x) == []


@settings(max_examples=200, deadline=None)
@given(PARTS, PARTS, st.integers(-2, 2))
def test_scalar_of_fields_and_float(re, im, k):
    s = Scalar.of(re, im, k)
    assert model(s) == ({k: (re, im)} if re or im else {})
    assert_canonical(s)
    assert s.is_zero() == (re == 0 and im == 0)


def test_scalar_constructor_reduces_triples():
    assert Scalar({0: (2, 4, 8)}).terms == {0: (1, 2, 4)}
    assert Scalar({-1: (3, -6, -9), 0: (0, 0, 5), 2: (0, 7, 1)}).terms == {-1: (-1, 2, 3), 2: (0, 7, 1)}
    assert Scalar({0: (2, 4, 8)}) == Scalar.of(Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        Scalar({0: (1, 0, 0)})


# tau-Laurent Gaussian rationals with denominators up to 10^6, built
# from unreduced triples; rows of int multipliers over a few keys
WIDE_SCALARS = st.dictionaries(
    st.integers(-2, 2), st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    max_size=3,
).map(Scalar)
INT_ROWS = st.lists(
    st.tuples(WIDE_SCALARS, st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-4, 4)), max_size=4).map(tuple)),
    max_size=5,
)


# the keys as the monomials x1^0 .. x1^3 of a 0-form on Delta^1
KEY_EXPONENTS = {key: (i,) for i, key in enumerate("abcd")}


def table_sums(case):
    """_sum_tables on the rows (c, ((key, m), ...)): each Scalar c lowered
    to one row per part, its multipliers a table of monomial slots, each
    the slot of the 0-form component () and the packed exponent."""
    rows = []
    for c, pairs in case:
        Lc, coef = _constant(c)
        table = tuple((_slot((), _key(1, KEY_EXPONENTS[key])), m) for key, m in pairs)
        rows += [(Lc, part, n, table) for part, n in coef]
    return _sum_tables(1, 0, rows)


@settings(max_examples=300, deadline=None)
@given(INT_ROWS, INT_ROWS)
@example([(Scalar.of(Fraction(1, 3)), (("a", 2), ("b", 1)))], [(Scalar.of(Fraction(2, 3)), (("a", -1),))])
def test_int_kernel_matches_scalar_sums(rows, more):
    """The int-row sums of _sum_tables against the sum of c * m in plain
    Scalar arithmetic; the rows, followed by their negation, cancel to
    nothing."""
    cancelled = [(c, tuple((key, -m) for key, m in pairs)) for c, pairs in rows]
    for case in (rows + more, rows + cancelled + more, rows + cancelled):
        want = {}
        for c, pairs in case:
            for key, m in pairs:
                want[key] = want.get(key, Scalar.zero()) + c * m
        got = table_sums(case)
        assert got.component(()).terms == {KEY_EXPONENTS[key]: v for key, v in want.items() if not v.is_zero()}
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(MODELS, MODELS)
def test_scalar_ring_ops_match_oracle(x, y):
    a, b = to_scalar(x), to_scalar(y)
    for got, want in [(a + b, gr_add(x, y)), (a - b, gr_add(x, gr_neg(y))), (-a, gr_neg(x)), (a * b, gr_mul(x, y))]:
        assert model(got) == want
        assert_canonical(got)
    assert (a == b) == (x == y)
    assert (a + b) - b == a
    assert (a - a).is_zero() and not (a - a).terms


@settings(max_examples=200, deadline=None)
@given(MODELS, MONOMIALS)
def test_scalar_division_by_monomial_matches_oracle(x, m):
    a, mono = to_scalar(x), to_scalar(m)
    q = a / mono
    assert model(q) == gr_mul(x, gr_monomial_inverse(m))
    assert_canonical(q)
    assert q * mono == a
    ((k, c),) = mono.terms.items()
    assert model(Scalar.one() / Scalar({0: c})) == gr_monomial_inverse({0: m[k]})


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-5, 5), PARTS), MONOMIALS)
def test_number_divided_by_monomial_matches_oracle(r, m):
    """int / Scalar and Fraction / Scalar, as the solver's row operations
    meet them, are exact Scalars; a non-monomial divisor still raises."""
    q = r / to_scalar(m)
    assert type(q) is Scalar
    assert model(q) == gr_mul({0: (Fraction(r), Fraction(0))} if r else {}, gr_monomial_inverse(m))
    assert_canonical(q)
    with pytest.raises(ValueError):
        r / (to_scalar(m) + Scalar.tau(3))


@settings(max_examples=200, deadline=None)
@given(MODELS)
def test_scalar_rational_and_float_match_oracle(x):
    s = to_scalar(x)
    rational = all(k == 0 and im == 0 for k, (_re, im) in x.items())
    assert s.is_rational() == rational
    if rational:
        assert s.rational_value() == x.get(0, (Fraction(0), Fraction(0)))[0]


@settings(max_examples=150, deadline=None)
@given(MODELS, PARTS)
def test_scalar_hash_follows_equality(x, r):
    s = to_scalar(x)
    reordered = Scalar(dict(reversed(list(s.terms.items()))))
    assert reordered == s and hash(reordered) == hash(s)
    for v in (s, Scalar.coerce(r)):
        if v.is_rational():
            assert v == v.rational_value() and hash(v) == hash(v.rational_value())


def test_scalars_hash_like_ints_and_fractions():
    assert Scalar.one() == 1 and hash(Scalar.one()) == hash(1)
    assert len({Scalar.one(), 1, Fraction(1)}) == 1
    half = Scalar.from_rational(1, 2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    third = Scalar.from_rational(1, 3)
    assert third == Fraction(1, 3) and hash(third) == hash(Fraction(1, 3))
    assert len({Scalar.tau(), Scalar.tau() * 1}) == 1


_REPR_RAT = r"-?[0-9]+(?:/[0-9]+)?"
_REPR_ATOM = re.compile(rf"(?:\(({_REPR_RAT})\+({_REPR_RAT})i\)|({_REPR_RAT})i|({_REPR_RAT}))(?:\*tau\^(-?[0-9]+))?")


def _read_repr(text):
    """The scalar a Scalar repr names, read by the grammar of its atoms:
    a real part 'a', an imaginary part 'bi' or both '(a+bi)', then
    '*tau^k' unless k == 0, joined by ' + ' inside 'Scalar(...)'."""
    assert text.startswith("Scalar(") and text.endswith(")")
    body = text[len("Scalar("):-1]
    if body == "0":
        return Scalar.zero()
    total = Scalar.zero()
    for atom in body.split(" + "):
        m = _REPR_ATOM.fullmatch(atom)
        assert m, atom
        re_, im = (m[1], m[2]) if m[1] else (0, m[3]) if m[3] else (m[4], 0)
        total = total + Scalar.of(Fraction(re_), Fraction(im), int(m[5] or 0))
    return total


def test_scalar_repr_names_its_value():
    """Every Gaussian rational with parts in {-1, -1/2, 0, 1/2, 1} at each
    of tau^-1, tau^0 and tau^1: reading the repr back gives the scalar,
    so repr is injective there (a repr that drops a part equal to 1 is not)."""
    parts = [Fraction(v, 2) for v in (-2, -1, 0, 1, 2)]
    coeffs = list(itertools.product(parts, parts))
    seen = set()
    for cs in itertools.product(coeffs, repeat=3):
        s = to_scalar({k: c for k, c in zip((-1, 0, 1), cs) if c != (0, 0)})
        text = repr(s)
        assert _read_repr(text) == s
        seen.add(text)
    assert len(seen) == len(coeffs) ** 3


@settings(max_examples=100, deadline=None)
@given(POLY_MODELS, POLY_MODELS, MODELS)
def test_poly_ops_match_term_by_term_oracle(p, q, c):
    a, b = to_poly(p), to_poly(q)
    assert poly_model(a * b) == gr_poly_mul(p, q)
    assert poly_model(a + b) == gr_poly_add(p, q)
    assert poly_model(a - b) == gr_poly_add(p, {e: gr_neg(s) for e, s in q.items()})
    assert poly_model(a.scale(to_scalar(c))) == gr_poly_mul(p, {(0, 0): c} if c else {})
    for r in (a * b, a + b, a - b, a.scale(to_scalar(c)), (a + b) - b):
        assert_canonical(r)
    assert (a + b) - b == a
    assert (a - a).is_zero()


# Forms: a few components whose coefficients share the small pools
# above, so the products of one output component cancel often.


def poly_models(dim):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), MODELS.filter(bool), max_size=3)


@st.composite
def form_models(draw, dim, deg):
    idx = list(itertools.combinations(range(dim), deg))
    comps = draw(st.dictionaries(st.sampled_from(idx), poly_models(dim), max_size=3))
    return {I: p for I, p in comps.items() if p}


def to_form(dim, deg, f):
    return PolyForm(dim, deg, {I: Poly(dim, {e: to_scalar(c) for e, c in p.items()}) for I, p in f.items()})


def form_model(F):
    return {I: poly_model(p) for I, p in F.comps.items()}


@st.composite
def wedge_cases(draw):
    # up to Delta^4, where the square of a 2-form need not vanish
    dim = draw(st.integers(1, 4))
    p = draw(st.integers(0, dim))
    q = draw(st.integers(0, dim))
    return dim, p, q, draw(form_models(dim, p)), draw(form_models(dim, q))


ONE = {0: (Fraction(1), Fraction(0))}
# a kernel coefficient: a tau-monomial with an imaginary part, plus any scalar
COEFFICIENTS = st.tuples(st.integers(-2, 2).filter(bool), PARTS, PARTS.filter(bool), MODELS).map(
    lambda x: gr_add({x[0]: (x[1], x[2])}, x[3])
).filter(bool)


def kernel_wedge(dim, deg, F, G, c):
    """c * (F ^ G) with c folded into the kernel's products (_wedge_sum)."""
    return _wedge_sum(dim, deg, ((F, G, _constant(to_scalar(c))),))


@settings(max_examples=150, deadline=None)
@given(wedge_cases(), COEFFICIENTS)
@example((2, 1, 1, {(1,): {(0, 0): ONE}}, {(0,): {(0, 0): ONE}}), ONE)  # dx2 ^ dx1 = -dx1 ^ dx2
@example((2, 0, 0, {(): {(0, 0): ONE, (1, 0): ONE}}, {}), {1: (Fraction(0), Fraction(1))})  # (1 + x1)^2
@example((4, 2, 0, {(0, 1): {(0,) * 4: ONE}, (2, 3): {(0,) * 4: ONE}}, {}), ONE)  # 2 dx1^dx2^dx3^dx4
def test_wedge_matches_oracle(case, c):
    dim, p, q, f, g = case
    F, G = to_form(dim, p, f), to_form(dim, q, g)
    got = F.wedge(G)
    assert form_model(got) == gr_wedge(f, g)
    # a coefficient folded into the kernel call, once per term
    scaled = kernel_wedge(dim, p + q, F, G, c)
    assert form_model(scaled) == gr_form_scale(gr_wedge(f, g), c, dim)
    for r in (got, scaled):
        assert (r.dim, r.deg) == (dim, p + q)
        assert_canonical(r)
    if p % 2 == 0:
        # the square of an even-degree form, where the pairs (I, J) and
        # (J, I) add up, with and without a coefficient
        square, scaled_square = F.wedge(F), kernel_wedge(dim, 2 * p, F, F, c)
        assert form_model(square) == gr_wedge(f, f)
        assert form_model(scaled_square) == gr_form_scale(gr_wedge(f, f), c, dim)
        assert_canonical(square)
        assert_canonical(scaled_square)


@st.composite
def pullback_cases(draw):
    """A form on Delta^d and a monotone vertex map [k] -> [d]: faces,
    collapses and their composites."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    m = tuple(sorted(draw(st.lists(st.integers(0, d), min_size=k + 1, max_size=k + 1))))
    deg = draw(st.integers(0, d))
    return d, deg, m, draw(form_models(d, deg))


MINUS_ONE = {0: (Fraction(-1), Fraction(0))}


@settings(max_examples=150, deadline=None)
@given(pullback_cases())
# on face 0 of Delta^2, x2 dx2 pulls back to y1 dy1 (a unit image, copied)
# and x1 x2 dx2 to (y1 - y1^2) dy1: the copied slot takes a second term
@example((2, 1, (1, 2), {(1,): {(0, 1): ONE, (1, 1): ONE}}))
@example((2, 1, (1, 2), {(1,): {(0, 1): ONE, (1, 1): MINUS_ONE}}))  # and cancels
def test_pullback_along_monotone_map_matches_oracle(case):
    d, deg, m, f = case
    got = to_form(d, deg, f).pullback(AffineMap.from_monotone(m, d))
    assert (got.dim, got.deg) == (len(m) - 1, deg)
    assert form_model(got) == gr_pullback_monotone(f, m, d)
    assert_canonical(got)


@st.composite
def d_cases(draw):
    dim = draw(st.integers(1, 4))
    deg = draw(st.integers(0, dim))
    return dim, deg, draw(form_models(dim, deg))


@settings(max_examples=150, deadline=None)
@given(d_cases())
@example((2, 1, {(0,): {(0, 1): ONE}, (1,): {(1, 0): ONE}}))  # d(x2 dx1 + x1 dx2) = 0
def test_d_matches_oracle(case):
    dim, deg, f = case
    got = to_form(dim, deg, f).d()
    assert (got.dim, got.deg) == (dim, deg + 1)
    assert form_model(got) == gr_d(f, dim)
    assert_canonical(got)


def sympy_scalar(x):
    return sum((re + sympy.I * im) * sympy.Symbol("tau") ** k for k, (re, im) in x.items())


@st.composite
def top_form_cases(draw):
    dim = draw(st.integers(1, 3))
    return dim, draw(form_models(dim, dim))


@settings(max_examples=60, deadline=None)
@given(top_form_cases())
@example((1, {(0,): {(1,): {0: (Fraction(2), Fraction(0))}, (2,): {0: (Fraction(-3), Fraction(0))}}}))  # 2/2 - 3/3
def test_integrate_top_matches_iterated_integral(case):
    """integrate_top against sympy's iterated integral over
    0 <= x_i <= 1 - x_1 - .. - x_(i-1)."""
    dim, f = case
    got = to_form(dim, dim, f).integrate_top()
    xs = sympy.symbols(f"x1:{dim + 1}")
    integrand = sum(
        (sympy_scalar(c) * sympy.prod([x**a for x, a in zip(xs, e)]) for p in f.values() for e, c in p.items()),
        sympy.Integer(0),
    )
    for i in reversed(range(dim)):
        integrand = sympy.integrate(integrand, (xs[i], 0, 1 - sum(xs[:i])))
    assert sympy.expand(integrand - sympy_scalar(model(got))) == 0
    assert_canonical(got)


@st.composite
def trusted_cases(draw):
    """Two forms of one shape and a third of any degree on Delta^1..Delta^4,
    a monotone vertex map into the simplex and a seed for random maps."""
    dim = draw(st.integers(1, 4))
    p, q = draw(st.integers(0, dim)), draw(st.integers(0, dim))
    m = tuple(sorted(draw(st.lists(st.integers(0, dim), min_size=1, max_size=4))))
    forms = draw(form_models(dim, p)), draw(form_models(dim, p)), draw(form_models(dim, q))
    return dim, p, q, *forms, m, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(trusted_cases(), COEFFICIENTS)
@example((2, 1, 1, {(0,): {(0, 0): ONE}}, {(0,): {(0, 0): {0: (Fraction(-1), Fraction(0))}}}, {}, (0,), 0), ONE)
def test_trusted_paths_build_canonical_values(case, c):
    # every result built by the unchecked constructors (_scalar, _poly,
    # _form): sums that cancel, squares, scaling by zero, pullbacks along
    # affine and Bernstein maps, the Whitney-Bernstein extension
    dim, p, q, f, f2, g, m, seed = case
    F, F2, G = to_form(dim, p, f), to_form(dim, p, f2), to_form(dim, q, g)
    rng = random.Random(seed)
    facets = {i: F.pullback(AffineMap.face(dim, i)) for i in range(dim + 1) if rng.randrange(2)}
    outputs = [
        F.wedge(G),
        F.wedge(F),
        kernel_wedge(dim, p + q, F, G, c),
        kernel_wedge(dim, 2 * p, F, F, c),
        F.d(),
        F + F2,
        F - F2,
        F - F,
        -F,
        F.scale(to_scalar(c)),
        F.scale(0),
        F.scale(Scalar.zero()),
        F.pullback(AffineMap.from_monotone(m, dim)),
        F.pullback(BernsteinMap.random(rng, len(m) - 1, dim, rng.randrange(1, 3))),
        whitney_extend(dim, p, facets),
        whitney_extend(dim, p, {}, rng),
        whitney_extend(dim, p, facets, rng),
    ]
    for r in outputs:
        assert_canonical(r)
    assert (F - F).is_zero() and F.scale(0).is_zero()


def component_polys(x):
    """The Poly x, or every component Poly of a PolyForm or LieValuedForm."""
    if isinstance(x, Poly):
        return [x]
    if isinstance(x, PolyForm):
        return list(x.comps.values())
    return [p for f in x.coords for p in f.comps.values()]


@settings(max_examples=60, deadline=None)
@given(trusted_cases(), POLY_MODELS, POLY_MODELS, COEFFICIENTS, st.sampled_from(["su2", "u2"]))
def test_poly_hash_follows_equality_on_kernel_outputs(case, x, y, c, name):
    """A polynomial out of every kernel, rebuilt from its Scalar terms by
    the validating constructor, in their order and reversed, is == to it
    and hashes alike: the stored layout is canonical."""
    dim, p, q, f, f2, g, m, seed = case
    F, F2, G = to_form(dim, p, f), to_form(dim, p, f2), to_form(dim, q, g)
    a, b = to_poly(x), to_poly(y)
    rng = random.Random(seed)
    facets = {i: F.pullback(AffineMap.face(dim, i)) for i in range(dim + 1) if rng.randrange(2)}
    alg = lie_algebra(name)
    A = LieValuedForm(alg, dim, p, ([F, F2, F - F2, F2.scale(to_scalar(c))] * 2)[:alg.dim])
    B = LieValuedForm(alg, dim, q, ([G, G.scale(to_scalar(c)), G, -G] * 2)[:alg.dim])
    outputs = [
        a * b, a * a, a + b, a - b, a - a, a.scale(to_scalar(c)), a.diff(0), a.diff(1),
        F.d(), F.wedge(G), F.wedge(F), kernel_wedge(dim, p + q, F, G, c),
        F.pullback(AffineMap.from_monotone(m, dim)),
        F.pullback(BernsteinMap.random(rng, len(m) - 1, dim, rng.randrange(1, 3))),
        whitney_extend(dim, p, facets, rng),
        bracket_wedge(A, B), bracket_wedge(A, A),
    ]
    for r in outputs:
        for P in component_polys(r):
            for terms in (dict(P.terms), dict(reversed(list(P.terms.items())))):
                rebuilt = Poly(P.dim, terms)
                assert rebuilt == P and hash(rebuilt) == hash(P)

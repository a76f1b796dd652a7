import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil.forms import BernsteinMap, PolyForm
from chernweil.poly import RADIX, Poly, _compositions
from chernweil.scalars import TAU, Scalar
from oracles import canonical_violations, poly_eval_complex


def test_scalar_ring_laws():
    a = Scalar.of(1, 2, 1)
    b = Scalar.of(-3, 0, 0) + Scalar.of(0, 1, -1)
    c = Scalar.from_rational(2, 3)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


def test_scalar_tau_arithmetic():
    t = Scalar.tau()
    assert t * t == Scalar.tau(2)
    assert (t / t) == Scalar.one()
    assert Scalar.one() / Scalar.of(0, 1, 1) == Scalar.of(0, -1, -1)
    assert Scalar.tau().to_complex() == TAU
    assert (Scalar.of(0, 1) * Scalar.of(0, 1)) == Scalar.from_rational(-1)


def test_scalar_rational_detection():
    assert Scalar.from_rational(5, 3).is_rational()
    assert Scalar.from_rational(5, 3).rational_value() == Fraction(5, 3)
    assert not Scalar.tau().is_rational()
    assert not Scalar.of(0, 1).is_rational()
    with pytest.raises(ValueError):
        Scalar.tau().rational_value()


def test_scalar_rejects_floats():
    for op in (
        lambda: Scalar.coerce(2.0),
        lambda: Scalar.tau() * 2.0,
        lambda: 2.0 * Scalar.tau(),
        lambda: Scalar.one() + 1j,
        lambda: Scalar.one() / 0.5,
    ):
        with pytest.raises(TypeError):
            op()
    assert Scalar.tau() != TAU
    assert Scalar.tau().to_complex() == TAU


def test_scalar_division_restrictions():
    with pytest.raises(ValueError):
        (Scalar.one()) / (Scalar.one() + Scalar.tau())


def test_poly_arithmetic_and_diff():
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert p.diff(0) == x1.scale(2)
    assert p.diff(1) == x2.scale(-2)
    assert (p - p).is_zero()


def test_poly_compose_and_eval():
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    p = x1 * x2 + Poly.const(2, 3)
    t = Poly.var(1, 0)
    q = p.compose([t, t * t])
    assert q == t ** 3 + Poly.const(1, 3)
    assert q.eval([Fraction(1, 2)]) == Scalar.from_rational(25, 8)
    assert abs(poly_eval_complex(q, [0.5]) - 3.125) < 1e-12


def test_poly_negative_power_raises():
    t = Poly.var(1, 0)
    with pytest.raises(ValueError):
        t ** -1
    with pytest.raises(ValueError):
        Scalar.tau() ** -1
    assert t ** 0 == Poly.const(1, 1)


def test_poly_compose_into_point():
    p = Poly.const(0, 7)
    q = p.compose([], source_dim=2)
    assert q.dim == 2 and q == Poly.const(2, 7)


def test_bernstein_partition_of_unity():
    # a map onto Delta^1 with every control point 1 has coordinate sum_a B_a
    for dim, deg in [(1, 2), (2, 3)]:
        (total,) = BernsteinMap(dim, 1, deg, {a: (1,) for a in _compositions(deg, dim + 1)}).coords()
        assert total == Poly.const(dim, 1)


def test_poly_eval_scalar_points():
    p = Poly(1, {(2,): Scalar.tau()})
    v = p.eval([Fraction(1, 2)])
    assert v == Scalar.tau() * Fraction(1, 4)


CAP = RADIX - 1  # every total degree stays below it


@pytest.mark.parametrize("dim, exponent", [
    (2, (1, 2, 3)),  # too long
    (2, (1,)),  # too short
    (2, (-1, 0)),  # negative
    (1, (1.0,)),  # a float
    (1, (True,)),  # a bool is no exponent
    (2, ("1", 0)),  # a string
    (1, (CAP,)),  # total degree RADIX - 1
    (3, (CAP - 2, 1, 1)),  # spread over the fields
], ids=["long", "short", "negative", "float", "bool", "string", "cap", "cap-spread"])
def test_poly_rejects_malformed_exponents(dim, exponent):
    with pytest.raises(ValueError, match="malformed exponent"):
        Poly(dim, {exponent: 1})


def test_poly_accepts_the_top_degree():
    p = Poly(2, {(CAP - 2, 1): 1, (0, 0): 2})
    assert p.total_degree() == CAP - 1
    assert dict(p.terms) == {(CAP - 2, 1): Scalar.one(), (0, 0): Scalar.from_rational(2)}
    assert canonical_violations(p) == []


def tuple_mul(a, b):
    """The product of two {exponent tuple: Scalar} dicts, exponents added as tuples."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Scalar.zero()) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def tuple_diff(a, i):
    """d/dx_{i+1} of a {exponent tuple: Scalar} dict."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def tuple_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Scalar.zero()) + c
    return {e: c for e, c in out.items() if not c.is_zero()}


COEFFS = st.sampled_from([Scalar.one(), Scalar.from_rational(-2, 3), Scalar.of(0, 1), Scalar.of(1, 0, 1),
                          Scalar.of(Fraction(1, 2), Fraction(-5, 7), -1)])
# each field small or one heavy near RADIX / 2, so that a product's fields
# come near RADIX while its total degree stays below CAP
FIELD = st.integers(0, 3) | st.integers(52990, 53000)


def tuple_polys(dim):
    exps = st.tuples(*[FIELD] * dim).filter(lambda e: sum(e) <= 53009)
    return st.dictionaries(exps, COEFFS, max_size=5)


@st.composite
def poly_pairs(draw):
    dim = draw(st.integers(1, 4))
    return dim, draw(tuple_polys(dim)), draw(tuple_polys(dim))


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_packed_product_diff_and_d_match_tuple_arithmetic(case):
    """Products, partial derivatives and the exterior derivative on packed
    keys against the same arithmetic on exponent tuples, with fields near
    RADIX / 2 so that an aliasing key would show."""
    dim, a, b = case
    p, q = Poly(dim, a), Poly(dim, b)
    assert dict((p * q).terms) == tuple_mul(a, b)
    assert canonical_violations(p * q) == []
    for i in range(dim):
        assert dict(p.diff(i).terms) == tuple_diff(a, i)
    # d of the 1-form p dx_1 + q dx_dim: (d_i q - d_dim p) dx_1 ^ dx_dim and the other dx_i ^ dx_j
    if dim >= 2:
        omega = PolyForm(dim, 1, {(0,): p, (dim - 1,): q})
        want = {}
        for i, j in itertools.combinations(range(dim), 2):
            comp = {}
            if j == dim - 1:
                comp = tuple_add(comp, tuple_diff(b, i))
            if i == 0:
                comp = tuple_add(comp, {e: -c for e, c in tuple_diff(a, j).items()})
            if comp:
                want[(i, j)] = comp
        got = omega.d()
        assert {I: dict(f.terms) for I, f in got.comps.items()} == want
        assert canonical_violations(got) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, CAP - 1))
def test_product_reaching_the_cap_raises(dim, d1):
    """A product whose total degree would reach RADIX - 1 raises
    OverflowError instead of aliasing keys, in Poly products and wedges,
    and in the curvature, where cw bounds every product of a chart by
    twice its top degree; one degree lower is computed."""
    from chernweil.bundles import LieValuedForm
    from chernweil.cw import curvature_form
    from chernweil.liealg import lie_algebra

    su2 = lie_algebra("su2")

    p = Poly(dim, {(d1,) + (0,) * (dim - 1): 1})
    q = Poly(dim, {(0,) * (dim - 1) + (CAP - d1,): 1}) if d1 else None
    if q is not None:
        with pytest.raises(OverflowError):
            p * q
        with pytest.raises(OverflowError):
            PolyForm.from_poly(p).wedge(PolyForm.from_poly(q))
        with pytest.raises(OverflowError):
            curvature_form(LieValuedForm(su2, dim, 1, [PolyForm(dim, 1, {(0,): p}), PolyForm(dim, 1, {(0,): q}),
                                                         PolyForm.zero(dim, 1)]))
    low = Poly(dim, {(0,) * (dim - 1) + (CAP - 1 - d1,): 1})
    assert (p * low).total_degree() == CAP - 1

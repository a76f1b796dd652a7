from fractions import Fraction

import pytest

from chernweil.forms import BernsteinMap
from chernweil.poly import Poly, _compositions
from chernweil.scalars import TAU, Scalar


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
    assert (Scalar.i() * Scalar.i()) == Scalar.from_rational(-1)


def test_scalar_rational_detection():
    assert Scalar.from_rational(5, 3).is_rational()
    assert Scalar.from_rational(5, 3).rational_value() == Fraction(5, 3)
    assert not Scalar.tau().is_rational()
    assert not Scalar.i().is_rational()
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
    assert abs(q.eval_complex([0.5]) - 3.125) < 1e-12


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

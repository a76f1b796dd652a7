"""Exact scalar arithmetic with the circle constant kept symbolic.

A Scalar is a Laurent polynomial in one formal symbol ``tau`` (standing
for 2*pi) whose coefficients are Gaussian rationals (a + b*i)/d.  Each
coefficient is three Python ints in lowest terms (d > 0 and
gcd(a, b, d) == 1), so equal values have equal fields and arithmetic
builds no Fraction.  This is enough to carry the i/(2*pi)
normalizations of Chern classes through every computation without
rounding, so integrality statements can be tested with ``==``.
Floats are not Scalars: ``to_complex`` substitutes tau = 2*pi when a
numeric value is wanted.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd

TAU = 2.0 * math.pi

# The integer numerals of the file formats and the command line: an
# optional minus sign and ASCII digits, no '+', spaces or underscores.
INT_NUMERAL = r"-?[0-9]+"
SIZE_NUMERAL = r"[0-9]+"


def parse_int(text, signed=True):
    """The int a numeral spells (INT_NUMERAL, or SIZE_NUMERAL when not
    signed); any other spelling raises ValueError, where int() would
    take '+1', ' 1' or '1_0'."""
    if not re.fullmatch(INT_NUMERAL if signed else SIZE_NUMERAL, text):
        raise ValueError(f"bad integer numeral {text!r}")
    return int(text)

_new = object.__new__


class QI:
    """Gaussian rational (a + b*i)/d with ints a, b, d in lowest terms."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        # both parts are in lowest terms, so over their least common
        # denominator gcd(a, b, d) == 1 already
        re, im = Fraction(re), Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d = self.d
        if d == other.d:
            a, b = self.a + other.a, self.b + other.b
            if d == 1:
                return _qi(a, b, 1)
        else:
            a = self.a * other.d + other.a * d
            b = self.b * other.d + other.b * d
            d *= other.d
        return _reduced(a, b, d)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _qi(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d
        if d == 1:
            return _qi(a, b, 1)
        return _reduced(a, b, d)

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduced(a * d, -b * d, n)

    def __eq__(self, other):
        return isinstance(other, QI) and self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def is_zero(self):
        return not self.a and not self.b

    def to_complex(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def _qi(a, b, d):
    """A QI from fields already in lowest terms (no checks)."""
    q = _new(QI)
    q.a = a
    q.b = b
    q.d = d
    return q


def _reduced(a, b, d):
    """A QI for (a + b*i)/d with d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g == 1:
        return _qi(a, b, d)
    return _qi(a // g, b // g, d // g)


class Scalar:
    """Exact tau-Laurent scalar: a dict tau-exponent -> nonzero QI."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()} if terms else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return _scalar({})

    @staticmethod
    def one():
        return _scalar({0: _qi(1, 0, 1)})

    @staticmethod
    def of(re=0, im=0, tau_power=0):
        return Scalar({tau_power: QI(re, im)})

    @staticmethod
    def from_rational(p, q=1):
        return Scalar({0: QI(Fraction(p, q))})

    @staticmethod
    def i():
        return _scalar({0: _qi(0, 1, 1)})

    @staticmethod
    def tau(power=1):
        return _scalar({power: _qi(1, 0, 1)})

    @staticmethod
    def coerce(x):
        if isinstance(x, Scalar):
            return x
        if type(x) is int:
            return _scalar({0: _qi(x, 0, 1)} if x else {})
        if isinstance(x, (int, Fraction)):
            return Scalar({0: QI(x)})
        raise TypeError(f"cannot coerce {type(x)} to Scalar")

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        """True when tau-free and real."""
        return all(k == 0 and not c.b for k, c in self.terms.items())

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        return self.terms.get(0, QI()).re

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        t1, t2 = self.terms, other.terms
        if not t2:
            return self
        if not t1:
            return other
        t = dict(t1)
        for k, c in t2.items():
            _add_into(t, k, c)
        return _scalar(t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __neg__(self):
        return _scalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and len(t2) == 1:
            # a product of nonzero Gaussian rationals is nonzero
            (k1, c1), = t1.items()
            (k2, c2), = t2.items()
            return _scalar({k1 + k2: c1 * c2})
        t = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                _add_into(t, k1 + k2, c1 * c2)
        return _scalar(t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if len(other.terms) != 1:
            raise ValueError("exact division only by tau-monomials")
        (k, c), = other.terms.items()
        inv = c.inverse()
        return _scalar({j - k: cj * inv for j, cj in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported; divide instead")
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not Scalar:
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational Scalar equals its Fraction (and int), so hashes like it
        if self.is_rational():
            return hash(self.rational_value())
        return hash(frozenset(self.terms.items()))

    # -- conversion ----------------------------------------------------

    def to_complex(self):
        t = self.terms
        # summed in tau-power order, so equal scalars give equal floats
        return sum((t[k].to_complex() * TAU**k for k in sorted(t)), 0j)

    def __repr__(self):
        if not self.terms:
            return "Scalar(0)"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            s = f"{c.re}" if c.im == 0 else (f"{c.im}i" if c.re == 0 else f"({c.re}+{c.im}i)")
            if k:
                s += f"*tau^{k}"
            bits.append(s)
        return "Scalar(" + " + ".join(bits) + ")"


def _scalar(terms):
    """A Scalar over a fresh dict with no zero coefficients (no checks)."""
    s = _new(Scalar)
    s.terms = terms
    return s


def _add_into(t, k, c):
    """t[k] += c for a nonzero QI c, dropping the key when the sum is zero."""
    c0 = t.get(k)
    if c0 is None:
        t[k] = c
        return
    s = c0 + c
    if s.a or s.b:
        t[k] = s
    else:
        del t[k]


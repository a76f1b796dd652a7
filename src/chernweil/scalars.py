"""Exact scalar arithmetic with the circle constant kept symbolic.

A Scalar is a Laurent polynomial in one formal symbol ``tau`` (standing
for 2*pi) whose coefficients are Gaussian rationals.  Its ``terms`` map
each tau power to a triple of Python ints (a, b, d) meaning
(a + b*i)/d, in lowest terms (d > 0 and gcd(a, b, d) == 1) and nonzero,
so equal values have equal terms.  Its arithmetic adds products of
triples through ``_mac``, combining denominators by their lcm as they
meet, and reduces each result once through ``_from_mac``; ``_reduced``
is the one reduction to lowest terms.  Polynomials and forms do not
multiply Scalars: they store int numerators over one denominator (see
``poly``), and Scalars are made only at their boundary.
``Scalar(...)`` validates and reduces what it is given and is for input
from outside; results built in canonical form go through the unchecked
``_scalar``.  A product of two single-term scalars is formed and reduced
directly, without an accumulator.  This is enough to carry the
i/(2*pi) normalizations of Chern classes through every computation
without rounding, so integrality statements can be tested with ``==``.
Floats are not Scalars: ``to_complex`` substitutes tau = 2*pi when a
numeric value is wanted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

TAU = 2.0 * math.pi


def parse_int(text, signed=True):
    """The int that str(int) writes as text: the integer numerals of the
    command line and the polynomial selectors, spelled as the file
    formats spell theirs.  int() reads the text, and the int is returned
    only when str() writes it back as the same text: '+1', ' 1', '01',
    '-0', '1_0' or non-ASCII digits, which int() also reads, raise
    ValueError, as does a negative numeral when not signed."""
    n = int(text)
    if str(n) != text or n < 0 and not signed:
        raise ValueError(f"bad integer numeral {text!r}")
    return n


_new = object.__new__


class Scalar:
    """Exact tau-Laurent scalar: a dict tau power -> nonzero (a, b, d)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """A Scalar from a dict tau power -> int triple (a, b, d), d != 0;
        each triple is brought to lowest terms and zeros are dropped."""
        t = {}
        for k, (a, b, d) in (terms or {}).items():
            if not d:
                raise ZeroDivisionError("Gaussian rational with denominator 0")
            if d < 0:
                a, b, d = -a, -b, -d
            if a or b:
                t[k] = _reduced(a, b, d)
        self.terms = t

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return _scalar({})

    @staticmethod
    def one():
        return _scalar({0: (1, 0, 1)})

    @staticmethod
    def of(re=0, im=0, tau_power=0):
        """re + im*i times tau^tau_power, for ints, Fractions or floats."""
        if type(re) is not int or type(im) is not int:
            re, im = Fraction(re), Fraction(im)
        q1, q2 = re.denominator, im.denominator
        return Scalar({tau_power: (re.numerator * q2, im.numerator * q1, q1 * q2)})

    @staticmethod
    def from_rational(p, q=1):
        return Scalar.coerce(Fraction(p, q))

    @staticmethod
    def tau(power=1):
        return _scalar({power: (1, 0, 1)})

    @staticmethod
    def coerce(x):
        if isinstance(x, Scalar):
            return x
        if type(x) is int:
            return _scalar({0: (x, 0, 1)} if x else {})
        if isinstance(x, (int, Fraction)):
            return Scalar({0: (x.numerator, 0, x.denominator)})
        raise TypeError(f"cannot coerce {type(x)} to Scalar")

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        """True when tau-free and real."""
        return all(k == 0 and not c[1] for k, c in self.terms.items())

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        a, _, d = self.terms.get(0, (0, 0, 1))
        return Fraction(a, d)

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
            c0 = t.get(k)
            if c0 is None:
                t[k] = c
                continue
            (a0, b0, d0), (a, b, d) = c0, c
            if d0 == d:
                a, b = a0 + a, b0 + b
            else:
                a, b, d = a0 * d + a * d0, b0 * d + b * d0, d0 * d
            if a or b:
                t[k] = _reduced(a, b, d)
            else:
                del t[k]
        return _scalar(t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __neg__(self):
        return _scalar({k: (-a, -b, d) for k, (a, b, d) in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and len(t2) == 1:
            # one product of nonzero Gaussian rationals, which is nonzero
            (k1, (a1, b1, d1)), = t1.items()
            (k2, (a2, b2, d2)), = t2.items()
            return _scalar({k1 + k2: _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)})
        t = {}
        _mac(t, t1.items(), t2.items())
        return _from_mac(t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if len(other.terms) != 1:
            raise ValueError("exact division only by tau-monomials")
        (k, (a, b, d)), = other.terms.items()
        # 1/((a + b*i)/d) = (a*d - b*d*i)/(a^2 + b^2), nonzero
        t = {}
        _mac(t, self.terms.items(), ((-k, (a * d, -b * d, a * a + b * b)),))
        return _from_mac(t)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

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
        # summed in tau-power order, so equal scalars give equal floats;
        # int / int is correctly rounded, as float(Fraction) is
        return sum(
            ((complex(a / d) + 1j * complex(b / d)) * TAU**k for k, (a, b, d) in sorted(self.terms.items())),
            0j,
        )

    def __repr__(self):
        if not self.terms:
            return "Scalar(0)"
        bits = []
        for k, (a, b, d) in sorted(self.terms.items()):
            re, im = Fraction(a, d), Fraction(b, d)
            s = f"{re}" if im == 0 else (f"{im}i" if re == 0 else f"({re}+{im}i)")
            if k:
                s += f"*tau^{k}"
            bits.append(s)
        return "Scalar(" + " + ".join(bits) + ")"


def _scalar(terms):
    """A Scalar over a fresh dict of nonzero lowest-terms triples (no checks)."""
    s = _new(Scalar)
    s.terms = terms
    return s


def _reduced(a, b, d):
    """The triple (a, b, d), d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g == 1:
        return a, b, d
    return a // g, b // g, d // g


def _mac(t, xs, ys):
    """t[k1 + k2] += x * y for all (k1, x) in xs and (k2, y) in ys, on
    unreduced int triples (a, b, d) with d > 0; denominators are
    combined by their lcm."""
    for k1, (a1, b1, d1) in xs:
        for k2, (a2, b2, d2) in ys:
            k = k1 + k2
            a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            old = t.get(k)
            if old is None:
                t[k] = (a, b, d)
                continue
            a0, b0, d0 = old
            if d0 == d:
                t[k] = (a0 + a, b0 + b, d)
            else:
                g = gcd(d0, d)
                m0, m = d // g, d0 // g
                t[k] = (a0 * m0 + a * m, b0 * m0 + b * m, d0 * m0)


def _from_mac(t):
    """The Scalar of a _mac accumulator: each triple in lowest terms,
    zero sums dropped (_reduced, inlined in the one loop)."""
    out = {}
    for k, (a, b, d) in t.items():
        if a or b:
            g = gcd(a, b, d)
            out[k] = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    s = _new(Scalar)
    s.terms = out
    return s

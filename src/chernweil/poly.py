"""Multivariate polynomials on the coordinate simplex.

A Poly lives on Delta^d, embedded in R^d with coordinates x_1..x_d
(indices 0-based internally).  Its exact tau-Laurent Gaussian-rational
coefficients are stored lowered, as FLINT's fmpq_poly stores a rational
polynomial: one denominator L > 0 and, per part (tau power, 0 for the
real or 1 for the imaginary part), a dict key -> nonzero int numerator.
gcd(L, every numerator) == 1 and no part is empty, so == and hash are
structural.  This module alone decides that layout.  A key is the
monomial x^e packed into one int, sum e_i RADIX^i (Monagan-Pearce), so
a product's key is one int add and the total degree is key % _CAP,
_CAP = RADIX - 1; every total degree stays below _CAP.  Poly(...)
refuses any other exponent, and a product whose degree could reach
_CAP raises OverflowError (_check_degree) instead of aliasing keys.
RADIX is odd and no power of two because CPython hashes a small int to
itself and a dict's first probe reads its low bits: with RADIX = 2^16
those hold only x_1's exponent, with 2^16 + 1 only the total degree.
_key and _exponent alone convert keys to and from exponent tuples.

Sums, products (_product_into, the one loop over term pairs, each
product's part from the cache _part_mul), scalings and derivatives, and
in forms and cw every form operation, add ints over one denominator and
reduce each result once (_reduce).  Scalars and exponent tuples are made
only at the boundary: the view Poly.terms, built on access for writers,
reports and exact evaluation, and integrals' values (_from_parts).
Poly(...) validates its terms and is for input from outside; results
canonical by construction are built by the unchecked _poly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import MappingProxyType

from .scalars import Scalar, _reduced, _scalar

_new = object.__new__
_REAL = (0, 0)  # the part of the real rationals
_ONE = ((_REAL, 1),)  # the int multipliers of the constant 1, as _product_into takes them
RADIX = 106039  # 2^16 + 40503: odd, so a key's low bits mix every exponent
_CAP = RADIX - 1  # every total degree stays below it, and is key % _CAP


def _key(dim, e):
    """The key sum e_i RADIX^i of an exponent tuple e on Delta^dim; ValueError
    for a wrong length, a negative or non-int entry or total degree >= _CAP."""
    if type(e) is not tuple or len(e) != dim or not {*map(type, e)} <= {int} or min(e, default=0) < 0 or sum(e) >= _CAP:
        raise ValueError(f"malformed exponent {e!r} on Delta^{dim}")
    k = 0
    for x in reversed(e):
        k = k * RADIX + x
    return k


def _exponent(dim, k):
    """The exponent tuple of the key k on Delta^dim: its base-RADIX digits."""
    e = []
    for _ in range(dim):
        k, x = divmod(k, RADIX)
        e.append(x)
    return tuple(e)


def _degree(parts):
    """The top total degree of the keys of a lowered polynomial's parts."""
    return max([max(map(_CAP.__rmod__, t), default=0) for t in parts.values()], default=0)


def _check_degree(n):
    """OverflowError if a product's degree bound n reaches _CAP, where keys alias."""
    if n >= _CAP:
        raise OverflowError(f"polynomial product of total degree {_CAP} or more")


def _monomial_key(exps):
    # graded lexicographic, used for canonical ordering in serialization
    return (sum(exps), exps)


class Poly:
    __slots__ = ("dim", "L", "parts")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.L, self.parts = _lowered((_key(dim, e), c) for e, c in (terms or {}).items())

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim):
        return _poly(dim, 1, {})

    @staticmethod
    def const(dim, c):
        return _poly(dim, *_lowered(((0, c),)))

    @staticmethod
    def var(dim, i):
        """The coordinate x_{i+1} on Delta^dim (0-based index i)."""
        return _poly(dim, 1, {_REAL: {RADIX**i: 1}})

    # -- predicates / info ---------------------------------------------

    @property
    def terms(self):
        """The read-only dict exponent -> nonzero Scalar, built on access:
        exponents in the order of the parts, then of each part's dict."""
        L, dim = self.L, self.dim
        return MappingProxyType({_exponent(dim, e): _scalar({k: _reduced(a, b, L) for k, (a, b) in c.items()})
                                 for e, c in self._by_exponent().items()})

    def _by_exponent(self):
        """{key: {tau power: [real, imaginary numerator]}}, in terms order."""
        ab = {}
        for (k, im), t in self.parts.items():
            for e, n in t.items():
                ab.setdefault(e, {}).setdefault(k, [0, 0])[im] = n
        return ab

    def is_zero(self):
        return not self.parts

    def total_degree(self):
        return _degree(self.parts)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.dim == other.dim and self.L == other.L
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.dim, self.L, frozenset((p, frozenset(t.items())) for p, t in self.parts.items())))

    # -- ring operations -------------------------------------------------

    def _binop_add(self, other, sign):
        if self.dim != other.dim:
            raise ValueError("polynomial dimension mismatch")
        L = self.L if self.L == other.L else lcm(self.L, other.L)
        f1, f2 = L // self.L, sign * (L // other.L)
        out = {}
        for p, t in self.parts.items():
            out[p] = dict(t) if f1 == 1 else {e: f1 * n for e, n in t.items()}
        for p, t in other.parts.items():
            o = out.get(p)
            if o is None:
                out[p] = {e: f2 * n for e, n in t.items()}
                continue
            get = o.get
            for e, n in t.items():
                o[e] = get(e, 0) + f2 * n
        return _reduce(self.dim, L, out)

    def __add__(self, other):
        return self._binop_add(other, +1)

    def __radd__(self, other):
        # 0 + p, so that sum() starts on Polys
        return self if type(other) is int and other == 0 else NotImplemented

    def __sub__(self, other):
        return self._binop_add(other, -1)

    def __neg__(self):
        return _poly(self.dim, self.L, {p: {e: -n for e, n in t.items()} for p, t in self.parts.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.dim != other.dim:
            raise ValueError("polynomial dimension mismatch")
        _check_degree(self.total_degree() + other.total_degree())
        out = {}
        _product_into(out, self.parts, other.parts, _ONE)
        return _reduce(self.dim, self.L * other.L, out)

    __rmul__ = __mul__

    def scale(self, c):
        """c * self for a Scalar, int or Fraction c."""
        return _scaled(self, _constant(c))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = Poly.const(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------

    def diff(self, i):
        """Partial derivative with respect to x_{i+1}."""
        u = RADIX**i
        return _reduce(self.dim, self.L, {p: {e - u: k * n for e, n in t.items() if (k := e // u % RADIX)}
                                          for p, t in self.parts.items()})

    def compose(self, polys, source_dim=None):
        """Substitute polys[i] for x_{i+1}; all polys share one source dim.

        source_dim disambiguates the (constant) result when polys is
        empty, i.e. when composing with a map out of Delta^0.  Each
        term is its own chain of products; maps compose and pull back
        through forms' per-map image tables instead, and this stays as
        the tests' reference.
        """
        if len(polys) != self.dim:
            raise ValueError("need one substitution polynomial per variable")
        src = polys[0].dim if polys else source_dim or 0
        out = Poly.zero(src)
        for e, c in self.terms.items():
            term = Poly.const(src, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * polys[i]
            out = out + term
        return out

    def eval(self, point):
        """Evaluate at a point given as numbers, Fractions or Scalars."""
        out = Scalar.zero()
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * Scalar.coerce(point[i]) ** k
            out = out + v
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: _monomial_key(ec[0]))

    def __repr__(self):
        if not self.parts:
            return "Poly(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{c!r}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def _poly(dim, L, parts):
    """A Poly over a canonical denominator and fresh dict of parts (no checks)."""
    p = _new(Poly)
    p.dim, p.L, p.parts = dim, L, parts
    return p


def _reduce(dim, L, parts):
    """The Poly of the parts over L > 0, taking their dicts over: zeros and
    empty parts dropped, then one gcd over all, divided out unless 1."""
    g, clean = L, True
    for t in parts.values():
        if not t or 0 in t.values():
            clean = False
        if g != 1:
            g = gcd(g, *t.values())  # a zero numerator leaves the gcd as it is
    if not clean:
        parts = {p: t for p, t in ((p, {e: n for e, n in t.items() if n}) for p, t in parts.items()) if t}
    if g != 1:
        parts = {p: {e: n // g for e, n in t.items()} for p, t in parts.items()}
        L //= g
    q = _new(Poly)
    q.dim, q.L, q.parts = dim, L, parts
    return q


def _lowered(rows):
    """(L, parts) for the (key, c) rows, c an int, Fraction or Scalar, keys
    distinct: L the lcm of the denominators, parts part -> {key: nonzero
    numerator over L}, canonical since lowest terms over their lcm are."""
    rows = [(key, xs) for key, c in rows if (xs := Scalar.coerce(c).terms.items())]
    L = lcm(*{d for _, xs in rows for _, (_, _, d) in xs})
    parts = {}
    for key, xs in rows:
        for k, (a, b, d) in xs:
            f = L // d
            if a:
                parts.setdefault((k, 0), {})[key] = a * f
            if b:
                parts.setdefault((k, 1), {})[key] = b * f
    return L, parts


def _constant(c):
    """c, an int, Fraction or Scalar, lowered: (its denominator, ((part,
    int numerator), ...)), as _product_into takes its multipliers."""
    if isinstance(c, (int, Fraction)):
        return c.denominator, ((_REAL, c.numerator),) if c else ()
    L, parts = _lowered(((0, c),))
    return L, tuple((p, t[0]) for p, t in parts.items())


def _scaled(p, const):
    """The Poly c * p for a constant c lowered by _constant: each part of c
    relabels and multiplies the numerators, over L times c's denominator."""
    Lc, coef = const
    out = {}
    for p1, t in p.parts.items():
        for p2, m in coef:
            q, s = _part_mul(p1, p2)
            m *= s
            o = out.get(q)
            if o is None:
                out[q] = {e: m * n for e, n in t.items()}
                continue
            get = o.get
            for e, n in t.items():
                o[e] = get(e, 0) + m * n
    return _reduce(p.dim, p.L * Lc, out)


@cache
def _part_mul(p, q):
    """The part of the product of the parts p and q (tau power, 0 or 1)
    of two lowered values, and its sign: i * i = -1."""
    (k1, i1), (k2, i2) = p, q
    return (k1 + k2, i1 ^ i2), -1 if i1 & i2 else 1


def _product_into(out, parts1, parts2, coef, f=1):
    """out[part][e1 + e2] += f * m * n1 * n2 over the parts of two lowered
    polynomials and the (part, m) pairs of coef, a lowered constant: per
    pair of parts, terms of parts1 outer, those of parts2 inner.  The only
    loop over term pairs; its callers bound the degree (_check_degree)."""
    for p1, t1 in parts1.items():
        for p2, t2 in parts2.items():
            q, s = _part_mul(p1, p2)
            for pc, m in coef:
                p, sc = _part_mul(q, pc)
                m *= s * sc * f
                o = out.setdefault(p, {})
                get = o.get
                ys = list(t2.items()) if m == 1 else [(e2, m * n2) for e2, n2 in t2.items()]
                for e1, n1 in t1.items():
                    for e2, n2 in ys:
                        e = e1 + e2
                        o[e] = get(e, 0) + n1 * n2


def _from_parts(t, L):
    """The Scalar sum of n * i^im * tau^k / L over the items ((k, im), n)
    of a lowered value t over the denominator L > 0: each tau power
    reduced once, by gcd(a, b, L), zero sums dropped."""
    ab = {}
    for (k, im), n in t.items():
        if n:
            ab.setdefault(k, [0, 0])[im] = n
    return _scalar({k: _reduced(a, b, L) for k, (a, b) in ab.items()})


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, parts - 1):
            yield (head,) + rest

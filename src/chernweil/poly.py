"""Multivariate polynomials on the coordinate simplex.

A Poly lives on Delta^d, embedded in R^d with coordinates x_1..x_d
(indices 0-based internally).  Coefficients are Scalars, so arithmetic
is exact.  Terms are kept in a dict keyed by exponent
tuples; zero coefficients are pruned eagerly so equality is structural.

Products of two coefficients go through the kernel scalars._mac,
shared by Poly.__mul__, PolyForm.wedge (and so
LieValuedForm.bracket_wedge), PolyForm.pullback, PolyMap.compose,
PolyForm.d and PolyForm.integrate_top; the Whitney-Bernstein transforms
in forms, which multiply coefficients by small ints, go through the other kernel,
scalars._mac_int.  The curvature and the characteristic forms of cw
use neither: they are built on int numerators over one denominator
(cw's integer pass) and come back as Polys only at the end.  Every
product c1*c2 of two coefficients' int triples is
added, unreduced, by scalars._mac into an accumulator dict exponent ->
{tau power: (a, b, d)}, and each output coefficient is brought to
lowest terms once at the end (_from_acc), zero sums dropped.  No
Scalar is built per term pair.  The coefficient of a product (a wedge
sign, a structure constant, a derivative's sign * e_j) is folded into
the same kernel call (_mul_into's coef), not applied by a Poly.scale.
One slot may hold a Scalar instead of
an accumulator: PolyForm.pullback copies a coefficient as it is into
a slot where its monomial's image has coefficient 1 (a unit image) and
that gets nothing else.  Sums into a running total (Poly.__add__) add
Scalars.

Poly(...) validates its terms and is for input from outside; results
canonical by construction (kernel output, sums, negations, scalings,
derivatives) are built by the unchecked _poly.
"""

from __future__ import annotations

from operator import add

from .scalars import Scalar, _from_mac, _mac

_new = object.__new__


def _monomial_key(exps):
    # graded lexicographic, used for canonical ordering in serialization
    return (sum(exps), exps)


class Poly:
    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        t = {}
        if terms:
            for e, c in terms.items():
                c = Scalar.coerce(c)
                if not c.is_zero():
                    t[tuple(e)] = c
        self.terms = t

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim):
        return Poly(dim)

    @staticmethod
    def const(dim, c):
        return Poly(dim, {(0,) * dim: Scalar.coerce(c)})

    @staticmethod
    def var(dim, i):
        """The coordinate x_{i+1} on Delta^dim (0-based index i)."""
        e = [0] * dim
        e[i] = 1
        return Poly(dim, {tuple(e): Scalar.one()})

    # -- predicates / info ---------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- ring operations -------------------------------------------------

    def _binop_add(self, other, sign):
        if self.dim != other.dim:
            raise ValueError("polynomial dimension mismatch")
        t = dict(self.terms)
        for e, c in other.terms.items():
            if sign < 0:
                c = -c
            c0 = t.get(e)
            if c0 is not None:
                c = c0 + c
                if not c.terms:
                    del t[e]
                    continue
            t[e] = c
        return _poly(self.dim, t)

    def __add__(self, other):
        return self._binop_add(other, +1)

    def __radd__(self, other):
        # 0 + p, so that sum() starts on Polys
        return self if type(other) is int and other == 0 else NotImplemented

    def __sub__(self, other):
        return self._binop_add(other, -1)

    def __neg__(self):
        return _poly(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.dim != other.dim:
            raise ValueError("polynomial dimension mismatch")
        acc = {}
        _mul_into(acc, self.terms, other.terms)
        return _poly(self.dim, _from_acc(acc))

    __rmul__ = __mul__

    def scale(self, c):
        if type(c) is not Scalar:
            c = Scalar.coerce(c)
        if c.is_zero():
            return Poly.zero(self.dim)
        t = {}
        for e, cc in self.terms.items():
            p = cc * c
            if not p.is_zero():
                t[e] = p
        return _poly(self.dim, t)

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
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            t[tuple(e2)] = c * e[i]
        return _poly(self.dim, t)

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
        if polys:
            src = polys[0].dim
        elif source_dim is not None:
            src = source_dim
        else:
            src = 0
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

    def eval_complex(self, point):
        out = 0j
        for e, c in self.terms.items():
            v = c.to_complex()
            for i, k in enumerate(e):
                if k:
                    v *= complex(point[i]) ** k
            out += v
        return out

    def eval_complex_many(self, points):
        """eval_complex at each row of an (n, dim) float array, as a
        complex array; entry j equals eval_complex(points[j]) bit for bit.

        Each coefficient is converted once, and the arithmetic is
        eval_complex's in the same order: complex integer powers (which
        numpy computes by the same repeated squaring as Python), factors
        multiplied in coordinate order, terms added in dict order.
        """
        import numpy as np

        cols = np.asarray(points, dtype=float).astype(complex).T
        out = np.zeros(cols.shape[1], dtype=complex)
        for e, c in self.terms.items():
            v = np.full(cols.shape[1], c.to_complex())
            for i, k in enumerate(e):
                if k:
                    v *= cols[i] ** k
            out += v
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: _monomial_key(ec[0]))

    def __repr__(self):
        if not self.terms:
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


def _poly(dim, terms):
    """A Poly over a fresh dict of tuple keys and nonzero Scalars (no checks)."""
    p = _new(Poly)
    p.dim = dim
    p.terms = terms
    return p


def _mul_into(acc, terms1, terms2, coef=1):
    """acc += coef * (terms1 * terms2) for two exponent -> Scalar dicts.

    coef is an int or a Scalar.  Unless it is 1 it is multiplied, by
    _mac and unreduced, into each coefficient of terms2 once, before the
    term pairs are walked."""
    if coef == 1:
        ys = [(e2, c2.terms.items()) for e2, c2 in terms2.items()]
    else:
        cs = Scalar.coerce(coef).terms.items()
        ys = []
        for e2, c2 in terms2.items():
            y = {}
            _mac(y, c2.terms.items(), cs)
            ys.append((e2, y.items()))
    for e1, c1 in terms1.items():
        xs = c1.terms.items()
        for e2, y in ys:
            e = tuple(map(add, e1, e2))
            t = acc.get(e)
            if t is None:
                t = acc[e] = {}
            _mac(t, xs, y)


def _from_acc(acc):
    """The key -> Scalar terms of a dict of _mac accumulators, each
    coefficient in lowest terms, zero coefficients dropped.  A slot may
    hold a nonzero Scalar instead (PolyForm.pullback's unit-image copy),
    which is kept as it is."""
    out = {}
    for e, t in acc.items():
        if type(t) is Scalar:
            out[e] = t
            continue
        s = _from_mac(t)
        if s.terms:
            out[e] = s
    return out


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, parts - 1):
            yield (head,) + rest

"""Small matrix Lie algebras and Ad-invariant polynomials.

Supported algebras: u1, su2, so3, and un / sun for n <= 4.  Basis
matrices have Gaussian-rational entries, so the structure constants and
invariant polynomial evaluations are exact whenever the inputs are.  The
su2 basis is the halved-Pauli one, e_a = -(i/2) sigma_a, normalized so
that [e1, e2] = e3.  Entries are exact throughout: a matrix entry is a
Scalar, an int, a Fraction or a Poly, and any other entry raises
TypeError.  A constant element of an algebra is its coordinates in the
basis (LieData.coordinates reads them from a matrix); brackets of
g-valued data, constants included, are taken on bundles.LieValuedForm.

An invariant polynomial is held as its diagonal rho(x, .., x), one
homogeneous Poly in the basis coordinates x; its symmetric coefficient
tensor (InvariantPolynomial.tensor) is the Poly's terms keyed by index
tuple.  Every selector's diagonal is a symmetric function of the
eigenvalues of the generic element M(x) = sum_a x_a e_a, a matrix of
Polys, read from its power sums p_j = tr(M(x)^j) by Newton's identities
(Macdonald, "Symmetric Functions and Hall Polynomials", ch. I.2):

- symtrace:k is p_k;
- chern:k is e_k / (i tau)^k, with k e_k = sum_j (-1)^(j-1) e_(k-j) p_j;
  the i/(2 pi) normalization is carried by the tau symbol;
- reznikov:k, on su(n), is (2i)^k k! (n-1)! / (k+n-1)! h_k, with
  k h_k = sum_j h_(k-j) p_j: the mean over CP^(n-1) of the product of
  the Hamiltonians 2i z*Xz, since the moment map of i diag(lambda)
  pushes the Fubini-Study measure to the uniform measure on the simplex
  spanned by the lambda_j (Duistermaat-Heckman, Invent. Math. 69, 1982).

polarize(algebra, p, k) calls p once, on the coordinates as Polys, and
takes p(x) as the diagonal; a term of degree other than k is refused.
InvariantPolynomial.contract contracts the tensor with coordinate dicts
{a: x_a}; eval, its matrix boundary, reads the coordinates of elements
of the algebra given as matrices through the algebra's solver.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

from .linalg import PrecomputedSolver, multinomial
from .poly import Poly
from .scalars import Scalar, parse_int


class LieAlgebraError(ValueError):
    pass


class SelectorError(ValueError):
    """An invariant-polynomial selector that does not parse."""


# ---------------------------------------------------------------------------
# generic matrix helpers over duck-typed entries


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_trace(A):
    return sum(A[i][i] for i in range(len(A)))


# ---------------------------------------------------------------------------
# algebras


def _S(re=0, im=0):
    return Scalar.of(re, im)


def _zeros(n):
    return [[_S() for _ in range(n)] for _ in range(n)]


def _matrix(n, entries):
    """The n x n Scalar matrix with these (row, column) -> Scalar entries."""
    m = _zeros(n)
    for (r, c), v in entries.items():
        m[r][c] = v
    return m


def _basis_su2():
    # e_a = -(i/2) sigma_a;  [e1, e2] = e3 and cyclic
    h = Fraction(1, 2)
    e1 = [[_S(), _S(0, -h)], [_S(0, -h), _S()]]
    e2 = [[_S(), _S(-h)], [_S(h), _S()]]
    e3 = [[_S(0, -h), _S()], [_S(), _S(0, h)]]
    return [e1, e2, e3]


def _basis_so3():
    L1 = [[_S(), _S(), _S()], [_S(), _S(), _S(-1)], [_S(), _S(1), _S()]]
    L2 = [[_S(), _S(), _S(1)], [_S(), _S(), _S()], [_S(-1), _S(), _S()]]
    L3 = [[_S(), _S(-1), _S()], [_S(1), _S(), _S()], [_S(), _S(), _S()]]
    return [L1, L2, L3]


def _off_diagonal(n):
    """The off-diagonal block of the u(n) and su(n) bases: E_kl - E_lk
    and i(E_kl + E_lk) for each k < l."""
    out = []
    for k, l in itertools.combinations(range(n), 2):
        out.append(_matrix(n, {(k, l): _S(1), (l, k): _S(-1)}))
        out.append(_matrix(n, {(k, l): _S(0, 1), (l, k): _S(0, 1)}))
    return out


def _basis_un(n):
    return [_matrix(n, {(k, k): _S(0, 1)}) for k in range(n)] + _off_diagonal(n)


def _basis_sun(n):
    return [_matrix(n, {(k, k): _S(0, 1), (k + 1, k + 1): _S(0, -1)}) for k in range(n - 1)] + _off_diagonal(n)


class LieData:
    """A named matrix Lie algebra with exact basis and structure constants.

    structure[a][b] is the tuple of the nonzero (c, s) with
    [e_a, e_b] = sum s e_c, c increasing, for every ordered pair (a, b):
    antisymmetric, and empty on the diagonal.  solver is the one
    PrecomputedSolver over the flattened basis (a row per matrix entry,
    a column per basis element); coordinates, and so eval and the table,
    read through it.
    """

    def __init__(self, name, basis):
        self.name = name
        self.basis = basis
        self.dim = len(basis)
        self.n = len(basis[0])
        self.solver = PrecomputedSolver([[b[r][c] for b in basis] for r in range(self.n) for c in range(self.n)])
        # per flattened entry, the (row, entry) pairs of the solver's
        # transform that are nonzero in its column
        self._reads = [
            [(r, Scalar.coerce(row[j])) for r, row in enumerate(self.solver.trans) if row[j] != 0]
            for j in range(self.n * self.n)
        ]
        self._pivot_columns = dict(self.solver.pivots)
        self.structure = [[()] * self.dim for _ in range(self.dim)]
        for a, b in itertools.combinations(range(self.dim), 2):
            m = mat_sub(mat_mul(basis[a], basis[b]), mat_mul(basis[b], basis[a]))
            self.structure[a][b] = tuple(sorted(self.coordinates(m).items()))
            self.structure[b][a] = tuple((c, -s) for c, s in self.structure[a][b])
        self.is_abelian = not any(any(row) for row in self.structure)

    def coordinates(self, matrix):
        """The nonzero coordinates {a: x_a} of an n x n matrix in the basis.

        Each nonzero entry is multiplied into the rows of the solver's
        transform that meet it; a pivot row gives a coordinate, and a row
        beside a zero row of the basis must come to zero.  Entries are
        Polys or what Scalar.coerce takes, and any other entry raises
        TypeError.  The u(n) bases span gl(n, C); a matrix outside the
        complex span of the basis (the identity on su(n), a symmetric
        matrix on so3) raises LieAlgebraError.
        """
        rows = {}
        for j, v in enumerate(v for row in matrix for v in row):
            if not isinstance(v, Poly):
                v = Scalar.coerce(v)
            if not v.is_zero():
                for r, t in self._reads[j]:
                    term = v * t
                    rows[r] = rows[r] + term if r in rows else term
        out = {}
        for r, v in rows.items():
            c = self._pivot_columns.get(r)
            if c is None:
                if not v.is_zero():
                    raise LieAlgebraError("matrix not in the span of the basis")
            elif not v.is_zero():
                out[c] = v
        return out

    def __repr__(self):
        return f"LieData({self.name})"


# the supported algebras, by their one spelling each
_BASES = {
    "su2": _basis_su2,
    "so3": _basis_so3,
    **{f"su{n}": functools.partial(_basis_sun, n) for n in (3, 4)},
    **{f"u{n}": functools.partial(_basis_un, n) for n in (1, 2, 3, 4)},
}


@functools.cache
def lie_algebra(name):
    """Look up (and cache) one of the supported algebras by name."""
    if name not in _BASES:
        raise LieAlgebraError(f"unsupported algebra {name!r}")
    return LieData(name, _BASES[name]())


# ---------------------------------------------------------------------------
# invariant polynomials


class InvariantPolynomial:
    """Symmetric multilinear Ad-invariant functional on the algebra, held
    as its diagonal rho(x, .., x): a Poly in the algebra.dim basis
    coordinates x, each term of degree arity (a zero diagonal keeps its
    arity).  A diagonal of another dimension or degree raises
    LieAlgebraError.

    contract takes arity-many coordinate dicts {a: x_a} (values Scalars
    or Polys) and returns rho(sum_a x_a e_a, ..).  eval takes elements of
    the algebra, each an n x n matrix given as a list of rows of exact
    entries, read by algebra.coordinates.  Any other argument raises
    ValueError naming its slot, an entry that is not exact raises
    TypeError, and a matrix outside the algebra raises LieAlgebraError.
    """

    def __init__(self, algebra, arity, diagonal, provenance):
        if diagonal.dim != algebra.dim or any(sum(e) != arity for e in diagonal.terms):
            raise LieAlgebraError(f"{provenance}: not a homogeneous polynomial of degree {arity} on {algebra.name}")
        self.algebra = algebra
        self.arity = arity
        self.diagonal = diagonal
        self.provenance = provenance
        self._tensor = None

    def eval(self, args):
        """rho(args): contract on the coordinates of each argument, read
        by algebra.coordinates, from the entries' zero."""
        if len(args) != self.arity:
            raise ValueError(f"{self.provenance} has arity {self.arity}, got {len(args)}")
        n = self.algebra.n
        for i, a in enumerate(args):
            try:
                square = len(a) == n and all(len(row) == n for row in a)
            except TypeError:
                square = False
            if not square:
                raise ValueError(f"{self.provenance}: slot {i} is not a {n} x {n} matrix")
        return self.contract([self.algebra.coordinates(a) for a in args], args[0][0][0] * 0)

    def contract(self, coords, zero):
        """rho on arity-many coordinate dicts {a: x_a}: the tensor
        contracted entry by entry over each entry's distinct orderings,
        summed from zero, the values' ring's zero."""
        total = zero
        for coef, orderings in self._contraction:
            part = None
            for idx in orderings:
                term = None
                for x, i in zip(coords, idx):
                    v = x.get(i)
                    if v is None:
                        break
                    term = v if term is None else term * v
                else:
                    part = term if part is None else part + term
            if part is not None:
                total = total + part * coef
        return total

    def tensor(self):
        """The symmetric coefficient tensor, as an element of Sym^k(g*).

        A dict from each sorted basis index tuple a1 <= .. <= ak to
        multinomial(a) * rho(e_a1, .., e_ak), an exact Scalar, so that
        rho(x, .., x) = sum_a T[a] x^a1 .. x^ak: the diagonal's term with
        exponent e is keyed by the tuple with e_i copies of i.  Zero
        entries are left out, and the keys are sorted.  Built once.
        """
        if self._tensor is None:
            self._tensor = dict(
                sorted((sum(((i,) * m for i, m in enumerate(e)), ()), c) for e, c in self.diagonal.terms.items())
            )
        return self._tensor

    @functools.cached_property
    def _contraction(self):
        """(T[a] / multinomial(a), the distinct orderings of a) per tensor
        entry a: the full symmetric tensor, entry by entry."""
        return [
            (c * Fraction(1, multinomial(Counter(a).values())), sorted(set(itertools.permutations(a))))
            for a, c in self.tensor().items()
        ]


@functools.cache
def _power_sums(algebra, k):
    """[p_1, .., p_k], p_j = tr(M(x)^j) for the generic element
    M(x) = sum_a x_a e_a, an n x n matrix of Polys in the algebra.dim
    coordinates x; the powers are built bottom-up, each from the last."""
    units = [tuple(int(i == a) for i in range(algebra.dim)) for a in range(algebra.dim)]
    n = range(algebra.n)
    powers = [[[Poly(algebra.dim, {u: b[r][c] for u, b in zip(units, algebra.basis)}) for c in n] for r in n]]
    while len(powers) < k:
        powers.append(mat_mul(powers[-1], powers[0]))
    return [mat_trace(m) for m in powers]


def _symmetric(algebra, k, sign):
    """The degree-k symmetric function of the eigenvalues of M(x), from
    the power sums p_i = tr(M(x)^i) by Newton's identities: e_k for
    sign -1, with j e_j = sum_i (-1)^(i-1) e_(j-i) p_i, and h_k for
    sign 1, with j h_j = sum_i h_(j-i) p_i."""
    p = _power_sums(algebra, k)
    out = [Poly.const(algebra.dim, 1)]
    for j in range(1, k + 1):
        s = Poly.zero(algebra.dim)
        for i in range(1, j + 1):
            s = s + (out[j - i] * p[i - 1]).scale(sign ** (i - 1))
        out.append(s.scale(Fraction(1, j)))
    return out[k]


def sym_trace_poly(algebra, k):
    """(x_1,..,x_k) -> (1/k!) sum_pi tr(x_{pi(1)} ... x_{pi(k)}), whose
    diagonal is the power sum tr(x^k)."""
    if k < 1:
        raise ValueError("sym_trace arity must be >= 1")
    return InvariantPolynomial(algebra, k, _power_sums(algebra, k)[-1], f"symtrace:{k}")


def chern_polynomial(algebra, k):
    """Polarized degree-k Chern polynomial on u(n)/su(n).

    Its diagonal is the k'th coefficient of det(I + t X / (i tau)),
    e_k(X) / (i tau)^k.  The i/(2 pi) normalization is carried by the
    tau symbol, so on u1 the element i*a*tau maps to a.
    """
    if not (algebra.name.startswith("u") or algebra.name.startswith("su")):
        raise LieAlgebraError(f"chern polynomial undefined for {algebra.name}")
    diagonal = _symmetric(algebra, k, -1).scale(Scalar.one() / Scalar.of(0, 1, 1) ** k)
    return InvariantPolynomial(algebra, k, diagonal, f"chern:{k}")


def polarize(algebra, p, k):
    """The symmetric multilinear rho with rho(x, .., x) = p(x).

    p is called once, on the coordinates of x as Polys (Poly.var), and
    returns a Poly.  A term of p(x) of degree other than k raises
    LieAlgebraError, so homogeneity is decided exactly.
    """
    x = [Poly.var(algebra.dim, a) for a in range(algebra.dim)]
    return InvariantPolynomial(algebra, k, p(x), f"polarized:{k}")


def reznikov_pullback(algebra, k):
    """Reznikov's integrated-Hamiltonian functional on su(n), exactly:

        (X_1,..,X_k) -> int_{CP^(n-1)} H_1 ... H_k  w,

    H_X([z]) = 2i z*Xz for |z| = 1, and w the Fubini-Study volume of
    mass 1.  Its diagonal is (2i)^k k! (n-1)! / (k+n-1)! h_k (see the
    module docstring).  On su2 the Hopf map sends H_X to the height
    along the rotation axis of X on S^2.
    """
    if k < 1:
        raise ValueError("reznikov arity must be >= 1")
    if not algebra.name.startswith("su"):
        raise LieAlgebraError(f"reznikov is defined on su(n), not on {algebra.name}")
    n = algebra.n
    c = Scalar.of(0, 2) ** k * Fraction(factorial(k) * factorial(n - 1), factorial(k + n - 1))
    return InvariantPolynomial(algebra, k, _symmetric(algebra, k, 1).scale(c), f"reznikov:{k}")


@functools.cache
def invariant_polynomial_from_selector(algebra, selector):
    """Parse selectors like chern:2, symtrace:3, reznikov:2.

    A selector that does not parse, whose degree is below 1, that has a
    part after the degree, or that names a polynomial the algebra does
    not carry (chern off u(n)/su(n), reznikov off su(n)) raises
    SelectorError.  Each (algebra, selector) builds its polynomial, and
    so its coefficient tensor, once per process, as lie_algebra builds
    each algebra once; a selector that raises is not cached.
    """
    kind, _, rest = selector.partition(":")
    if kind not in ("chern", "symtrace", "reznikov"):
        raise SelectorError(f"unknown invariant polynomial selector {selector!r}")
    degree, extra, _ = rest.partition(":")
    if extra:
        raise SelectorError(f"selector {selector!r} takes nothing after the degree")
    k = _selector_int(selector, degree)
    if k < 1:
        raise SelectorError(f"selector {selector!r} needs a degree >= 1")
    if kind == "symtrace":
        return sym_trace_poly(algebra, k)
    try:
        return chern_polynomial(algebra, k) if kind == "chern" else reznikov_pullback(algebra, k)
    except LieAlgebraError as e:
        raise SelectorError(str(e)) from None


def _selector_int(selector, text):
    try:
        return parse_int(text)
    except ValueError:
        raise SelectorError(f"selector {selector!r} needs an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# exact validity check


def check_invariant_polynomial(rho, rng):
    """Exact Ad-invariance, symmetry and multilinearity of rho.

    Ad-invariance of the coefficient tensor: sum_s S(.., [e_x, e_as], ..)
    is zero for every basis element e_x and index tuple a, where S is the
    full symmetric tensor, S(a) = T[a] / multinomial(a) on sorted a.  For
    the connected groups here that is invariance under the group.  Then
    rho.contract on three draws of random rational coordinate dicts, in
    every slot order, must equal the contraction of S, which holds only
    for a symmetric multilinear rho.  No matrix is built.  Returns None
    when rho passes, else the first failure as text.
    """
    alg, k = rho.algebra, rho.arity
    S = {a: c * Fraction(1, multinomial(Counter(a).values())) for a, c in rho.tensor().items()}
    zero = Scalar.zero()
    for x in range(alg.dim):
        for a in itertools.combinations_with_replacement(range(alg.dim), k):
            total = zero
            for s in range(k):
                for c, coef in alg.structure[x][a[s]]:
                    total = total + coef * S.get(tuple(sorted(a[:s] + (c,) + a[s + 1:])), zero)
            if not total.is_zero():
                return f"tensor not ad-invariant under e{x}: defect {total!r} at {a}"
    for _ in range(3):
        args = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(alg.dim)] for _ in range(k)]
        want = zero
        for idx in itertools.product(range(alg.dim), repeat=k):
            term = S.get(tuple(sorted(idx)), zero)
            for j, i in enumerate(idx):
                term = term * args[j][i]
            want = want + term
        coords = [{i: Scalar.coerce(v) for i, v in enumerate(arg) if v} for arg in args]
        for perm in itertools.permutations(range(k)):
            got = rho.contract([coords[i] for i in perm], zero)
            if got != want:
                return f"contraction in slot order {perm} is {got!r}, the tensor gives {want!r}"
    return None

"""Small matrix Lie algebras and Ad-invariant polynomials.

Supported algebras: u1, su2, so3, and un / sun for n <= 4.  Basis
matrices have Gaussian-rational entries, so the structure constants and
invariant polynomial evaluations are exact whenever the inputs are.  The
su2 basis is the halved-Pauli one, e_a = -(i/2) sigma_a, normalized so
that [e1, e2] = e3.  A constant element of an algebra is its list of
coordinates in the basis (LieData.decompose and element_matrix convert);
brackets of g-valued data, constants included, are taken on
bundles.LieValuedForm.

Invariant polynomials are symmetric multilinear functionals evaluated
on matrices; the evaluators are written against generic ring entries so
the same code runs on exact Scalars, floats, and polynomial-valued
matrices.  They are symmetrized traces, Chern polynomials, polarized
polynomials, and the Reznikov functionals on su(n), n <= 4, which
integrate products of Hamiltonians over CP^(n-1) through the exact
moments of the unit sphere of C^n.  The Chern-Weil form is assembled
from the exact coefficient tensor (InvariantPolynomial.tensor), which
evaluates once on the basis.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .linalg import PrecomputedSolver, multinomial, sort_sign
from .scalars import TAU, Scalar, parse_int


class LieAlgebraError(ValueError):
    pass


class SelectorError(ValueError):
    """An invariant-polynomial selector that does not parse."""


# ---------------------------------------------------------------------------
# generic matrix helpers over duck-typed entries


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = []
    for r in range(n):
        row = []
        for c in range(p):
            s = A[r][0] * B[0][c]
            for k in range(1, m):
                s = s + A[r][k] * B[k][c]
            row.append(s)
        out.append(row)
    return out


def trace_mul(A, B):
    """tr(A B) = sum_{r,c} A[r][c] B[c][r], without forming A B."""
    n = len(A)
    s = A[0][0] * B[0][0]
    for r in range(n):
        for c in range(n):
            if r or c:
                s = s + A[r][c] * B[c][r]
    return s


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_trace(A):
    s = A[0][0]
    for i in range(1, len(A)):
        s = s + A[i][i]
    return s


def scale_value(v, c):
    """Multiply a duck-typed ring element by an exact rational or Scalar."""
    if isinstance(v, (complex, float, int)):
        return v * (c.to_complex() if isinstance(c, Scalar) else c.numerator / c.denominator)
    return v * c


def _det(A):
    n = len(A)
    total = None
    for perm in itertools.permutations(range(n)):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        term = scale_value(term, Fraction(sort_sign(perm)[1]))
        total = term if total is None else total + term
    return total


def elementary_invariant(A, k):
    """Sum of the principal k x k minors (the degree-k coefficient of
    the characteristic polynomial det(I + tA)); the ring's zero for k > n."""
    n = len(A)
    if k > n:
        return A[0][0] * 0
    total = None
    for rows in itertools.combinations(range(n), k):
        minor = [[A[r][c] for c in rows] for r in rows]
        d = _det(minor)
        total = d if total is None else total + d
    return total


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
    a column per basis element); decompose and the table read through it.
    An element is a coordinate list: decompose maps a matrix to it, and
    element_matrix (element_matrix_float) maps it back.
    """

    def __init__(self, name, basis):
        self.name = name
        self.basis = basis
        self.dim = len(basis)
        self.n = len(basis[0])
        self.solver = PrecomputedSolver([[b[r][c] for b in basis] for r in range(self.n) for c in range(self.n)])
        self.structure = [[()] * self.dim for _ in range(self.dim)]
        for a, b in itertools.combinations(range(self.dim), 2):
            m = mat_sub(mat_mul(basis[a], basis[b]), mat_mul(basis[b], basis[a]))
            self.structure[a][b] = tuple((c, s) for c, s in enumerate(self.decompose(m)) if not s.is_zero())
            self.structure[b][a] = tuple((c, -s) for c, s in self.structure[a][b])
        self.is_abelian = not any(any(row) for row in self.structure)

    def decompose(self, matrix):
        """Exact coordinates of an n x n Scalar matrix in the basis, a list
        of dim Scalars, read through the solver built once over the
        flattened basis.

        Entries may be any Scalars (tau-Laurent Gaussian rationals).  The
        u(n) bases span gl(n, C), so every such matrix decomposes there;
        a matrix outside the complex span (the identity on su(n), a
        symmetric matrix on so3) raises LieAlgebraError.
        """
        status, coords = self.solver.solve([v for row in matrix for v in row])
        if status == "certificate":
            raise LieAlgebraError("matrix not in the span of the basis")
        return coords

    @functools.cached_property
    def basis_float(self):
        """The basis as complex numpy matrices, built on first float use."""
        import numpy as np

        return [np.array([[v.to_complex() for v in row] for row in b]) for b in self.basis]

    def decompose_float(self, matrix):
        import numpy as np

        B = np.array([bf.flatten() for bf in self.basis_float]).T
        coords, *_ = np.linalg.lstsq(B, np.asarray(matrix, dtype=complex).flatten(), rcond=None)
        return coords

    def element_matrix(self, coords):
        """The Scalar matrix sum_a coords[a] e_a; coordinates may be any
        exact numbers or Scalars."""
        out = _zeros(self.n)
        for c, b in zip(coords, self.basis):
            c = Scalar.coerce(c)
            if not c.is_zero():
                for r, row in enumerate(b):
                    for s, x in enumerate(row):
                        if x.terms:
                            out[r][s] = out[r][s] + x * c
        return out

    def element_matrix_float(self, coords):
        import numpy as np

        m = np.zeros((self.n, self.n), dtype=complex)
        for c, b in zip(coords, self.basis_float):
            m = m + complex(c) * b
        return m

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
    """Symmetric multilinear Ad-invariant functional on the algebra.

    eval takes arity-many arguments, each an n x n matrix given as a
    list of rows (entries may be Scalars, numbers, or polynomial ring
    elements; an ndarray goes in as M.tolist(), and a coordinate list
    as algebra.element_matrix(coords)).  Any other argument raises
    ValueError naming its slot.  The evaluator returns a single ring
    element.
    """

    def __init__(self, algebra, arity, evaluator, provenance):
        self.algebra = algebra
        self.arity = arity
        self._evaluator = evaluator
        self.provenance = provenance
        self._tensor = None

    def eval(self, args):
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
        return self._evaluator(args)

    def eval_diag(self, x):
        return self.eval([x] * self.arity)

    def tensor(self):
        """The symmetric coefficient tensor, as an element of Sym^k(g*).

        A dict from each sorted basis index tuple a1 <= .. <= ak to
        multinomial(a) * rho(e_a1, .., e_ak), an exact Scalar, so that
        rho(x, .., x) = sum_a T[a] x^a1 .. x^ak; zero entries are left
        out.  Built once from the evaluator on the basis matrices.
        """
        if self._tensor is None:
            basis = self.algebra.basis
            out = {}
            for a in itertools.combinations_with_replacement(range(self.algebra.dim), self.arity):
                val = Scalar.coerce(self.eval([basis[i] for i in a]))
                if not val.is_zero():
                    out[a] = val * multinomial(Counter(a).values())
            self._tensor = out
        return self._tensor


def sym_trace_poly(algebra, k):
    """(x_1,..,x_k) -> (1/k!) sum_pi tr(x_{pi(1)} ... x_{pi(k)}).

    The trace is cyclic when the matrix entries commute (Scalars, Polys,
    numbers), so the k rotations of an ordering share one trace: the
    evaluator sums the (k-1)! orderings that start with x_1, scaled by
    1/(k-1)!, and takes each last trace by trace_mul.
    """
    if k < 1:
        raise ValueError("sym_trace arity must be >= 1")

    def evaluator(mats):
        if k == 1:
            return mat_trace(mats[0])
        total = None
        for perm in itertools.permutations(range(1, k)):
            prod = mats[0]
            for i in perm[:-1]:
                prod = mat_mul(prod, mats[i])
            t = trace_mul(prod, mats[perm[-1]])
            total = t if total is None else total + t
        return scale_value(total, Fraction(1, factorial(k - 1)))

    return InvariantPolynomial(algebra, k, evaluator, f"symtrace:{k}")


def _scale_by_inv_itau(v):
    if isinstance(v, (complex, float, int)):
        return v / (1j * TAU)
    # Scalar and Poly both divide exactly by the monomial i*tau
    return v * (Scalar.one() / Scalar.of(0, 1, 1))


def _polarized(p, args, add):
    """(1/k!) sum over nonempty S of (-1)^(k - |S|) p(sum of args in S),
    k = len(args), sums taken with add: the symmetric multilinear form
    whose diagonal is the degree-k homogeneous p."""
    k = len(args)
    total = None
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            x = args[subset[0]]
            for i in subset[1:]:
                x = add(x, args[i])
            term = scale_value(p(x), Fraction((-1) ** (k - size)))
            total = term if total is None else total + term
    return scale_value(total, Fraction(1, factorial(k)))


def chern_polynomial(algebra, k):
    """Polarized degree-k Chern polynomial on u(n)/su(n).

    Defined through det(I + t X / (i tau)): the k'th coefficient is
    polarized into a symmetric multilinear functional.  The i/(2 pi)
    normalization is carried by the tau symbol, so on u1 the element
    i*a*tau maps to a.
    """
    if not (algebra.name.startswith("u") or algebra.name.startswith("su")):
        raise LieAlgebraError(f"chern polynomial undefined for {algebra.name}")

    def evaluator(mats):
        scaled = [[[_scale_by_inv_itau(v) for v in row] for row in m] for m in mats]
        return _polarized(lambda m: elementary_invariant(m, k), scaled, mat_add)

    return InvariantPolynomial(algebra, k, evaluator, f"chern:{k}")


def polarize(algebra, p, k):
    """Polarize a homogeneous degree-k polynomial on the algebra.

    p is a callable on coordinate vectors (exact Fractions supported).
    Returns the symmetric multilinear rho with rho(x,..,x) = p(x).
    Raises if p fails exact homogeneity probes.
    """
    probes = [
        [Fraction(1, 2)] * algebra.dim,
        [Fraction(2 * i + 1, 3) for i in range(algebra.dim)],
        [Fraction((-1) ** i * (i + 2), 5) for i in range(algebra.dim)],
    ]
    for coords in probes:
        for t in (2, 3):
            lhs = p([t * c for c in coords])
            rhs = (Fraction(t) ** k) * p(coords)
            if lhs != rhs:
                raise LieAlgebraError(f"polynomial is not homogeneous of degree {k}")

    def evaluator(mats):
        coord_vectors = [algebra.decompose(m) for m in mats]
        return _polarized(p, coord_vectors, lambda v, w: [a + b for a, b in zip(v, w)])

    return InvariantPolynomial(algebra, k, evaluator, f"polarized:{k}")


def monomial_moment(alpha):
    """E[|z^alpha|^2] for z uniform on the unit sphere of C^n, n = len(alpha).

    alpha! (n-1)! / (n-1+|alpha|)! (Rudin, "Function Theory in the Unit
    Ball of C^n", Prop. 1.4.9).
    """
    n = len(alpha)
    return Fraction(prod(map(factorial, alpha)) * factorial(n - 1), factorial(n - 1 + sum(alpha)))


@functools.cache
def _hamiltonian_moments(n, k):
    """(2i)^k monomial_moment(alpha) for each alpha in N^n with |alpha| = k,
    keyed by the code sum_i alpha_i (k+1)^i."""
    base, i2k = k + 1, Scalar.of(0, 2) ** k
    out = {}
    for a in itertools.combinations_with_replacement(range(n), k):
        alpha = [a.count(i) for i in range(n)]
        out[sum(c * base**i for i, c in enumerate(alpha))] = i2k * monomial_moment(alpha)
    return out


def reznikov_pullback(algebra, k):
    """Reznikov's integrated-Hamiltonian functional on su(n), exactly.

    X in su(n) generates a Hamiltonian flow on CP^(n-1) with mean-zero
    Hamiltonian H_X([z]) = 2i z*Xz, |z| = 1.  The functional is

        (X_1,..,X_k) -> int_{CP^(n-1)} H_1 ... H_k  w

    with the Fubini-Study volume w normalized to mass 1, the pushforward
    of the uniform measure on the unit sphere of C^n.  Expanding the
    product, it is the sum over row and column tuples r, c in [n]^k of
    prod_j 2i X_j[r_j][c_j] E[zbar^count(r) z^count(c)], and the
    expectation vanishes unless count(r) == count(c).  The sum is
    contracted slot by slot over the nonzero entries only, keyed by the
    codes of the row and column counts so far, so any ring entries
    work.  On su2 the Hopf map sends H_X to the height along the
    rotation axis of X on S^2.
    """
    if k < 1:
        raise ValueError("reznikov arity must be >= 1")
    if not algebra.name.startswith("su"):
        raise LieAlgebraError(f"reznikov is defined on su(n), not on {algebra.name}")
    n, base = algebra.n, k + 1
    moments = _hamiltonian_moments(n, k)

    def evaluator(mats):
        states = {(0, 0): 1}
        for mat in mats:
            entries = [
                (base**r, base**c, v)
                for r, row in enumerate(mat)
                for c, v in enumerate(row)
                if not (v == 0 if isinstance(v, (complex, float, int)) else v.is_zero())
            ]
            nxt = {}
            for (rs, cs), acc in states.items():
                for dr, dc, v in entries:
                    key = (rs + dr, cs + dc)
                    term = acc * v
                    nxt[key] = nxt[key] + term if key in nxt else term
            states = nxt
        total = mats[0][0][0] * 0
        for (rs, cs), acc in states.items():
            if rs == cs:
                total = total + scale_value(acc, moments[rs])
        return total

    return InvariantPolynomial(algebra, k, evaluator, f"reznikov:{k}")


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
    full symmetric tensor.  For the connected groups here that is
    invariance under the group.  Then rho.eval on three draws of random
    rational arguments, in every slot order, must equal the contraction of S,
    which holds only for a symmetric multilinear evaluator.  Returns
    None when rho passes, else the first failure as text.
    """
    alg, k = rho.algebra, rho.arity
    T = rho.tensor()

    def S(idx):
        a = tuple(sorted(idx))
        return T[a] * Fraction(1, multinomial(Counter(a).values())) if a in T else Scalar.zero()

    for x in range(alg.dim):
        for a in itertools.combinations_with_replacement(range(alg.dim), k):
            total = Scalar.zero()
            for s in range(k):
                for c, coef in alg.structure[x][a[s]]:
                    total = total + coef * S(a[:s] + (c,) + a[s + 1:])
            if not total.is_zero():
                return f"tensor not ad-invariant under e{x}: defect {total!r} at {a}"
    for _ in range(3):
        args = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(alg.dim)] for _ in range(k)]
        want = Scalar.zero()
        for idx in itertools.product(range(alg.dim), repeat=k):
            term = S(idx)
            for j, i in enumerate(idx):
                term = term * args[j][i]
            want = want + term
        for perm in itertools.permutations(range(k)):
            got = rho.eval([alg.element_matrix(args[i]) for i in perm])
            if got != want:
                return f"eval in slot order {perm} is {got!r}, the tensor gives {want!r}"
    return None

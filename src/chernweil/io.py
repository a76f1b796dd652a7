"""Line-oriented text formats with bit-exact round trips.

Serialized scalars are sums of tau-monomials with Gaussian-rational
coefficients; polynomials list terms in graded-lexicographic order, so
serialization doubles as a canonical form (string equality iff value
equality).  The writers alone decide that spelling: each reader parses
the structure of a token, builds its value, and accepts the token only
when the writer writes that value back as the same text; any other text
is a ParseError.  Numerals are read by int() alone (never Fraction(),
nor any reader of decimal points or exponents), so every reader is
linear in its text and no value outgrows it; what int() reads but str()
does not write, such as '+1', '1_0' or non-ASCII digits, fails the
write-back.
"""

from __future__ import annotations

import re
from math import gcd

from .bundles import BundleData, BundleError, Cayley, Connection, LieValuedForm, TransitionMap
from .forms import PolyForm
from .poly import Poly, _monomial_key
from .scalars import Scalar
from .simplicial import SimplexId, SimplicialSet


class ParseError(ValueError):
    pass


# an index or size numeral: ASCII digits (not \d, which also matches
# non-ASCII digits), read back by _size
_N = r"([0-9]+)"


def _lines(text):
    """The lines of text, laid out as the writers lay them out: each
    ends in a newline, and none is blank or starts or ends with a space.
    Any other layout is a ParseError naming the line."""
    lines = text.split("\n")
    if lines.pop():
        raise ParseError(f"line {len(lines) + 1}: no newline at the end")
    for n, line in enumerate(lines, 1):
        if not line:
            raise ParseError(f"line {n}: blank line")
        if line.strip() != line:
            raise ParseError(f"line {n}: space at the start or end of {line!r}")
    return lines


def _size(text):
    """The nonnegative int that str(int) writes as text; any other text,
    such as a leading zero or more than the 4300 digits int() reads, is
    a ParseError."""
    try:
        n = int(text)
        if n >= 0 and str(n) == text:
            return n
    except ValueError:
        pass
    raise ParseError(f"bad numeral {text[:20]!r}")


# ---------------------------------------------------------------------------
# scalars


def _rat_str(n, d):
    """n/d in lowest terms, without '/1'."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return f"{n}/{d}" if d != 1 else str(n)


def _coeff_str(c):
    a, b, d = c
    if not b:
        return _rat_str(a, d)
    if not a:
        return _rat_str(b, d) + "i"
    sign = "+" if b > 0 else ""
    return f"({_rat_str(a, d)}{sign}{_rat_str(b, d)}i)"


def scalar_to_str(s):
    if not s.terms:
        return "0"
    bits = []
    for k, c in sorted(s.terms.items()):
        atom = _coeff_str(c)
        if k != 0:
            atom += f"*tau^{k}"
        bits.append(atom)
    return " + ".join(bits)


def _read_rat(text):
    """(n, d) for a numeral n or n/d."""
    n, slash, d = text.partition("/")
    return int(n), (int(d) if slash else 1)


def _read_atom(atom):
    """(tau power, triple) for one atom of scalar_to_str: a real part, an
    imaginary part 'bi' or both '(a+bi)', then '*tau^k' unless k == 0."""
    coeff, star, k = atom.partition("*tau^")
    k = int(k) if star else 0
    if coeff[:1] == "(":
        # the imaginary part starts at the last sign
        j = max(coeff.rfind("+"), coeff.rfind("-"))
        (a, q1), (b, q2) = _read_rat(coeff[1:j]), _read_rat(coeff[j:].removeprefix("+").removesuffix("i)"))
    elif coeff[-1:] == "i":
        (a, q1), (b, q2) = (0, 1), _read_rat(coeff[:-1])
    else:
        (a, q1), (b, q2) = _read_rat(coeff), (0, 1)
    return k, (a * q2, b * q1, q1 * q2)


def _read_scalar(text):
    """The scalar of scalar_to_str's text, not written back; text without
    its structure raises ValueError or ZeroDivisionError."""
    return Scalar(dict(_read_atom(atom) for atom in text.split(" + ")))


def parse_scalar(text):
    """Read a scalar written by scalar_to_str; any other text, such as
    unreduced or zero parts, a repeated or unsorted tau power, or
    '*tau^0', raises ParseError."""
    try:
        s = _read_scalar(text)
        if scalar_to_str(s) == text:
            return s
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad scalar {text!r}")


# ---------------------------------------------------------------------------
# polynomials


def poly_to_str(p):
    return _terms_to_str(p.sorted_terms())


def _terms_to_str(terms):
    """poly_to_str's text of the (exponent, nonzero Scalar) pairs, in their order."""
    if not terms:
        return "0"
    bits = []
    for e, c in terms:
        cs = scalar_to_str(c)
        if " + " in cs:
            cs = "{" + cs + "}"
        mono = "*".join(
            f"x{i+1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
        )
        bits.append(cs + ("*" + mono if mono else ""))
    return " + ".join(bits)


def _read_poly(text, dim):
    """The polynomial on Delta^dim of poly_to_str's text, not written
    back, and its parsed (exponent, Scalar) pairs in text order; text
    without its structure raises ParseError."""
    try:
        terms, parts = [], []
        for bit in text.split(" + "):
            parts.append(bit)
            if parts[0][:1] == "{" and "}" not in bit:
                continue  # inside a braced coefficient
            # scalar text holds no 'x', so the coefficient ends at the first '*x'
            cs, x, mono = " + ".join(parts).partition("*x")
            parts = []
            e = [0] * dim
            for v in mono.split("*x") if x else ():
                i, caret, k = v.partition("^")
                i = int(i) - 1
                if not 0 <= i < dim:
                    raise ValueError("variable out of range")
                e[i] = int(k) if caret else 1
            terms.append((tuple(e), _read_scalar(cs.removeprefix("{").removesuffix("}"))))
        return Poly(dim, dict(terms)), terms
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad polynomial {text!r}") from None


def parse_poly(text, dim):
    """Read a polynomial on Delta^dim written by poly_to_str; any other
    text, such as a missing or zero coefficient, braces around a
    one-term coefficient, unsorted or repeated variables or terms, or
    '^1', raises ParseError.  Nonzero, distinct and sorted, the parsed
    pairs are the Poly's sorted terms, and the write-back check reads them."""
    p, terms = _read_poly(text, dim)
    nonzero = [(e, c) for e, c in terms if c.terms]
    keys = [_monomial_key(e) for e, _ in nonzero]
    if _terms_to_str(nonzero) != text or keys != sorted(set(keys)):
        raise ParseError(f"bad polynomial {text!r}")
    return p


# ---------------------------------------------------------------------------
# forms


def _comp_str(I):
    return ",".join(str(i + 1) for i in I) if I else "-"


def _parse_comp(text):
    try:
        I = tuple(int(t) - 1 for t in text.split(",")) if text != "-" else ()
        if _comp_str(I) == text:
            return I
    except ValueError:
        pass
    raise ParseError(f"bad component {text!r}")


def polyform_to_str(f):
    lines = [f"form v1; dim {f.dim}; deg {f.deg}"]
    for I in sorted(f.comps):
        lines.append(f"comp {_comp_str(I)}: {poly_to_str(f.comps[I])}")
    return "\n".join(lines) + "\n"


def parse_polyform(text):
    """Read a form written by polyform_to_str; a missing header, or a
    component that is zero, given twice or out of range for the header's
    dim and deg, raises ParseError."""
    lines = _lines(text)
    m = re.fullmatch(rf"form v1; dim {_N}; deg {_N}", lines[0]) if lines else None
    if not m:
        raise ParseError("bad form header")
    dim, deg = _size(m.group(1)), _size(m.group(2))
    comps = {}
    for line in lines[1:]:
        if not line.startswith("comp "):
            raise ParseError(f"bad form line {line!r}")
        head, _, body = line[5:].partition(": ")
        I = _parse_comp(head)
        if I in comps:
            raise ParseError(f"component {head} given twice")
        comps[I] = parse_poly(body, dim)
        if comps[I].is_zero():
            raise ParseError(f"zero component in {line!r}")
    try:
        return PolyForm(dim, deg, comps)
    except ValueError as e:
        raise ParseError(str(e)) from None


# ---------------------------------------------------------------------------
# simplicial sets


def simplicial_set_to_str(X):
    lines = ["simplicial-set v1"]
    for d, c in enumerate(X.counts):
        lines.append(f"dim {d}: {c}")
    for (sid, i), (tgt, word) in X.faces.items():
        w = "".join(f" s{j}" for j in word)
        lines.append(f"face {sid.dim}.{sid.index} {i} -> {tgt.dim}.{tgt.index}{w}")
    for sid in X.all_cells():
        if sid in X.names:
            lines.append(f"name {sid.dim}.{sid.index} {X.names[sid]}")
    return "\n".join(lines) + "\n"


_FACE_RE = re.compile(rf"face {_N}\.{_N} {_N} -> {_N}\.{_N}((?: s{_N})*)")
_NAME_RE = re.compile(rf"name {_N}\.{_N} (.+)")
_DIM_RE = re.compile(rf"dim {_N}: {_N}")


def parse_simplicial_set(text):
    """Read a simplicial set.  The reader checks syntax only: a line
    simplicial_set_to_str does not write, a dim line out of order or
    after a face or name line, a last dim line whose count is 0, or a
    face or name line given twice is a parse error.  Every rule of the
    face table is SimplicialSet.validate's, and a space it finds
    violations in is a parse error too."""
    lines = _lines(text)
    if not lines or lines[0] != "simplicial-set v1":
        raise ParseError("missing simplicial-set header")
    counts, faces, names = [], {}, {}
    for line in lines[1:]:
        if m := _FACE_RE.fullmatch(line):
            key = (SimplexId(_size(m[1]), _size(m[2])), _size(m[3]))
            if key in faces:
                raise ParseError(f"face {key[0]} {key[1]} given twice")
            faces[key] = (SimplexId(_size(m[4]), _size(m[5])), tuple(_size(w[1:]) for w in m[6].split()))
        elif m := _NAME_RE.fullmatch(line):
            sid = SimplexId(_size(m[1]), _size(m[2]))
            if sid in names:
                raise ParseError(f"name of {sid} given twice")
            names[sid] = m[3]
        elif m := _DIM_RE.fullmatch(line):
            if _size(m[1]) != len(counts) or faces or names:
                raise ParseError(f"dim line {line!r} out of order")
            counts.append(_size(m[2]))
        else:
            raise ParseError(f"bad line {line!r}")
    if counts and not counts[-1]:
        # SimplicialSet drops trailing zero counts, so no writer writes them
        raise ParseError(f"last dim line 'dim {len(counts) - 1}: 0' has a count of 0")
    X = SimplicialSet(counts, faces, names)
    bad = X.validate()
    if bad:
        # the first violation and a count: a large broken file can have millions
        raise ParseError(bad[0] + (f" (and {len(bad) - 1} more violations)" if len(bad) > 1 else ""))
    return X


# ---------------------------------------------------------------------------
# bundles and connections


def _is_real(p):
    """Whether no coefficient of the polynomial p has an imaginary part."""
    return not any(im for _, im in p.parts)


def _lie_index(text, algebra):
    """A Lie coordinate index, which must be below the algebra's dimension."""
    a = _size(text)
    if a >= algebra.dim:
        raise ParseError(f"Lie coordinate {text!r} out of range for {algebra.name} (dimension {algebra.dim})")
    return a


def _header(lines, kind):
    """The group algebra named on the first line, `<kind> v1; group <name>`."""
    from .liealg import LieAlgebraError, lie_algebra

    m = re.fullmatch(rf"{kind} v1; group (\w+)", lines[0]) if lines else None
    if not m:
        raise ParseError(f"missing {kind} header")
    try:
        return lie_algebra(m.group(1))
    except LieAlgebraError as e:
        raise ParseError(str(e)) from None


def _factor_str(p):
    """exp([a: coordinate; ...]) for exp(p), or cay([a: coordinate; ...])
    for a Cayley factor, over the nonzero coordinates."""
    if type(p) is Cayley:
        return "cay([" + "; ".join(f"{a}: {_rat_str(x.numerator, x.denominator)}" for a, x in enumerate(p.h) if x) + "])"
    return "exp([" + "; ".join(f"{a}: {poly_to_str(f.component(()))}" for a, f in enumerate(p.coords) if not f.is_zero()) + "])"


def _transition_str(t):
    """'id', or each factor's _factor_str, joined by ' * '."""
    if t.is_identity():
        return "id"
    return " * ".join(map(_factor_str, t.factors))


def _parse_factor(chunk, algebra, dim):
    """The factor of one _factor_str chunk, not written back.  A cay
    coordinate must be a real rational constant, and a coordinate with
    an imaginary part is refused in either kind (a log in the compact
    algebra has real coordinates)."""
    cay = chunk.startswith("cay([")
    coords = [Poly.zero(dim)] * algebra.dim
    for bit in chunk.removeprefix("cay([" if cay else "exp([").removesuffix("])").split("; "):
        head, _, rest = bit.partition(": ")
        coords[_lie_index(head, algebra)] = _read_poly(rest, dim)[0]
    if not all(_is_real(p) for p in coords):
        raise ParseError("a coordinate has an imaginary part")
    if not cay:
        return LieValuedForm.from_polys(algebra, coords)
    values = []
    for p in coords:
        terms = p.terms
        v = terms.get((0,) * dim, Scalar.zero())
        if any(any(e) for e in terms) or not v.is_rational():
            raise ParseError("a cay coordinate is not a rational constant")
        values.append(v.rational_value())
    try:
        return Cayley(algebra, values)
    except BundleError as e:
        raise ParseError(str(e)) from None


def _shared(f, cayleys):
    """f, or the Cayley factor with its key already in cayleys, or the
    negation of the one with the negated key."""
    if type(f) is not Cayley:
        return f
    if f.key not in cayleys:
        den, nums = f.key
        neg = cayleys.get((den, tuple(-x for x in nums)))
        cayleys[f.key] = f if neg is None else -neg
    return cayleys[f.key]


def bundle_to_str(P):
    lines = [f"bundle v1; group {P.algebra.name}"]
    for sid, i in P.base.faces:
        lines.append(f"transition {sid.dim}.{sid.index}.{i}: {_transition_str(P.transitions[(sid, i)])}")
    return "\n".join(lines) + "\n"


def parse_bundle(text, base):
    """Read a bundle over base; a transition for a face the base does not
    have, one given twice, a face of the base without one (bundle_to_str
    writes every face, identities as ``id``), a body that _transition_str
    does not write back as the same text, a factor with a coordinate
    whose imaginary part is nonzero (its log is not in the compact
    algebra, whose elements have real coordinates), an exp factor on a
    nonabelian group, or a cay factor that is not constant, not rational
    or on an abelian group is a parse error."""
    lines = _lines(text)
    algebra = _header(lines, "bundle")
    transitions = {}
    # one Cayley factor per coordinate key, and cay(-h) as -cay(h), so
    # each gauge's matrices are built once (Cayley.pair)
    cayleys = {}
    for line in lines[1:]:
        m = re.fullmatch(rf"transition {_N}\.{_N}\.{_N}: (.*)", line)
        if not m:
            raise ParseError(f"bad transition line {line!r}")
        sid = SimplexId(_size(m.group(1)), _size(m.group(2)))
        i = _size(m.group(3))
        name = f"transition {sid.dim}.{sid.index}.{i}"
        if (sid, i) not in base.faces:
            raise ParseError(f"{name} is not a face of the base")
        if (sid, i) in transitions:
            raise ParseError(f"{name} given twice")
        body = m.group(4)
        dim = sid.dim - 1
        try:
            factors = [_shared(_parse_factor(chunk, algebra, dim), cayleys)
                       for chunk in (body.split(" * ") if body != "id" else ())]
            # an exp factor on a nonabelian group is a BundleError
            t = TransitionMap(algebra, dim, factors)
        except (ParseError, BundleError) as e:
            raise ParseError(f"{name}: {e}") from None
        if _transition_str(t) != body:
            raise ParseError(f"{name}: bad body {body!r}")
        transitions[(sid, i)] = t
    for sid, i in base.faces:
        if (sid, i) not in transitions:
            raise ParseError(f"no transition for face {sid.dim}.{sid.index}.{i} of the base")
    return BundleData(base, algebra, transitions)


def connection_to_str(D):
    lines = [f"connection v1; group {D.bundle.algebra.name}"]
    X = D.bundle.base
    for sid in X.all_cells():
        A = D.forms[sid]
        for a, f in enumerate(A.coords):
            for I in sorted(f.comps):
                lines.append(
                    f"A {sid.dim}.{sid.index} {a} {_comp_str(I)}: {poly_to_str(f.comps[I])}"
                )
    return "\n".join(lines) + "\n"


def parse_connection(text, bundle):
    """Read a connection on bundle; a cell the base does not have, a Lie
    coordinate or form component out of range, or a component that is
    zero or given twice, is a parse error."""
    lines = _lines(text)
    alg = bundle.algebra
    if _header(lines, "connection").name != alg.name:
        raise ParseError("connection/bundle group mismatch")
    comp_data = {}
    for line in lines[1:]:
        m = re.fullmatch(rf"A {_N}\.{_N} {_N} ([-0-9,]+): (.*)", line)
        if not m:
            raise ParseError(f"bad connection line {line!r}")
        sid = SimplexId(_size(m.group(1)), _size(m.group(2)))
        if sid.dim > bundle.base.dim or sid.index >= bundle.base.counts[sid.dim]:
            raise ParseError(f"simplex {sid.dim}.{sid.index} is not in the base")
        a = _lie_index(m.group(3), alg)
        I = _parse_comp(m.group(4))
        if len(I) != 1 or not 0 <= I[0] < sid.dim:
            raise ParseError(f"component {m.group(4)!r} is not a 1-form component on a {sid.dim}-simplex")
        comps = comp_data.setdefault(sid, {}).setdefault(a, {})
        if I in comps:
            raise ParseError(f"component {m.group(4)} of coordinate {a} on {sid.dim}.{sid.index} given twice")
        comps[I] = parse_poly(m.group(5), sid.dim)
        if comps[I].is_zero():
            raise ParseError(f"zero component in {line!r}")
    forms = {}
    for sid in bundle.base.all_cells():
        coords = []
        for a in range(alg.dim):
            comps = comp_data.get(sid, {}).get(a, {})
            coords.append(PolyForm(sid.dim, 1, comps))
        forms[sid] = LieValuedForm(alg, sid.dim, 1, coords)
    return Connection(bundle, forms)

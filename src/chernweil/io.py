"""Line-oriented text formats with bit-exact round trips.

Serialized scalars are sums of tau-monomials with Gaussian-rational
coefficients; polynomials list terms in graded-lexicographic order, so
serialization doubles as a canonical form (string equality iff value
equality).
"""

from __future__ import annotations

import re
from math import gcd

from .bundles import BundleData, Connection, LieValuedForm, TransitionMap
from .forms import PolyForm
from .poly import Poly
from .scalars import SIZE_NUMERAL, Scalar
from .simplicial import SimplexId, SimplicialSet


class ParseError(ValueError):
    pass


# an index or size numeral, in the one spelling str(int) writes
_N = rf"({SIZE_NUMERAL})"


def _size(text):
    """int(text) for a numeral its caller matched with _N, ASCII digits
    with no leading zero (not \\d, which also matches non-ASCII digits);
    a numeral of more than the 4300 digits int() reads is a ParseError,
    not a bare ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"numeral of {len(text)} digits is too long") from None


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


# A positive rational numeral as _rat_str writes it: no leading zeros
# and no '/1'.  An atom of scalar_to_str is a nonzero real part, an
# imaginary part or both in parentheses, then '*tau^k' unless k == 0.
_NUM = r"[1-9][0-9]*(?:/[1-9][0-9]*)?"
_ATOM_RE = re.compile(rf"(?:(-?{_NUM})(i?)|\((-?{_NUM})([+-]{_NUM})i\))(?:\*tau\^(-?[1-9][0-9]*))?")


def _parse_rat(text):
    """(n, d) for a signed _NUM numeral in lowest terms; ValueError otherwise."""
    n, slash, d = text.partition("/")
    n, d = int(n), int(d) if slash else 1
    if slash and (d == 1 or gcd(n, d) != 1):
        raise ValueError(f"rational {text!r} not in lowest terms")
    return n, d


def _parse_atom(atom):
    """(tau power, triple) for one atom of scalar_to_str; ValueError otherwise."""
    m = _ATOM_RE.fullmatch(atom)
    if m is None:
        raise ValueError(f"bad atom {atom!r}")
    k = int(m[5]) if m[5] else 0
    if m[1]:
        n, d = _parse_rat(m[1])
        return k, ((0, n, d) if m[2] else (n, 0, d))
    (a, q1), (b, q2) = _parse_rat(m[3]), _parse_rat(m[4])
    return k, (a * q2, b * q1, q1 * q2)


def parse_scalar(text):
    """Read a scalar written by scalar_to_str; any other text, such as
    unreduced or zero parts, a repeated or unsorted tau power, or
    '*tau^0', raises ParseError."""
    if text == "0":
        return Scalar.zero()
    try:
        # int() also refuses numerals of more than 4300 digits
        atoms = [_parse_atom(atom) for atom in text.split(" + ")]
    except ValueError:
        raise ParseError(f"bad scalar {text!r}") from None
    if any(k1 >= k2 for (k1, _), (k2, _) in zip(atoms, atoms[1:])):
        raise ParseError(f"bad scalar {text!r}: tau powers not increasing")
    return Scalar(dict(atoms))


# ---------------------------------------------------------------------------
# polynomials


def poly_to_str(p):
    if not p.terms:
        return "0"
    bits = []
    for e, c in p.sorted_terms():
        cs = scalar_to_str(c)
        if " + " in cs:
            cs = "{" + cs + "}"
        mono = "*".join(
            f"x{i+1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
        )
        bits.append(cs + ("*" + mono if mono else ""))
    return " + ".join(bits)


def _split_top(text, sep=" + "):
    parts = []
    depth = 0
    cur = []
    i = 0
    while i < len(text):
        if text[i] in "{(":
            depth += 1
        elif text[i] in "})":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(text[i])
        i += 1
    parts.append("".join(cur))
    return parts


_VAR_RE = re.compile(r"x([1-9][0-9]*)(?:\^([2-9]|[1-9][0-9]+))?")


def parse_poly(text, dim):
    """Read a polynomial on Delta^dim written by poly_to_str; any other
    text, such as a missing or zero coefficient, braces around a
    one-term coefficient, unsorted variables or terms, or '^1', raises
    ParseError."""
    if text == "0":
        return Poly.zero(dim)
    terms = {}
    last = None
    for term in _split_top(text):
        # scalar text holds no 'x', so the coefficient ends at the first '*x'
        cs, x, mono = term.partition("*x")
        if cs.startswith("{"):
            if not cs.endswith("}") or " + " not in cs:
                raise ParseError(f"bad polynomial coefficient {cs!r}")
            cs = cs[1:-1]
        coef = parse_scalar(cs)
        if coef.is_zero():
            raise ParseError(f"zero coefficient in polynomial term {term!r}")
        e = [0] * dim
        prev = -1
        for t in ("x" + mono).split("*") if x else ():
            m = _VAR_RE.fullmatch(t)
            if not m:
                raise ParseError(f"bad monomial token {t!r}")
            i, k = _size(m[1]) - 1, _size(m[2] or "1")
            if i >= dim:
                raise ParseError(f"variable x{i+1} out of range for dim {dim}")
            if i <= prev:
                raise ParseError(f"variables not increasing in polynomial term {term!r}")
            prev = i
            e[i] = k
        key = tuple(e)
        order = (sum(key), key)
        if last is not None and order <= last:
            raise ParseError(f"polynomial terms not in graded-lexicographic order at {term!r}")
        last = order
        terms[key] = coef
    return Poly(dim, terms)


# ---------------------------------------------------------------------------
# forms


def _comp_str(I):
    return ",".join(str(i + 1) for i in I) if I else "-"


def _parse_comp(text):
    text = text.strip()
    if text == "-":
        return ()
    if not re.fullmatch(rf"{_N}(?:,{_N})*", text):
        raise ParseError(f"bad component {text!r}")
    return tuple(_size(t) - 1 for t in text.split(","))


def polyform_to_str(f):
    lines = [f"form v1; dim {f.dim}; deg {f.deg}"]
    for I in sorted(f.comps):
        lines.append(f"comp {_comp_str(I)}: {poly_to_str(f.comps[I])}")
    return "\n".join(lines) + "\n"


def parse_polyform(text):
    """Read a form written by polyform_to_str; a missing header, or a
    component given twice or out of range for the header's dim and deg,
    raises ParseError."""
    lines = [l for l in text.strip().splitlines() if l.strip()]
    m = re.match(rf"^form v1; dim {_N}; deg {_N}$", lines[0]) if lines else None
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
    after a face or name line, or a face or name line given twice is a
    parse error.  Every rule of the face table is SimplicialSet.validate's,
    and a space it finds violations in is a parse error too."""
    lines = [l.rstrip() for l in text.strip().splitlines() if l.strip()]
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
    X = SimplicialSet(counts, faces, names)
    bad = X.validate()
    if bad:
        # the first violation and a count: a large broken file can have millions
        raise ParseError(bad[0] + (f" (and {len(bad) - 1} more violations)" if len(bad) > 1 else ""))
    return X


# ---------------------------------------------------------------------------
# bundles and connections


def _lvp_to_str(p):
    bits = []
    for a, f in enumerate(p.coords):
        if not f.is_zero():
            bits.append(f"{a}: {poly_to_str(f.component(()))}")
    return "[" + "; ".join(bits) + "]"


def _parse_lvp(text, algebra, dim):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"bad lie-valued polynomial {text!r}")
    coords = [Poly.zero(dim) for _ in range(algebra.dim)]
    body = text[1:-1].strip()
    if body:
        for bit in _split_top(body, "; "):
            head, _, rest = bit.partition(": ")
            coords[_lie_index(head, algebra)] = parse_poly(rest, dim)
    return LieValuedForm.from_polys(algebra, coords)


def _is_real(p):
    """Whether no coefficient of the polynomial p has an imaginary part."""
    return not any(b for c in p.terms.values() for _, b, _ in c.terms.values())


def _lie_index(text, algebra):
    """A Lie coordinate index, which must be below the algebra's dimension."""
    if not re.fullmatch(_N, text) or _size(text) >= algebra.dim:
        raise ParseError(f"Lie coordinate {text!r} out of range for {algebra.name} (dimension {algebra.dim})")
    return _size(text)


def _header(lines, kind):
    """The group algebra named on the first line, `<kind> v1; group <name>`."""
    from .liealg import LieAlgebraError, lie_algebra

    m = re.match(rf"^{kind} v1; group (\w+)$", lines[0]) if lines else None
    if not m:
        raise ParseError(f"missing {kind} header")
    try:
        return lie_algebra(m.group(1))
    except LieAlgebraError as e:
        raise ParseError(str(e)) from None


def bundle_to_str(P):
    lines = [f"bundle v1; group {P.algebra.name}"]
    for sid, i in P.base.faces:
        t = P.transitions[(sid, i)]
        body = "id" if t.is_identity() else " * ".join(f"exp({_lvp_to_str(f)})" for f in t.factors)
        lines.append(f"transition {sid.dim}.{sid.index}.{i}: {body}")
    return "\n".join(lines) + "\n"


def parse_bundle(text, base):
    """Read a bundle over base; a transition for a face the base does not
    have, one given twice, a face of the base without one (bundle_to_str
    writes every face, identities as ``id``), or a factor with a
    coordinate whose imaginary part is nonzero (its log is not in the
    compact algebra, whose elements have real coordinates) is a parse
    error."""
    lines = [l.rstrip() for l in text.strip().splitlines() if l.strip()]
    algebra = _header(lines, "bundle")
    transitions = {}
    for line in lines[1:]:
        m = re.match(rf"^transition {_N}\.{_N}\.{_N}: (.*)$", line)
        if not m:
            raise ParseError(f"bad transition line {line!r}")
        sid = SimplexId(_size(m.group(1)), _size(m.group(2)))
        i = _size(m.group(3))
        if (sid, i) not in base.faces:
            raise ParseError(f"transition {sid.dim}.{sid.index}.{i} is not a face of the base")
        if (sid, i) in transitions:
            raise ParseError(f"transition {sid.dim}.{sid.index}.{i} given twice")
        body = m.group(4).strip()
        dim = sid.dim - 1
        if body == "id":
            t = TransitionMap.identity(algebra, dim)
        else:
            factors = []
            for chunk in _split_top(body, " * "):
                if not (chunk.startswith("exp(") and chunk.endswith(")")):
                    raise ParseError(f"bad factor {chunk!r}")
                p = _parse_lvp(chunk[4:-1], algebra, dim)
                if not all(_is_real(f.component(())) for f in p.coords):
                    raise ParseError(f"transition {sid.dim}.{sid.index}.{i} has a coordinate with an imaginary part")
                factors.append(p)
            t = TransitionMap(algebra, dim, factors)
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
    coordinate or form component out of range, or a component given
    twice, is a parse error."""
    lines = [l.rstrip() for l in text.strip().splitlines() if l.strip()]
    alg = bundle.algebra
    if _header(lines, "connection").name != alg.name:
        raise ParseError("connection/bundle group mismatch")
    comp_data = {}
    for line in lines[1:]:
        m = re.match(rf"^A {_N}\.{_N} {_N} ([-0-9,]+): (.*)$", line)
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
    forms = {}
    for sid in bundle.base.all_cells():
        coords = []
        for a in range(alg.dim):
            comps = comp_data.get(sid, {}).get(a, {})
            coords.append(PolyForm(sid.dim, 1, comps))
        forms[sid] = LieValuedForm(alg, sid.dim, 1, coords)
    return Connection(bundle, forms)

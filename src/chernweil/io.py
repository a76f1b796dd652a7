"""Line-oriented text formats with bit-exact round trips.

Serialized scalars are sums of tau-monomials with Gaussian-rational
coefficients; polynomials list terms in graded-lexicographic order, so
serialization doubles as a canonical form (string equality iff value
equality).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bundles import BundleData, Connection, LieValuedForm, TransitionMap
from .forms import PolyForm
from .poly import Poly
from .scalars import INT_NUMERAL, QI, Scalar, parse_int
from .simplicial import SimplexId, SimplicialSet


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalars


def _rat_str(q):
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _qi_str(c):
    if c.im == 0:
        return _rat_str(c.re)
    if c.re == 0:
        return _rat_str(c.im) + "i"
    im = _rat_str(c.im)
    sign = "+" if not im.startswith("-") else ""
    return f"({_rat_str(c.re)}{sign}{im}i)"


def scalar_to_str(s):
    if not s.terms:
        return "0"
    bits = []
    for k in sorted(s.terms):
        atom = _qi_str(s.terms[k])
        if k != 0:
            atom += f"*tau^{k}"
        bits.append(atom)
    return " + ".join(bits)


_RAT = INT_NUMERAL + r"(?:/[0-9]+)?"
_QI_RE = re.compile(rf"\(({_RAT})([+-][0-9]+(?:/[0-9]+)?)i\)")


def _parse_rat(text):
    """A rational numeral as _rat_str writes it, and no other spelling."""
    if not re.fullmatch(_RAT, text):
        raise ValueError(f"bad rational numeral {text!r}")
    return Fraction(text)


def _parse_qi(text):
    m = _QI_RE.fullmatch(text)
    if m:
        return QI(Fraction(m.group(1)), Fraction(m.group(2)))
    if text.endswith("i"):
        return QI(0, _parse_rat(text[:-1]))
    return QI(_parse_rat(text))


def parse_scalar(text):
    """Read a scalar in exactly the form scalar_to_str writes."""
    if text == "0":
        return Scalar.zero()
    terms = {}
    for atom in text.split(" + "):
        head, tau, kpart = atom.partition("*tau^")
        try:
            k = parse_int(kpart) if tau else 0
            c = _parse_qi(head)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad scalar {text!r}") from None
        terms[k] = terms.get(k, QI()) + c
    return Scalar(terms)


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


_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(text, dim):
    text = text.strip()
    if text == "0":
        return Poly.zero(dim)
    terms = {}
    for term in _split_top(text):
        if term.startswith("{"):
            close = term.index("}")
            coef = parse_scalar(term[1:close])
            rest = term[close + 1:]
            tokens = [t for t in rest.split("*") if t]
        else:
            tokens = term.split("*")
            coef_tokens = []
            while tokens and not _VAR_RE.match(tokens[0]):
                coef_tokens.append(tokens.pop(0))
            coef = parse_scalar("*".join(coef_tokens)) if coef_tokens else Scalar.one()
        e = [0] * dim
        for t in tokens:
            m = _VAR_RE.match(t)
            if not m:
                raise ParseError(f"bad monomial token {t!r}")
            i = int(m.group(1)) - 1
            if not 0 <= i < dim:
                raise ParseError(f"variable x{i+1} out of range for dim {dim}")
            e[i] += int(m.group(2) or 1)
        key = tuple(e)
        terms[key] = terms.get(key, Scalar.zero()) + coef
    return Poly(dim, terms)


# ---------------------------------------------------------------------------
# forms


def _comp_str(I):
    return ",".join(str(i + 1) for i in I) if I else "-"


def _parse_comp(text):
    text = text.strip()
    if text == "-":
        return ()
    if not re.fullmatch(r"[0-9]+(?:,[0-9]+)*", text):
        raise ParseError(f"bad component {text!r}")
    return tuple(int(t) - 1 for t in text.split(","))


def polyform_to_str(f):
    lines = [f"form v1; dim {f.dim}; deg {f.deg}"]
    for I in sorted(f.comps):
        lines.append(f"comp {_comp_str(I)}: {poly_to_str(f.comps[I])}")
    return "\n".join(lines) + "\n"


def parse_polyform(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    m = re.match(r"^form v1; dim (\d+); deg (\d+)$", lines[0])
    if not m:
        raise ParseError("bad form header")
    dim, deg = int(m.group(1)), int(m.group(2))
    comps = {}
    for line in lines[1:]:
        if not line.startswith("comp "):
            raise ParseError(f"bad form line {line!r}")
        head, _, body = line[5:].partition(":")
        comps[_parse_comp(head)] = parse_poly(body, dim)
    return PolyForm(dim, deg, comps)


# ---------------------------------------------------------------------------
# simplicial sets


def simplicial_set_to_str(X):
    lines = ["simplicial-set v1"]
    for d, c in enumerate(X.counts):
        lines.append(f"dim {d}: {c}")
    for d in range(1, X.dim + 1):
        for sid in X.cells(d):
            for i in range(d + 1):
                tgt, word = X.faces[(sid, i)]
                w = "".join(f" s{j}" for j in word)
                lines.append(f"face {sid.dim}.{sid.index} {i} -> {tgt.dim}.{tgt.index}{w}")
    for sid in X.all_cells():
        if sid in X.names:
            lines.append(f"name {sid.dim}.{sid.index} {X.names[sid]}")
    return "\n".join(lines) + "\n"


_SID_RE = re.compile(r"^(\d+)\.(\d+)$")


def _parse_sid(text):
    m = _SID_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad simplex id {text!r}")
    return SimplexId(int(m.group(1)), int(m.group(2)))


def parse_simplicial_set(text):
    lines = [l.rstrip() for l in text.strip().splitlines() if l.strip()]
    if not lines or lines[0] != "simplicial-set v1":
        raise ParseError("missing simplicial-set header")
    counts = []
    faces = {}
    names = {}
    for line in lines[1:]:
        if line.startswith("dim "):
            m = re.match(r"^dim (\d+): (\d+)$", line)
            if not m or int(m.group(1)) != len(counts):
                raise ParseError(f"bad dim line {line!r}")
            counts.append(int(m.group(2)))
        elif line.startswith("face "):
            m = re.match(r"^face (\d+\.\d+) (\d+) -> (\d+\.\d+)((?: s\d+)*)$", line)
            if not m:
                raise ParseError(f"bad face line {line!r}")
            sid = _parse_sid(m.group(1))
            word = tuple(int(w[1:]) for w in m.group(4).split())
            faces[(sid, int(m.group(2)))] = (_parse_sid(m.group(3)), word)
        elif line.startswith("name "):
            _, sidtext, label = line.split(" ", 2)
            names[_parse_sid(sidtext)] = label
        else:
            raise ParseError(f"unrecognized line {line!r}")
    X = SimplicialSet(counts, faces, names)
    bad = X.validate()
    if bad:
        raise ParseError("; ".join(bad))
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
            head, _, rest = bit.partition(":")
            coords[_lie_index(head, algebra)] = parse_poly(rest, dim)
    return LieValuedForm.from_polys(algebra, coords)


def _lie_index(text, algebra):
    """A Lie coordinate index, which must be below the algebra's dimension."""
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= algebra.dim:
        raise ParseError(f"Lie coordinate {text!r} out of range for {algebra.name} (dimension {algebra.dim})")
    return int(text)


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
    X = P.base
    for d in range(1, X.dim + 1):
        for sid in X.cells(d):
            for i in range(d + 1):
                t = P.transitions[(sid, i)]
                if t.is_identity():
                    body = "id"
                else:
                    body = " * ".join(f"exp({_lvp_to_str(f)})" for f in t.factors)
                lines.append(f"transition {sid.dim}.{sid.index}.{i}: {body}")
    return "\n".join(lines) + "\n"


def parse_bundle(text, base):
    """Read a bundle over base; a transition for a face the base does not
    have, one given twice, or a face of the base without one is a parse
    error (bundle_to_str writes every face, identities as ``id``)."""
    lines = [l.rstrip() for l in text.strip().splitlines() if l.strip()]
    algebra = _header(lines, "bundle")
    transitions = {}
    for line in lines[1:]:
        m = re.match(r"^transition (\d+)\.(\d+)\.(\d+): (.*)$", line)
        if not m:
            raise ParseError(f"bad transition line {line!r}")
        sid = SimplexId(int(m.group(1)), int(m.group(2)))
        i = int(m.group(3))
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
                factors.append(_parse_lvp(chunk[4:-1], algebra, dim))
            t = TransitionMap(algebra, dim, factors)
        transitions[(sid, i)] = t
    for d in range(1, base.dim + 1):
        for sid in base.cells(d):
            for i in range(d + 1):
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
        m = re.match(r"^A (\d+)\.(\d+) (\d+) ([-\d,]+): (.*)$", line)
        if not m:
            raise ParseError(f"bad connection line {line!r}")
        sid = SimplexId(int(m.group(1)), int(m.group(2)))
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

import contextlib
import io
import itertools
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernweil import io as cio
from chernweil.bundles import (
    LieValuedForm,
    TransitionMap,
    apply_gauge,
    clutch_bundle,
    construct_connection,
    horn_fill_bundle,
    random_u1_bundle,
    trivial_bundle,
    validate_connection,
)
from chernweil.cli import build_parser, main
from chernweil.forms import AffineMap, PolyForm, form_on, random_poly, random_polyform
from chernweil.liealg import lie_algebra
from chernweil.poly import Poly
from chernweil.scalars import Scalar
from chernweil.simplicial import (
    boundary_sphere,
    cylinder,
    horn,
    product,
    standard_simplex,
    two_disk_sphere,
)
from strategies import subcomplexes
from test_scalar_kernel import MODELS, form_models, poly_models, to_form, to_scalar


def test_scalar_round_trip():
    cases = [
        Scalar.zero(),
        Scalar.one(),
        Scalar.of(-3, 2, 1),
        Scalar.of(1, 0, -2) + Scalar.of(0, Fraction(1, 3)),
        Scalar.from_rational(-7, 3),
        Scalar.of(0, 1),
        Scalar.of(Fraction(3, 2), Fraction(-1, 4)),
        # the exact values of two floats: 53-bit numerators over powers of 2
        Scalar.of(Fraction(0.1), Fraction(-2.5e-7), 1),
    ]
    for s in cases:
        text = cio.scalar_to_str(s)
        assert cio.parse_scalar(text) == s
        assert cio.scalar_to_str(cio.parse_scalar(text)) == text


@pytest.mark.parametrize(
    "text",
    ["~(1.5,-0.25)", "2*zzz^1", "1/0", "i", "abc", "1*tau^x", "1*tau^", "1 + (1+i)",
     # numerals Fraction() reads but scalar_to_str never writes
     "1.5", "1e3", "+3", "1_000", " 2", "2 ", "1.5i", "(1.5+2i)", "(1+2.5i)", "1*tau^+1", "1*tau^1_0",
     "1/+2", "\u0662",
     # values scalar_to_str writes in another spelling
     "1 + 2", "2/4", "-0", "(1+0i)", "1*tau^0", "0*tau^1", "1*tau^1 + 1",
     "0i", "(0+1i)", "(2/4+1i)", "1/1", "01", "1/02", "1*tau^01", "1*tau^-0", "1*tau^1 + 2*tau^1",
     # numerals longer than int() reads
     pytest.param("1" * 5000, id="long-numeral"), pytest.param("1*tau^" + "1" * 5000, id="long-tau-power"),
     # float spellings, which the reader must not hand to Fraction() or float()
     "1e5000", "1e2000000", "(1e3+1i)", "1.5e3*tau^1",
     # one long atom, read in linear time
     pytest.param("(" + "1+" * 100_000 + "1i)", id="long-atom")],
)
def test_parse_scalar_rejects_malformed_tokens(text):
    with pytest.raises(cio.ParseError):
        cio.parse_scalar(text)


@pytest.mark.parametrize(
    "text",
    ["1 + 1", "1*x1 + 1*x1", "x1", "1*x1^1", "1*x1*x1", "1*x2*x1", "1*x1 + 1", "1*x1 + 1*x2",
     "{1}*x1", "{1 + 1*tau^1}x1", "0*x1", " 1", "1 ", "1*x3", "1*x0", "1*x1^02", "1*x1*", "1 +  1*x1",
     pytest.param("1*x1^" + "9" * 5000, id="long-exponent")],
)
def test_parse_poly_rejects_noncanonical_text(text):
    with pytest.raises(cio.ParseError):
        cio.parse_poly(text, 2)


@settings(max_examples=200, deadline=None)
@given(MODELS)
def test_scalar_text_round_trip_property(x):
    s = to_scalar(x)
    text = cio.scalar_to_str(s)
    assert cio.parse_scalar(text) == s
    assert cio.scalar_to_str(cio.parse_scalar(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), poly_models(d))))
def test_poly_text_round_trip_property(case):
    dim, model = case
    p = Poly(dim, {e: to_scalar(c) for e, c in model.items()})
    text = cio.poly_to_str(p)
    assert cio.parse_poly(text, dim) == p
    assert cio.poly_to_str(cio.parse_poly(text, dim)) == text


# the characters and separators that scalar and polynomial text is made
# of, and what int() reads beyond them ('_', a non-ASCII digit)
TEXT_TOKENS = list("0123456789-+/i()*^x{} _\u0662") + ["*tau^", " + ", "*x"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_text_reads_back_or_raises(data):
    """One insert, delete or replace in canonical scalar or polynomial
    text: the reader raises ParseError or returns the value that the
    writer writes as exactly that text."""
    dim = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        read, write = cio.parse_scalar, cio.scalar_to_str
        text = write(to_scalar(data.draw(MODELS)))
    else:
        read, write = (lambda t: cio.parse_poly(t, dim)), cio.poly_to_str
        text = write(Poly(dim, {e: to_scalar(c) for e, c in data.draw(poly_models(dim)).items()}))
    i = data.draw(st.integers(0, len(text)))
    op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    token = data.draw(st.sampled_from(TEXT_TOKENS))
    text = text[:i] + ("" if op == "delete" else token) + text[i + (op != "insert"):]
    try:
        value = read(text)
    except cio.ParseError:
        return
    assert write(value) == text


@st.composite
def text_forms(draw):
    dim = draw(st.integers(0, 3))
    deg = draw(st.integers(0, dim))
    return to_form(dim, deg, draw(form_models(dim, deg)))


@settings(max_examples=100, deadline=None)
@given(text_forms())
def test_polyform_text_round_trip_property(f):
    text = cio.polyform_to_str(f)
    assert cio.parse_polyform(text) == f
    assert cio.polyform_to_str(cio.parse_polyform(text)) == text


def test_poly_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        p = random_poly(rng, 3, 3) + Poly.const(3, Scalar.of(1, 2, 1))
        text = cio.poly_to_str(p)
        assert cio.parse_poly(text, 3) == p


def test_polyform_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        f = random_polyform(rng, 3, 2, 2)
        text = cio.polyform_to_str(f)
        assert cio.parse_polyform(text) == f


def test_space_round_trips():
    spaces = [
        standard_simplex(3),
        boundary_sphere(2),
        two_disk_sphere(),
        product(two_disk_sphere(), standard_simplex(1)).space,
        product(two_disk_sphere(), two_disk_sphere()).space,
        horn(3, 0).space,
    ]
    for X in spaces:
        _assert_space_round_trips(X)


def _assert_space_round_trips(X):
    text = cio.simplicial_set_to_str(X)
    X2 = cio.parse_simplicial_set(text)
    assert X2 == X and X2.names == X.names
    assert cio.simplicial_set_to_str(X2) == text


@settings(max_examples=60, deadline=None)
@given(subcomplexes(4))
def test_random_subcomplex_round_trips(X):
    _assert_space_round_trips(X)


_SMALL_SPACES = st.one_of(
    st.sampled_from([standard_simplex(0), standard_simplex(1), boundary_sphere(1), two_disk_sphere()]),
    subcomplexes(2),
)


@settings(max_examples=30, deadline=None)
@given(_SMALL_SPACES, _SMALL_SPACES)
def test_random_product_and_cylinder_round_trip(X, Y):
    _assert_space_round_trips(product(X, Y).space)
    _assert_space_round_trips(cylinder(X)[0].space)


def test_space_with_shuffled_face_lines_writes_canonical_text():
    X = product(two_disk_sphere(), standard_simplex(1)).space
    text = cio.simplicial_set_to_str(X)
    lines = text.splitlines(keepends=True)
    faces = [l for l in lines if l.startswith("face ")]
    random.Random(0).shuffle(faces)
    shuffled = "".join([l for l in lines if l.startswith("dim ") or l.startswith("simplicial")] + faces
                       + [l for l in lines if l.startswith("name ")])
    assert shuffled != text
    assert cio.simplicial_set_to_str(cio.parse_simplicial_set(shuffled)) == text


# edits of standard_simplex(3)'s file that break a rule of the face
# table: a face or name of a cell the dim lines do not declare, a line
# given twice, a face left out, a face target that is undeclared, of the
# wrong dimension or under an unnormalized word or one with a degeneracy
# out of range, or a simplicial identity
SPACE_EDITS = {
    "face-of-undeclared-cell": lambda t: t + "face 1.7 0 -> 0.0\n",
    "face-index-above-dim": lambda t: t + "face 1.0 2 -> 0.0\n",
    "face-of-vertex": lambda t: t + "face 0.0 0 -> 0.0\n",
    "face-twice": lambda t: t + "face 1.0 0 -> 0.0\n",
    "name-of-undeclared-cell": lambda t: t + "name 0.5 v\n",
    "name-twice": lambda t: t + "name 0.0 v\n",
    "name-without-label": lambda t: t + "name 0.0\n",
    "face-missing": lambda t: t.replace("face 1.0 1 -> 0.0\n", ""),
    # 10^11 declared edges and no face lines
    "huge-count": lambda t: "simplicial-set v1\ndim 0: 3\ndim 1: 99999999999\n",
    "undeclared-target": lambda t: t.replace("face 1.0 1 -> 0.0\n", "face 1.0 1 -> 0.9\n"),
    "wrong-target-dimension": lambda t: t.replace("face 1.0 1 -> 0.0\n", "face 1.0 1 -> 1.0\n"),
    "unnormalized-word": lambda t: t.replace("face 3.0 0 -> 2.3\n", "face 3.0 0 -> 0.3 s0 s1\n"),
    # s_1 of a vertex: the identity check would look up a face of the vertex
    "degeneracy-out-of-range": lambda t: t.replace("face 2.0 0 -> 1.3\n", "face 2.0 0 -> 0.1 s1\n"),
    # d_0 and d_1 of the 2-cell 012 swapped
    "simplicial-identity": lambda t: t.replace("face 2.0 0 -> 1.3\nface 2.0 1 -> 1.1\n",
                                               "face 2.0 0 -> 1.1\nface 2.0 1 -> 1.3\n"),
}


@pytest.mark.parametrize("case", list(SPACE_EDITS))
def test_cli_space_not_matching_its_dims(case, tmp_path, capsys):
    text = cio.simplicial_set_to_str(standard_simplex(3))
    broken = SPACE_EDITS[case](text)
    assert broken != text
    (tmp_path / "space.txt").write_text(broken)
    assert main(["betti", "--space", str(tmp_path / "space.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_cli_space_error_is_the_first_violation_and_a_count(tmp_path, capsys):
    # three of the four 2-cells dropped: 9 faces and 3 names of undeclared
    # cells, and 3 faces of the 3-cell that reference them
    text = cio.simplicial_set_to_str(standard_simplex(3)).replace("dim 2: 4\n", "dim 2: 1\n")
    (tmp_path / "space.txt").write_text(text)
    assert main(["betti", "--space", str(tmp_path / "space.txt")]) == 2
    assert capsys.readouterr().err == "error: face (2.1, 0) of undeclared cell 2.1 (and 14 more violations)\n"


def test_bundle_connection_round_trips():
    tds = two_disk_sphere()
    P, D = clutch_bundle(3)
    bt = cio.bundle_to_str(P)
    P2 = cio.parse_bundle(bt, tds)
    assert P2.transitions == P.transitions
    assert cio.bundle_to_str(P2) == bt
    ct = cio.connection_to_str(D)
    D2 = cio.parse_connection(ct, P2)
    assert all(D2.forms[s] == D.forms[s] for s in tds.all_cells())
    assert cio.connection_to_str(D2) == ct


GAUGE_BASES = [boundary_sphere(1), boundary_sphere(2), standard_simplex(2), standard_simplex(3)]
# a rational times tau^-1, tau^0 or tau^1: elements of the compact
# algebras have real coordinates
GAUGE_COEFF = st.builds(Scalar.of, st.fractions(-2, 2, max_denominator=4), tau_power=st.integers(-1, 1))


@st.composite
def gauged_bundles(draw):
    """A gauge change of a trivial bundle, so each transition is
    g_sid^{-1} o delta_i times g_face.  On a nonabelian algebra each
    gauge is a Cayley factor cay(h) for rational h of any size;
    on u1 it is exp(h), h a polynomial of degree <= 2 with at most two
    terms.  construct_connection builds the connections of both exactly
    on every cell."""
    alg = lie_algebra(draw(st.sampled_from(["u1", "su2", "u2", "so3", "su3"])))
    X = draw(st.sampled_from(GAUGE_BASES))
    if not alg.is_abelian:
        coord = st.fractions(-50, 50, max_denominator=12)
        gauges = {s: TransitionMap.cayley(alg, s.dim, draw(st.lists(coord, min_size=alg.dim, max_size=alg.dim)))
                  for s in X.all_cells()}
        return apply_gauge(trivial_bundle(X, alg), gauges)[0]
    gauges = {}
    for s in X.all_cells():
        monomials = [e for e in itertools.product(range(3), repeat=s.dim) if sum(e) <= 2]
        chosen = draw(st.lists(st.sampled_from(monomials), max_size=2, unique=True))
        gauges[s] = TransitionMap.single(LieValuedForm.from_polys(alg, [Poly(s.dim, {e: draw(GAUGE_COEFF) for e in chosen})]))
    return apply_gauge(trivial_bundle(X, alg), gauges)[0]


def assert_bundle_round_trips(P):
    text = cio.bundle_to_str(P)
    P2 = cio.parse_bundle(text, P.base)
    assert P2.transitions == P.transitions
    assert cio.bundle_to_str(P2) == text
    return P2


@settings(max_examples=40, deadline=None)
@given(gauged_bundles())
def test_multifactor_bundle_round_trip(P):
    P2 = assert_bundle_round_trips(P)
    D = construct_connection(P)
    assert validate_connection(P, D).ok
    ct = cio.connection_to_str(D)
    D2 = cio.parse_connection(ct, P2)
    assert D2.forms == D.forms
    assert cio.connection_to_str(D2) == ct


def _exp_gauged_text(group, X, rng, dense=False):
    """The text of the gauge change of the trivial bundle over X by
    degree-1 exp gauges, written factor by factor as bundle_to_str wrote
    it when the reader took exp factors on every group: each transition
    is exp(-g_sid o delta_i) * exp(g_face), zero factors left out.  Each
    gauge is random_poly in every coordinate when dense, else in one
    coordinate scaled by 1/16."""
    alg = lie_algebra(group)
    gauges = {}
    for s in X.all_cells():
        polys = [Poly.zero(s.dim)] * alg.dim
        if dense:
            polys = [random_poly(rng, s.dim, 1) for _ in range(alg.dim)]
        else:
            polys[rng.randrange(alg.dim)] = random_poly(rng, s.dim, 1).scale(Fraction(1, 16))
        gauges[s] = LieValuedForm.from_polys(alg, polys)
    lines = [f"bundle v1; group {group}"]
    for (sid, i), face in X.faces.items():
        factors = [-gauges[sid].pullback(AffineMap.face(sid.dim, i)), form_on(gauges, face)]
        body = " * ".join(cio._factor_str(f) for f in factors if not f.is_zero())
        lines.append(f"transition {sid.dim}.{sid.index}.{i}: {body or 'id'}")
    return "\n".join(lines) + "\n"


def test_dense_su2_exp_gauge_file_is_refused():
    """su2 exp gauges with random degree-1 polynomials in all three
    coordinates, so every factor has three coordinates: the reader
    refuses the file at its first exp factor."""
    bs = boundary_sphere(2)
    text = _exp_gauged_text("su2", bs, random.Random(2), dense=True)
    assert "; 2: " in text
    with pytest.raises(cio.ParseError, match=r"^transition 1\.0\.0: exp factors are for abelian groups; "
                                             r"a constant su2 factor is cay\(\[\.\.\.\]\)$"):
        cio.parse_bundle(text, bs)


def test_parse_errors():
    with pytest.raises(cio.ParseError):
        cio.parse_simplicial_set("nonsense")
    # the empty space is written as its header alone, and read back
    assert cio.simplicial_set_to_str(cio.parse_simplicial_set("simplicial-set v1\n")) == "simplicial-set v1\n"
    with pytest.raises(cio.ParseError):
        cio.parse_polyform("form v2; bad")


@pytest.mark.parametrize("text", [
    "",
    "form v1; dim 2; deg 1\ncomp 0: 1\n",
    "form v1; dim 2; deg 1\ncomp 3: 1\n",
    "form v1; dim 2; deg 1\ncomp 1,2: 1\n",
    "form v1; dim 2; deg 2\ncomp 2,1: 1\n",
    "form v1; dim 2; deg 1\ncomp 1: 1\ncomp 1: 2\n",
    "form v1; dim 2; deg 1\ncomp 1 : 1\n",
    "form v1; dim 2; deg 1\ncomp  1: 1\n",
], ids=["empty", "index-zero", "index-above-dim", "length-above-deg", "decreasing", "comp-twice",
        "space-before-colon", "space-before-comp"])
def test_parse_polyform_rejects_components_off_its_header(text):
    with pytest.raises(cio.ParseError):
        cio.parse_polyform(text)


# ---------------------------------------------------------------------------
# CLI


def test_cli_betti(capsys):
    rc = main(["betti", "--space", "boundary-sphere:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "betti: 1 0 0 1" in out
    # size 0 is the smallest valid size of each family
    assert main(["betti", "--space", "standard:0"]) == 0
    assert "betti: 1\n" in capsys.readouterr().out
    assert main(["betti", "--space", "boundary-sphere:0"]) == 0
    assert "betti: 2\n" in capsys.readouterr().out


def test_cli_chern_clutch(capsys):
    rc = main(["chern", "--bundle", "clutch:3", "--poly", "chern:1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pairings=[3]" in out
    assert "PASS winding-oracle-agreement" in out


@pytest.mark.parametrize("poly", ["chern:1", "symtrace:1"])
@pytest.mark.parametrize("n", [-2, -1, 1, 2])
def test_cli_chern_clutch_degree_one_polynomials(n, poly, capsys):
    """A degree-1 rho pairs with clutch(n) to rho(e_0) * tau * n: n for
    chern:1, n*i*tau for symtrace:1 (the u1 basis is [[i]])."""
    rc = main(["chern", "--bundle", f"clutch:{n}", "--poly", poly])
    out = capsys.readouterr().out
    pairing = str(n) if poly == "chern:1" else f"{n}i*tau^1"
    assert f"PASS winding-oracle-agreement: pairing={pairing}\n" in out
    assert f"closed=yes pairings=[{pairing}] witness=absent\n" in out
    assert rc == 0 and out.endswith("result: pass\n")


def test_cli_clutch_generate_and_consume(tmp_path, capsys):
    gen = tmp_path / "gen"
    rc = main(["clutch", "--n", "2", "--out", str(gen)])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "chern",
        "--bundle", str(gen / "bundle.txt"),
        "--space", str(gen / "space.txt"),
        "--connection", str(gen / "connection.txt"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pairings=[2]" in out


def test_cli_chern_clutch_accepts_its_own_space(tmp_path, capsys):
    main(["generate", "clutch", "--n", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    for space in ("two-disk", str(tmp_path / "space.txt")):
        assert main(["chern", "--bundle", "clutch:1", "--space", space]) == 0
        assert "pairings=[1]" in capsys.readouterr().out


def test_cli_generate_trivial(tmp_path, capsys):
    rc = main(["generate", "trivial", "--space", "boundary-sphere:2", "--group", "su2", "--out", str(tmp_path / "t")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS serialization-roundtrip" in out


def test_cli_generate_horn_demo(tmp_path, capsys):
    rc = main(["generate", "horn-demo", "--n", "2", "--k", "1", "--seed", "5", "--out", str(tmp_path / "h")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS filler-restriction" in out


def test_cli_horn_fill(capsys):
    rc = main(["horn-fill", "--n", "3", "--k", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS restriction-equality" in out and "PASS refill-stability" in out


def _record_validations(monkeypatch):
    """The base dimension of each bundle validate_bundle is called on."""
    from chernweil import bundles

    seen = []
    validate = bundles.validate_bundle
    monkeypatch.setattr(bundles, "validate_bundle", lambda P: seen.append(P.base.dim) or validate(P))
    return seen


def test_cli_horn_fill_validates_each_bundle_once(monkeypatch, capsys):
    """input-valid validates the horn, and filler-valid the filler;
    horn_fill_bundle and the refill validate nothing: two validations."""
    seen = _record_validations(monkeypatch)
    rc = main(["horn-fill", "--n", "3", "--k", "1", "--seed", "4"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS filler-valid" in out
    assert seen == [2, 3]


def test_cli_generate_horn_demo_validates_nothing(monkeypatch, tmp_path, capsys):
    """generate horn-demo reports no validity, so it validates no bundle."""
    seen = _record_validations(monkeypatch)
    rc = main(["generate", "horn-demo", "--n", "3", "--k", "1", "--out", str(tmp_path / "h")])
    assert rc == 0 and "PASS filler-restriction" in capsys.readouterr().out
    assert seen == []


def test_cli_horn_fill_out_writes_the_horn_demo_groups(tmp_path, capsys):
    """horn-fill --out writes and reads back the horn- and filled- space
    and bundle files, as generate horn-demo does, and chern reads each
    pair."""
    out_dir = tmp_path / "hf"
    rc = main(["horn-fill", "--n", "3", "--k", "1", "--seed", "4", "--out", str(out_dir)])
    assert rc == 0
    assert f"PASS serialization-roundtrip: {out_dir}\n" in capsys.readouterr().out
    names = ["filled-bundle.txt", "filled-space.txt", "horn-bundle.txt", "horn-space.txt"]
    assert sorted(p.name for p in out_dir.iterdir()) == names
    H = horn(3, 1)
    P = random_u1_bundle(H.space, random.Random(4))
    assert (out_dir / "horn-bundle.txt").read_text() == cio.bundle_to_str(P)
    assert (out_dir / "filled-bundle.txt").read_text() == cio.bundle_to_str(horn_fill_bundle(H, P))
    for prefix in ("horn-", "filled-"):
        files = [str(out_dir / f"{prefix}{kind}.txt") for kind in ("bundle", "space")]
        assert main(["chern", "--bundle", files[0], "--space", files[1]]) == 0
        assert "result: pass" in capsys.readouterr().out


@pytest.mark.parametrize("k", range(5))
def test_cli_horn_fill_four_simplex(k, capsys):
    rc = main(["horn-fill", "--n", "4", "--k", str(k)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS input-valid" in out and "PASS refill-stability" in out


@pytest.mark.parametrize("name", ["horn-bundle.txt", "filled-bundle.txt"])
def test_cli_generate_horn_demo_reads_every_file_back(name, tmp_path, monkeypatch, capsys):
    """A bundle file that does not read back as written fails the
    round-trip check, whichever of the demo's files it is."""
    write = Path.write_text

    def corrupting(path, text, *args, **kwargs):
        if path.name == name:
            changed = text.replace("transition 1.0.0: id", "transition 1.0.0: exp([0: 1/7])")
            assert changed != text
            text = changed
        return write(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", corrupting)
    out_dir = tmp_path / "h"
    rc = main(["generate", "horn-demo", "--n", "2", "--k", "1", "--seed", "5", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"FAIL serialization-roundtrip: {out_dir}" in out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("group", ["su2", "so3", "u2", "su3"])
def test_cli_chern_refuses_an_exp_factor_on_a_nonabelian_group(group, n, tmp_path, capsys):
    """An exp-gauged file over a nonabelian group, whose connection was
    once checked on sampled points (or refused with a
    FaceConsistencyError on a 3-cell), is a parse error naming its first
    exp transition: exit 2, one line on stderr, no report."""
    X = boundary_sphere(n)
    (tmp_path / "space.txt").write_text(cio.simplicial_set_to_str(X))
    (tmp_path / "bundle.txt").write_text(_exp_gauged_text(group, X, random.Random(5)))
    argv = ["chern", "--poly", "symtrace:1", "--bundle", str(tmp_path / "bundle.txt"),
            "--space", str(tmp_path / "space.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: transition \d+\.\d+\.\d+: exp factors are for abelian groups; "
                        rf"a constant {group} factor is cay\(\[\.\.\.\]\)\n", captured.err)


def _cayley_su2_files(tmp_path, X, seed):
    """An su2 bundle over X gauged by Cayley factors, coordinates
    randrange(-4, 5) / 8, written as space and bundle files."""
    tmp_path.mkdir(exist_ok=True)
    rng = random.Random(seed)
    su2 = lie_algebra("su2")
    gauges = {s: TransitionMap.cayley(su2, s.dim, [Fraction(rng.randrange(-4, 5), 8) for _ in range(3)])
              for s in X.all_cells()}
    P, _ = apply_gauge(trivial_bundle(X, su2), gauges)
    (tmp_path / "space.txt").write_text(cio.simplicial_set_to_str(X))
    (tmp_path / "bundle.txt").write_text(cio.bundle_to_str(P))
    return ["--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt")]


def test_cli_chern_on_a_cayley_gauged_bundle_is_exact(tmp_path, capsys):
    """Over the 3-sphere a Cayley-gauged bundle gets its connection
    built and checked by ==."""
    files = _cayley_su2_files(tmp_path, boundary_sphere(3), 5)
    assert "cay([" in (tmp_path / "bundle.txt").read_text()
    assert main(["chern", "--poly", "symtrace:2"] + files) == 0
    captured = capsys.readouterr()
    assert "PASS connection-valid: exact\n" in captured.out and captured.out.endswith("result: pass\n")
    assert captured.err == ""


def test_parse_bundle_builds_each_gauge_matrix_once(tmp_path):
    """A gauge's Cayley factor recurs in several transitions, as cay(h)
    and cay(-h); the reader gives them one pair of matrices to share."""
    _cayley_su2_files(tmp_path, boundary_sphere(3), 5)
    P = cio.parse_bundle((tmp_path / "bundle.txt").read_text(), boundary_sphere(3))
    factors = [f for t in P.transitions.values() for f in t.factors]
    by_key = {}
    for f in factors:
        assert by_key.setdefault(f.key, f) is f
    pairs = {id(f.pair) for f in factors}
    assert len(factors) > len(by_key) > len(pairs)
    for f in factors:
        den, nums = f.key
        neg = by_key.get((den, tuple(-x for x in nums)))
        assert neg is None or neg.pair is f.pair


@pytest.mark.parametrize("body", [
    "cay([0: 1/2*x1])", "cay([0: 1/2i])", "cay([0: 1*tau^1])", "cay([])", "cay([0: 0])", "cay([0: 2/4])",
    "cay([0: 1/2; 0: 1/3])", "cay([3: 1/2])", "cay([0: 1/2]) * id", "cay([0: {1/2 + 1*tau^1}])",
], ids=["nonconstant", "imaginary", "tau", "empty", "zero", "unreduced", "repeated", "out-of-range", "with-id",
        "braced"])
def test_cli_refuses_cay_factors_the_writer_does_not_write(body, tmp_path, capsys):
    files = _cayley_su2_files(tmp_path, boundary_sphere(2), 1)
    text = (tmp_path / "bundle.txt").read_text()
    line = next(l for l in text.splitlines() if l.startswith("transition 2.0.0: "))
    (tmp_path / "bundle.txt").write_text(text.replace(line, "transition 2.0.0: " + body))
    assert main(["chern", "--poly", "symtrace:1"] + files) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: transition 2.0.0: ")


def test_parse_bundle_refuses_cay_on_an_abelian_group():
    P, _ = clutch_bundle(1)
    text = cio.bundle_to_str(P).replace("exp([0: 1*tau^1*x1])", "cay([0: 1/2])")
    with pytest.raises(cio.ParseError, match="nonabelian"):
        cio.parse_bundle(text, P.base)


def test_cli_generate_horn_demo_four_simplex(tmp_path, capsys):
    rc = main(["generate", "horn-demo", "--n", "4", "--k", "1", "--out", str(tmp_path / "h")])
    assert rc == 0
    assert "PASS filler-restriction" in capsys.readouterr().out


def test_cli_horn_fill_stops_on_invalid_input(monkeypatch, capsys):
    from chernweil import bundles

    draw = bundles.random_u1_bundle

    def broken(X, rng):
        # a winding on one 2-cell's face-0 transition breaks a 3-cell cocycle
        P = draw(X, rng)
        sid = X.cells(2)[0]
        tw = LieValuedForm.from_polys(P.algebra, [Poly(1, {(1,): Scalar.of(1, 0, 1)})])
        P.transitions[(sid, 0)] = bundles.TransitionMap.single(tw).compose(P.transitions[(sid, 0)])
        return P

    monkeypatch.setattr(bundles, "random_u1_bundle", broken)
    rc = main(["horn-fill", "--n", "4", "--k", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL input-valid" in captured.out and "filler-valid" not in captured.out
    assert "Traceback" not in captured.err


def test_cli_verify_reports_a_horn_filler_error(monkeypatch, capsys):
    from chernweil import bundles

    def refuse(H, P):
        raise bundles.BundleError("filler does not validate")

    monkeypatch.setattr(bundles, "horn_fill_bundle", refuse)
    rc = main(["verify", "--suite", "bundles"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL horn-filling: no filler over Lambda^2_1: filler does not validate" in captured.out
    assert "Traceback" not in captured.err


def _break_top_cell_filler(monkeypatch):
    """Make horn_fill_bundle return the real filler with its top cell's
    face-0 transition composed with a nonconstant u1 twist: a broken
    transition outside the horn's image."""
    from chernweil import bundles

    fill = bundles.horn_fill_bundle

    def broken(H, P):
        out = fill(H, P)
        key = (out.base.cells(H.n)[0], 0)
        tw = LieValuedForm.from_polys(P.algebra, [Poly(H.n - 1, {(1,) + (0,) * (H.n - 2): Scalar.from_rational(1, 3)})])
        out.transitions[key] = bundles.TransitionMap.single(tw).compose(out.transitions[key])
        return out

    monkeypatch.setattr(bundles, "horn_fill_bundle", broken)


def test_cli_horn_fill_reports_a_broken_filler(monkeypatch, capsys):
    _break_top_cell_filler(monkeypatch)
    rc = main(["horn-fill", "--n", "2", "--k", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL filler-valid\n" in captured.out and "PASS restriction-equality" in captured.out
    assert "Traceback" not in captured.err


def test_cli_verify_validates_each_horn_filler(monkeypatch, capsys):
    _break_top_cell_filler(monkeypatch)
    rc = main(["verify", "--suite", "bundles"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL horn-filling: no filler over Lambda^2_1: cocycle fails on " in captured.out
    assert "Traceback" not in captured.err


def _python_m(*argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import chernweil

    src = str(Path(chernweil.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "chernweil", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_python_m_chernweil():
    done = _python_m("betti", "--space", "standard:1")
    assert done.returncode == 0 and "result: pass" in done.stdout
    done = _python_m("betti", "--space", "nosuchspace")
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_cli_symtrace_far_above_the_base_dimension_is_a_usage_error():
    # symtrace:1500 asks for M(x)^1500, which is built bottom-up, so the
    # degree check is reached with no recursion 1500 calls deep
    done = _python_m("chern", "--bundle", "clutch:1", "--poly", "symtrace:1500")
    assert done.returncode == 2
    assert done.stderr == "error: symtrace:1500 has degree 3000, above the base dimension 2\n"


# Runs in a fresh interpreter (the test process has numpy loaded): after
# each import and each cli.main call, the exit code and which of numpy
# and scipy are loaded, as JSON.
_FLOAT_LIBRARIES_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "scipy") if m in sys.modules]

seen = []
import chernweil
seen.append(["import chernweil", None, loaded()])
from chernweil import cli
seen.append(["import chernweil.cli", None, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    seen.append([" ".join(argv), rc, loaded()])
print(json.dumps(seen))
"""


def test_float_libraries_load_only_on_float_paths(tmp_path):
    """No import and no CLI call loads numpy or scipy: the float paths
    run on Python floats."""
    import json
    import os
    import subprocess
    import sys

    import chernweil

    no_float = [
        ["betti", "--space", "standard:3"],
        ["chern", "--bundle", "clutch:1"],
        ["generate", "trivial", "--group", "su2", "--out", str(tmp_path / "trivial")],
        ["generate", "horn-demo", "--n", "3", "--k", "1", "--out", str(tmp_path / "horn")],
        ["horn-fill", "--n", "3", "--k", "1"],
        ["verify", "--suite", "simplicial"],
        ["chern", "--bundle", "clutch:x"],  # a usage error, exit 2
    ]
    # an exp-gauged su2 bundle, which the reader refuses, exit 2
    X = boundary_sphere(2)
    (tmp_path / "space.txt").write_text(cio.simplicial_set_to_str(X))
    (tmp_path / "bundle.txt").write_text(_exp_gauged_text("su2", X, random.Random(5)))
    no_float.append(["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt"),
                     "--poly", "symtrace:1"])
    # a Cayley-gauged su2 bundle, whose checks are exact
    no_float.append(["chern", "--poly", "symtrace:2"] + _cayley_su2_files(tmp_path / "cay", boundary_sphere(3), 5))
    # the float cross-checks (quadrature, Bernstein containment) run on
    # Python floats
    no_float += [["verify", "--suite", suite] for suite in ("liealg", "chernweil", "forms", "all")]
    done = subprocess.run(
        [sys.executable, "-c", _FLOAT_LIBRARIES_SCRIPT, json.dumps(no_float)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(chernweil.__file__).resolve().parents[1])},
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    want = [["import chernweil", None, []], ["import chernweil.cli", None, []]]
    want += [[" ".join(argv), 2 if argv[-1] in ("clutch:x", "symtrace:1") else 0, []] for argv in no_float]
    assert seen == want


def test_cli_reznikov_modes(capsys):
    rc = main(["reznikov", "--k", "2", "--mode", "float"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS proportional-to-trace-form" in out
    assert "lambda: (-0.6666666666666666+0j)\n" in out
    rc = main(["reznikov", "--k", "4", "--mode", "float"])
    out = capsys.readouterr().out
    assert rc == 0 and "lambda: (0.8+0j)\n" in out and "PASS evaluated" in out
    rc = main(["reznikov", "--k", "3", "--mode", "float"])
    assert rc == 0 and "PASS odd-vanishing" in capsys.readouterr().out
    rc = main(["reznikov", "--k", "2"])  # exact mode rejected
    assert rc == 2
    # --order and --probes are not flags
    for flag in ("--order", "--probes"):
        with pytest.raises(SystemExit) as e:
            main(["reznikov", "--k", "2", flag, "16", "--mode", "float"])
        assert e.value.code == 2


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_cli_chern_reznikov_on_sun_bundle(group, tmp_path, capsys):
    main(["generate", "trivial", "--space", "boundary-sphere:2", "--group", group, "--out", str(tmp_path)])
    capsys.readouterr()
    argv = ["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt")]
    for selector in ("reznikov:1", "reznikov:2"):
        assert main(argv + ["--poly", selector]) == 0
        assert f"class rho={selector} bundle=bundle: closed=yes" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["generate", "clutch", "--n", "1"], ["generate", "trivial"]],
                         ids=["clutch", "trivial"])
def test_cli_generate_without_out(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_algebra_errors_are_usage_errors(tmp_path, capsys):
    # an unknown group, chern:K on a group with no Chern polynomial, and
    # reznikov:K off su(n)
    assert main(["generate", "trivial", "--group", "su9", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    for group, selectors in (("so3", ["chern:1", "reznikov:1"]), ("u2", ["reznikov:1"])):
        out = tmp_path / group
        assert main(["generate", "trivial", "--group", group, "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["chern", "--bundle", str(out / "bundle.txt"), "--space", str(out / "space.txt")]
        for selector in selectors:
            assert main(argv + ["--poly", selector]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
        assert main(argv + ["--poly", "symtrace:1"]) == 0


def test_cli_usage_errors(capsys):
    assert main(["betti", "--space", "no-such-file"]) == 2
    # argparse rejects an unknown command, and --mode off the reznikov command
    for argv in (["not-a-command"], ["chern", "--bundle", "clutch:1", "--mode", "float"],
                 ["clutch", "--n", "1", "--mode", "float"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


@pytest.mark.parametrize(
    "space",
    ["boundary-sphere:abc", "standard:abc", "standard:1.5", "standard:-1", "boundary-sphere:-1",
     "clutch:abc", "clutch:1.5"],
)
def test_cli_bad_space_size(space, capsys):
    assert main(["betti", "--space", space]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--bundle", "clutch:x"],
        ["chern", "--bundle", "clutch:"],
        ["chern", "--bundle", "clutch:1", "--space", "standard:2"],
        ["betti", "--space", "boundary-sphere:1", "--max-dim", "-1"],
        ["chern", "--bundle", "clutch:1", "--poly", "bogus:1"],
        ["chern", "--bundle", "clutch:1", "--poly", "chern:x"],
        ["chern", "--bundle", "clutch:1", "--poly", "symtrace:0"],
        ["chern", "--bundle", "clutch:1", "--poly", "reznikov:2"],
        ["chern", "--bundle", "clutch:1", "--poly", "reznikov:2:order=1"],
        ["chern", "--bundle", "clutch:1", "--poly", "chern:1:foo"],
        ["chern", "--bundle", "clutch:1", "--poly", "chern:7"],
        ["chern", "--bundle", "clutch:1", "--poly", "symtrace:2"],
        ["horn-fill", "--n", "1", "--k", "0"],
        ["horn-fill", "--n", "0", "--k", "0"],
        ["horn-fill", "--n", "-1", "--k", "0"],
        ["reznikov", "--k", "0", "--mode", "float"],
        ["reznikov", "--k", "-2", "--mode", "float"],
    ],
    ids=["chern-clutch-nonint", "chern-clutch-empty", "chern-clutch-other-space",
         "betti-negative-max-dim", "poly-bogus", "poly-nonint", "poly-degree-0",
         "poly-reznikov", "poly-reznikov-order-1", "poly-trailing-part",
         "poly-overflow-chern", "poly-overflow-symtrace", "horn-n1", "horn-n0", "horn-negative",
         "reznikov-k0", "reznikov-negative"],
)
def test_cli_bad_selector(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_horn_demo_bad_degree(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["generate", "horn-demo", "--n", "1", "--k", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not out.exists()


def test_cli_chern_degree_above_base_without_cycles(tmp_path, capsys):
    # with no cycle to pair with, the class above the base dimension is
    # reported as the zero cochain, as cw_form defines it
    main(["generate", "trivial", "--space", "boundary-sphere:2", "--group", "su2", "--out", str(tmp_path)])
    capsys.readouterr()
    argv = ["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt")]
    assert main(argv + ["--poly", "symtrace:2"]) == 0
    assert "closed=yes pairings=[] witness=absent" in capsys.readouterr().out


def test_cli_clutch_selectors_accept_integers(capsys):
    assert main(["betti", "--space", "clutch:-3"]) == 0
    assert "betti: 1 0 1" in capsys.readouterr().out
    assert main(["chern", "--bundle", "clutch:-1", "--poly", "chern:1"]) == 0
    assert "pairings=[-1]" in capsys.readouterr().out


# a multi-term coefficient is braced, as poly_to_str writes one
@pytest.mark.parametrize(
    "token",
    ["2*zzz^1", "~(1.5,-0.25)", "2/4", "-0", "(1+0i)", "1*tau^0", "0*tau^1", "{1 + 2}", "{1*tau^1 + 1}"],
)
def test_cli_bad_scalar_token(token, tmp_path, capsys):
    gen = tmp_path / "gen"
    main(["clutch", "--n", "1", "--out", str(gen)])
    capsys.readouterr()
    text = (gen / "bundle.txt").read_text()
    broken = text.replace("exp([0: 1*tau^1*x1])", f"exp([0: {token}*x1])")
    assert broken != text
    (gen / "broken.txt").write_text(broken)
    assert main(["chern", "--bundle", str(gen / "broken.txt"), "--space", str(gen / "space.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _clutch_files(tmp_path):
    main(["clutch", "--n", "1", "--out", str(tmp_path)])
    return {n: (tmp_path / f"{n}.txt").read_text() for n in ("space", "bundle", "connection")}


# each input names something the base or the group does not have
BAD_INPUTS = {
    "bundle-empty": ("bundle", lambda t: ""),
    "bundle-bad-coordinate": ("bundle", lambda t: t.replace("exp([0:", "exp([7:")),
    "bundle-wrong-base": ("space", lambda t: None),
    "bundle-missing-transition": ("bundle", lambda t: "".join(l for l in t.splitlines(True) if "exp(" not in l)),
    "bundle-imaginary-coordinate": ("bundle", lambda t: t.replace("exp([0: 1*tau^1*x1])", "exp([0: 1/3i*x1])")),
    "connection-empty": ("connection", lambda t: ""),
    "connection-bad-coordinate": ("connection", lambda t: t.replace("A 2.1 0 ", "A 2.1 5 ")),
    "connection-bad-cell": ("connection", lambda t: t.replace("A 2.1 0 ", "A 2.7 0 ")),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_cli_input_not_matching_base(case, tmp_path, capsys):
    texts = _clutch_files(tmp_path)
    capsys.readouterr()
    which, edit = BAD_INPUTS[case]
    broken = edit(texts[which])
    assert broken != texts[which]
    space = "standard:2" if broken is None else str(tmp_path / "space.txt")
    if broken is not None:
        (tmp_path / f"{which}.txt").write_text(broken)
    argv = ["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", space,
            "--connection", str(tmp_path / "connection.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_parse_rejects_data_off_the_base():
    P, D = clutch_bundle(1)
    bt, ct = cio.bundle_to_str(P), cio.connection_to_str(D)
    with pytest.raises(cio.ParseError):
        cio.parse_bundle(bt, standard_simplex(2))
    repeated = [line for line in bt.splitlines() if "exp(" in line][0].split(":")[0] + ": id\n"
    factor = "exp([0: 1*tau^1*x1])"
    # transition bodies that read as some value but are not how bundle_to_str writes it
    bodies = ["exp([0: 2*x1; 0: 1*tau^1*x1])", "exp([0: 0])", "exp([])", "exp([ 0: 1*tau^1*x1 ])",
              "exp( [0: 1*tau^1*x1])", "exp([0: 2*x1]) * exp([0: 1*tau^1*x1])", " " + factor]
    for text in ("", bt.replace("exp([0:", "exp([1:"), bt.replace("exp([0:", "exp([x:"),
                 bt.replace("group u1", "group u9"), bt + repeated, *(bt.replace(factor, b) for b in bodies)):
        assert text != bt
        with pytest.raises(cio.ParseError):
            cio.parse_bundle(text, P.base)
    for text in ("", ct.replace("A 2.1 0 ", "A 2.1 1 "), ct.replace("A 2.1 0 ", "A 3.0 0 "),
                 ct.replace("A 2.1 0 1:", "A 2.1 0 3:"), ct.replace("A 2.1 0 1:", "A 2.1 0 1,,2:"),
                 ct + ct.splitlines()[1] + "\n"):
        with pytest.raises(cio.ParseError):
            cio.parse_connection(text, P)


# lines a reader parses but its writer never writes, since SimplicialSet
# drops trailing zero counts and PolyForm zero components: (reader, text,
# the line the error names)
UNWRITTEN_LINES = {
    "space-last-count-zero": (cio.parse_simplicial_set, "simplicial-set v1\ndim 0: 3\ndim 1: 0\n", "dim 1: 0"),
    "space-only-count-zero": (cio.parse_simplicial_set, "simplicial-set v1\ndim 0: 0\n", "dim 0: 0"),
    "connection-zero-component": (lambda t: cio.parse_connection(t, clutch_bundle(1)[0]),
                                  "connection v1; group u1\nA 2.1 0 1: 0\nA 2.1 0 2: -1*tau^1*x1\n", "A 2.1 0 1: 0"),
    "polyform-zero-component": (cio.parse_polyform, "form v1; dim 2; deg 1\ncomp 1: 0\n", "comp 1: 0"),
}


@pytest.mark.parametrize("case", list(UNWRITTEN_LINES))
def test_readers_refuse_lines_no_writer_writes(case):
    read, text, line = UNWRITTEN_LINES[case]
    with pytest.raises(cio.ParseError, match=re.escape(repr(line))):
        read(text)


# structure errors inside a transition body of clutch(1): (body, message)
BODY_ERRORS = {
    "space-after-exp": ("exp( [0: 1*tau^1*x1])", "bad numeral 'exp( [0'"),
    "empty-factor": ("exp([])", "bad polynomial ''"),
}


@pytest.mark.parametrize("case", list(BODY_ERRORS))
def test_cli_transition_body_error_names_its_face(case, tmp_path, capsys):
    texts = _clutch_files(tmp_path)
    capsys.readouterr()
    body, message = BODY_ERRORS[case]
    line = "transition 2.1.0: exp([0: 1*tau^1*x1])\n"
    assert line in texts["bundle"]
    (tmp_path / "bundle.txt").write_text(texts["bundle"].replace(line, f"transition 2.1.0: {body}\n"))
    assert main(["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: transition 2.1.0: {message}\n"


# edits of the written layout: (edit of the text, number of the line
# named, given the number n of lines of the text)
LAYOUT_EDITS = {
    "trailing-space": (lambda t: t.replace("\n", " \n", 1), lambda n: 1),
    "leading-space": (lambda t: " " + t, lambda n: 1),
    "blank-first": (lambda t: "\n" + t, lambda n: 1),
    "blank-between": (lambda t: t.replace("\n", "\n\n", 1), lambda n: 2),
    "blank-last": (lambda t: t + "\n", lambda n: n + 1),
    "no-final-newline": (lambda t: t[:-1], lambda n: n),
    "crlf": (lambda t: t.replace("\n", "\r\n"), lambda n: 1),
}


@pytest.mark.parametrize("edit", list(LAYOUT_EDITS))
def test_readers_take_only_the_written_layout(edit):
    P, D = clutch_bundle(1)
    X = P.base
    f = random_polyform(random.Random(0), 2, 1)
    readers = {
        cio.simplicial_set_to_str(X): cio.parse_simplicial_set,
        cio.bundle_to_str(P): lambda t: cio.parse_bundle(t, X),
        cio.connection_to_str(D): lambda t: cio.parse_connection(t, P),
        cio.polyform_to_str(f): cio.parse_polyform,
    }
    change, line = LAYOUT_EDITS[edit]
    for text, read in readers.items():
        read(text)
        n = line(text.count("\n"))
        with pytest.raises(cio.ParseError, match=rf"^line {n}: "):
            read(change(text))


def test_cli_rejects_a_trailing_space_and_blank_lines(tmp_path, capsys):
    texts = _clutch_files(tmp_path)
    capsys.readouterr()
    line = "transition 2.0.0: id\n"
    assert line in texts["bundle"]
    (tmp_path / "bundle.txt").write_text(texts["bundle"].replace(line, "transition 2.0.0: id \n") + "\n\n")
    assert main(["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: line 8: space at the start or end of 'transition 2.0.0: id '\n"


# a numeral of more than the 4300 digits int() reads, the fullwidth form
# of a digit, which int() reads as that digit, and a leading zero
BAD_NUMERALS = {
    "oversize": lambda digit: "9" * 5000,
    "fullwidth": lambda digit: chr(0xFF10 + int(digit)),
    "leading-zero": lambda digit: "0" + digit,
}
# (file, text before, a one-digit numeral, text after)
NUMERAL_SITES = {
    "space-count": ("space", "dim 0: ", "3", "\n"),
    "space-face": ("space", "face 1.0 ", "0", " -> 0.1"),
    "space-name": ("space", "name 0.", "0", " "),
    "bundle-face": ("bundle", "transition 1.0.", "0", ":"),
    "connection-cell": ("connection", "A 2.", "1", " 0 1:"),
    "connection-coordinate": ("connection", "A 2.1 ", "0", " 1:"),
    "connection-component": ("connection", "A 2.1 0 ", "1", ":"),
}


@pytest.mark.parametrize("numeral", list(BAD_NUMERALS))
@pytest.mark.parametrize("site", list(NUMERAL_SITES))
def test_cli_bad_numeral_in_file(site, numeral, tmp_path, capsys):
    texts = _clutch_files(tmp_path)
    capsys.readouterr()
    which, before, digit, after = NUMERAL_SITES[site]
    assert before + digit + after in texts[which]
    bad = before + BAD_NUMERALS[numeral](digit) + after
    (tmp_path / f"{which}.txt").write_text(texts[which].replace(before + digit + after, bad, 1))
    argv = ["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt"),
            "--connection", str(tmp_path / "connection.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    if which == "space":
        assert main(["betti", "--space", str(tmp_path / "space.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("numeral", list(BAD_NUMERALS))
def test_parse_polyform_rejects_bad_numerals(numeral):
    assert cio.parse_polyform("form v1; dim 2; deg 1\ncomp 1: 1\n") == PolyForm(2, 1, {(0,): Poly.const(2, 1)})
    bad = BAD_NUMERALS[numeral]
    for text in (f"form v1; dim {bad('2')}; deg 1\ncomp 1: 1\n", f"form v1; dim 2; deg {bad('1')}\ncomp 1: 1\n",
                 f"form v1; dim 2; deg 1\ncomp {bad('1')}: 1\n"):
        with pytest.raises(cio.ParseError):
            cio.parse_polyform(text)


def test_cli_math_failure(tmp_path, capsys):
    gen = tmp_path / "gen"
    main(["clutch", "--n", "1", "--out", str(gen)])
    capsys.readouterr()
    text = (gen / "bundle.txt").read_text()
    broken = text.replace("exp([0: 1*tau^1*x1])", "exp([0: 1/3*x1])")
    assert broken != text
    (gen / "broken.txt").write_text(broken)
    rc = main(["chern", "--bundle", str(gen / "broken.txt"), "--space", str(gen / "space.txt")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_cli_failing_connection_names_its_face(tmp_path, capsys):
    """The clutch(1) connection file cut to its header and first A line
    leaves A_S without its dx2 component; the FAIL line names the face."""
    main(["generate", "clutch", "--n", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    cut = tmp_path / "cut.txt"
    cut.write_text("".join((tmp_path / "connection.txt").read_text().splitlines(keepends=True)[:2]))
    assert main(["chern", "--bundle", "clutch:1", "--connection", str(cut)]) == 1
    out = capsys.readouterr().out
    assert "FAIL connection-valid: exact; gauge compatibility fails at (S, 0)\n" in out
    assert "pairings=[1/2]" in out


def test_cli_determinism(tmp_path, capsys):
    argv = ["verify", "--suite", "simplicial", "--seed", "3"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cli_report_written(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    rc = main(["betti", "--space", "two-disk", "--out", str(out_file)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert out_file.read_text() == stdout


def test_cli_verify_all(capsys):
    rc = main(["verify", "--suite", "all", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: pass" in out
    assert "FAIL" not in out
    assert out.count("PASS") >= 25


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--bundle", "clutch:1", "--poly", "chern:+1"],
        ["chern", "--bundle", "clutch:1", "--poly", "chern: 1"],
        ["betti", "--space", "standard:+2"],
        ["chern", "--bundle", "clutch: 1"],
        ["clutch", "--n", "+2"],
        ["clutch", "--n", "\uff11"],
        ["verify", "--seed", " 1"],
        ["betti", "--space", "standard:1", "--max-dim", "1_0"],
        ["generate", "trivial", "--group", "su02", "--out", "g4"],
        ["clutch", "--n", "01"],
        ["betti", "--space", "standard:007"],
        ["chern", "--bundle", "clutch:1", "--poly", "chern:01"],
        ["verify", "--seed", "00"],
        ["clutch", "--n", "-0"],
    ],
    ids=["poly-plus", "poly-space", "space-plus", "clutch-space", "n-plus", "n-fullwidth", "seed-space",
         "max-dim-underscore", "group-leading-zero", "n-leading-zero", "space-leading-zeros",
         "poly-leading-zero", "seed-leading-zero", "n-minus-zero"],
)
def test_cli_rejects_noncanonical_numerals(argv, capsys, tmp_path, monkeypatch):
    # the command line reads integers, flags and selectors alike, and
    # algebra names by the file formats' numeral rule
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not any(tmp_path.iterdir())


def _call(argv):
    """One in-process CLI call: (exit code, stdout, stderr).  An exception
    other than argparse's SystemExit propagates, failing the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


# argv with @ for a scratch directory holding a text file f, a directory d
# and a file binary that is not UTF-8
FILESYSTEM_ERRORS = {
    "betti-space-dir": ["betti", "--space", "@/d"],
    "chern-bundle-dir": ["chern", "--bundle", "@/d", "--space", "two-disk"],
    "chern-connection-dir": ["chern", "--bundle", "clutch:1", "--connection", "@/d"],
    "generate-out-file": ["generate", "clutch", "--n", "1", "--out", "@/f"],
    "clutch-out-file": ["clutch", "--n", "1", "--out", "@/f"],
    "horn-fill-out-file": ["horn-fill", "--n", "2", "--k", "0", "--out", "@/f"],
    "chern-out-under-file": ["chern", "--bundle", "clutch:1", "--out", "@/f/x"],
    "betti-out-dir": ["betti", "--space", "standard:1", "--out", "@/d"],
    "betti-space-binary": ["betti", "--space", "@/binary"],
    "chern-connection-binary": ["chern", "--bundle", "clutch:1", "--connection", "@/binary"],
}


@pytest.mark.parametrize("case", list(FILESYSTEM_ERRORS))
def test_cli_filesystem_errors_are_usage_errors(case, tmp_path):
    # an input path that cannot be read as text, or an --out that cannot
    # be written, exits 2 with one error line and no report
    (tmp_path / "f").write_text("x\n")
    (tmp_path / "d").mkdir()
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = _call([a.replace("@", str(tmp_path)) for a in FILESYSTEM_ERRORS[case]])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "f").read_text() == "x\n" and not any((tmp_path / "d").iterdir())


@pytest.mark.parametrize("command", [["betti", "--space", "standard:1"], ["horn-fill", "--n", "2", "--k", "0"],
                                     ["verify", "--suite", "forms"]], ids=["betti", "horn-fill", "verify"])
def test_cli_negative_seed_is_usage_error(command):
    assert _call(command + ["--seed", "-1"])[:2] == (2, "")
    assert _call(command + ["--seed", "0"])[0] == 0


def test_cli_parser_reused_across_calls(tmp_path):
    """Each call through the process's one parser reports exactly what
    the same call through a freshly built parser reports, so no value
    leaks from one call into the next."""
    sequence = [
        ["betti", "--space", "standard:1", "--max-dim"],  # argparse error
        ["betti", "--space", "standard:-1"],  # UsageError
        ["chern", "--bundle", "clutch:1", "--poly", "symtrace:1"],
        ["chern", "--bundle", "clutch:1"],
        ["generate", "trivial", "--group", "su2", "--out", str(tmp_path / "su2")],
        ["generate", "trivial", "--out", str(tmp_path / "u1")],
        ["clutch", "--n", "2", "--seed", "4"],
        ["clutch", "--n", "1"],
        ["--help"],
    ]

    def run(fresh):
        for d in tmp_path.iterdir():
            shutil.rmtree(d)
        results = []
        for argv in sequence:
            if fresh:
                build_parser.cache_clear()
            results.append(_call(argv) + tuple(sorted((p.name, p.read_text()) for p in tmp_path.rglob("*.txt"))))
        return results

    build_parser.cache_clear()
    reused = run(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert reused == run(fresh=True)
    assert reused[0][0] == 2 and reused[0][2].startswith("usage:")
    assert reused[1][0] == 2 and reused[1][2].startswith("error:")
    assert "class rho=symtrace:1 " in reused[2][1] and "class rho=chern:1 " in reused[3][1]
    assert "group su2" in (tmp_path / "su2" / "bundle.txt").read_text()
    assert "group u1" in (tmp_path / "u1" / "bundle.txt").read_text()
    assert "seed: 4" in reused[6][1] and "seed: 0" in reused[7][1]
    assert reused[8][0] == 0 and reused[8][1].startswith("usage: chernweil")


# the fuzzer's argv vocabulary; @ is its scratch directory
FUZZ_NUMERALS = ["-2", "-1", "0", "1", "2", "3", "x", "1.5", "", "+1", "1e3", "\uff11"]
FUZZ_PATHS = ["@/missing.txt", "@/d", "@/f", "@/f/x", "@/binary", "@/c/space.txt", "@/c/bundle.txt",
              "@/c/connection.txt", "@/t/space.txt", "@/t/bundle.txt"]
FUZZ_OUTS = ["@/out/new", "@/out/file", "@/out/dir", "@/out/file/x", "@/out/a/b"]
FUZZ_SELECTOR = st.sampled_from(["standard", "boundary-sphere", "clutch", "bogus", "two-disk"]).flatmap(
    lambda kind: st.sampled_from(FUZZ_NUMERALS).map(lambda n: f"{kind}:{n}")) | st.sampled_from(["two-disk", "bogus"])
FUZZ_VALUES = {
    "--space": FUZZ_SELECTOR | st.sampled_from(FUZZ_PATHS),
    "--bundle": FUZZ_SELECTOR | st.sampled_from(FUZZ_PATHS),
    "--connection": st.sampled_from(FUZZ_PATHS),
    "--poly": st.sampled_from(["chern", "symtrace", "reznikov", "bogus"]).flatmap(
        lambda kind: st.sampled_from(FUZZ_NUMERALS).map(lambda n: f"{kind}:{n}")) | st.sampled_from(["chern:1:x", "chern"]),
    "--group": st.sampled_from(["u1", "u2", "su2", "su3", "so3", "su9", "bogus", ""]),
    "--suite": st.sampled_from(["all", "simplicial", "forms", "liealg", "bundles", "chernweil", "bogus", ""]),
    "--mode": st.sampled_from(["exact", "float", "bogus"]),
    "--out": st.sampled_from(FUZZ_OUTS),
    "--bogus": st.sampled_from(["1"]),
}
FUZZ_FLAGS = {
    "betti": ["--space", "--max-dim"],
    "chern": ["--bundle", "--space", "--connection", "--poly"],
    "clutch": ["--n"],
    "generate": ["--n", "--k", "--space", "--group"],
    "horn-fill": ["--n", "--k"],
    "reznikov": ["--k", "--mode"],
    "verify": ["--suite"],
    "bogus": [],
}


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    if command == "generate" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["clutch", "trivial", "horn-demo", "bogus"])))
    flags = FUZZ_FLAGS[command] + ["--seed", "--out", "--mode", "--bogus", "--help"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)):
        argv.append(flag)
        if flag != "--help" and draw(st.integers(0, 9)):  # now and then a flag without its value
            argv.append(draw(FUZZ_VALUES.get(flag, st.sampled_from(FUZZ_NUMERALS))))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "f").write_text("x\n")
    (d / "d").mkdir()
    (d / "binary").write_bytes(b"\xff\xfe\x00")
    assert main(["clutch", "--n", "1", "--out", str(d / "c")]) == 0
    assert main(["generate", "trivial", "--group", "su2", "--out", str(d / "t")]) == 0
    (d / "out" / "dir").mkdir(parents=True)
    (d / "out" / "file").write_text("x\n")
    return d


@settings(max_examples=300, deadline=None)
@given(fuzz_argvs())
def test_cli_fuzz_exit_contract(fuzz_dir, argv):
    code, out, err = _call([a.replace("@", str(fuzz_dir)) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error:", "usage:"))


def test_cli_connection_exponent_at_the_field_limit(tmp_path, capsys):
    """x1^106038 has total degree RADIX - 1, which no packed key holds: the
    connection reader refuses it, and chern exits 2 with no traceback."""
    main(["generate", "clutch", "--n", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    text = (tmp_path / "connection.txt").read_text()
    bad = text.replace("A 2.1 0 2: -1*tau^1*x1\n", "A 2.1 0 2: -1*tau^1*x1^106038\n")
    assert "x1^106038" in bad
    (tmp_path / "degree.txt").write_text(bad)
    argv = ["chern", "--bundle", str(tmp_path / "bundle.txt"), "--space", str(tmp_path / "space.txt"),
            "--connection", str(tmp_path / "degree.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "x1^106038" in captured.err

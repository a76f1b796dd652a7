"""List the functions in chernweil that no CLI call reaches.

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

The script sets a profile hook before chernweil is imported, so a
cached constructor (``lie_algebra``, the basis tables) shows its first call.
It then runs the fixed list CALLS through ``cli.main`` in a scratch
directory and prints every function or method defined in the package
that no call entered and that ALLOWED does not name.  It exits 1 when
there is one, or when an ALLOWED name is no longer defined or is now
reached, so the list cannot go stale.  The inputs CALLS reads are
written by earlier CLI calls, from the literal text below, or by a
child process, so that building them reaches nothing here.

This is not a pytest module; CI runs it as its own step.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Kept although no CLI call reaches them, one reason each.
_PERFBENCH = "bound by perfbench/spans.py until its benchmark change (ROADMAP item 1)"
_CHAIN = "Chain arithmetic, for homology bases and the cup product (ROADMAP items 13 and 15)"
ALLOWED = {
    "cw.curvature": _PERFBENCH,
    "forms.induced_form_on_standard_simplex": _PERFBENCH,
    "io.parse_scalar": _PERFBENCH,
    "io.parse_polyform": _PERFBENCH,
    "io.polyform_to_str": _PERFBENCH,
    "liealg.InvariantPolynomial.eval": _PERFBENCH,
    "linalg.rank": _PERFBENCH,
    "linalg.solve_or_certify": _PERFBENCH,
    "linalg.PrecomputedSolver.solve": _PERFBENCH,
    "poly.Poly.compose": _PERFBENCH,
    "simplicial.Chain.__add__": _CHAIN,
    "simplicial.Chain.__neg__": _CHAIN,
    "simplicial.Chain.__sub__": _CHAIN,
    "simplicial.Chain.is_zero": _CHAIN,
    "simplicial.strip_degeneracy": "a step of product on degenerate factors, which only tests build",
}
# value types keep the hash/eq contract and a readable repr
VALUE_DUNDERS = ("__eq__", "__hash__", "__repr__")

# a 2-sphere with one vertex and one 2-cell: every face is the degenerate
# edge at the vertex, so form_on pulls forms back along a collapse
POINT_SPHERE = """\
simplicial-set v1
dim 0: 1
dim 1: 0
dim 2: 1
face 2.0 0 -> 0.0 s0
face 2.0 1 -> 0.0 s0
face 2.0 2 -> 0.0 s0
"""

# CI's hand-written su2 bundles on the boundaries of Delta^3 and Delta^4:
# the trivial bundle's text with one exp factor put in by hand.  chern
# refuses both with exit 2: exp factors are for abelian groups.
GAUGED_BUNDLES = """\
from chernweil import io, simplicial as sc, bundles as bn, liealg
su2 = liealg.lie_algebra('su2')
for n in (2, 3):
    X = sc.boundary_sphere(n)
    text = io.bundle_to_str(bn.trivial_bundle(X, su2))
    open(f's{n}-space.txt', 'w').write(io.simplicial_set_to_str(X))
    open(f's{n}-bundle.txt', 'w').write(text.replace('transition 2.0.0: id', 'transition 2.0.0: exp([0: 1/16*x1])'))
"""

# CI's Cayley-gauged su2 bundle on the boundary of Delta^4: a constant
# Cayley gauge on each cell, coordinates randrange(-4, 5) / 8.  chern
# builds its connection and validates it exactly.  The same gauges on
# the boundary of Delta^3, with an exp factor put before one
# transition's Cayley factors, give a mixed file that chern refuses.
CAYLEY_BUNDLES = """\
import random
from fractions import Fraction
from chernweil import io, simplicial as sc, bundles as bn, liealg
su2 = liealg.lie_algebra('su2')
for n, out in ((3, 'c3'), (2, 'm2')):
    X, rng = sc.boundary_sphere(n), random.Random(5)
    gauges = {s: bn.TransitionMap.cayley(su2, s.dim, [Fraction(rng.randrange(-4, 5), 8) for _ in range(3)])
              for s in X.all_cells()}
    text = io.bundle_to_str(bn.apply_gauge(bn.trivial_bundle(X, su2), gauges)[0])
    if out == 'm2':
        text = text.replace('transition 2.0.0: ', 'transition 2.0.0: exp([0: 1/16*x1]) * ')
    open(f'{out}-space.txt', 'w').write(io.simplicial_set_to_str(X))
    open(f'{out}-bundle.txt', 'w').write(text)
"""

# argv lists in order; a later call may read what an earlier one wrote
CALLS = [
    *(["verify", "--suite", "all", "--seed", str(seed)] for seed in range(3)),
    ["generate", "clutch", "--n", "2", "--out", "c"],
    ["generate", "trivial", "--space", "boundary-sphere:2", "--group", "su2", "--out", "t2"],
    ["generate", "trivial", "--space", "boundary-sphere:3", "--group", "su2", "--out", "t3"],
    ["generate", "trivial", "--space", "boundary-sphere:2", "--group", "so3", "--out", "o3"],
    ["generate", "trivial", "--space", "boundary-sphere:2", "--group", "su3", "--out", "u3"],
    ["generate", "trivial", "--space", "point-sphere.txt", "--group", "su2", "--out", "p"],
    ["generate", "horn-demo", "--n", "3", "--k", "1", "--out", "h"],
    ["clutch", "--n", "2"],
    ["clutch", "--n", "-1", "--out", "k"],
    ["chern", "--bundle", "c/bundle.txt", "--space", "c/space.txt", "--connection", "c/connection.txt"],
    ["chern", "--bundle", "c/bundle.txt", "--space", "c/space.txt"],
    ["chern", "--bundle", "k/bundle.txt", "--space", "k/space.txt", "--connection", "k/connection.txt"],
    ["chern", "--bundle", "t2/bundle.txt", "--space", "t2/space.txt", "--poly", "symtrace:2"],
    ["chern", "--bundle", "t3/bundle.txt", "--space", "t3/space.txt", "--poly", "symtrace:2"],
    ["chern", "--bundle", "t3/bundle.txt", "--space", "t3/space.txt", "--poly", "reznikov:2"],
    ["chern", "--bundle", "o3/bundle.txt", "--space", "o3/space.txt", "--poly", "symtrace:1"],
    ["chern", "--bundle", "u3/bundle.txt", "--space", "u3/space.txt", "--poly", "reznikov:1"],
    ["chern", "--bundle", "p/bundle.txt", "--space", "p/space.txt", "--poly", "symtrace:1"],
    ["chern", "--bundle", "h/filled-bundle.txt", "--space", "h/filled-space.txt"],
    ["chern", "--bundle", "s2-bundle.txt", "--space", "s2-space.txt", "--poly", "symtrace:1"],
    ["chern", "--bundle", "s3-bundle.txt", "--space", "s3-space.txt", "--poly", "symtrace:1"],
    ["chern", "--bundle", "c3-bundle.txt", "--space", "c3-space.txt", "--poly", "symtrace:2"],
    ["chern", "--bundle", "m2-bundle.txt", "--space", "m2-space.txt", "--poly", "symtrace:1"],
    ["chern", "--bundle", "clutch:3"],
    ["chern", "--bundle", "clutch:1", "--poly", "symtrace:1", "--out", "chern-report.txt"],
    ["betti", "--space", "boundary-sphere:3"],
    ["betti", "--space", "c/space.txt", "--max-dim", "1"],
    ["betti", "--space", "point-sphere.txt"],
    ["horn-fill", "--n", "3", "--k", "1", "--seed", "4", "--out", "hf"],
    ["horn-fill", "--n", "2", "--k", "0"],
    *(["reznikov", "--k", str(k), "--mode", "float"] for k in (1, 2, 3)),
    # usage errors: exit 2 with one line on stderr
    ["betti"],
    ["reznikov", "--k", "2"],
    ["verify", "--suite", "no-such-suite"],
    ["betti", "--space", "no-such-space"],
    ["betti", "--space", "c"],
    ["chern", "--bundle", "c/bundle.txt"],
    ["chern", "--bundle", "c/space.txt", "--space", "c/space.txt"],
    ["chern", "--bundle", "clutch:1", "--space", "standard:2"],
    ["chern", "--bundle", "clutch:1", "--poly", "bogus:1"],
    ["chern", "--bundle", "clutch:1", "--poly", "chern:7"],
    ["clutch", "--n", "+2"],
    ["generate", "clutch", "--n", "1"],
    ["generate", "trivial", "--group", "su02", "--out", "g"],
    ["horn-fill", "--n", "2", "--k", "5"],
    ["horn-fill", "--n", "1", "--k", "0"],
]


def package_dir():
    """The directory of the chernweil package that an import would load,
    found without importing it."""
    spec = importlib.util.find_spec("chernweil")
    if spec is None:
        sys.exit("chernweil is not importable; run with PYTHONPATH=src")
    return Path(spec.origin).parent


def write_inputs(workdir):
    """Write the inputs of CALLS that no CLI call writes."""
    (workdir / "point-sphere.txt").write_text(POINT_SPHERE)
    env = dict(os.environ, PYTHONPATH=str(package_dir().parent))
    for script in (GAUGED_BUNDLES, CAYLEY_BUNDLES):
        subprocess.run([sys.executable, "-c", script], cwd=workdir, env=env, check=True)


def run_calls():
    """(argv, exit code, stdout, stderr) of each call in CALLS, run in
    the current directory."""
    from chernweil import cli

    for argv in CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                # argparse's own usage errors
                code = e.code
        yield argv, code, out.getvalue(), err.getvalue()


def defined_functions(pkg):
    """{(file, first line of the code object): 'module.Qual.name'} for
    every function and method defined in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(pkg.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def main():
    pkg = package_dir()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            results = list(run_calls())
        finally:
            sys.setprofile(None)
            os.chdir(home)

    functions = defined_functions(pkg)
    reached = {name for key, name in functions.items() if key in entered}
    unreached = [
        name for key, name in functions.items()
        if key not in entered and name not in ALLOWED and name.rpartition(".")[2] not in VALUE_DUNDERS
    ]
    stale = [name for name in ALLOWED if name not in functions.values() or name in reached]
    print(f"{len(results)} CLI calls, exit codes {sorted({code for _, code, _, _ in results})}; "
          f"{len(reached)} of {len(functions)} functions reached, {len(ALLOWED)} allowed unreached")
    for name in unreached:
        print(f"unreached: {name}")
    for name in stale:
        print(f"allowed but {'reached' if name in reached else 'not defined'}: {name}")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())

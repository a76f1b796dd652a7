"""Batch front-end.

Exit codes: 0 all requested checks pass, 1 a mathematical check failed
(first counterexample in the report), 2 usage or parse errors.  Reports
are deterministic for a fixed (inputs, seed): identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import bundles as bn
from . import cw
from . import io as cio
from . import liealg as la
from . import simplicial as sc
from .forms import FaceConsistencyError
from .scalars import Scalar, parse_int
from .verify import SUITES, run_suite

USAGE_ERROR, MATH_FAILURE = 2, 1


class UsageError(Exception):
    pass


class MathError(Exception):
    pass


class RunReport:
    """Ordered pass/fail lines plus numeric results; versioned format."""

    def __init__(self, command, seed, mode):
        self.lines = [f"chernweil-report v1", f"command: {command}", f"seed: {seed}", f"mode: {mode}"]
        self.failed = False

    def add(self, text):
        self.lines.append(text)

    def check(self, name, ok, detail=""):
        self.lines.append(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            self.failed = True

    def finish(self):
        self.lines.append(f"result: {'fail' if self.failed else 'pass'}")
        return "\n".join(self.lines) + "\n"


def _read_int(text, need, signed=True):
    """parse_int(text, signed); any other spelling is a UsageError
    saying what needs the integer."""
    try:
        return parse_int(text, signed)
    except ValueError:
        raise UsageError(f"{need}, got {text!r}") from None


def _space_size(kind, arg):
    return _read_int(arg, f"{kind} needs a nonnegative integer size", signed=False)


def _clutch_n(arg):
    """The winding number N of a clutch:N selector."""
    return _read_int(arg, "clutch needs an integer winding number")


def _int_flag(flag, signed=True):
    """The argparse type of an integer flag.  Its UsageError passes
    through argparse, which turns only ValueError and TypeError into a
    usage message, to main's exit 2."""
    need = f"{flag} needs {'an' if signed else 'a nonnegative'} integer"
    return functools.partial(_read_int, need=need, signed=signed)


def _parse_space(selector):
    if ":" in selector:
        kind, _, arg = selector.partition(":")
        if kind == "standard":
            return sc.standard_simplex(_space_size(kind, arg))
        if kind == "boundary-sphere":
            return sc.boundary_sphere(_space_size(kind, arg))
        if kind == "clutch":
            _clutch_n(arg)
            return sc.two_disk_sphere()
    if selector == "two-disk":
        return sc.two_disk_sphere()
    path = Path(selector)
    if not path.exists():
        raise UsageError(f"unknown space selector or missing file: {selector}")
    return cio.parse_simplicial_set(path.read_text())


def cmd_betti(args, report):
    X = _parse_space(args.space)
    maxd = X.dim if args.max_dim is None else args.max_dim
    b = sc.betti_numbers(X, maxd)
    report.add("betti: " + " ".join(map(str, b)))
    report.check("betti-computed", True, f"dims 0..{maxd}")
    return report


def _load_bundle(args):
    """Returns (bundle, connection, name, expected winding or None); the
    connection is None for a bundle file given without one."""
    sel = args.bundle
    if sel.startswith("clutch:"):
        n = _clutch_n(sel.partition(":")[2])
        P, D = bn.clutch_bundle(n)
        if args.space is not None and _parse_space(args.space) != P.base:
            raise UsageError(f"{sel} lives on the two-disk sphere; --space {args.space} is another base")
        if args.connection:
            D = cio.parse_connection(Path(args.connection).read_text(), P)
        return P, D, f"clutch({n})", n
    if args.space is None:
        raise UsageError("--space is required with a bundle file")
    X = _parse_space(args.space)
    P = cio.parse_bundle(Path(sel).read_text(), X)
    rep = bn.validate_bundle(P)
    if not rep.ok:
        raise MathError("bundle validation failed: " + rep.failures[0])
    D = cio.parse_connection(Path(args.connection).read_text(), P) if args.connection else None
    name = Path(sel).stem
    return P, D, name, None


def cmd_chern(args, report):
    P, D, name, winding = _load_bundle(args)
    X = P.base
    rho = la.invariant_polynomial_from_selector(P.algebra, args.poly)
    cycles = [sc.fundamental_cycle_two_disk(X)] if X == sc.two_disk_sphere() else []
    if cycles and 2 * rho.arity > X.dim:
        # a class above the base dimension is zero, and pairs with no cycle
        raise UsageError(f"{args.poly} has degree {2 * rho.arity}, above the base dimension {X.dim}")
    if D is None:
        D = bn.construct_connection(P)
    crep = bn.validate_connection(P, D)
    detail = "exact"
    if crep.failures:
        first, others = crep.failures[0], len(crep.failures) - 1
        detail += f"; {first}" + (f" and {others} more" if others else "")
    report.check("connection-valid", crep.ok, detail)
    rep = cw.class_report(rho, P, D, cycles, name)
    report.add(rep.machine_line())
    report.check("cochain-closed", rep.closed)
    if winding is not None and rep.pairings:
        # a degree-1 rho pairs to rho(e_0) * tau * winding on u1, whose
        # basis is [[i]]: the winding itself for chern:1, i*tau times it
        # for symtrace:1
        oracle = bn.clutch_winding(P)
        expected = rho.tensor().get((0,), Scalar.zero()) * Scalar.tau() * oracle
        ok = rep.pairings[0] == expected and oracle == Scalar.from_rational(winding)
        report.check("winding-oracle-agreement", ok, f"pairing={cio.scalar_to_str(rep.pairings[0])}")
    return report


def cmd_clutch(args, report):
    P, D = bn.clutch_bundle(args.n)
    report.check("bundle-valid", bn.validate_bundle(P).ok)
    report.check("connection-valid", bn.validate_connection(P, D).ok)
    w = bn.clutch_winding(P)
    rep = cw.class_report(la.chern_polynomial(P.algebra, 1), P, D, [sc.fundamental_cycle_two_disk(P.base)])
    v = rep.pairings[0]
    report.add(f"winding: {cio.scalar_to_str(w)}")
    report.add(f"chern pairing: {cio.scalar_to_str(v)}")
    report.check("integrality", v == w == Scalar.from_rational(args.n))
    if args.out:
        _write_generated(Path(args.out), [("", P, D)], report)
    return report


def _write_generated(outdir, groups, report):
    """Write each (file prefix, bundle, connection or None) group's
    space, bundle and connection files, and read every file back to the
    same text (and the bundle to the same transitions)."""
    outdir.mkdir(parents=True, exist_ok=True)
    round_trip = True
    for prefix, P, D in groups:
        texts = {"space": cio.simplicial_set_to_str(P.base), "bundle": cio.bundle_to_str(P)}
        if D is not None:
            texts["connection"] = cio.connection_to_str(D)
        for kind, text in texts.items():
            (outdir / f"{prefix}{kind}.txt").write_text(text)
        back = {kind: (outdir / f"{prefix}{kind}.txt").read_text() for kind in texts}
        X2 = cio.parse_simplicial_set(back["space"])
        P2 = cio.parse_bundle(back["bundle"], X2)
        again = {"space": cio.simplicial_set_to_str(X2), "bundle": cio.bundle_to_str(P2)}
        if D is not None:
            again["connection"] = cio.connection_to_str(cio.parse_connection(back["connection"], P2))
        round_trip = round_trip and P2.transitions == P.transitions and again == texts
    report.check("serialization-roundtrip", round_trip, str(outdir))


def cmd_generate(args, report):
    if args.out is None:
        raise UsageError("generate needs --out <dir>")
    outdir = Path(args.out)
    if args.kind == "clutch":
        P, D = bn.clutch_bundle(args.n)
        _write_generated(outdir, [("", P, D)], report)
    elif args.kind == "trivial":
        X = _parse_space(args.space)
        try:
            alg = la.lie_algebra(args.group)
        except la.LieAlgebraError as e:
            raise UsageError(str(e)) from None
        P = bn.trivial_bundle(X, alg)
        report.check("bundle-valid", bn.validate_bundle(P).ok)
        _write_generated(outdir, [("", P, None)], report)
    elif args.kind == "horn-demo":
        H = _horn(args.n, args.k)
        P = bn.random_u1_bundle(H.space, random.Random(args.seed))
        filled = bn.horn_fill_bundle(H, P)
        back = bn.pullback_bundle(H.inclusion, filled)
        report.check("filler-restriction", back.transitions == P.transitions)
        _write_generated(outdir, [("horn-", P, None), ("filled-", filled, None)], report)
    else:
        raise UsageError(f"unknown generate kind {args.kind!r}")
    return report


def _horn(n, k):
    """The horn of a horn command; a filler needs an interior, so n >= 2."""
    if n < 2:
        raise UsageError(f"horn filling needs --n >= 2, got {n}")
    return sc.horn(n, k)


def cmd_horn_fill(args, report):
    H = _horn(args.n, args.k)
    P = bn.random_u1_bundle(H.space, random.Random(args.seed))
    report.check("input-valid", bn.validate_bundle(P).ok)
    if report.failed:
        return report
    filled = bn.horn_fill_bundle(H, P)
    report.check("filler-valid", bn.validate_bundle(filled).ok)
    back = bn.pullback_bundle(H.inclusion, filled)
    report.check("restriction-equality", back.transitions == P.transitions)
    back2 = bn.pullback_bundle(H.inclusion, bn.horn_fill_bundle(H, back))
    report.check("refill-stability", back2.transitions == back.transitions)
    if args.out:
        _write_generated(Path(args.out), [("horn-", P, None), ("filled-", filled, None)], report)
    return report


def cmd_reznikov(args, report):
    if args.mode == "exact":
        raise UsageError("reznikov requires --mode float")
    if args.k < 1:
        raise UsageError(f"reznikov needs --k >= 1, got {args.k}")
    su2 = la.lie_algebra("su2")
    rez = la.reznikov_pullback(su2, args.k).diagonal
    if args.k % 2:
        report.add(f"diagonal terms: {len(rez.terms)}")
        report.check("vanishing" if args.k == 1 else "odd-vanishing", rez.is_zero())
        return report
    # rho(x, .., x) = lambda tr(x^2)^(k/2), lambda = (-2)^(k/2)/(k+1) rational
    trace_power = la.sym_trace_poly(su2, 2).diagonal ** (args.k // 2)
    top = (args.k, 0, 0)
    lam = rez.terms[top] / trace_power.terms[top]
    report.add(f"lambda: {complex(lam.rational_value())!r}")
    report.check("proportional-to-trace-form" if args.k == 2 else "evaluated", rez == trace_power * lam)
    return report


def cmd_verify(args, report):
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    for s in suites:
        if s not in SUITES:
            raise UsageError(f"unknown suite {s!r}")
    for name, ok, detail in run_suite(suites, seed=args.seed):
        report.check(name, ok, detail)
    return report


@functools.cache
def build_parser():
    """The command-line parser; built once per process, since argparse
    keeps no state between parse_args calls."""
    p = argparse.ArgumentParser(prog="chernweil", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        # random.Random seeds with |seed|, so a negative seed would repeat
        # the run of its absolute value under another name
        sp.add_argument("--seed", type=_int_flag("--seed", signed=False), default=0)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("betti", help="rational betti numbers of a space")
    sp.add_argument("--space", required=True)
    sp.add_argument("--max-dim", type=_int_flag("--max-dim", signed=False), default=None)
    common(sp)

    sp = sub.add_parser("chern", help="characteristic cochain of a bundle")
    sp.add_argument("--bundle", required=True, help="clutch:N or a bundle file")
    sp.add_argument("--space", default=None)
    sp.add_argument("--connection", default=None)
    sp.add_argument("--poly", default="chern:1")
    common(sp)

    sp = sub.add_parser("clutch", help="build clutch(n) and check integrality")
    sp.add_argument("--n", type=_int_flag("--n"), required=True)
    common(sp)

    sp = sub.add_parser("generate", help="write example inputs to files")
    sp.add_argument("kind", choices=["clutch", "trivial", "horn-demo"])
    sp.add_argument("--n", type=_int_flag("--n"), default=1)
    sp.add_argument("--k", type=_int_flag("--k"), default=1)
    sp.add_argument("--space", default="boundary-sphere:2")
    sp.add_argument("--group", default="u1")
    common(sp)

    sp = sub.add_parser("horn-fill", help="fill a random horn bundle")
    sp.add_argument("--n", type=_int_flag("--n"), required=True)
    sp.add_argument("--k", type=_int_flag("--k"), required=True)
    common(sp)

    sp = sub.add_parser("reznikov", help="integrated-Hamiltonian functional on su2")
    sp.add_argument("--k", type=_int_flag("--k"), required=True)
    # reznikov runs only with --mode float; every other report says mode: exact
    sp.add_argument("--mode", choices=["exact", "float"], default="exact")
    common(sp)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--suite", default="all")
    common(sp)
    return p


COMMANDS = {
    "betti": cmd_betti,
    "chern": cmd_chern,
    "clutch": cmd_clutch,
    "generate": cmd_generate,
    "horn-fill": cmd_horn_fill,
    "reznikov": cmd_reznikov,
    "verify": cmd_verify,
}


def main(argv=None):
    echo = " ".join(argv if argv is not None else sys.argv[1:])
    try:
        args = build_parser().parse_args(argv)
        report = RunReport(echo, args.seed, getattr(args, "mode", "exact"))
        try:
            report = COMMANDS[args.command](args, report)
        except (MathError, FaceConsistencyError) as e:
            report.check("validation", False, str(e))
        text = report.finish()
        # generate, clutch and horn-fill take --out as a directory of files
        if args.out and args.command not in ("generate", "clutch", "horn-fill"):
            Path(args.out).write_text(text)
    except (UsageError, cio.ParseError, OSError, UnicodeDecodeError, sc.InvalidHornError, la.SelectorError) as e:
        # OSError and UnicodeDecodeError: an input path that cannot be read
        # as text, an --out that cannot be written
        sys.stderr.write(f"error: {e}\n")
        return USAGE_ERROR
    sys.stdout.write(text)
    return MATH_FAILURE if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())

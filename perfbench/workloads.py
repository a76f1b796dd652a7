"""The four benchmark workloads.

Each workload turns a seed into a *batch*: a list of ops.  An op has a
``call`` that is timed and a ``check`` that is not.  ``check`` returns
``"ok"``, ``"nonconforming"`` (a CLI invocation from the known contract
gaps listed in ``KNOWN_NONCONFORMING`` that did not exit 2) or a failure
reason string.  Inputs are built from the seed before ``call`` runs, so
the timed region holds only work done by the library.

All library calls go through module attributes (``cw.cw_cochain``, not a
bound name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _io
import random
import shutil
from pathlib import Path

from chernweil import bundles as bn
from chernweil import cli
from chernweil import cw
from chernweil import forms as fm
from chernweil import io as cio
from chernweil import liealg as la
from chernweil import simplicial as sc
from chernweil.poly import Poly
from chernweil.scalars import Scalar

OK, NONCONFORMING = "ok", "nonconforming"

# Each workload class has `name`, `seeded` (whether batch seeds derive from
# --seed), `batch(seed) -> [Op]`, and optionally `oracle()`, `end_batch()` and
# `warmup(seed) -> [Op]` (the warm-up ops, when they are not a whole batch).


class Op:
    """`kind` groups ops that do the same work on different inputs."""

    __slots__ = ("label", "call", "check", "kind")

    def __init__(self, label, call, check, kind=None):
        self.label = label
        self.call = call
        self.check = check
        self.kind = label if kind is None else kind


def _verdict(ok, reason):
    return OK if ok else reason


# ---------------------------------------------------------------------------
# chern2-simplex4: second Chern forms on one 4-simplex, exact end to end


def _sparse_poly(rng, dim, degree, nterms):
    """Degree-<=`degree` polynomial with exactly `nterms` nonzero terms.

    A fixed term count keeps the cost of an op nearly independent of the
    seed; numerators and denominators lie in 1..5.
    """
    monos = fm._monomials_up_to(dim, degree)
    terms = {}
    for e in rng.sample(monos, nterms):
        terms[e] = Scalar.from_rational(rng.choice((-1, 1)) * rng.randrange(1, 6), rng.randrange(1, 6))
    return Poly(dim, terms)


def _global_one_form(rng, dim):
    return fm.PolyForm(dim, 1, {(j,): _sparse_poly(rng, dim, 1, 2) for j in range(dim)})


class Chern2Simplex4:
    """su2 symtrace:2 and u2 chern:2 on a degree-1 global connection over Delta^4.

    Per algebra: pull the global g-valued 1-form back to all 31 faces,
    validate it (exact: all transitions are identity), integrate the
    characteristic form, check closedness with ==, and solve for the
    coboundary witness against the zero connection, verifying d(witness)
    equals the cochain exactly.  No whitney_extend, no io.
    """

    name = "chern2-simplex4"
    seeded = True
    CASES = (("su2", "symtrace:2"), ("u2", "chern:2"))

    def __init__(self, workdir):
        self.X = sc.standard_simplex(4)
        self.bundles = {g: bn.trivial_bundle(self.X, la.lie_algebra(g)) for g, _ in self.CASES}

    def batch(self, seed):
        """Three ops per algebra (connection, cochain, witness); all six are
        one pass of the pipeline, timed in steps of about a second."""
        rng = random.Random(seed)
        ops = []
        for group, selector in self.CASES:
            P = self.bundles[group]
            ops += self._ops(P, selector, [_global_one_form(rng, self.X.dim) for _ in range(P.algebra.dim)])
        return ops

    def _ops(self, P, selector, global_forms):
        X, alg = self.X, P.algebra
        state = {}

        def connection():
            per_coord = [fm.induced_form_on_standard_simplex(X, g) for g in global_forms]
            state["D1"] = D1 = bn.Connection(
                P, {s: bn.LieValuedForm(alg, s.dim, 1, [f.form(s) for f in per_coord]) for s in X.all_cells()}
            )
            state["valid"] = bn.validate_connection(P, D1)

        def check_connection():
            valid = state["valid"]
            return _verdict(valid.ok and valid.exact, "connection not exactly valid")

        def cochain():
            state["rho"] = rho = la.invariant_polynomial_from_selector(alg, selector)
            state["alpha"] = alpha = cw.cw_cochain(rho, state["D1"])
            state["closed"] = sc.coboundary(X, alpha).is_zero()

        def check_cochain():
            if not state["closed"]:
                return "characteristic cochain not closed"
            return _verdict(not state["alpha"].value(sc.SimplexId(4, 0)).is_zero(), "top-cell value vanished")

        def witness():
            D0 = bn.Connection(P, {s: bn.LieValuedForm.zero(alg, s.dim, 1) for s in X.all_cells()})
            state["indep"] = cw.connection_independence(P, state["D1"], D0, state["rho"])

        def check_witness():
            rep = state["indep"]
            if not rep.ok or rep.witness is None:
                return "no coboundary witness"
            return _verdict(sc.coboundary(X, rep.witness) == state["alpha"], "witness does not cobound the cochain")

        name = f"{alg.name} {selector}"
        return [
            Op(f"{name} connection", connection, check_connection),
            Op(f"{name} cochain", cochain, check_cochain),
            Op(f"{name} witness", witness, check_witness),
        ]

    def oracle(self):
        """Wedge path vs permutation-sum oracle on a top-cell curvature: (2k)!/2^k = 6."""
        rng = random.Random(20211213)
        su2 = la.lie_algebra("su2")
        rho = la.sym_trace_poly(su2, 2)
        A = bn.LieValuedForm(su2, 4, 1, [_global_one_form(rng, 4) for _ in range(su2.dim)])
        c = cw.calibrate_cw_constant(rho, cw.curvature_form(A))
        return c == Scalar.from_rational(6), f"calibration constant {c!r}"


# ---------------------------------------------------------------------------
# connection-sphere3: skeletal connections and concordances


class ConnectionSphere3:
    """random_connection on the trivial su2 bundle over the boundary of Delta^4,
    then a concordance between the packaged and a random connection on clutch(n).

    Work sits in bundles, forms.whitney_extend and linalg; no cw or liealg
    invariant polynomials run.  Validation is exact in both halves (identity
    transitions; abelian transitions).
    """

    name = "connection-sphere3"
    seeded = True

    def __init__(self, workdir):
        self.X = sc.boundary_sphere(3)
        self.P = bn.trivial_bundle(self.X, la.lie_algebra("su2"))

    def batch(self, seed):
        rng = random.Random(seed)
        conn_seed, conc_seed = rng.randrange(1 << 30), rng.randrange(1 << 30)
        n = rng.choice((-3, -2, -1, 1, 2, 3))
        state = {}

        def sphere_connection():
            state["D"] = bn.random_connection(self.P, conn_seed)

        def sphere_validate():
            state["valid"] = bn.validate_connection(self.P, state["D"])

        def check_sphere():
            r = state["valid"]
            return _verdict(r.ok and r.exact, "su2 connection on the 3-sphere not exactly valid")

        def concordance():
            Pc, D0 = bn.clutch_bundle(n)
            D1 = bn.random_connection(Pc, conc_seed)
            state.update(Pc=Pc, D0=D0, D1=D1, conc=bn.concordance(Pc, D0, D1))

        def check_concordance():
            conc, Pc = state["conc"], state["Pc"]
            for end, D in ((conc.end0, state["D0"]), (conc.end1, state["D1"])):
                restricted = conc.restrict(end)
                if any(restricted[s] != D.forms[s] for s in Pc.base.all_cells()):
                    return "concordance end restriction differs"
            return OK

        def concordance_validate():
            conc = state["conc"]
            state["conc_valid"] = bn.validate_connection(conc.bundle, conc.connection)

        def check_concordance_valid():
            rc = state["conc_valid"]
            return _verdict(rc.ok and rc.exact, "concordance connection not exactly valid")

        return [
            Op("su2 random_connection on the 3-sphere", sphere_connection, lambda: OK),
            Op("su2 validate_connection on the 3-sphere", sphere_validate, check_sphere),
            Op(f"concordance on clutch({n})", concordance, check_concordance, kind="clutch concordance"),
            Op(f"validate concordance on clutch({n})", concordance_validate, check_concordance_valid,
               kind="validate clutch concordance"),
        ]


# ---------------------------------------------------------------------------
# verify-all: the named end-to-end command


def _run_cli(argv):
    """One in-process CLI call; returns (exit code or exception name, stdout, stderr)."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # a traceback in the CLI breaks its contract
            code = type(e).__name__
    return code, out.getvalue(), err.getvalue()


class VerifyAll:
    """`chernweil verify --suite <suite> --seed s` in-process for each of the
    five suites: one batch is the work of `verify --suite all`.  The only
    workload that reaches the float paths (quadrature, expm, reznikov)."""

    name = "verify-all"
    # verify's cost depends on its seed (the chernweil suite took 5.6-8.0 s
    # over four seeds), so every run uses the same seeds and a run's
    # numbers move with the program, not with --seed
    seeded = False

    def __init__(self, workdir):
        pass

    def batch(self, seed):
        s = str(seed % 100000)
        return [self._op(suite, len(checks), s) for suite, checks in cli.SUITES.items()]

    def warmup(self, seed):
        """One op: the bundles suite, which touches every layer but cw in
        half a second; a whole batch would make set-up ten seconds long."""
        return [self._op("bundles", len(cli.SUITES["bundles"]), str(seed))]

    @staticmethod
    def _op(suite, nchecks, seed):
        state = {}

        def call():
            state["res"] = _run_cli(["verify", "--suite", suite, "--seed", seed])

        def check():
            code, out, _ = state["res"]
            lines = out.splitlines()
            passes = sum(1 for ln in lines if ln.startswith("PASS "))
            if code != 0:
                return f"exit {code}"
            if passes != nchecks or any(ln.startswith("FAIL ") for ln in lines):
                return f"{passes} PASS lines, want {nchecks}"
            return _verdict(lines[-1] == "result: pass", "report does not end with 'result: pass'")

        return Op(f"verify --suite {suite} --seed {seed}", call, check, kind=suite)


# ---------------------------------------------------------------------------
# cli-session: a seeded script of small CLI calls, writes beside reads

# Usage errors that ROADMAP item 5 lists.  The README contract says each
# exits 2; at the seed commit they raise or exit 0 instead.  They run in
# every pass and are checked against exit 2; a miss is counted as
# nonconforming (reported, and shown in fail_ratio) rather than as an
# unexpected failure, so a fix shows as the count dropping to zero.
KNOWN_NONCONFORMING = (
    "poly-bogus",
    "poly-nonint",
    "poly-overflow",
    "space-nonint",
    "horn-n1",
    "horn-n0",
    "betti-negative",
    "reznikov-k0",
    "bundle-empty",
    "bundle-bad-coordinate",
    "bundle-wrong-base",
)


class CliSession:
    """One op is one `cli.main` call; a batch is one pass over the script."""

    name = "cli-session"
    seeded = True

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        P, _ = bn.clutch_bundle(1)
        bundle_text = cio.bundle_to_str(P)
        (inputs / "space.txt").write_text(cio.simplicial_set_to_str(P.base))
        (inputs / "empty-bundle.txt").write_text("")
        # u1 has one coordinate; index 1 is out of range
        (inputs / "bad-coordinate.txt").write_text(bundle_text.replace("exp([0:", "exp([1:"))
        self.inputs = inputs
        self.passes = 0

    def batch(self, seed):
        rng = random.Random(seed)
        d = self.workdir / f"pass{self.passes}"
        self.passes += 1
        n1, n2, n3 = (rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(3))
        k2 = rng.randrange(3)
        k3 = rng.randrange(4)
        s1, s2, s3 = (rng.randrange(1000) for _ in range(3))
        inp = self.inputs
        c, t, h, k = d / "c", d / "t", d / "h", d / "k"

        def files_round_trip(dirpath, groups):
            """groups: (space file, bundle file, connection file or None) triples."""

            def verdict(out):
                for space_name, bundle_name, conn_name in groups:
                    paths = [dirpath / n for n in (space_name, bundle_name, conn_name) if n]
                    missing = [p.name for p in paths if not p.is_file()]
                    if missing:
                        return f"{missing} not written"
                    texts = [p.read_text() for p in paths]
                    base = cio.parse_simplicial_set(texts[0])
                    bundle = cio.parse_bundle(texts[1], base)
                    again = [cio.simplicial_set_to_str(base), cio.bundle_to_str(bundle)]
                    if conn_name:
                        again.append(cio.connection_to_str(cio.parse_connection(texts[2], bundle)))
                    if again != texts:
                        return f"{dirpath.name}/{bundle_name} group round trip not byte-identical"
                return OK

            return verdict

        def stdout_has(*needles):
            return lambda out: _verdict(all(x in out for x in needles), f"missing {needles!r}")

        def clutch_files(n):
            def verdict(out):
                r = files_round_trip(c, [("space.txt", "bundle.txt", "connection.txt")])(out)
                if r != OK:
                    return r
                P = cio.parse_bundle((c / "bundle.txt").read_text(), cio.parse_simplicial_set((c / "space.txt").read_text()))
                return _verdict(P.transitions == bn.clutch_bundle(n)[0].transitions, "clutch transitions differ")

            return verdict

        script = [
            # (label, argv, contract exit code, check of stdout when the exit matches)
            ("gen-clutch", ["generate", "clutch", "--n", str(n1), "--out", str(c)], 0, clutch_files(n1)),
            ("gen-trivial", ["generate", "trivial", "--space", "boundary-sphere:2", "--group", "su2", "--out", str(t)], 0,
             files_round_trip(t, [("space.txt", "bundle.txt", None)])),
            ("gen-horn", ["generate", "horn-demo", "--n", "2", "--k", str(k2), "--seed", str(s1), "--out", str(h)], 0,
             files_round_trip(h, [("horn-space.txt", "horn-bundle.txt", None),
                                  ("filled-space.txt", "filled-bundle.txt", None)])),
            ("clutch-out", ["clutch", "--n", str(n2), "--out", str(k)], 0,
              lambda out: files_round_trip(k, [("space.txt", "bundle.txt", "connection.txt")])(out)
             if f"chern pairing: {n2}\n" in out else "wrong chern pairing"),
            ("chern-file-conn", ["chern", "--bundle", str(c / "bundle.txt"), "--space", str(c / "space.txt"),
                                 "--connection", str(c / "connection.txt")], 0,
             stdout_has(f"closed=yes pairings=[{n1}]")),
            ("chern-file", ["chern", "--bundle", str(c / "bundle.txt"), "--space", str(c / "space.txt")], 0,
             stdout_has(f"closed=yes pairings=[{n1}]")),
            ("chern-clutch-out", ["chern", "--bundle", str(k / "bundle.txt"), "--space", str(k / "space.txt"),
                                  "--connection", str(k / "connection.txt")], 0,
             stdout_has(f"closed=yes pairings=[{n2}]")),
            ("chern-trivial-su2", ["chern", "--bundle", str(t / "bundle.txt"), "--space", str(t / "space.txt"),
                                   "--poly", "symtrace:2"], 0, stdout_has("closed=yes pairings=[]")),
            ("chern-builtin", ["chern", "--bundle", f"clutch:{n3}"], 0,
             stdout_has(f"closed=yes pairings=[{n3}]", "PASS winding-oracle-agreement")),
            ("betti-sphere3", ["betti", "--space", "boundary-sphere:3"], 0, stdout_has("betti: 1 0 0 1\n")),
            ("betti-file", ["betti", "--space", str(c / "space.txt")], 0, stdout_has("betti: 1 0 1\n")),
            ("horn-fill-3", ["horn-fill", "--n", "3", "--k", str(k3), "--seed", str(s2)], 0,
             stdout_has("PASS refill-stability", "result: pass")),
            ("horn-fill-2", ["horn-fill", "--n", "2", "--k", str(k2), "--seed", str(s3)], 0,
             stdout_has("PASS refill-stability", "result: pass")),
            # usage errors the seed commit already maps to exit 2
            ("no-space", ["chern", "--bundle", str(c / "bundle.txt")], 2, None),
            ("missing-file", ["chern", "--bundle", str(d / "missing.txt"), "--space", str(c / "space.txt")], 2, None),
            ("unknown-space", ["betti", "--space", "no-such-space"], 2, None),
            ("invalid-horn", ["horn-fill", "--n", "2", "--k", "5"], 2, None),
            ("reznikov-exact", ["reznikov", "--k", "2"], 2, None),
            ("unknown-suite", ["verify", "--suite", "no-such-suite"], 2, None),
            ("space-as-bundle", ["chern", "--bundle", str(c / "space.txt"), "--space", str(c / "space.txt")], 2, None),
            # KNOWN_NONCONFORMING
            ("poly-bogus", ["chern", "--bundle", "clutch:1", "--poly", "bogus:1"], 2, None),
            ("poly-nonint", ["chern", "--bundle", "clutch:1", "--poly", "chern:x"], 2, None),
            ("poly-overflow", ["chern", "--bundle", "clutch:1", "--poly", "chern:7"], 2, None),
            ("space-nonint", ["betti", "--space", "boundary-sphere:abc"], 2, None),
            ("horn-n1", ["horn-fill", "--n", "1", "--k", "0"], 2, None),
            ("horn-n0", ["horn-fill", "--n", "0", "--k", "0"], 2, None),
            ("betti-negative", ["betti", "--space", "standard:-1"], 2, None),
            ("reznikov-k0", ["reznikov", "--k", "0", "--mode", "float"], 2, None),
            ("bundle-empty", ["chern", "--bundle", str(inp / "empty-bundle.txt"), "--space", str(inp / "space.txt")], 2, None),
            ("bundle-bad-coordinate", ["chern", "--bundle", str(inp / "bad-coordinate.txt"), "--space", str(inp / "space.txt")],
             2, None),
            ("bundle-wrong-base", ["chern", "--bundle", str(c / "bundle.txt"), "--space", "standard:2"], 2, None),
        ]
        return [self._op(label, argv, want, check) for label, argv, want, check in script]

    @staticmethod
    def _op(label, argv, want, check):
        state = {}

        def call():
            state["res"] = _run_cli(argv)

        def verdict():
            code, out, err = state["res"]
            if code != want or (want == 2 and not err.startswith(("error:", "usage:"))):
                if label in KNOWN_NONCONFORMING:
                    return NONCONFORMING
                return f"{label}: exit {code}, contract {want}"
            return check(out) if check else OK

        return Op(label, call, verdict)

    def end_batch(self):
        shutil.rmtree(self.workdir / f"pass{self.passes - 1}", ignore_errors=True)



WORKLOADS = {w.name: w for w in (Chern2Simplex4, ConnectionSphere3, VerifyAll, CliSession)}

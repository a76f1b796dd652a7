"""Spans and counters around the library's public entry points, plus the
profiler pass that supplies module self times and hot-kernel call counts.

The wrappers are installed from the benchmark's own code; nothing under
``src/`` changes.  A function imported by name into another module is
bound there too, so every module binding of a wrapped function is
replaced (``whitney_extend`` lives in both ``forms`` and ``bundles``).
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import chernweil
from chernweil import bundles, cli, cw, forms, io, liealg, linalg, poly, scalars, simplicial, verify

SRC = Path(chernweil.__file__).resolve().parent
# modules whose profiled self time is reported (verify and cli only orchestrate)
SELF_TIME_LAYERS = ("scalars", "poly", "linalg", "simplicial", "forms", "liealg", "bundles", "cw", "io")

# span name -> entry points it covers; several functions may share a name
SPANS = {
    "linalg.PrecomputedSolver.build": [(linalg.PrecomputedSolver, "__init__")],
    "linalg.PrecomputedSolver.solve": [(linalg.PrecomputedSolver, "solve")],
    "linalg.solve_or_certify": [(linalg, "solve_or_certify")],
    "linalg.rank": [(linalg, "rank")],
    "simplicial.is_coboundary": [(simplicial, "is_coboundary")],
    "simplicial.betti_numbers": [(simplicial, "betti_numbers")],
    "forms.whitney_extend": [(forms, "whitney_extend")],
    "forms.PolyForm.pullback": [(forms.PolyForm, "pullback")],
    "forms.integrate_to_cochain": [(forms, "integrate_to_cochain")],
    "liealg.InvariantPolynomial.eval": [(liealg.InvariantPolynomial, "eval")],
    "bundles.construct_connection": [(bundles, "construct_connection")],
    "bundles.validate_connection": [(bundles, "validate_connection")],
    "bundles.validate_bundle": [(bundles, "validate_bundle")],
    "bundles.concordance": [(bundles, "concordance")],
    "cw.curvature": [(cw, "curvature")],
    "cw.cw_form": [(cw, "cw_form")],
    "cw.cw_cochain": [(cw, "cw_cochain")],
    "cw.connection_independence": [(cw, "connection_independence")],
    "cw.calibrate_cw_constant": [(cw, "calibrate_cw_constant")],
    "io.parse": [(io, n) for n in ("parse_simplicial_set", "parse_bundle", "parse_connection",
                                   "parse_polyform", "parse_poly", "parse_scalar")],
    "io.serialize": [(io, n) for n in ("simplicial_set_to_str", "bundle_to_str", "connection_to_str",
                                       "polyform_to_str", "poly_to_str", "scalar_to_str")],
    "cli.main": [(cli, "main")],
}
for _suite in verify.SUITES.values():
    for _check, _fn in _suite:
        SPANS[f"verify.{_check}"] = [(verify, _fn.__name__)]
VERIFY_CHECKS = [c for suite in verify.SUITES.values() for c, _ in suite]

# hot kernels counted by the profiler pass: metric name -> (class or module, attribute)
PROFILED_CALLS = {
    "scalars.Scalar.mul.calls": (scalars.Scalar, "__mul__"),
    "scalars.Scalar.add.calls": (scalars.Scalar, "__add__"),
    "poly.Poly.mul.calls": (poly.Poly, "__mul__"),
    "poly.Poly.compose.calls": (poly.Poly, "compose"),
    "forms.PolyForm.wedge.calls": (forms.PolyForm, "wedge"),
    "scalars.fraction_new.calls": (fractions.Fraction, "__new__"),
}


def _code_key(code):
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """In-memory spans (name, start, end, parent, op) and per-op counters."""

    def __init__(self):
        self.op = None  # spans and counts are recorded only while an op runs
        self.stack = []  # indices into self.spans of the open spans
        self.open_names = set()
        self.spans = []
        self.counts = defaultdict(float)  # (op, key) -> value
        self._undo = []

    # -- recording ----------------------------------------------------

    def count(self, key, value=1):
        self.counts[(self.op, key)] += value

    def _wrap(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer.count(name + ".calls")
            if name in tracer.open_names:  # recursion or a sibling entry point: inside the outer span
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            idx = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.op])
            tracer.stack.append(idx)
            tracer.open_names.add(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer.stack.pop()
                tracer.open_names.discard(name)
            if extra is not None:
                extra(tracer, args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every entry point in SPANS at each of its bindings."""
        mods = [m for n, m in sys.modules.items() if n == "chernweil" or n.startswith("chernweil.")]
        for name, targets in SPANS.items():
            extra = _EXTRAS.get(name)
            for owner, attr in targets:
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, extra)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapped)
                    continue
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._patch(m, k, wrapped)
                for suite in verify.SUITES.values():  # the suite table holds the check functions too
                    for i, (check, fn) in enumerate(suite):
                        if fn is orig:
                            self._undo.append((suite, i, suite[i]))
                            suite[i] = (check, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, list):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- summaries ----------------------------------------------------

    def per_batch(self, ops, batches):
        """Inclusive seconds and counters summed over `ops`, then divided by `batches`."""
        ops = set(ops)
        out = defaultdict(float)
        for name, start, end, _parent, op in self.spans:
            if op in ops:
                out[name + ".s"] += end - start
        for (op, key), v in self.counts.items():
            if op in ops:
                out[key] += v
        return {k: v / batches for k, v in out.items()}

    def totals(self, key):
        return sum(v for (_op, k), v in self.counts.items() if k == key)

    def span_seconds(self, name):
        return sum(end - start for n, start, end, _p, _op in self.spans if n == name)


def _build_rows(tracer, args, result):
    tracer.count("linalg.PrecomputedSolver.build.rows", len(args[1]))


def _solve(tracer, args, result):
    if "forms.whitney_extend" in tracer.open_names:
        tracer.count("forms.whitney_extend.solves")
        if result[0] == "solved":
            tracer.count("forms.whitney_extend.solved")


def _coboundary_cells(tracer, args, result):
    X, cochain = args[0], args[1]
    k = cochain.dim
    tracer.count("simplicial.is_coboundary.cells", len(X.cells(k)) + (len(X.cells(k - 1)) if k >= 1 else 0))


def _parse_bytes(tracer, args, result):
    tracer.count("io.parse.bytes", len(args[0]))


def _serialize_bytes(tracer, args, result):
    tracer.count("io.serialize.bytes", len(result))


# counters beside the spans; they run for outermost spans only, so a
# parse_poly nested in parse_bundle does not count its text twice
_EXTRAS = {
    "linalg.PrecomputedSolver.build": _build_rows,
    "linalg.PrecomputedSolver.solve": _solve,
    "simplicial.is_coboundary": _coboundary_cells,
    "io.parse": _parse_bytes,
    "io.serialize": _serialize_bytes,
}


class Profile:
    """cProfile around ops, plus an exact term-pair counter on Poly.__mul__."""

    def __init__(self):
        self.prof = cProfile.Profile()
        self.term_pairs = 0
        orig = poly.Poly.__mul__
        profile = self

        @functools.wraps(orig)
        def counted_mul(a, b):
            if isinstance(b, poly.Poly):
                profile.term_pairs += len(a.terms) * len(b.terms)
            return orig(a, b)

        self._orig_mul = orig
        self._counted_mul = counted_mul

    def run(self, call):
        poly.Poly.__mul__ = poly.Poly.__rmul__ = self._counted_mul
        self.prof.enable()
        try:
            call()
        finally:
            self.prof.disable()
            poly.Poly.__mul__ = poly.Poly.__rmul__ = self._orig_mul

    def metrics(self, batches):
        """Per-batch module self times and kernel counts."""
        self.prof.create_stats()
        stats = self.prof.stats  # (file, line, func) -> (cc, nc, tt, ct, callers)
        out = {f"{layer}.self_s": 0.0 for layer in SELF_TIME_LAYERS}
        out["scalars.fractions_self_s"] = 0.0
        for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.items():
            path = Path(filename)
            if path.parent == SRC and path.stem in SELF_TIME_LAYERS:
                out[f"{path.stem}.self_s"] += tt
            elif path.name == "fractions.py":
                out["scalars.fractions_self_s"] += tt
        for name, (owner, attr) in PROFILED_CALLS.items():
            key = _code_key(getattr(owner, attr).__code__)
            out[name] = stats[key][1] if key in stats else 0
        out["poly.Poly.mul.term_pairs"] = self.term_pairs
        return {k: v / batches for k, v in out.items()}

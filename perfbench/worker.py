"""One benchmark worker: a fresh process that sets up, warms up and runs ops.

Started by run.py, never by hand.  Prints one JSON object as its last
line of standard output.  Set-up time is measured from the moment the
parent spawned this process (``--spawn``, a ``time.monotonic`` reading,
which Linux shares across processes) to the first timed op.  Untraced,
it is reported both as measured (``setup_wall_s``) and at reference
speed (``setup_s``, see SpeedSampler).
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

# batches per traced pass: fixed, so the counts repeat exactly for a seed
TRACED_BATCHES = {"chern2-simplex4": 1, "connection-sphere3": 2, "verify-all": 1, "cli-session": 1}
# warm-up batches before timing: whitney_extend's solver cache fills over
# the first two connection-sphere3 batches (8 builds, then 0-1, then none)
WARMUP_BATCHES = {"connection-sphere3": 2}
# the timed worker of an untraced run does at least this many batches, and
# more until its --seconds have passed; --seconds 0 sets up only
MIN_BATCHES = 2
# seconds per kernel() run at the reference speed: set-up time in probe
# units times this is set-up time in seconds at that speed
KERNEL_REF_S = 1e-3

_rng = random.Random(7)
_KERNEL_TERMS = [
    ((_rng.randrange(4), _rng.randrange(4), _rng.randrange(4)), Fraction(_rng.randrange(1, 50), _rng.randrange(1, 50)))
    for _ in range(16)
]


def kernel():
    """A fixed pure-Python exact-arithmetic kernel of about a millisecond
    (a sparse polynomial product over Fractions keyed by exponent tuples,
    the library's hot path) that never changes with the program."""
    out = {}
    for e1, c1 in _KERNEL_TERMS:
        for e2, c2 in _KERNEL_TERMS:
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2
    return out


class SpeedSampler:
    """Reads the machine's speed while the worker runs.

    Every PERIOD seconds of wall time a SIGALRM handler times kernel(),
    between two bytecodes of whatever op is running, on the same CPU.  An
    op's time in *probe units* is its own time (the readings taken inside
    it subtracted) times the mean of 1/reading over those readings: the
    number of kernel() calls it is worth at the speed the machine had
    while it ran.  The machine's speed changes by up to 2x in spells of
    seconds; this cancels it where a best-of or median of raw times
    cannot (BASELINE.md has the measurements).  Set-up time is converted
    the same way and scaled to seconds by KERNEL_REF_S.
    """

    PERIOD = 0.025

    def __init__(self):
        self.ends, self.secs = [], []  # perf_counter at the end of each reading; its duration

    def _read(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.secs.append(t1 - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._read)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._read()

    def measure(self, t0, wall):
        """(seconds, probe units, seconds spent in readings) of an op that
        started at perf_counter t0 and took `wall`.  An op with fewer than
        two readings inside it (shorter than 2 * PERIOD) takes the two
        readings nearest its midpoint."""
        i, j = bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t0 + wall)
        inside = sum(self.secs[i:j])
        if j - i >= 2:
            readings = self.secs[i:j]
        else:
            mid = t0 + wall / 2
            lo, hi = max(0, i - 2), min(len(self.ends), j + 2)
            nearest = sorted(range(lo, hi), key=lambda k: abs(self.ends[k] - mid))[:2]
            readings = [self.secs[k] for k in nearest]
        net = wall - inside
        return net, net * sum(1.0 / r for r in readings) / len(readings), inside


def op_seeds(seed, stream):
    rng = random.Random(f"{seed}/{stream}")
    while True:
        yield rng.randrange(1 << 31)


class Tally:
    def __init__(self):
        self.ok = self.nonconforming = 0
        self.failures = []

    def add(self, verdict, label):
        if verdict == "ok":
            self.ok += 1
        elif verdict == "nonconforming":
            self.nonconforming += 1
        else:
            self.failures.append(f"{label}: {verdict}")

    def as_dict(self):
        return {"ok": self.ok, "nonconforming": self.nonconforming, "failed": len(self.failures),
                "failures": self.failures[:5]}


def run_batch(wl, seed, tally, timer=None, ops=None):
    """Run one batch; returns [(wall s, cpu s, passed, kind, start)] per op.
    `timer` wraps each call; `ops` replaces wl.batch(seed)."""
    times = []
    for op in wl.batch(seed) if ops is None else ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            (timer or _call)(op.call)
            verdict = None
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            verdict = f"raised {type(e).__name__}: {e}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if verdict is None:
            try:
                verdict = op.check()
            except Exception as e:
                verdict = f"check raised {type(e).__name__}: {e}"
        tally.add(verdict, op.label)
        times.append((wall, cpu, verdict == "ok", op.kind, w0))
    if hasattr(wl, "end_batch"):
        wl.end_batch()
    return times


def _call(fn):
    fn()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    sampler = SpeedSampler()
    if not args.trace:  # read the speed from here on: set-up is converted too
        sampler.start()

    import chernweil

    src = Path(__file__).resolve().parent.parent / "src" / "chernweil"
    if Path(chernweil.__file__).resolve().parent != src:
        sys.exit(f"chernweil imported from {chernweil.__file__}, not from {src}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(args.workdir))
    tracer = None
    if args.trace:
        import spans as tr

        tracer = tr.Tracer()
        tracer.install()
    tally = Tally()
    if wl.seeded:
        seeds, warm_seeds = op_seeds(args.seed, "ops"), op_seeds(args.seed, "warmup")
    else:  # the same batch seeds in every run: 0 for warm-up, then 1, 2, ...
        seeds, warm_seeds = itertools.count(1), itertools.repeat(0)
    if tracer:  # trace the warm-up too: solver caches fill there
        tracer.op = "warmup"
    for _ in range(WARMUP_BATCHES.get(args.workload, 1)):
        warm = next(warm_seeds)
        run_batch(wl, warm, tally, ops=wl.warmup(warm) if hasattr(wl, "warmup") else None)
    if tracer:
        tracer.op = None
        tracer.uninstall()
    now = time.perf_counter()
    setup_wall = time.monotonic() - args.spawn

    out = {"setup_wall_s": setup_wall}
    if args.trace:
        out["metrics"] = traced_phases(wl, seeds, tally, tracer)
    else:
        timed, batches = [], 0
        stop_at = time.perf_counter() + args.seconds
        try:
            while args.seconds > 0 and (batches < MIN_BATCHES or time.perf_counter() < stop_at):
                timed += run_batch(wl, next(seeds), tally)
                batches += 1
        finally:
            sampler.stop()
        _net, setup_units, _inside = sampler.measure(now - setup_wall, setup_wall)
        out["setup_s"] = setup_units * KERNEL_REF_S
        wall, ref, cpu = [], [], []
        for w, c, _passed, _kind, t0 in timed:
            net, units, inside = sampler.measure(t0, w)
            wall.append(net)
            ref.append(units)
            cpu.append(max(0.0, c - inside))
        out.update(batches=batches, wall=wall, ref=ref, cpu=cpu, ok=[t[2] for t in timed],
                   kinds=[t[3] for t in timed], readings=len(sampler.secs),
                   reading_p50_s=sorted(sampler.secs)[len(sampler.secs) // 2])
    if args.oracle and hasattr(wl, "oracle"):
        try:
            result = wl.oracle()
        except Exception as e:
            result = (False, f"raised {type(e).__name__}: {e}")
        out["oracle"] = list(result)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["tally"] = tally.as_dict()
    sys.stdout.write(json.dumps(out) + "\n")


def traced_phases(wl, seeds, tally, tracer):
    """Untraced, span-traced, untraced again and profiled passes over the
    same fixed number of batches, so the counts repeat exactly for a seed
    and trace.overhead_ratio compares identical work."""
    import spans as tr
    from metrics import PER_LAYER

    n = TRACED_BATCHES[wl.name]
    batch_seeds = [next(seeds) for _ in range(n)]
    base_s = sum(t[0] for s in batch_seeds for t in run_batch(wl, s, tally))  # untraced op wall time

    op_ids, op_wall = [], []
    nonconforming_before = tally.nonconforming

    def traced(call):
        tracer.op = len(op_ids)
        op_ids.append(tracer.op)
        w0 = time.perf_counter()
        try:
            call()
        finally:
            op_wall.append(time.perf_counter() - w0)
            tracer.op = None

    tracer.install()
    for s in batch_seeds:
        run_batch(wl, s, tally, traced)
    tracer.uninstall()
    nonconforming = (tally.nonconforming - nonconforming_before) / n

    # a second untraced pass after the traced one, so warm-cache order
    # effects cancel in the overhead ratio
    base_s += sum(t[0] for s in batch_seeds for t in run_batch(wl, s, tally))

    profile = tr.Profile()
    for s in batch_seeds:
        run_batch(wl, s, tally, profile.run)

    m = {name: 0.0 for name, _unit, _better in PER_LAYER}
    span = tracer.per_batch(op_ids, n)
    for k, v in span.items():
        if k in m:
            m[k] = v
    for key in ("linalg.PrecomputedSolver.build.calls", "linalg.PrecomputedSolver.build.rows"):
        m[key] = tracer.totals(key)
    m["linalg.PrecomputedSolver.build.s"] = tracer.span_seconds("linalg.PrecomputedSolver.build")
    solved = span.get("forms.whitney_extend.solved", 0.0)  # solves that produced the extension
    m["forms.whitney_extend.solves_per_call"] = span.get("forms.whitney_extend.solves", 0.0) / solved if solved else 0.0
    m.update(profile.metrics(n))
    verify_s = sum(span.get(f"verify.{c}.s", 0.0) for c in tr.VERIFY_CHECKS)
    m["verify.span_coverage"] = verify_s * n / sum(op_wall) if verify_s else 0.0
    m["cli.exit_nonconforming"] = nonconforming
    m["trace.overhead_ratio"] = 2 * sum(op_wall) / base_s
    return m


if __name__ == "__main__":
    main()

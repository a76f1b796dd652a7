"""chernweil benchmark: one workload per invocation, or all four in turn.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads (see workloads.py and
BASELINE.md): chern2-simplex4, connection-sphere3, verify-all,
cli-session; with `all` the result names each metric
<workload>.<metric>.

--trace 0 starts WORKERS fresh worker processes, one after another.
Each imports chernweil from ./src, builds its inputs and runs its
warm-up on seeds outside the timed set; that is its set-up.  The first
then runs timed batches drawn from the seed for --seconds (at least
worker.MIN_BATCHES); the others stop after set-up, so set-up is
measured WORKERS times.  Every op's exact result is checked.  A worker
reads the machine's speed every 25 ms by timing a fixed kernel in a
signal handler (worker.SpeedSampler), and reports each op's time, and
its set-up time, both in seconds and in probe units: the number of
kernel runs it is worth at the speed the machine had while it ran.

batch_ref, the bounded time metric, is the sum over op kinds of the
median probe-unit time of that kind.  On the shared 2-vCPU host of the
baseline, CPUs slow down by up to 2x in spells of seconds and drift over
minutes; over ten runs, raw batch times spread by 0.08-0.41 and
batch_ref by 0.01-0.08 (BASELINE.md has the measurements).  setup_s is the median over the workers of the
set-up time in probe units, scaled to seconds at the reference speed
(worker.KERNEL_REF_S); peak_rss_mb is the timed worker's.  The raw
seconds, the median, the tail and the throughput are printed but not
bounded.

--trace 1 starts one worker that runs fixed batches untraced, with
spans around the library's entry points, and under cProfile, and
reports the per-layer metrics (metrics.PER_LAYER).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Ops listed in
workloads.KNOWN_NONCONFORMING that miss their contract exit code are
reported as known-nonconforming: they appear in fail_ratio but not in
`failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("chern2-simplex4", "connection-sphere3", "verify-all", "cli-session")
WORKERS = 3  # fresh workers per untraced run, one at a time: set-up is measured three times
DEADLINE_S = 170.0

# one BLAS/OpenMP thread, fixed string hashing; set for the workers only
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "chernweil").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def start(workload, seed, seconds, trace, oracle, workdir):
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawn", repr(time.monotonic()), "--trace", str(trace),
        "--oracle", str(int(oracle)), "--workdir", str(workdir),
    ]
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(proc, deadline):
    """Wait for one worker and return its result; kill it if it fails or the deadline passes."""
    try:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"worker passed the {DEADLINE_S:.0f} s deadline")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"worker exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def tail(values):
    """The highest percentile with at least ten samples beyond it; the
    maximum when fewer than 20 samples leave no such percentile above the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(workload, seed, seconds, trace):
    """Run one workload, print its metrics, return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / str(os.getpid())
    try:
        if trace:
            results = [collect(start(workload, seed, seconds, 1, True, work / "0"), deadline)]
        else:
            # the first worker runs the timed batches, the others only set up
            results = [
                collect(start(workload, seed, seconds if i == 0 else 0, 0, i == 0, work / str(i)), deadline)
                for i in range(WORKERS)
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (HERE / ".work").is_dir() and not any((HERE / ".work").iterdir()):
            (HERE / ".work").rmdir()

    tallies = [r["tally"] for r in results]
    ok = sum(t["ok"] for t in tallies)
    nonconforming = sum(t["nonconforming"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    attempted = ok + nonconforming + failed
    for t in tallies:
        for f in t["failures"]:
            print(f"# FAILED {f}")
    oracles = [r["oracle"] for r in results if r.get("oracle") is not None]
    for good, detail in oracles:
        print(f"# oracle {'pass' if good else 'FAIL'}: {detail}")
    correct = failed == 0 and all(good for good, _ in oracles)

    if trace:
        values = results[0]["metrics"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        timed = results[0]
        wall, cpu = timed["wall"], timed["cpu"]
        passed = sum(timed["ok"])
        ref, raw = {}, {}
        for kind, u, w in zip(timed["kinds"], timed["ref"], wall):
            ref.setdefault(kind, []).append(u)
            raw.setdefault(kind, []).append(w)
        values = {
            "batch_ref": sum(statistics.median(v) for v in ref.values()),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": timed["rss_mb"],
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        n = len(wall)
        tail_s, tail_pct = tail(wall)
        print(f"# timed ops n={n} in {timed['batches']} batches, {len(ref)} op kinds")
        print(f"# setup_s per worker: {[round(r['setup_s'], 4) for r in results]}, "
              f"as measured {[round(r['setup_wall_s'], 4) for r in results]} s")
        print(f"# median probe units per op kind: {json.dumps({k: round(statistics.median(v), 1) for k, v in ref.items()})}")
        print(f"# speed readings per worker: {[r['readings'] for r in results]}, "
              f"median {[round(r['reading_p50_s'] * 1e3, 3) for r in results]} ms")
        print(f"batch_s {sum(statistics.median(v) for v in raw.values()):.6g} s")
        print(f"setup_wall_s {statistics.median(r['setup_wall_s'] for r in results):.6g} s")
        print(f"op_p50_s {statistics.median(wall):.6g} s")
        print(f"op_tail_s {tail_s:.6g} s (p{tail_pct:.1f}, {10 if n >= 20 else 0} of {n} samples beyond it)")
        print(f"op_cpu_p50_s {statistics.median(cpu):.6g} s")
        print(f"ops_per_s {passed / sum(wall):.6g} 1/s")
    for name, v in values.items():
        print(f"{name} {v:.6g} {units[name]}")
    print(f"fail_ratio {(failed + nonconforming) / attempted:.6g} "
          f"({nonconforming} known-nonconforming + {failed} failed of {attempted} ops)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through collect(), which kills and waits for the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "chernweil" / "__init__.py").is_file():
        fail(f"no src/chernweil under {ROOT}; run from a full source checkout")
    print("# env " + json.dumps(environment()))
    if args.workload != "all":
        print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return
    # every workload in turn; the result names each metric <workload>.<metric>
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"# perfbench workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        r = run_workload(workload, args.seed, args.seconds, args.trace)
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(total))


if __name__ == "__main__":
    main()

"""Benchmark for diffeo1d: four seeded workloads, timed end to end.

    python3 bench/run.py --workload conjugacy --seed 1 --seconds 12 --trace 0

runs rounds of the workload's operations until ``--seconds`` have passed
(always whole rounds, at least one), checks every output, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
cpu_s, peak_rss_mb).  ``wall_s`` and ``cpu_s`` are the time of one round
made of each operation's fastest repetition in the run (min-of-k): shared
hosts slow a process by 30-50% in phases lasting seconds, and the fastest
repetition is the figure those phases disturb least.

With ``--trace 1`` one more round runs with every layer of diffeo1d wrapped
(see tracer.py), and the metrics are the per-layer counts and times of that
round plus its slowdown against the untraced rounds; the spans go to
``bench/results/``.

``--self-test`` instead runs one round, checks it, and then checks every
deliberately wrong copy the workload makes of its results: each must be
rejected.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

_T0 = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("conjugacy", "reduction", "scene", "certificate")


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time;
    falls back to the time since this module was loaded."""
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read().rsplit(")", 1)[1].split()
        start = int(stat[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def import_program():
    """Import diffeo1d from ROOT/src and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import diffeo1d
    except ImportError as e:
        print(f"cannot import diffeo1d from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        raise SystemExit(2)
    where = Path(diffeo1d.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        print(f"diffeo1d was imported from {where}, not from {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)


def run_round(ops, results, times=None, tracer=None):
    """Run one round; returns (wall, attempted, failed).  Appends each
    operation's (wall, cpu) time to ``times[label]``."""
    attempted = failed = 0
    start = time.perf_counter()
    for label, weight, fn in ops:
        attempted += weight
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = tracer.span(label, fn) if tracer else fn()
        except Exception:
            failed += weight
            print(f"operation {label} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        if times is not None:
            times.setdefault(label, []).append(
                (time.perf_counter() - w0, time.process_time() - c0))
        results.append((label, weight, out))
    return time.perf_counter() - start, attempted, failed


def judge(workload, results):
    """Check all outputs.  A problem with a check the workload lists as a
    known fault of the program marks its operation failed; any other
    problem makes the run incorrect.  Returns (correct, failed weight)."""
    problems = workload.check([(label, out) for label, _, out in results])
    known = {p.op for p in problems if p.check in workload.known_faults}
    for p in problems:
        kind = "known fault" if p.check in workload.known_faults else "FAILED"
        print(f"check {p.check} on {results[p.op][0]}: {kind}: {p.message}",
              file=sys.stderr)
    correct = all(p.check in workload.known_faults for p in problems)
    return correct, sum(results[i][1] for i in known)


def self_test(workload) -> int:
    """Check one genuine round, then every tampered copy of it.  A copy is
    rejected when a check fires that did not fire on the genuine output of
    the same operation."""
    results = []
    run_round(workload.ops(0), results)
    plain = workload.check([(label, out) for label, _, out in results])
    genuine = {}
    for p in plain:
        genuine.setdefault(results[p.op][0], set()).add(p.check)
    print(f"genuine output: {sorted(p.check for p in plain) or 'no problems'}")
    ok = all(p.check in workload.known_faults for p in plain)
    for desc, tampered in workload.tampers(
            [(label, out) for label, _, out in results]):
        fired = {p.check for p in workload.check(tampered)}
        new = sorted(fired - genuine.get(tampered[0][0], set()))
        if new:
            print(f"rejected  {desc}: {new}")
        elif fired & workload.known_faults:
            print(f"n/a       {desc}: the genuine output already fails "
                  f"{sorted(fired)}")
        else:
            print(f"MISSED    {desc}")
            ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=BENCH / "_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = process_age()
        if args.self_test:
            return self_test(workload)

        results, walls, times = [], [], {}
        attempted = failed = 0
        start = time.perf_counter()
        k = 0
        while not walls or time.perf_counter() - start < args.seconds:
            wall, a, f = run_round(workload.ops(k), results, times)
            walls.append(wall)
            attempted += a
            failed += f
            k += 1

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer().install()
            try:
                traced_wall, a, f = run_round(workload.ops(k), results,
                                              tracer=tracer)
            finally:
                tracer.uninstall()
            attempted += a
            failed += f

        correct, known = judge(workload, results)
        failed += known
        if tracer:
            overhead = traced_wall / statistics.median(walls)
            metrics = tracer.metrics(overhead)
        else:
            fastest = [min(ts) for ts in times.values()]
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": sum(w for w, _ in fastest), "unit": "s"},
                "cpu_s": {"value": sum(c for _, c in fastest), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        result = {"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = dict(result, rounds_wall_s=walls, operations=times)
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if tracer:
            (RESULTS / f"trace-{stem}.json").write_text(
                json.dumps(tracer.dump(), indent=1))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

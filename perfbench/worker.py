"""One workload in one process: a closed loop with a single client.

    python3 -m perfbench.worker --workload W --seed S --seconds T --trace 0|1

Run from the repository root.  The worker imports tca_lab, builds the seeded
job list and prints ``ready``; ``run.py`` times set-up up to that line.  It
then runs the job list in rounds, one job after the other, until the next
round would end after ``--seconds``, and prints one JSON line of results.
Every round clears the package's functools caches first, so each round pays
what one CLI invocation pays.  With ``--trace 1`` untraced and traced rounds
alternate, which gives the tracing overhead and a check that tracing does
not change any output.

The shared host this was built on drifts in speed by up to 2x over seconds
to minutes, for every process alike.  So the worker times a fixed reference
loop that does not touch tca_lab between jobs, at least every
``SAMPLE_GAP`` seconds and at both ends of each round, and scales the
round's times by ``REF_SECONDS`` over the median of those timings: times
are reported at the reference speed.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN_FAILURES = 3
# Time of reference_loop() on the baseline host (2-core VM, Python 3.11.7)
# at a typical moment; reported times are scaled to this speed.
REF_SECONDS = 0.030
SAMPLE_GAP = 1.0


def reference_loop():
    """Fixed pure-Python work: dict and set updates and lookups on a working
    set near a core's private cache, so that it slows with cache contention
    as tca_lab's searches and spans do, while it stays far below the
    memory the jobs reach."""
    total = 0
    for rep in range(10):
        table = {}
        seen = set()
        for i in range(4_000):
            k = (i * 7919 + rep) % 65521
            table[(k, i & 7)] = i
            seen.add(k ^ (i >> 3))
        for i in range(4_000):
            total += table.get(((i * 104729) % 65521, i & 7), 0)
        total += len(seen)
    return total


def reference_seconds(repeats=1):
    """Median time of ``repeats`` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def failure_kind(exc):
    from tca_lab.errors import DegreeOverflowError, SearchBudgetExceededError

    if isinstance(exc, SearchBudgetExceededError):
        return "budget_exhausted"
    if isinstance(exc, DegreeOverflowError):
        return "degree_overflow"
    return "error"


def run_round(jobs, run_job):
    """Run every job once.  Returns (seconds as measured, scale to the
    reference speed, [(scaled job seconds, output or exception)])."""
    clock = time.perf_counter
    results = []
    measured = 0.0
    references = [reference_seconds()]
    sampled = clock()
    for job in jobs:
        t0 = clock()
        try:
            out = run_job(job["kind"], job["input"])
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out = exc
        elapsed = clock() - t0
        measured += elapsed
        results.append((elapsed, out))
        if clock() - sampled >= SAMPLE_GAP:
            references.append(reference_seconds())
            sampled = clock()
    references.append(reference_seconds())
    scale = REF_SECONDS / statistics.median(references)
    return measured, scale, [(t * scale, out) for t, out in results]


def check_round(jobs, results, failures, shown):
    """Count failed jobs by kind; returns the digest of the round's outputs."""
    digest = hashlib.sha256()
    for job, (_, out) in zip(jobs, results):
        if isinstance(out, Exception):
            failures[failure_kind(out)] += 1
            if shown[0] < SHOWN_FAILURES:
                shown[0] += 1
                print(f"job {job['input']} raised:", file=sys.stderr)
                traceback.print_exception(out, file=sys.stderr)
            digest.update(f"raised {type(out).__name__}\n".encode())
            continue
        if out != job["expected"]:
            failures["mismatch"] += 1
            if shown[0] < SHOWN_FAILURES:
                shown[0] += 1
                print(f"job {job['input']}: got {out}, expected {job['expected']}",
                      file=sys.stderr)
        digest.update((json.dumps(out, sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run(workload, jobs, seconds, trace):
    from perfbench import workloads
    from perfbench.tracer import Tracer

    caches = workloads.lazy_caches()
    tracer = Tracer() if trace else None
    raw = {False: [], True: []}          # traced? -> round seconds as measured
    durations = {False: [], True: []}    # traced? -> round seconds, scaled
    latencies = []                       # untraced job seconds, scaled
    layer = []                           # tracer metrics per traced round
    digests = set()
    failures = Counter()
    shown = [0]
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(durations[False]) > len(durations[True])
        for clear in caches:
            clear()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            measured, scale, results = run_round(jobs, workloads.run_job)
        finally:
            if traced:
                tracer.uninstall()
        raw[traced].append(measured)
        durations[traced].append(measured * scale)
        if traced:
            layer.append({k: v * scale if k.endswith("_s") else v
                          for k, v in tracer.metrics().items()})
        else:
            latencies.extend(t for t, _ in results)
        attempted += len(jobs)
        digests.add(check_round(jobs, results, failures, shown))
        elapsed = time.perf_counter() - start
        following = trace and not traced
        if following and not durations[True]:
            continue
        if elapsed + statistics.median(raw[following]) > seconds:
            break
    wall = statistics.median(durations[False])
    out = {
        "rounds": len(durations[False]) + len(durations[True]),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "consistent": len(digests) == 1,
        "digest": min(digests),
        "wall_s": wall,
        "wall_raw_s": statistics.median(raw[False]),
        "job_p50_ms": 1000 * percentile(latencies, 50),
        "job_tail_ms": 1000 * percentile(latencies, workloads.TAIL_PERCENTILE[workload]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        metrics = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
        metrics["matchings.budget_exhausted.count"] = failures["budget_exhausted"]
        metrics["algebra.degree_overflow.count"] = failures["degree_overflow"]
        metrics["trace.overhead_ratio"] = statistics.median(durations[True]) / wall
        out["layer"] = metrics
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, workloads.load_pools())
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"reference_s": reference_seconds(3)}), flush=True)
        return 0
    result = run(args.workload, jobs, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

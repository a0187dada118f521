"""Benchmark of tca_lab: three seeded workloads on the library's public API.

    python3 perfbench/run.py --workload tor-tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root (the directory holding ``src/`` and
``BENCHMARK.json``).  Each workload runs in one worker process; set-up is
timed over several fresh processes and reported as their median.  The
metrics printed, their units and their order come from ``BENCHMARK.json``:
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
from perfbench.worker import REF_SECONDS  # noqa: E402  (stdlib-only module)
WORKLOADS = ("tor-tables", "ideal-closure", "poset-search")
SETUP_PROBES = 7          # set-up-only processes timed for setup_s
GRACE_SECONDS = 120       # allowed beyond --seconds before the worker is killed


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def start_worker(args, extra=()):
    """Start a worker and wait for its ``ready`` line; returns (process, set-up s)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # identical from run to run; outputs never depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {line.strip() or 'no output'}")
    return proc, setup


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def measure(args):
    """Run the probes and the worker; returns the worker's result plus set-up.

    Each probe times the worker's reference loop after its set-up, and set-up
    is scaled to the reference speed like every other time (see worker.py).
    """
    setups = []
    raw_setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(args, ["--setup-only"])
        reference = last_json(finish(proc, GRACE_SECONDS))["reference_s"]
        raw_setups.append(setup)
        setups.append(setup * REF_SECONDS / reference)
    proc, setup = start_worker(args)
    res = last_json(finish(proc, args.seconds + GRACE_SECONDS))
    res["setup_s"] = statistics.median(setups)
    res["setup_raw_s"] = statistics.median(raw_setups)
    res["ok_ratio"] = 1 - res["failed"] / res["attempted"]
    return res


def report(args, spec, res):
    """Print the human-readable lines and return the result object."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res["layer"] if args.trace else res
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  rounds {res['rounds']}  "
          f"jobs {res['attempted']}  trace {args.trace}")
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':<48} {res['failed'] / res['attempted']:.6g} 1"
              f"  ({res['failed']} of {res['attempted']}: {res['failures'] or 'none'})")
        print(f"  as measured, before scaling to the reference speed: "
              f"setup {res['setup_raw_s']:.4g} s, wall {res['wall_raw_s']:.4g} s")
    print(f"  digest {res['digest'][:16]}  outputs identical across rounds: "
          f"{res['consistent']}")
    return {"correct": res["failed"] == 0 and res["consistent"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not (ROOT / "src" / "tca_lab" / "__init__.py").is_file():
            raise BenchError(f"no tca_lab sources under {ROOT / 'src'}")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            args.workload = name
            results.append(report(args, spec, measure(args)))
            print(json.dumps(results[-1]), flush=True)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

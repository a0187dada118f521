"""Run the benchmark over several seeds and record a baseline.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

For every workload this runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` once on the first seed, then writes, for each metric,
the values, their median and quartiles, and the spread (quartile distance
over the median, the figure each end-to-end bound is compared with).  The
file also records the git revision, the Python version, the processor
count and the line count of ``src/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{out.stdout}{out.stderr}")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def metadata(spec):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
        rev += "+dirty-src" if dirty else ""
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_revision": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "run_seconds": spec["run_seconds"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    record = {"meta": metadata(spec), "workloads": {}}
    record["meta"]["seeds"] = args.seeds
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(bench(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        entry = {"end_to_end": {
            m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]}}
        traced = bench(name, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:<14} {metric:<12} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

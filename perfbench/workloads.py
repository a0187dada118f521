"""Seeded job lists, job execution and output checks for the three workloads.

Every job is drawn from a committed pool (``pools.json``) that stores each
input next to its expected output, so every seed is checked against frozen
answers.  A pool is split into strata of similar cost, and a seed draws the
stratum's fixed ``pick`` count of jobs from each; that keeps the work of one
job list steady from seed to seed while the inputs change.  ``freeze.py``
rebuilds the pools.

Jobs call the library through module attributes (``torlab.tor_table``,
never a name imported from it), so an installed tracer sees every call.
"""

import json
import random
import sys
from pathlib import Path

from tca_lab import algebra, ideal_io, matchings, torlab

POOLS_PATH = Path(__file__).with_name("pools.json")

WORKLOADS = ("tor-tables", "ideal-closure", "poset-search")

# Percentile reported as job_tail_ms; at least ten jobs lie beyond it in every
# round of poset-search and in a baseline run of the others (p90 needs 100
# jobs).  In poset-search the p90-p95 positions fall between a few distinct
# heavy jobs, where a small timing change flips which job is read.
TAIL_PERCENTILE = {"tor-tables": 90, "ideal-closure": 90, "poset-search": 85}


class OutputError(Exception):
    """A job produced an output that fails its own consistency check."""


def load_pools(path=POOLS_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def make_jobs(workload, seed, pools):
    """The seeded job list: [{"kind", "input", "expected"}], in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _, stratum in sorted(pools[workload].items()):
        for entry in rng.sample(stratum["entries"], stratum["pick"]):
            jobs.append({"kind": entry["kind"], "input": dict(entry["input"]),
                         "expected": entry["expected"]})
    if workload == "tor-tables":
        # Half of the Tor jobs recompute sampled non-dominant weights.
        checked = set(rng.sample(range(len(jobs)), len(jobs) // 2))
        for i, job in enumerate(jobs):
            job["input"]["sample_check_seed"] = (
                rng.randrange(1 << 30) if i in checked else None)
    rng.shuffle(jobs)
    return jobs


def canonical(value):
    """Tuples become lists, so outputs compare equal to their JSON form."""
    return json.loads(json.dumps(value))


def run_job(kind, inp):
    """Run one job and return its canonical output."""
    return canonical(_RUNNERS[kind](inp))


def _tor(inp):
    spec = torlab.DeterminantalIdealSpec(inp["flavor"], inp["rank"], inp["rank_bound"])
    table = torlab.tor_table(spec, inp["p_max"], inp["q_max"],
                             sample_check_seed=inp.get("sample_check_seed"))
    return table.records()


def _closure(ideal, degree_bound):
    res = algebra.verify_move_closure(ideal, degree_bound, ideal.system.rank)
    violations = [f"{matchings.fmt_matching(g)} {matchings.fmt_move(mv)} "
                  f"{matchings.fmt_matching(img)}" for g, mv, img in res.violations]
    return {"initial_size": res.initial_size, "violations": violations}


def _orbit(inp):
    system, gens = ideal_io.parse_ideal_text(inp["text"])
    ideal = algebra.EquivariantIdeal.from_generators(system, gens)
    return _closure(ideal, inp["degree_bound"])


def _isotypic(inp):
    system = algebra.VariableSystem(inp["flavor"], inp["rank"])
    ideal = algebra.EquivariantIdeal.isotypic(system, tuple(inp["lam"]))
    rows = [algebra.ideal_contains_isotypic(ideal, tuple(mu)) for mu in inp["mus"]]
    out = _closure(ideal, inp["degree_bound"])
    out["contains"] = rows
    return out


def _pair(inp):
    a = matchings.matching(inp["a"])
    b = matchings.matching(inp["b"])
    growth = matchings.leq_type1(a, b)
    full, moves = matchings.leq_full(a, b, witness=True)
    if growth and not full:
        raise OutputError("growth order holds but the full order does not")
    if full and matchings.replay(a, moves) != b:
        raise OutputError("witness does not replay onto the target")
    return [growth, full]


def _antichain(inp):
    universe = matchings.all_colored_sets(inp["max_size"], inp["vertex_bound"])
    antichain, width = matchings.max_antichain(universe, matchings.degree_one_leq)
    for i, s in enumerate(antichain):
        for t in antichain[i + 1:]:
            if matchings.degree_one_leq(s, t) or matchings.degree_one_leq(t, s):
                raise OutputError("returned antichain has a comparable pair")
    return width


_RUNNERS = {"tor": _tor, "orbit": _orbit, "isotypic": _isotypic,
            "pair": _pair, "antichain": _antichain}


def lazy_caches():
    """``cache_clear`` of every functools cache in the package, found before
    any tracer wraps a function, so each round starts as cold as a CLI run."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("tca_lab") or module is None:
            continue
        for value in vars(module).values():
            owners = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            for obj in owners:
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and clear not in out:
                    out.append(clear)
    return out

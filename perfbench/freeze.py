"""Rebuild ``pools.json``: every job input the workloads draw from, grouped
into strata of similar cost, each with the output the current program gives.

    PYTHONPATH=src python3 -m perfbench.freeze

Run it only to change the pools; the expected outputs it writes are the
correctness gate of every later run, so a rebuild must be justified by a
change to the workloads, never by a change to the program.
"""

import json
import random
import statistics
import time
from fractions import Fraction
from itertools import permutations

from tca_lab import algebra, ideal_io, matchings, partitions

from . import workloads
from .tracer import TYPE1_MOVES, Tracer
from .worker import REF_SECONDS, reference_seconds

POOL_SEED = 20261017
TOR_SPECS = (
    # (flavor, rank, rank_bound, p_max, q_max)
    ("symmetric", 3, 1, 4, 7), ("symmetric", 3, 1, 3, 5), ("symmetric", 4, 1, 3, 5),
    ("symmetric", 5, 1, 2, 4), ("symmetric", 3, 2, 3, 6),
    ("antisymmetric", 4, 2, 3, 6), ("antisymmetric", 4, 2, 3, 5),
    ("antisymmetric", 5, 2, 3, 5),
    ("generic", 3, 1, 2, 4), ("generic", 4, 1, 2, 4), ("generic", 3, 1, 3, 5),
    ("generic", 3, 2, 2, 5),
    # Three more specs make 15 jobs, so that p50 and p90 fall mid-job.
    ("symmetric", 4, 2, 3, 5), ("antisymmetric", 4, 2, 2, 4), ("generic", 3, 1, 2, 3),
)
# Within each class the inputs are sorted by cost.  The ``fixed`` inputs
# nearest the class median run in every round, and the rest are cut into
# ``bins`` strata of one job a round each (see stratify).  The fixed blocks
# sit where job_p50_ms (orbit2) and job_tail_ms (orbit3-symmetric) are read,
# so those do not hang on which input a seed draws.
ORBIT_CLASSES = {  # class -> (degree, [(flavor, rank)], bins, fixed)
    "orbit2": (2, [(f, n) for f in ("symmetric", "antisymmetric") for n in (6, 7, 8)], 5, 3),
    "orbit3-symmetric": (3, [("symmetric", 6)], 0, 3),
    "orbit3-antisymmetric": (3, [("antisymmetric", 6)], 1, 0),
}
ORBIT_TEXTS = 8           # random generators per (flavor, rank)
STRUCTURED = {
    "symmetric": ("x[1,1] * x[1,1]", "x[1,1] * x[2,2] - x[1,2] * x[1,2]",
                  "x[1,2] * x[3,4]"),
    "antisymmetric": ("x[1,2] * x[1,2]", "x[1,2] * x[3,4]",
                      "x[1,2] * x[3,4] - x[1,3] * x[2,4] + x[1,4] * x[2,3]"),
}
ISOTYPIC_LABELS = ((1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3,))
IDEAL_RANKS = (6, 7, 8)
STRUCTURED_BINS = 5
ISOTYPIC_BINS = 8
PAIR_DRAWS = 700
PRUNED_PICK = 20
PAIR_BINS = 35            # one searched pair per round from each bin
PAIR_FIXED = 5            # searched pairs drawn in every round
MAX_PAIR_COST = 0.05      # seconds at the reference speed


def entry(kind, inp, cost=None):
    """A pool entry: the input, its expected output, and its cost in seconds
    at the reference speed as measured when the pool was built."""
    return {"kind": kind, "input": inp, "expected": workloads.run_job(kind, inp),
            "cost_s": scaled_cost(kind, inp) if cost is None else cost}


def tor_pool():
    specs = [entry("tor", {"flavor": f, "rank": n, "rank_bound": r, "p_max": p,
                           "q_max": q}) for f, n, r, p, q in TOR_SPECS]
    return {"specs": {"pick": len(specs), "entries": specs}}


def random_generator_text(rng, flavor, rank, degree):
    """The criterion-4 recipe: 1-3 terms of one 0/1 weight in ``degree``."""
    system = algebra.VariableSystem(flavor, rank)
    support = sorted(rng.sample(range(1, rank + 1), 2 * degree))
    monos = algebra.monomials_of_weight(
        system, degree, algebra.indicator_weight(rank, support))
    chosen = rng.sample(monos, rng.randint(1, min(3, len(monos))))
    poly = {m: Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2)))
            for m in chosen}
    return ideal_text(flavor, rank, ideal_io.format_poly(poly))


def ideal_text(flavor, rank, body):
    return f"flavor: {flavor}\nrank: {rank}\n{body}\n"


def scaled_cost(kind, inp, repeats=3):
    """Median seconds of a cold run of a job, at the reference speed."""
    caches = workloads.lazy_caches()
    costs = []
    before = reference_seconds()
    for _ in range(repeats):
        for clear in caches:
            clear()
        start = time.perf_counter()
        workloads.run_job(kind, inp)
        costs.append(time.perf_counter() - start)
    scale = 2 * REF_SECONDS / (before + reference_seconds())
    return round(statistics.median(costs) * scale, 5)


def stratify(name, kind, inputs, bins, fixed=0, fixed_at=0.5, max_cost=float("inf")):
    """Strata of ``inputs`` by measured cost: those above ``max_cost`` are
    dropped, the ``fixed`` around the ``fixed_at`` quantile of cost form one
    stratum drawn whole, and the rest are cut into ``bins`` strata of one job
    a round each, so a job list's cost profile hardly depends on the seed."""
    costed = ((scaled_cost(kind, inp), inp) for inp in inputs)
    ranked = sorted((c for c in costed if c[0] <= max_cost),
                    key=lambda c: (c[0], json.dumps(c[1])))
    out = {}
    if fixed:
        first = round(fixed_at * len(ranked) - fixed / 2)
        out[f"{name}-fixed"] = {"pick": fixed, "entries": [
            entry(kind, inp, cost) for cost, inp in ranked[first:first + fixed]]}
        ranked = ranked[:first] + ranked[first + fixed:]
    for k in range(bins):
        out[f"{name}-{k + 1:02d}"] = {"pick": 1, "entries": [
            entry(kind, inp, cost) for cost, inp in
            ranked[k * len(ranked) // bins:(k + 1) * len(ranked) // bins]]}
    return out


def ideal_pool(rng):
    out = {}
    for name, (degree, cells, bins, fixed) in ORBIT_CLASSES.items():
        texts = []
        for flavor, rank in cells:
            cell = []
            while len(cell) < ORBIT_TEXTS:
                text = random_generator_text(rng, flavor, rank, degree)
                if text not in cell:
                    cell.append(text)
            texts += cell
        out.update(stratify(name, "orbit", [{"text": t, "degree_bound": degree + 1}
                                            for t in texts], bins, fixed))
    structured = [{"text": ideal_text(flavor, rank, body), "degree_bound": 3}
                  for rank in IDEAL_RANKS for flavor, bodies in STRUCTURED.items()
                  for body in bodies]
    mus = [list(mu) for mu in partitions.partitions_upto(3)]
    isotypic = [{"flavor": flavor, "rank": rank, "lam": list(lam), "mus": mus,
                 "degree_bound": sum(lam) + 1}
                for rank in IDEAL_RANKS for flavor in STRUCTURED for lam in ISOTYPIC_LABELS]
    out.update(stratify("structured", "orbit", structured, STRUCTURED_BINS))
    out.update(stratify("isotypic", "isotypic", isotypic, ISOTYPIC_BINS))
    return out


def random_matching(rng, edges, bound):
    labels = rng.sample(range(1, bound + 1), 2 * edges)
    return matchings.matching(zip(labels[::2], labels[1::2]))


def bfs_states(inp):
    """Exact BFS states the two decisions of a pair job expand."""
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_job("pair", inp)
    finally:
        tracer.uninstall()
    return tracer.records[TYPE1_MOVES][0]


def poset_pool(rng):
    pairs = []
    seen = set()
    while len(pairs) < PAIR_DRAWS:
        a = random_matching(rng, rng.randint(2, 3), rng.randint(6, 8))
        b = random_matching(rng, rng.randint(2, 3), rng.randint(8, 11))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        inp = {"a": [list(e) for e in a], "b": [list(e) for e in b]}
        pairs.append((bfs_states(inp), inp))
    # Pairs the BFS never enters form one stratum.  The searched ones up to
    # MAX_PAIR_COST are cut into narrow cost bins; the long searches of the
    # tail come from the fixed gamma pairs and the antichain job instead, so
    # job_tail_ms does not hang on which rare long pair a seed draws.
    out = {"pruned": {"pick": PRUNED_PICK, "entries": [
        entry("pair", inp) for states, inp in pairs if not states]}}
    gammas = {n: matchings.gamma_family(n) for n in (3, 4, 5, 6)}
    gamma_pairs = [{"a": [list(e) for e in gammas[m]], "b": [list(e) for e in gammas[n]]}
                   for m, n in permutations(gammas, 2)]
    # A fixed block of searched pairs sits where the round's median job
    # falls: below it are the pruned pairs and the gamma pairs the pruning
    # decides, then the cheaper searched pairs.
    round_jobs = PRUNED_PICK + PAIR_BINS + PAIR_FIXED + len(gamma_pairs) + 1
    below = PRUNED_PICK + sum(1 for inp in gamma_pairs if not bfs_states(inp))
    median_rank = (round_jobs - 1) / 2 - below
    searched = [inp for states, inp in pairs if states]
    out.update(stratify("searched", "pair", searched, PAIR_BINS, PAIR_FIXED,
                        (median_rank + 0.5) / (PAIR_BINS + PAIR_FIXED), MAX_PAIR_COST))
    out["gamma"] = {"pick": len(gamma_pairs), "entries": [
        entry("pair", inp) for inp in gamma_pairs]}
    out["antichain"] = {"pick": 1, "entries": [
        entry("antichain", {"max_size": 2, "vertex_bound": 7})]}
    return out


def build():
    rng = random.Random(POOL_SEED)
    return {"tor-tables": tor_pool(), "ideal-closure": ideal_pool(rng),
            "poset-search": poset_pool(rng)}


def main():
    pools = build()
    with open(workloads.POOLS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    for name, strata in pools.items():
        jobs = sum(s["pick"] for s in strata.values())
        entries = sum(len(s["entries"]) for s in strata.values())
        print(f"{name}: {len(strata)} strata, {entries} entries, {jobs} jobs per round")


if __name__ == "__main__":
    main()

"""The eight-point acceptance suite.

Each criterion is a function that adds evidence lines to a shared report
and returns a verdict.  Nothing here is tuned to pass: criterion 4 is
expected to FAIL, and the report says so plainly.  On eight vertices the
weight-(1,...,1) slice of the ideal generated by the doubled-row quadratic
block is not move-closed, and an exhaustive enumeration over candidate
pivot sets shows no total order on matchings avoids this; the engine
reports the lone violating move rather than hiding it.  See the README
for the argument in full.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations

from . import matchings, torlab
from .algebra import (MATRIX_FLAVORS, EquivariantIdeal, VariableSystem,
                      algebra_closed_formula, decompose_algebra,
                      indicator_weight, monomials_of_weight, verify_move_closure,
                      ideal_contains_isotypic)
from .errors import SearchBudgetExceededError
from .matchings import fmt_colored_set, fmt_matching, fmt_move
from .partitions import (contains, decompose_into_schur, fmt_partition,
                         partitions_upto)
from .reports import FAIL, INCONCLUSIVE, PASS, Report

# Frozen width of the two-color poset on <= 2 elements and 6 vertices,
# computed independently by transitive closure plus chain-cover duality.
SANDBOX_WIDTH = 12
SANDBOX_UNIVERSE = 73
# Ideals in the degree-one sandbox: the two pinned ones plus random ones.
SANDBOX_IDEALS = 10


def criterion_1(rep, seed, budget, seeded):
    """Brute-force decompositions equal the closed product formulas."""
    checked = 0
    for flavor in MATRIX_FLAVORS:
        for n in range(1, 7):
            for d in range(6):
                got = decompose_algebra(flavor, d, n)
                want = algebra_closed_formula(flavor, d, n)
                if got != want or any(m != 1 for m in got.values()):
                    rep.line(f"  mismatch: {flavor} d={d} n={n}")
                    return FAIL, f"mismatch at {flavor} d={d} n={n}"
                checked += 1
    rep.line(f"  {checked} (flavor, degree, rank) decompositions, all "
             "multiplicity-free and equal to the closed formulas")
    return PASS, f"{checked} tables, exact"


def criterion_2(rep, seed, budget, seeded):
    """Ideal lattice: block containment mirrors diagram containment."""
    lams = partitions_upto(3)
    cells = 0
    for flavor in MATRIX_FLAVORS:
        system = VariableSystem(flavor, 6)
        ideals = {lam: EquivariantIdeal.isotypic(system, lam) for lam in lams}
        for lam in lams:
            for mu in lams:
                got = ideal_contains_isotypic(ideals[lam], mu)
                if got != contains(lam, mu):
                    return FAIL, (f"{flavor}: ({fmt_partition(lam)}, "
                                  f"{fmt_partition(mu)}) disagrees")
                cells += 1
        rep.line(f"  {flavor}: {len(lams)}x{len(lams)} containment table matches")
    return PASS, f"{cells} cells across three flavors at rank 6"


def criterion_3(rep, seed, budget, seeded):
    """The four-member family: growth-incomparable, swap-comparable."""
    ns = (3, 4, 5, 6)
    gammas = {n: matchings.gamma_family(n) for n in ns}
    for a, b in permutations(ns, 2):
        if matchings.leq_type1(gammas[a], gammas[b], budget):
            return FAIL, f"members {a} and {b} compare under growth moves"
    rep.line("  members 3..6 pairwise incomparable under growth moves")
    for a, b in combinations(ns, 2):
        ok, moves = matchings.leq_full(gammas[a], gammas[b], budget,
                                       witness=True)
        if not ok:
            return FAIL, f"member {a} does not reach member {b} with swaps"
        if matchings.replay(gammas[a], moves) != gammas[b]:
            return FAIL, f"witness {a}->{b} does not replay"
        rep.line(f"  member {a} -> member {b}: witness of {len(moves)} moves "
                 "replays exactly")
        rep.record("criterion3-witness", low=a, high=b,
                   moves=[fmt_move(m) for m in moves])
    return PASS, "12 incomparabilities, 6 replayed witnesses"


def _random_quadratic_ideals(seed, system, count):
    """Seeded rep-closure ideals from random admissible-weight vectors."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        d = rng.randint(2, 3)
        support = sorted(rng.sample(range(1, system.rank + 1), 2 * d))
        monos = monomials_of_weight(system, d, indicator_weight(
            system.rank, support))
        chosen = rng.sample(monos, rng.randint(1, 3))
        vec = {m: Fraction(rng.choice((1, -1, 2, -2, 3)),
                           rng.choice((1, 1, 2))) for m in chosen}
        out.append(EquivariantIdeal.from_generators(
            system, [vec], label=f"random-{k}"))
    return out


def _random_degree_one_vector(rng, system, degree):
    """A weight-homogeneous vector on a random support with random colors."""
    support = sorted(rng.sample(range(1, system.rank + 1), degree))
    vec = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(sorted((rng.randint(0, 1), i) for i in support))
        coeff = Fraction(rng.choice((1, -1, 2, -2, 1, 3)),
                         rng.choice((1, 1, 2)))
        vec[mono] = vec.get(mono, 0) + coeff
    vec = {m: c for m, c in vec.items() if c}
    return vec or _random_degree_one_vector(rng, system, degree)


def sandbox_ideals(seed, rank, degree):
    """The two pinned sandbox ideals plus random ones, SANDBOX_IDEALS in all."""
    system = VariableSystem("degree_one", rank)
    x1 = {((0, 1),): Fraction(1)}
    x1_plus_y1 = {((0, 1),): Fraction(1), ((1, 1),): Fraction(1)}
    out = [
        EquivariantIdeal.from_generators(system, [x1], label="first-red-orbit"),
        EquivariantIdeal.from_generators(system, [x1_plus_y1],
                                         label="red-plus-blue-orbit"),
    ]
    rng = random.Random(seed)
    while len(out) < SANDBOX_IDEALS:
        d = rng.randint(1, degree)
        vec = _random_degree_one_vector(rng, system, d)
        out.append(EquivariantIdeal.from_generators(
            system, [vec], label=f"random-{len(out) - 1}"))
    return out


def _closure_suite(seed):
    system = VariableSystem("symmetric", 8)
    ideals = [EquivariantIdeal.isotypic(system, lam,
                                        label=f"I{fmt_partition(lam)}")
              for lam in partitions_upto(2)]
    ideals.extend(_random_quadratic_ideals(seed, system, 6))
    results = []
    for ideal in ideals:
        res = verify_move_closure(ideal, 4, 8)
        results.append((ideal.label, res))
    return results


def criterion_4(rep, seed, budget, seeded):
    """Move closure of initial sets, rank 8, degree 4, ten ideals."""
    violations = []
    seeded["closure"] = _closure_suite(seed)
    for label, res in seeded["closure"]:
        rep.line(f"  {label}: initial set {res.initial_size}, "
                 f"moves checked {res.moves_checked}, "
                 f"violations {len(res.violations)}")
        for g, mv, img in res.violations:
            violations.append((label, g, mv, img))
            rep.line(f"    {fmt_matching(g)} --{fmt_move(mv)}--> "
                     f"{fmt_matching(img)} left the initial set")
            rep.record("criterion4-violation", ideal=label,
                       source=fmt_matching(g), move=fmt_move(mv),
                       image=fmt_matching(img))
    if violations:
        rep.line("  the violation above is forced: no total order on "
                 "matchings keeps this slice closed (see README)")
        return FAIL, (f"{len(violations)} violation(s); provably unavoidable "
                      "under any total order")
    return PASS, "10 ideals closed"


def criterion_5(rep, seed, budget, seeded):
    """Koszul engine oracles: d squared, hypersurfaces, exterior powers."""
    # Hypersurface: the principal determinant at ranks 2 and 3.
    for n, expect in ((2, {(2, 2): 1}), (3, {(2, 2, 2): 1})):
        spec = torlab.DeterminantalIdealSpec("symmetric", n, n - 1)
        tor_cells = torlab.tor_table(spec, 3, 4).entries
        if tor_cells.get((0, 0)) != {(): 1}:
            return FAIL, f"rank {n}: Tor_0 is not the trivial character"
        p1_cells = [pq for pq in tor_cells if pq[0] == 1]
        if p1_cells != [(1, n)] or tor_cells[(1, n)] != expect:
            return FAIL, f"rank {n}: Tor_1 is not the determinant line"
        if any(pq[0] >= 2 for pq in tor_cells):
            return FAIL, f"rank {n}: higher Tor for a regular element"
        rep.line(f"  principal determinant, rank {n}: Tor_1 = "
                 f"{fmt_partition(next(iter(expect)))}, nothing above")
    # Koszul case r=0: Tor_p equals the exterior power, computed here
    # directly from p-subsets of variables.
    vectors_checked = 0
    for n in (2, 3):
        system = VariableSystem("symmetric", n)
        spec = torlab.DeterminantalIdealSpec("symmetric", n, 0)
        table = torlab.tor_table(spec, 3, 3).entries
        for p in range(4):
            char = {}
            for sub in combinations(system.variables(), p):
                w = [0] * n
                for (i, j) in sub:
                    w[i - 1] += 1
                    w[j - 1] += 1
                char[tuple(w)] = char.get(tuple(w), 0) + 1
            oracle = decompose_into_schur(char, n)
            if table.get((p, p), {}) != oracle:
                return FAIL, f"Koszul case n={n}, p={p} missed the oracle"
        rep.line(f"  full-variable quotient, rank {n}: Tor matches exterior "
                 "powers up to p=3")
        # Explicit d-squared sweep over every strand of this complex.
        ideal = torlab.determinantal_ideal(spec)
        komplex = torlab.KoszulComplex(ideal, 3)
        for q in range(4):
            for w in torlab._dominant_weights(system, q):
                for x in komplex.chain_basis(2, q, w) + komplex.chain_basis(3, q, w):
                    if komplex.apply_diff(komplex.apply_diff({x: 1})):
                        return FAIL, "differential fails to square to zero"
                    vectors_checked += 1
    rep.line(f"  d∘d = 0 on {vectors_checked} chain vectors, re-checked "
             "explicitly (the engine also asserts it on every strand)")
    return PASS, "hypersurface, exterior powers, d squared"


def criterion_6(rep, seed, budget, seeded):
    """Generic quadrics: Tor at ranks 3 and 4, each computed on its own, agree."""
    family = torlab.determinantal_family("generic", 1)
    table3, table4 = (torlab.tor_table(family(n), 2, 4) for n in (3, 4))
    t3, t4 = table3.entries, table4.entries
    differ = sorted(pq for pq in t3.keys() | t4.keys() if t3.get(pq) != t4.get(pq))
    if differ:
        return FAIL, f"tables differ at cells {differ}"
    entries = sum(len(tab) for tab in t3.values())
    rep.line(f"  rank-3 and rank-4 tables identical: "
             f"{len(t3)} cells, {entries} irreducibles")
    for (p, q, lam, mult, _) in table3.records():
        rep.record("criterion6-entry", p=p, q=q,
                   label=fmt_partition(lam), multiplicity=mult)
    return PASS, f"exact equality on {len(t3)} cells"


def _sandbox_suite(seed):
    results = []
    for ideal in sandbox_ideals(seed, 6, 2):
        res = verify_move_closure(ideal, 2, 6)
        results.append((ideal.label, res))
    return results


def criterion_7(rep, seed, budget, seeded):
    """Degree-one control case: closures plus exact antichain width."""
    bad = []
    seeded["sandbox"] = _sandbox_suite(seed)
    for label, res in seeded["sandbox"]:
        if not res.closed:
            bad.append(label)
        rep.line(f"  {label}: initial {res.initial_size}, "
                 f"violations {len(res.violations)}")
    if bad:
        return FAIL, f"sandbox closure failed for {', '.join(bad)}"
    universe = matchings.all_colored_sets(2, 6)
    if len(universe) != SANDBOX_UNIVERSE:
        return FAIL, f"universe size {len(universe)} != {SANDBOX_UNIVERSE}"
    antichain, width = matchings.max_antichain(universe,
                                               matchings.degree_one_leq)
    for a, b in combinations(antichain, 2):
        if matchings.degree_one_leq(a, b) or matchings.degree_one_leq(b, a):
            return FAIL, "returned antichain is not an antichain"
    if width != SANDBOX_WIDTH:
        return FAIL, f"width {width} != frozen {SANDBOX_WIDTH}"
    rep.line(f"  colored poset on {len(universe)} elements: width {width} "
             "(certified by chain cover), matching the frozen value")
    rep.record("criterion7-antichain",
               members=[fmt_colored_set(s) for s in
                        sorted(antichain, key=matchings.colored_key)])
    return PASS, f"{SANDBOX_IDEALS} closures, width {width}"


def _digest(seeded):
    """A canonical rendering of everything in the suite that consumes the
    seed: the results of the closure and sandbox suites."""
    digest = []
    for label, res in seeded["closure"]:
        digest.append((label, res.initial_size, res.moves_checked,
                       [(fmt_matching(g), fmt_move(m), fmt_matching(t))
                        for g, m, t in res.violations]))
    for label, res in seeded["sandbox"]:
        digest.append((label, res.initial_size, res.moves_checked,
                       [(fmt_colored_set(s), fmt_move(m), fmt_colored_set(t))
                        for s, m, t in res.violations]))
    return json.dumps(digest, sort_keys=True).encode()


def seeded_digest(seed):
    """The digest of both seeded suites computed afresh; criterion 8's
    rerun prints it."""
    return _digest({"closure": _closure_suite(seed),
                    "sandbox": _sandbox_suite(seed)})


def _rerun_env(environ):
    """Environment of criterion 8's rerun: this copy of the package first
    on PYTHONPATH, and a hash seed other than the one in ``environ`` (one
    more when it is a number, 1 otherwise), so the rerun meets another
    hash order while the report stays the same from run to run."""
    env = dict(environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, environ.get("PYTHONPATH"))))
    current = environ.get("PYTHONHASHSEED", "")
    env["PYTHONHASHSEED"] = (str((int(current) + 1) % 2**32)
                             if current.isdigit() else "1")
    return env


def criterion_8(rep, seed, budget, seeded):
    """The seeded suites rerun byte-identically in a fresh interpreter
    under another hash seed."""
    here = _digest(seeded)
    code = (f"import sys; from {__name__} import {seeded_digest.__name__}"
            " as rerun; sys.stdout.buffer.write(rerun(int(sys.argv[1])))")
    try:
        child = subprocess.run([sys.executable, "-c", code, str(seed)],
                               capture_output=True, env=_rerun_env(os.environ))
    except OSError as exc:
        return FAIL, f"the rerun did not start: {exc}"
    if child.returncode != 0:
        lines = [line for line in child.stderr.decode(
            errors="replace").splitlines() if line.strip()]
        return FAIL, (f"the rerun exited with code {child.returncode}: "
                      f"{lines[-1] if lines else '(no stderr)'}")
    if child.stdout != here:
        return FAIL, ("seeded suites diverged in a fresh interpreter under "
                      "another hash seed")
    rep.line(f"  seeded suites of criteria 4 and 7 rerun in a fresh "
             f"interpreter under another hash seed: {len(here)} digest "
             "bytes, byte-identical")
    return PASS, "fresh-interpreter rerun byte-identical"


CRITERIA = (
    (1, "closed-formula decompositions", criterion_1),
    (2, "ideal lattice", criterion_2),
    (3, "family comparability", criterion_3),
    (4, "move closure", criterion_4),
    (5, "homology oracles", criterion_5),
    (6, "stabilization", criterion_6),
    (7, "degree-one control", criterion_7),
    (8, "determinism", criterion_8),
)


def run_all(seed, budget=None):
    rep = Report("accept", config={
        "budget": budget if budget is not None else "default"}, seed=seed)
    seeded = {}   # suite results that criteria 4 and 7 compute and 8 reuses
    for number, slug, fn in CRITERIA:
        rep.line(f"criterion {number}: {slug}")
        try:
            verdict, detail = fn(rep, seed, budget, seeded)
        except SearchBudgetExceededError as exc:
            verdict, detail = INCONCLUSIVE, str(exc)
        rep.check(f"criterion {number} ({slug})", verdict, detail)
    return rep

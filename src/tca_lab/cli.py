"""Batch command-line surface.

Commands and actions, each with only the flags it reads::

    tca-lab decompose  [--flavor F] [--rank n] [--degree d]
    tca-lab poset verify-example  [--nrange a..b] [--budget B]
    tca-lab poset compare A B  [--budget B]
    tca-lab poset antichain [type1|full]  [--degree k] [--rank n]
    tca-lab poset sandbox  [--rank n] [--degree d] [--seed S]
    tca-lab ideal lattice  [--flavor F] [--rank n] [--degree d]
    tca-lab ideal initial-set|move-closure  --input FILE [--degree d] [--rank n]
    tca-lab tor  [--flavor F] [--rank r] [--pmax p] [--degree q] [--nrange a..b]
    tca-lab accept  [--seed S] [--budget B]

Every action also takes ``--output FILE``.  In the ``tor`` subcommand
``--rank`` is the matrix rank bound of the determinantal ideal (the
algebra's own rank comes from ``--nrange``); everywhere else it is the
number of variables per row, i.e. the rank of the acting group.

Exit codes: 0 every check passed, 2 some check failed, 3 a search
budget was exhausted before a verdict, 4 malformed input, a flag the
action does not read included.
"""

import argparse
import os
import sys
from math import comb, prod

from . import algebra, matchings, torlab
from .acceptance import SANDBOX_IDEALS, run_all, sandbox_ideals
from .algebra import (MATCHING_FLAVORS, MATRIX_FLAVORS, EquivariantIdeal,
                      VariableSystem, algebra_closed_formula, block_vanishes,
                      decompose_algebra, ideal_contains_isotypic)
from .errors import ParseError, SearchBudgetExceededError, TcaLabError
from .ideal_io import format_poly, load_ideal_file, parse_matching
from .matchings import fmt_colored_set, fmt_matching, fmt_move
from .partitions import contains, fmt_partition, partitions_upto
from .reports import EXIT_INPUT_ERROR, INCONCLUSIVE, Report

DEFAULT_SEED = 1729
# The largest universe of `poset antichain`: max_antichain makes N^2 tests.
MAX_ANTICHAIN_UNIVERSE = 5000


def parse_nrange(text):
    """``a..b`` (inclusive), a strictly increasing comma list, or a single
    integer."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        if "," in text:
            ns = tuple(int(x) for x in text.split(","))
        else:
            ns = (int(text),)
    except ValueError:
        raise ParseError(f"cannot read a rank range from {text!r}")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ParseError(f"ranks in {text!r} must be strictly increasing")
    return ns


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args):
    rep = Report("decompose", config={
        "flavor": args.flavor, "degree": args.degree, "rank": args.rank})
    for d in range(args.degree + 1):
        got = decompose_algebra(args.flavor, d, args.rank)
        want = algebra_closed_formula(args.flavor, d, args.rank)
        cells = ", ".join(f"{fmt_partition(k)}:{m}" for k, m in got.sorted_items())
        rep.line(f"degree {d}: {cells or '(zero)'}")
        rep.record("decomposition", degree=d,
                   table={fmt_partition(k): m for k, m in got.sorted_items()},
                   matches_formula=(got.entries == want.entries),
                   multiplicity_free=got.is_multiplicity_free())
        rep.check(f"closed-formula d={d}", got.entries == want.entries)
    return rep


# ---------------------------------------------------------------------------
# poset


def _budgeted(action):
    """A poset action run under ``--budget``: the budget goes into the
    config, and a search that runs out of it ends the report with an
    INCONCLUSIVE check (exit 3) after what was decided so far."""
    def cmd(args):
        rep = Report("poset " + args.action)
        if args.budget is not None:
            rep.config["budget"] = args.budget
        try:
            action(rep, args)
        except SearchBudgetExceededError as exc:
            rep.check("search-budget", INCONCLUSIVE, str(exc))
        return rep
    return cmd


@_budgeted
def _poset_verify(rep, args):
    ns, budget = args.nrange, args.budget
    rep.config["nrange"] = ",".join(map(str, ns))
    if min(ns) < 3:
        raise ParseError("family members are defined from index 3 up")
    gammas = {n: matchings.gamma_family(n) for n in ns}
    incomparable = True
    for a in ns:
        for b in ns:
            if a != b and matchings.leq_type1(gammas[a], gammas[b], budget):
                incomparable = False
                rep.line(f"growth-only comparison holds: {a} <= {b} (unexpected)")
    rep.check("family-growth-incomparable", incomparable,
              f"indices {min(ns)}..{max(ns)}")
    comparable = True
    for a in ns:
        for b in ns:
            if a >= b:
                continue
            ok, moves = matchings.leq_full(gammas[a], gammas[b], budget,
                                           witness=True)
            replayed = ok and matchings.replay(gammas[a], moves) == gammas[b]
            comparable = comparable and ok and replayed
            if ok:
                rep.line(f"member {a} reaches member {b} in {len(moves)} moves; "
                         f"witness replays: {'yes' if replayed else 'NO'}")
                rep.record("witness", low=a, high=b,
                           moves=[fmt_move(m) for m in moves])
            else:
                rep.line(f"member {a} does NOT reach member {b}")
    rep.check("family-swap-comparable", comparable, "witnesses replayed")
    for n in ns:
        chain = matchings.family_rotation_chain(n, budget)
        good = sum(1 for (_, _, _, mv) in chain["steps"] if mv is not None)
        bad = [i for (i, _, _, mv) in chain["steps"] if mv is None]
        final_ok = chain["final_step"][2] is not None
        rep.line(f"rotation replay n={n}: {good}/{len(chain['steps'])} rotation "
                 f"steps are single swaps"
                 + (f" (failing at i={bad})" if bad else "")
                 + f"; final transposition {'is' if final_ok else 'is not'} a "
                 f"single swap; grows into next member: "
                 f"{'yes' if chain['grows_into_next'] else 'no'}")
        rep.record("rotation-replay", index=n, valid_steps=good,
                   total_steps=len(chain["steps"]), invalid_at=bad,
                   final_is_single_swap=final_ok,
                   grows_into_next=chain["grows_into_next"])


@_budgeted
def _poset_compare(rep, args):
    a, b = parse_matching(args.a), parse_matching(args.b)
    rep.line(f"comparing {fmt_matching(a)} against {fmt_matching(b)}")
    growth = matchings.leq_type1(a, b, args.budget)
    full, moves = matchings.leq_full(a, b, args.budget, witness=True)
    rep.line(f"growth-only: {'<=' if growth else 'not <='}")
    rep.line(f"with swaps:  {'below' if full else 'not below'}")
    if full:
        for m in moves:
            rep.line(f"  {fmt_move(m)}")
        replay_ok = matchings.replay(a, moves) == b
        rep.check("witness-replays", replay_ok)
    rep.record("compare", a=fmt_matching(a), b=fmt_matching(b),
               growth_only=growth, with_swaps=full,
               witness=[fmt_move(m) for m in (moves or [])])
    rep.check("compare-decided", True,
              f"growth={growth} swaps={full}")


def _poset_antichain(args):
    order, k, bound = args.order, args.degree, args.rank
    size = comb(bound, 2 * k) * prod(range(1, 2 * k, 2))
    if size > MAX_ANTICHAIN_UNIVERSE:
        raise ParseError(f"poset antichain: {size:,} matchings with {k} edges on "
                         f"1..{bound}, above the bound of {MAX_ANTICHAIN_UNIVERSE:,}")
    rep = Report("poset antichain",
                 config={"order": order, "degree": k, "rank": bound})
    universe = matchings.all_matchings(k, bound)
    leq = matchings.universe_order(universe, lambda g: matchings.type1_moves(
        g, bound) + (matchings.type2_moves(g) if order == "full" else []))
    found, width = matchings.max_antichain(universe, leq)
    rep.line(f"width {width}: {width} pairwise-incomparable matchings with {k} "
             f"edges on vertices 1..{bound} under the "
             f"{'growth-only' if order == 'type1' else 'full'} order, one per "
             f"chain of a minimum chain cover of all {len(universe)}:")
    for g in found:
        rep.line(f"  {fmt_matching(g)}")
    rep.record("antichain", order=order, edge_count=k, vertex_bound=bound,
               width=width, members=[fmt_matching(g) for g in found])
    rep.check("antichain-width", True, f"width {width}")
    return rep


def _poset_sandbox(args):
    rank, degree = args.rank, args.degree
    if not 1 <= degree <= rank:
        raise ParseError(f"sandbox --degree must be between 1 and --rank ({rank}), "
                         f"got {degree}")
    rep = Report("poset sandbox", config={"rank": rank, "degree": degree},
                 seed=args.seed)
    all_closed = True
    for ideal in sandbox_ideals(args.seed, rank, degree):
        res = algebra.verify_move_closure(ideal, degree, rank)
        all_closed = all_closed and res.closed
        rep.line(f"{ideal.label}: initial set {res.initial_size}, "
                 f"moves checked {res.moves_checked}, "
                 f"violations {len(res.violations)}")
        rep.record("sandbox-closure", label=ideal.label,
                   initial_size=res.initial_size,
                   moves_checked=res.moves_checked,
                   violations=[(fmt_colored_set(s), fmt_move(m),
                                fmt_colored_set(t))
                               for s, m, t in res.violations])
    rep.check("sandbox-move-closure", all_closed, f"{SANDBOX_IDEALS} ideals")
    ac, width = matchings.max_antichain(
        matchings.all_colored_sets(degree, rank), matchings.degree_one_leq)
    rep.line(f"width of the colored poset (size <= {degree}, "
             f"vertices <= {rank}): {width}")
    rep.record("sandbox-width", width=width,
               antichain=[fmt_colored_set(s)
                          for s in sorted(ac, key=matchings.colored_key)])
    rep.check("sandbox-width-computed", True, f"width {width}")
    return rep


# ---------------------------------------------------------------------------
# ideal


def _ideal_lattice(args):
    flavor, rank, size = args.flavor, args.rank, args.degree
    rep = Report("ideal lattice", config={"flavor": flavor, "rank": rank,
                                          "size_bound": size})
    lams = partitions_upto(size)
    system = VariableSystem(flavor, rank)
    ideals = {lam: EquivariantIdeal.isotypic(system, lam) for lam in lams}
    header = "λ\\μ".ljust(8) + " ".join(fmt_partition(mu).rjust(7) for mu in lams)
    rep.line(header)
    mismatches = []
    for lam in lams:
        row = []
        predicted = {}
        for mu in lams:
            got = ideal_contains_isotypic(ideals[lam], mu)
            # a block that vanishes at this rank sits in every ideal
            want = contains(lam, mu) or block_vanishes(system, mu)
            if got != want:
                mismatches.append((lam, mu, got, want))
            row.append("1" if got else ".")
            predicted[fmt_partition(mu)] = want
        rep.line(fmt_partition(lam).ljust(8) + " ".join(c.rjust(7) for c in row))
        rep.record("lattice-row", generator=fmt_partition(lam),
                   contains=predicted)
    for lam, mu, got, want in mismatches:
        rep.line(f"MISMATCH at ({fmt_partition(lam)}, {fmt_partition(mu)}): "
                 f"engine {got}, containment predicts {want}")
    rep.check("lattice-matches-containment", not mismatches,
              f"{len(lams)}x{len(lams)} table")
    return rep


def _load_input_ideal(args):
    """Read ``--input`` and open the report with its setup; return
    (report, ideal, degree, support bound)."""
    system, gens = load_ideal_file(args.input)
    if system.flavor not in MATCHING_FLAVORS:
        raise ParseError("initial sets are defined for "
                         f"{', '.join(MATCHING_FLAVORS)} ideals, "
                         f"not {system.flavor}")
    degree = args.degree
    bound = min(args.rank, system.rank) if args.rank is not None else system.rank
    rep = Report("ideal " + args.action, config={
        "flavor": system.flavor, "rank": system.rank, "degree": degree,
        "support_bound": bound})
    for g in gens:
        rep.line(f"generator: {format_poly(g)}")
    label = os.path.basename(args.input)
    ideal = EquivariantIdeal.from_generators(system, gens, label=label)
    return rep, ideal, degree, bound


def _ideal_initial_set(args):
    rep, ideal, degree, bound = _load_input_ideal(args)
    inset = algebra.initial_set(ideal, degree, bound)
    rep.line(f"{len(inset)} initial matchings within degree {degree}, "
             f"support 1..{bound}:")
    for g in inset:
        rep.line(f"  {fmt_matching(g)}")
    rep.record("initial-set", members=[fmt_matching(g) for g in inset])
    rep.check("initial-set-computed", True, f"{len(inset)} matchings")
    return rep


def _ideal_move_closure(args):
    rep, ideal, degree, bound = _load_input_ideal(args)
    res = algebra.verify_move_closure(ideal, degree, bound)
    rep.line(f"initial set size {res.initial_size}; "
             f"moves checked {res.moves_checked}")
    for g, mv, img in res.violations:
        rep.line(f"violation: {fmt_matching(g)} --{fmt_move(mv)}--> "
                 f"{fmt_matching(img)} left the initial set")
    rep.record("move-closure", initial_size=res.initial_size,
               moves_checked=res.moves_checked,
               violations=[(fmt_matching(g), fmt_move(m), fmt_matching(t))
                           for g, m, t in res.violations])
    rep.check("move-closure", res.closed, f"{len(res.violations)} violations")
    return rep


# ---------------------------------------------------------------------------
# tor


def cmd_tor(args):
    r, p_max, q_max, ns = args.rank, args.pmax, args.degree, args.nrange
    rep = Report("tor", config={"flavor": args.flavor, "rank_bound": r,
                                "pmax": p_max, "qmax": q_max,
                                "nrange": ",".join(map(str, ns))})
    stab = torlab.stabilization_report(
        torlab.determinantal_family(args.flavor, r), p_max, q_max, ns)
    for n in ns:
        rep.line(stab.tables[n].meta["ideal"])
        for (p, q, lam, mult, _) in stab.tables[n].records():
            rep.line(f"  n={n} Tor_{p} internal {q}: {fmt_partition(lam)} x{mult}")
            rep.record("tor-entry", n=n, p=p, q=q,
                       label=fmt_partition(lam), multiplicity=mult)
    if len(ns) > 1:
        for pq in sorted(stab.first_stable):
            first = stab.first_stable[pq]
            rep.line(f"cell (p={pq[0]}, q={pq[1]}): "
                     + (f"stable from n={first}" if first is not None
                        else "not stabilized within range"))
        rep.record("stabilization",
                   first_stable={f"{p},{q}": n
                                 for (p, q), n in stab.first_stable.items()},
                   never=[f"{p},{q}" for p, q in stab.never_stabilized])
        if stab.never_stabilized:
            rep.check("stabilization-within-range", INCONCLUSIVE,
                      "some cells kept changing; widen --nrange")
        else:
            rep.check("stabilization-within-range", True,
                      f"all cells stable by n={max(ns)}")
    else:
        rep.check("table-computed", True, f"n={ns[0]}")
    return rep


# ---------------------------------------------------------------------------
# accept


def cmd_accept(args):
    return run_all(seed=args.seed, budget=args.budget)


# ---------------------------------------------------------------------------
# wiring


def _at_least(low, parse=int):
    """An argparse type: what ``parse`` reads, every number in it >= ``low``."""
    def check(text):
        try:
            value = parse(text)
        except (ValueError, ParseError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if min(value if isinstance(value, tuple) else (value,)) < low:
            raise argparse.ArgumentTypeError(f"{text!r}: numbers must be >= {low}")
        return value
    return check


class _Parser(argparse.ArgumentParser):
    """Refuses bad input with usage and exit 4; nested parsers inherit it
    through ``add_subparsers``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


FLAGS = {
    "flavor": dict(choices=MATRIX_FLAVORS, default="symmetric"),
    "rank": dict(type=_at_least(1)),
    "degree": dict(type=_at_least(0)),
    "pmax": dict(type=_at_least(0)),
    "nrange": dict(type=_at_least(1, parse_nrange)),
    "budget": dict(type=_at_least(0)),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "input": dict(required=True),
}


def build_parser():
    top = _Parser(prog="tca-lab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = top.add_subparsers(dest="command", required=True)

    def group(name, text):
        return commands.add_parser(name, help=text).add_subparsers(
            dest="action", required=True)

    def action(parent, name, func, flags, text, **defaults):
        """A parser that defines exactly the flags ``func`` reads."""
        p = parent.add_parser(name, help=text)
        for flag in flags.split():
            p.add_argument("--" + flag, **FLAGS[flag])
        p.add_argument("--output")
        p.set_defaults(func=func, **defaults)
        return p

    action(commands, "decompose", cmd_decompose, "flavor rank degree",
           "check closed-formula decompositions", rank=4, degree=3)

    poset = group("poset", "matching poset checks")
    action(poset, "verify-example", _poset_verify, "nrange budget",
           "the separating family", nrange=(3, 4, 5))
    p = action(poset, "compare", _poset_compare, "budget",
               "compare two matchings under both orders")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    p = action(poset, "antichain", _poset_antichain, "degree rank",
               "the width of a matching order", degree=2, rank=6)
    p.add_argument("order", nargs="?", choices=("type1", "full"), default="full")
    action(poset, "sandbox", _poset_sandbox, "rank degree seed",
           "the two-color degree-one sandbox", rank=6, degree=2)

    ideal = group("ideal", "equivariant ideal checks")
    action(ideal, "lattice", _ideal_lattice, "flavor rank degree",
           "block containment of isotypic ideals", rank=6, degree=2)
    for name, func in (("initial-set", _ideal_initial_set),
                       ("move-closure", _ideal_move_closure)):
        action(ideal, name, func, "input degree rank",
               f"the {name} of an ideal file", degree=3)

    p = action(commands, "tor", cmd_tor, "flavor degree pmax nrange",
               "Koszul homology and stabilization", pmax=2, degree=4,
               nrange=(2, 3, 4))
    # here --rank is the rank bound of the forms, and 0 is a valid bound
    p.add_argument("--rank", type=_at_least(0), default=1)
    action(commands, "accept", cmd_accept, "seed budget",
           "run the acceptance suite")
    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        rep = args.func(args)
        rep.write(args.output)
    except SearchBudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (TcaLabError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())

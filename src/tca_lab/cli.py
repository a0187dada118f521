"""Batch command-line surface.

Subcommands::

    tca-lab decompose  --flavor F --degree d --rank n
    tca-lab poset      verify-example | compare G G' | antichain [type1|full] | sandbox
    tca-lab ideal      lattice | initial-set | move-closure  [--input FILE]
    tca-lab tor        --flavor F --rank r --pmax p --degree q --nrange a..b
    tca-lab accept     [--seed S] [--budget B]

In the ``tor`` subcommand ``--rank`` is the matrix rank bound of the
determinantal ideal (the algebra's own rank comes from ``--nrange``);
everywhere else it is the number of variables per row, i.e. the rank of
the acting group.

Exit codes: 0 every check passed, 2 some check failed, 3 a search
budget was exhausted before a verdict, 4 malformed input.  The
environment variable TCA_LAB_BUDGET overrides the default search budget;
an explicit ``--budget`` wins over both.
"""

import argparse
import os
import sys

from . import algebra, matchings, torlab
from .acceptance import SANDBOX_IDEALS, run_all, sandbox_ideals
from .algebra import (INITIAL_DATA_FLAVORS, MATRIX_FLAVORS, EquivariantIdeal,
                      VariableSystem, block_vanishes, ideal_contains_isotypic)
from .errors import ParseError, SearchBudgetExceededError, TcaLabError
from .ideal_io import format_poly, load_ideal_file, parse_matching
from .matchings import fmt_colored_set, fmt_matching, fmt_move
from .partitions import (algebra_closed_formula, contains, decompose_algebra,
                         fmt_partition, partitions_upto)
from .reports import EXIT_INPUT_ERROR, INCONCLUSIVE, Report

DEFAULT_SEED = 1729


def _budget(args):
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("TCA_LAB_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise ParseError(f"TCA_LAB_BUDGET must be an integer, got {env!r}")
        if budget < 0:
            raise ParseError(f"TCA_LAB_BUDGET must be >= 0, got {env!r}")
        return budget
    return None


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


def _poset_verify(rep, ns, budget):
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
        chain = matchings.family_rotation_chain(n)
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


def _poset_compare(rep, args, budget):
    if len(args.extra) != 2:
        raise ParseError("compare wants exactly two matchings, e.g. "
                         '"{(1,2)}" "{(2,3)}"')
    a = parse_matching(args.extra[0])
    b = parse_matching(args.extra[1])
    rep.line(f"comparing {fmt_matching(a)} against {fmt_matching(b)}")
    growth = matchings.leq_type1(a, b, budget)
    full, moves = matchings.leq_full(a, b, budget, witness=True)
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


def _poset_antichain(rep, args, budget):
    order = args.extra[0] if args.extra else "full"
    if order not in ("type1", "full"):
        raise ParseError(f"antichain order must be type1 or full, got {order!r}")
    k = args.degree if args.degree is not None else 2
    bound = args.rank if args.rank is not None else 6
    found = matchings.antichain_search(k, bound, order=order, budget=budget)
    rep.line(f"{len(found)} pairwise-incomparable matchings with {k} edges "
             f"on vertices 1..{bound} under the "
             f"{'growth-only' if order == 'type1' else 'full'} order:")
    for g in found:
        rep.line(f"  {fmt_matching(g)}")
    rep.record("antichain", order=order, edge_count=k, vertex_bound=bound,
               members=[fmt_matching(g) for g in found])
    rep.check("antichain-found", True, f"size {len(found)}")


def _poset_sandbox(rep, args):
    rank = args.rank if args.rank is not None else 6
    degree = args.degree if args.degree is not None else 2
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if not 1 <= degree <= rank:
        raise ParseError(f"sandbox --degree must be between 1 and --rank ({rank}), "
                         f"got {degree}")
    rep.config.update({"rank": rank, "degree": degree})
    rep.seed = seed
    all_closed = True
    for ideal in sandbox_ideals(seed, rank, degree):
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


def cmd_poset(args):
    rep = Report("poset " + args.subtask, seed=args.seed)
    budget = _budget(args)
    if budget is not None:
        rep.config["budget"] = budget
    try:
        if args.subtask == "verify-example":
            ns = args.nrange or (3, 4, 5)
            rep.config["nrange"] = ",".join(map(str, ns))
            if min(ns) < 3:
                raise ParseError("family members are defined from index 3 up")
            _poset_verify(rep, ns, budget)
        elif args.subtask == "compare":
            _poset_compare(rep, args, budget)
        elif args.subtask == "antichain":
            _poset_antichain(rep, args, budget)
        else:
            _poset_sandbox(rep, args)
    except SearchBudgetExceededError as exc:
        rep.check("search-budget", INCONCLUSIVE, str(exc))
    return rep


# ---------------------------------------------------------------------------
# ideal


def _ideal_lattice(rep, args):
    flavor = args.flavor
    rank = args.rank if args.rank is not None else 6
    size = args.degree if args.degree is not None else 2
    rep.config.update({"flavor": flavor, "rank": rank, "size_bound": size})
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


def _load_input_ideal(rep, args):
    """Read ``--input``, report its setup; return (ideal, degree, bound)."""
    if not args.input:
        raise ParseError("this check needs --input FILE")
    system, gens = load_ideal_file(args.input)
    if system.flavor not in INITIAL_DATA_FLAVORS:
        raise ParseError("initial sets are defined for "
                         f"{', '.join(INITIAL_DATA_FLAVORS)} ideals, "
                         f"not {system.flavor}")
    degree = args.degree if args.degree is not None else 3
    bound = min(args.rank, system.rank) if args.rank is not None else system.rank
    rep.config.update({"flavor": system.flavor, "rank": system.rank,
                       "degree": degree, "support_bound": bound})
    for g in gens:
        rep.line(f"generator: {format_poly(g)}")
    label = os.path.basename(args.input)
    ideal = EquivariantIdeal.from_generators(system, gens, label=label)
    return ideal, degree, bound


def _ideal_initial_set(rep, args):
    ideal, degree, bound = _load_input_ideal(rep, args)
    inset = algebra.initial_set(ideal, degree, bound)
    rep.line(f"{len(inset)} initial matchings within degree {degree}, "
             f"support 1..{bound}:")
    for g in inset:
        rep.line(f"  {fmt_matching(g)}")
    rep.record("initial-set", members=[fmt_matching(g) for g in inset])
    rep.check("initial-set-computed", True, f"{len(inset)} matchings")


def _ideal_move_closure(rep, args):
    ideal, degree, bound = _load_input_ideal(rep, args)
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


def cmd_ideal(args):
    rep = Report("ideal " + args.subtask)
    if args.subtask == "lattice":
        _ideal_lattice(rep, args)
    elif args.subtask == "initial-set":
        _ideal_initial_set(rep, args)
    else:
        _ideal_move_closure(rep, args)
    return rep


# ---------------------------------------------------------------------------
# tor


def cmd_tor(args):
    r = args.rank if args.rank is not None else 1
    p_max = args.pmax if args.pmax is not None else 2
    q_max = args.degree if args.degree is not None else 4
    ns = args.nrange or (2, 3, 4)
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
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    return run_all(seed=seed, budget=_budget(args))


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
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser():
    top = _Parser(prog="tca-lab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    def flags(p, *names, min_rank=1):
        if "flavor" in names:
            p.add_argument("--flavor", choices=MATRIX_FLAVORS, default="symmetric")
        if "rank" in names:
            p.add_argument("--rank", type=_at_least(min_rank))
        if "degree" in names:
            p.add_argument("--degree", type=_at_least(0))
        if "pmax" in names:
            p.add_argument("--pmax", type=_at_least(0))
        if "nrange" in names:
            p.add_argument("--nrange", type=_at_least(1, parse_nrange))
        if "budget" in names:
            p.add_argument("--budget", type=_at_least(0))
        if "seed" in names:
            p.add_argument("--seed", type=int)
        if "input" in names:
            p.add_argument("--input")
        p.add_argument("--output")

    p = sub.add_parser("decompose", help="check closed-formula decompositions")
    flags(p, "flavor", "rank", "degree")
    p.set_defaults(func=cmd_decompose, rank=4, degree=3)

    p = sub.add_parser("poset", help="matching poset checks")
    p.add_argument("subtask", choices=("verify-example", "compare",
                                       "antichain", "sandbox"))
    p.add_argument("extra", nargs="*")
    flags(p, "rank", "degree", "nrange", "budget", "seed")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("ideal", help="equivariant ideal checks")
    p.add_argument("subtask", choices=("lattice", "initial-set", "move-closure"))
    flags(p, "flavor", "rank", "degree", "input")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("tor", help="Koszul homology and stabilization")
    # here --rank is the rank bound of the forms, and 0 is a valid bound
    flags(p, "flavor", "rank", "degree", "pmax", "nrange", min_rank=0)
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("accept", help="run the acceptance suite")
    flags(p, "seed", "budget")
    p.set_defaults(func=cmd_accept)
    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        rep = args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SearchBudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except TcaLabError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rep.write(args.output)
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())

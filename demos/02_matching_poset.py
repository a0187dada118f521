"""Partial matchings under growth moves, with and without swaps.

A matching is a set of disjoint labeled edges.  Growth moves add an
edge or push an endpoint up; the richer order also allows the two
degree-preserving swaps that uncross or unnest a pair of edges.  The
family gamma_3, gamma_4, ... separates the two orders: its members are
pairwise incomparable under growth moves alone but form a chain once
swaps are allowed, with explicit replayable move sequences.  Last, the
width of each order on the two-edge matchings of 1..6, read off the moves.
"""

from tca_lab.matchings import (all_matchings, fmt_matching, fmt_move,
                               gamma_family, leq_full, leq_type1, matching,
                               max_antichain, replay, type1_moves, type2_moves,
                               universe_order)

nested = matching([(1, 4), (2, 3)])
crossing = matching([(1, 3), (2, 4)])

print("moves out of", fmt_matching(nested), "with labels up to 5:")
for mv, result in type1_moves(nested, 5) + type2_moves(nested):
    print(f"   {fmt_move(mv)}  ->  {fmt_matching(result)}")

print()
print("crossing vs nested:")
print("  growth only:", leq_type1(nested, crossing))
ok, moves = leq_full(nested, crossing, witness=True)
print("  with swaps:", ok, "via", [fmt_move(m) for m in moves])
assert replay(nested, moves) == crossing

print()
print("the separating family:")
for n in (3, 4, 5):
    g = gamma_family(n)
    print(f"  gamma_{n} = {fmt_matching(g)}")

for a in (3, 4, 5):
    for b in (3, 4, 5):
        if a != b:
            assert not leq_type1(gamma_family(a), gamma_family(b))
print("pairwise incomparable under growth moves: yes")

for a, b in ((3, 4), (4, 5), (3, 5)):
    ok, moves = leq_full(gamma_family(a), gamma_family(b), witness=True)
    assert ok and replay(gamma_family(a), moves) == gamma_family(b)
    print(f"gamma_{a} -> gamma_{b}: witness of {len(moves)} moves replays")

print()
universe = all_matchings(2, 6)
print(f"{len(universe)} two-edge matchings on labels 1..6")
orders = (("growth-only", lambda g: type1_moves(g, 6), leq_type1, 9),
          ("growth-and-swap", lambda g: type1_moves(g, 6) + type2_moves(g),
           leq_full, 7))
for name, moves, decide, want in orders:
    anti, width = max_antichain(universe, universe_order(universe, moves))
    assert width == len(anti) == want
    assert not any(decide(a, b) for a in anti for b in anti if a != b)
    print(f"width under the {name} order: {width}, attained by")
    for g in anti:
        print("  ", fmt_matching(g))

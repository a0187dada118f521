"""The two-color degree-one sandbox.

One-index variables in two colors give a miniature of the whole
machinery: monomials are colored subsets, the moves add an element or
push one up, and ideals generated by a single orbit have initial sets
that really are up-sets.  Small enough to check everything exhaustively.
The initial sets come from the same pipeline as the matching flavors, and
the growth order is decided in closed form (no search).
"""

from fractions import Fraction

from tca_lab.algebra import (EquivariantIdeal, VariableSystem,
                             verify_move_closure)
from tca_lab.matchings import (all_colored_sets, colored_key, degree_one_leq,
                               degree_one_moves, fmt_colored_set, fmt_move,
                               max_antichain)

system = VariableSystem("degree_one", 6)

s = ((1, "R"),)  # the set {1R}
print("moves out of", fmt_colored_set(s), "with labels up to 3:")
for mv, result in degree_one_moves(s, 3):
    print(f"   {fmt_move(mv)}  ->  {fmt_colored_set(result)}")

x1 = {((0, 1),): Fraction(1)}
orbit = EquivariantIdeal.from_generators(system, [x1], label="x1-orbit")
res = verify_move_closure(orbit, 2, 6)
print(f"\nx1-orbit ideal: initial set {res.initial_size}, "
      f"moves checked {res.moves_checked}, closed: {res.closed}")

mixed = EquivariantIdeal.from_generators(
    system, [{((0, 1),): Fraction(1), ((1, 1),): Fraction(1)}],
    label="red-plus-blue")
res = verify_move_closure(mixed, 2, 6)
print(f"red-plus-blue ideal: initial set {res.initial_size}, "
      f"closed: {res.closed}")

universe = all_colored_sets(2, 6)
anti, width = max_antichain(universe, degree_one_leq)
print(f"\ncolored poset on {len(universe)} elements has width {width}:")
for member in sorted(anti, key=colored_key):
    print("  ", fmt_colored_set(member))

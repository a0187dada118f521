"""How the three twisted polynomial algebras split into irreducible blocks.

Each degree of Sym(Sym^2), Sym(Wedge^2), and Sym(V (x) V) is decomposed
two ways: by expanding characters and splitting greedily, and by the
classical product formulas (even rows, even columns, paired shapes).
The tables agree and every block appears exactly once.
"""

from math import prod

from tca_lab.algebra import algebra_closed_formula, decompose_algebra
from tca_lab.partitions import fmt_partition, hook_content_dim

RANK = 4
DEGREE = 4


def dim(table):
    """Dimension of a character at RANK; a generic label (rows, cols)
    is the tensor product of its two blocks."""
    total = 0
    for label, mult in table.items():
        blocks = label if label and isinstance(label[0], tuple) else (label,)
        total += mult * prod(hook_content_dim(lam, RANK) for lam in blocks)
    return total


for flavor in ("symmetric", "antisymmetric", "generic"):
    print(f"=== {flavor}, rank {RANK} ===")
    for d in range(DEGREE + 1):
        table = decompose_algebra(flavor, d, RANK)
        formula = algebra_closed_formula(flavor, d, RANK)
        assert table == formula
        assert all(m == 1 for m in table.values())
        cells = ", ".join(f"{fmt_partition(lam)}" for lam in sorted(table))
        print(f"  degree {d}: {cells or '(zero)'}   [dim {dim(table)}]")
    print()

# Dropping the rank truncates the table: shapes that need more rows than
# the rank has simply vanish.  Compare degree 3 of the symmetric algebra
# at ranks 4 and 1.
big = decompose_algebra("symmetric", 3, 4)
small = decompose_algebra("symmetric", 3, 1)
print("symmetric degree 3 at rank 4:",
      [fmt_partition(lam) for lam in sorted(big)])
print("symmetric degree 3 at rank 1:",
      [fmt_partition(lam) for lam in sorted(small)])

# Block dimensions come from the hook content formula.
lam = (4, 2)
print(f"dim of the {fmt_partition(lam)} block at rank 4:",
      hook_content_dim(lam, 4))

"""Koszul homology tables and how they freeze as the rank grows.

tor_table resolves the scalars against a determinantal quotient and
reports, for each homological degree p and internal degree q, the
irreducible blocks of the homology.  Run the same computation at two
consecutive ranks and the tables match label for label — the point of
working equivariantly is exactly that the answer stops depending on the
rank.
"""

from tca_lab.partitions import fmt_partition
from tca_lab.torlab import (DeterminantalIdealSpec, determinantal_family,
                            stabilization_report, tor_table)


def show(table):
    for (p, q, lam, mult, n) in table.records():
        print(f"  Tor_{p}, internal degree {q}: {fmt_partition(lam)} x{mult}")


print("principal 2x2 determinant (symmetric, rank 2):")
show(tor_table(DeterminantalIdealSpec("symmetric", 2, 1), 3, 4))

print("\nall 2x2 minors of a generic 3x3 matrix:")
show(tor_table(DeterminantalIdealSpec("generic", 3, 1), 2, 4))

print("\nsame ideal, rank 3 vs rank 4:")
# each rank on its own; the report itself computes rank 4 only and reads
# rank 3 off it by dropping the labels of more than 3 rows
family = determinantal_family("generic", 1)
rank3, rank4 = (tor_table(family(n), 2, 4).entries for n in (3, 4))
stab = stabilization_report(family, 2, 4, (3, 4))
for pq in sorted(stab.first_stable):
    n = stab.first_stable[pq]
    state = f"stable from rank {n}" if n is not None else "not yet stable"
    print(f"  cell {pq}: {state}")
assert rank3 == rank4 == stab.tables[3].entries
print("tables agree exactly.")

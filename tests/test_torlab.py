"""Koszul strands, determinantal ideals, and cross-rank stabilization."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tca_lab.algebra import (EquivariantIdeal, Span, VariableSystem, poly_add,
                             rep_closure, term)
from tca_lab.partitions import decompose_into_schur
from tca_lab.torlab import (
    DeterminantalIdealSpec,
    KoszulComplex,
    TorTable,
    determinantal_ideal,
    ft_check,
    stabilization_report,
    tor_table,
    _dominant_weights,
)


def test_spec_sizes_and_triviality():
    spec = DeterminantalIdealSpec("symmetric", 2, 1)
    assert spec.minor_size == 2 and not spec.is_trivial
    assert DeterminantalIdealSpec("symmetric", 3, 3).is_trivial
    assert DeterminantalIdealSpec("generic", 2, 2).is_trivial
    # alternating forms have even rank: bounds 1 and 0 cut the same locus
    assert DeterminantalIdealSpec("antisymmetric", 4, 2).pfaffian_size == 4
    assert DeterminantalIdealSpec("antisymmetric", 4, 1).pfaffian_size == 2
    assert DeterminantalIdealSpec("antisymmetric", 4, 3).pfaffian_size == 4
    assert DeterminantalIdealSpec("antisymmetric", 3, 2).is_trivial
    with pytest.raises(ValueError):
        DeterminantalIdealSpec("symmetric", 2, 3)
    with pytest.raises(ValueError):
        DeterminantalIdealSpec("degree_one", 2, 1)


def test_determinantal_generators():
    system = VariableSystem("symmetric", 2)
    ideal = determinantal_ideal(DeterminantalIdealSpec("symmetric", 2, 1))
    det = {}
    poly_add(det, term(system, 1, [(1, 1), (2, 2)]))
    poly_add(det, term(system, -1, [(1, 2), (1, 2)]))
    assert ideal.contains(det)
    assert len(ideal.component(2)) == 1

    gsystem = VariableSystem("generic", 2)
    gideal = determinantal_ideal(DeterminantalIdealSpec("generic", 2, 1))
    gdet = {}
    poly_add(gdet, term(gsystem, 1, [(1, 1), (2, 2)]))
    poly_add(gdet, term(gsystem, -1, [(1, 2), (2, 1)]))
    assert gideal.contains(gdet)
    assert len(gideal.component(2)) == 1

    asystem = VariableSystem("antisymmetric", 4)
    aideal = determinantal_ideal(DeterminantalIdealSpec("antisymmetric", 4, 2))
    pf = {}
    poly_add(pf, term(asystem, 1, [(1, 2), (3, 4)]))
    poly_add(pf, term(asystem, -1, [(1, 3), (2, 4)]))
    poly_add(pf, term(asystem, 1, [(1, 4), (2, 3)]))
    assert aideal.contains(pf)
    assert len(aideal.component(2)) == 1

    assert determinantal_ideal(
        DeterminantalIdealSpec("symmetric", 3, 3)).component(2) == []


def explicit_minor(system, rows, cols):
    out = {}
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(perm[a] > perm[b]
                           for a, b in combinations(range(len(perm)), 2))
        poly_add(out, term(system, sign, [(rows[a], cols[perm[a]])
                                          for a in range(len(rows))]))
    return out


def explicit_pfaffian(system, labels):
    if not labels:
        return {(): Fraction(1)}
    out = {}
    for t in range(1, len(labels)):
        rest = labels[1:t] + labels[t + 1:]
        for m, c in explicit_pfaffian(system, rest).items():
            poly_add(out, term(system, (-1) ** (t + 1) * c,
                               [(labels[0], labels[t])] + list(m)))
    return out


def explicit_generators(spec):
    """Every minor of size minor_size (or Pfaffian of size pfaffian_size)."""
    system = VariableSystem(spec.flavor, spec.rank)
    labels = range(1, spec.rank + 1)
    if spec.flavor == "antisymmetric":
        return [explicit_pfaffian(system, sub)
                for sub in combinations(labels, spec.pfaffian_size)]
    k = spec.minor_size
    return [explicit_minor(system, rows, cols)
            for rows in combinations(labels, k) for cols in combinations(labels, k)]


@pytest.mark.parametrize("flavor", ["symmetric", "antisymmetric", "generic"])
def test_determinantal_ideal_spans_the_explicit_minors(flavor):
    """The isotypic construction against the orbit of explicitly built
    minors or Pfaffians: the same subspace in the generating degree."""
    for n in range(1, 5):
        for r in range(n + 1):
            spec = DeterminantalIdealSpec(flavor, n, r)
            system = VariableSystem(flavor, n)
            oracle = rep_closure(system, explicit_generators(spec))
            got = determinantal_ideal(spec)
            degree = (spec.pfaffian_size // 2 if flavor == "antisymmetric"
                      else spec.minor_size)
            component = got.component(degree)
            assert len(component) == len(oracle), spec
            span = Span()
            for v in component:
                span.add(v)
            assert all(span.contains(v) for v in oracle), spec
            assert (not oracle) == spec.is_trivial, spec


def test_hypersurface_tables():
    """A single regular quadric: one homology line and nothing above it."""
    assert tor_table(DeterminantalIdealSpec("symmetric", 2, 1), 3, 4).as_dict() \
        == {(0, 0): {(): 1}, (1, 2): {(2, 2): 1}}
    assert tor_table(DeterminantalIdealSpec("symmetric", 3, 2), 2, 4).as_dict() \
        == {(0, 0): {(): 1}, (1, 3): {(2, 2, 2): 1}}
    assert tor_table(DeterminantalIdealSpec("generic", 2, 1), 2, 3).as_dict() \
        == {(0, 0): {((), ()): 1}, (1, 2): {((1, 1), (1, 1)): 1}}
    assert tor_table(DeterminantalIdealSpec("antisymmetric", 4, 2), 2, 3
                     ).as_dict() == {(0, 0): {(): 1},
                                     (1, 2): {(1, 1, 1, 1): 1}}


def test_trivial_quotient_table():
    table = tor_table(DeterminantalIdealSpec("symmetric", 3, 3), 2, 3)
    assert table.as_dict() == {(0, 0): {(): 1}}
    assert table.meta["trivial"]


def exterior_power_character(system, p):
    char = {}
    for sub in combinations(system.variables(), p):
        w = [0] * system.rank
        for (i, j) in sub:
            w[i - 1] += 1
            w[j - 1] += 1
        char[tuple(w)] = char.get(tuple(w), 0) + 1
    return char


def test_full_variable_quotient_matches_exterior_powers():
    """With every variable modded out the strands are exterior powers,
    recomputed here directly from variable subsets."""
    for n in (2, 3):
        system = VariableSystem("symmetric", n)
        table = tor_table(DeterminantalIdealSpec("symmetric", n, 0), 3, 3
                          ).as_dict()
        for p in range(4):
            oracle = decompose_into_schur(
                exterior_power_character(system, p), n).entries
            assert table.get((p, p), {}) == oracle, (n, p)
        assert all(p == q for p, q in table)
    # frozen labels at rank 2, for the record
    t2 = tor_table(DeterminantalIdealSpec("symmetric", 2, 0), 3, 3).as_dict()
    assert t2 == {(0, 0): {(): 1}, (1, 1): {(2,): 1},
                  (2, 2): {(3, 1): 1}, (3, 3): {(3, 3): 1}}


def test_differential_squares_to_zero():
    system = VariableSystem("symmetric", 2)
    ideal = determinantal_ideal(DeterminantalIdealSpec("symmetric", 2, 1))
    komplex = KoszulComplex(system, ideal, 3, 4)
    checked = 0
    for q in range(4):
        for w in _dominant_weights(system, q):
            for x in komplex.chain_basis(2, q, w):
                out = komplex.apply_diff(komplex.apply_diff({x: Fraction(1)}))
                assert not out
                checked += 1
    assert checked > 0


def test_tor_table_records_are_sorted():
    table = tor_table(DeterminantalIdealSpec("symmetric", 2, 0), 2, 2)
    recs = table.records()
    assert recs == sorted(recs)
    assert table.entry(1, 1).entries == {(2,): 1}
    assert table.entry(9, 9) is None
    assert isinstance(table, TorTable)


def test_symmetry_sampling_path():
    # exercises the dominant-vs-shuffled weight audit; a clean engine passes
    table = tor_table(DeterminantalIdealSpec("symmetric", 2, 1), 2, 3,
                      sample_check_seed=5)
    assert table.as_dict()[(1, 2)] == {(2, 2): 1}


def test_stabilization_between_consecutive_ranks():
    stab = stabilization_report("generic", 1, 2, 4, (3, 4))
    assert stab.tables[3].as_dict() == stab.tables[4].as_dict()
    assert sorted(stab.tables[3].as_dict()) == [(0, 0), (1, 2), (2, 3)]
    assert stab.first_stable == {(0, 0): 3, (1, 2): 3, (2, 3): 3}
    assert stab.never_stabilized == []
    assert stab.stable_pairs == {(0, 0), (1, 2), (2, 3)}


def test_stabilization_flags_unconfirmed_last_rank_cells():
    """A cell first visible at the top rank of the range cannot be declared
    stable from anywhere."""
    stab = stabilization_report("generic", 1, 2, 4, (2, 3))
    assert stab.first_stable[(0, 0)] == 2
    assert stab.first_stable[(1, 2)] == 2
    assert stab.first_stable[(2, 3)] is None
    assert stab.never_stabilized == [(2, 3)]


def test_stabilization_koszul_case():
    stab = stabilization_report("symmetric", 0, 2, 2, (2, 3))
    assert stab.first_stable == {(0, 0): 2, (1, 1): 2, (2, 2): 2}
    assert stab.never_stabilized == []


def test_rank_bound_is_clamped():
    stab = stabilization_report("symmetric", 9, 1, 2, (2, 3))
    for n, table in stab.tables.items():
        assert table.as_dict() == {(0, 0): {(): 1}}


def test_ft_label_boundedness():
    report = ft_check(
        lambda n: determinantal_ideal(DeterminantalIdealSpec("symmetric", n, 1)),
        1, 2, (2, 3))
    assert report.labels_per_p == {0: {2: ((),), 3: ((),)},
                                   1: {2: ((2, 2),), 3: ((2, 2),)}}
    assert report.all_bounded

    zero = ft_check(
        lambda n: EquivariantIdeal.from_generators(
            VariableSystem("symmetric", n), [], label="zero"),
        2, 2, (2, 3))
    assert zero.labels_per_p[0] == {2: ((),), 3: ((),)}
    assert zero.labels_per_p[1] == {2: (), 3: ()}
    assert zero.all_bounded

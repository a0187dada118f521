"""Koszul strands, determinantal ideals, and cross-rank stabilization."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from tca_lab.algebra import (EquivariantIdeal, Span, VariableSystem,
                             algebra_closed_formula, block_vanishes,
                             decompose_algebra, highest_weight_vector,
                             monomials_of_weight, poly_add, rep_closure, term)
from tca_lab.errors import ParseError
from tca_lab.partitions import (contains, decompose_into_schur, partitions_of,
                                transpose)
from tca_lab import torlab
from tca_lab.torlab import (
    DeterminantalIdealSpec,
    KoszulComplex,
    TorTable,
    determinantal_family,
    determinantal_ideal,
    stabilization_report,
    tor_table,
    _dominant_weights,
)
from oracles import (all_bounded, ideal_component, ideal_contains,
                     labels_per_p, monomials_of_degree, poly_product,
                     schur_character, stabilization_by_rank)
from test_algebra import oracle_weight_subtract


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
    assert ideal_contains(ideal, det)
    assert len(ideal_component(ideal, 2)) == 1

    gsystem = VariableSystem("generic", 2)
    gideal = determinantal_ideal(DeterminantalIdealSpec("generic", 2, 1))
    gdet = {}
    poly_add(gdet, term(gsystem, 1, [(1, 1), (2, 2)]))
    poly_add(gdet, term(gsystem, -1, [(1, 2), (2, 1)]))
    assert ideal_contains(gideal, gdet)
    assert len(ideal_component(gideal, 2)) == 1

    asystem = VariableSystem("antisymmetric", 4)
    aideal = determinantal_ideal(DeterminantalIdealSpec("antisymmetric", 4, 2))
    pf = {}
    poly_add(pf, term(asystem, 1, [(1, 2), (3, 4)]))
    poly_add(pf, term(asystem, -1, [(1, 3), (2, 4)]))
    poly_add(pf, term(asystem, 1, [(1, 4), (2, 3)]))
    assert ideal_contains(aideal, pf)
    assert len(ideal_component(aideal, 2)) == 1

    assert ideal_component(determinantal_ideal(
        DeterminantalIdealSpec("symmetric", 3, 3)), 2) == []


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
            component = ideal_component(got, degree)
            assert len(component) == len(oracle), spec
            span = Span()
            for v in component:
                span.add(v)
            assert all(span.contains(v) for v in oracle), spec
            assert (not oracle) == spec.is_trivial, spec


def test_hypersurface_tables():
    """A single regular quadric: one homology line and nothing above it."""
    assert tor_table(DeterminantalIdealSpec("symmetric", 2, 1), 3, 4).entries \
        == {(0, 0): {(): 1}, (1, 2): {(2, 2): 1}}
    assert tor_table(DeterminantalIdealSpec("symmetric", 3, 2), 2, 4).entries \
        == {(0, 0): {(): 1}, (1, 3): {(2, 2, 2): 1}}
    assert tor_table(DeterminantalIdealSpec("generic", 2, 1), 2, 3).entries \
        == {(0, 0): {((), ()): 1}, (1, 2): {((1, 1), (1, 1)): 1}}
    assert tor_table(DeterminantalIdealSpec("antisymmetric", 4, 2), 2, 3
                     ).entries == {(0, 0): {(): 1},
                                   (1, 2): {(1, 1, 1, 1): 1}}


def test_trivial_quotient_table():
    table = tor_table(DeterminantalIdealSpec("symmetric", 3, 3), 2, 3)
    assert table.entries == {(0, 0): {(): 1}}
    assert table.label.endswith(" (zero ideal)")


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
                          ).entries
        for p in range(4):
            oracle = decompose_into_schur(
                exterior_power_character(system, p), n)
            assert table.get((p, p), {}) == oracle, (n, p)
        assert all(p == q for p, q in table)
    # frozen labels at rank 2, for the record
    t2 = tor_table(DeterminantalIdealSpec("symmetric", 2, 0), 3, 3).entries
    assert t2 == {(0, 0): {(): 1}, (1, 1): {(2,): 1},
                  (2, 2): {(3, 1): 1}, (3, 3): {(3, 3): 1}}


def quotient_character(spec, system, d):
    """[(A/I)_d]: the non-vanishing blocks of A_d that do not contain the
    ideal's block, each as the Schur polynomial of its key."""
    char = {}
    for lam in partitions_of(d):
        if block_vanishes(system, lam) or contains(spec.lam, lam):
            continue
        key = tuple(2 * part for part in lam)
        if spec.flavor == "antisymmetric":
            key = transpose(key)
        poly_add(char, schur_character(key, system.rank))
    return char


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("flavor, bound", [
    ("symmetric", 0), ("symmetric", 1), ("symmetric", 2),
    ("antisymmetric", 0), ("antisymmetric", 2)])
def test_every_tor_row_has_the_koszul_euler_characteristic(flavor, bound, n):
    """Row by row, sum_p (-1)^p [Tor_{p,q}] equals
    sum_p (-1)^p [wedge^p A_1] [(A/I)_{q-p}].  Tor_{p,q} vanishes for
    p >= 1 and q < p + g - 1, g the generator degree, so every p that can
    be nonzero in the rows q <= p_max + g - 1 is in the table."""
    p_max = 3
    spec = DeterminantalIdealSpec(flavor, n, bound)
    system = VariableSystem(flavor, n)
    g = sum(spec.lam)
    table = tor_table(spec, p_max, p_max + g - 1).entries
    for q in range(p_max + g):
        tor, koszul = {}, {}
        for (p, row), labels in table.items():
            for label, mult in labels.items():
                if row == q:
                    poly_add(tor, schur_character(label, n), (-1) ** p * mult)
        for p in range(q + 1):
            poly_add(koszul, poly_product(exterior_power_character(system, p),
                                          quotient_character(spec, system, q - p)),
                     (-1) ** p)
        assert tor == koszul, (spec, q)


def test_differential_squares_to_zero():
    system = VariableSystem("symmetric", 2)
    ideal = determinantal_ideal(DeterminantalIdealSpec("symmetric", 2, 1))
    komplex = KoszulComplex(ideal, 3)
    checked = 0
    for q in range(4):
        for w in _dominant_weights(system, q):
            for x in komplex.chain_basis(2, q, w):
                out = komplex.apply_diff(komplex.apply_diff({x: Fraction(1)}))
                assert not out
                checked += 1
    assert checked > 0


def test_strand_guards_fire_on_a_differential_that_does_not_square_to_zero(
        monkeypatch):
    """The d∘d check now combines the cached images of K_{p-1}; fed a
    differential with every sign +1, it must still refuse the strand."""
    def unsigned_diff(self, vec):
        out = {}
        for (T, m), c in vec.items():
            for t, v in enumerate(T):
                for m2, c2 in self._normal_form(tuple(sorted(m + (v,)))).items():
                    key = (T[:t] + T[t + 1:], m2)
                    out[key] = out.get(key, 0) + c * c2
        return {k: c for k, c in out.items() if c}

    ideal = determinantal_ideal(DeterminantalIdealSpec("symmetric", 2, 1))
    w = (3, 1)      # K_2 is x11 ∧ x12, and x11*x12 is not in the ideal
    assert KoszulComplex(ideal, 3).chain_basis(2, 2, w)

    monkeypatch.setattr(KoszulComplex, "apply_diff", unsigned_diff)
    with pytest.raises(AssertionError, match="does not square to zero"):
        KoszulComplex(ideal, 3).strand(2, w)


# -- the cached hot loop against the paths it replaced --------------------

# (flavor, largest rank) of the whole small universes checked below
UNIVERSES = (("symmetric", 4), ("antisymmetric", 4), ("generic", 3))
P_MAX, Q_MAX = 3, 4


def universe(flavor, top):
    """A Koszul complex for every rank up to ``top`` and every rank bound."""
    for n in range(1, top + 1):
        for r in range(n + 1):
            ideal = determinantal_ideal(DeterminantalIdealSpec(flavor, n, r))
            yield KoszulComplex(ideal, P_MAX)


def occurring_weights(system, q):
    return sorted({system.weight(m) for m in monomials_of_degree(system, q)})


def oracle_chain_basis(komplex, p, q, w):
    """Test every p-subset of variables, one weight subtraction per variable."""
    system = komplex.system
    if p < 0 or q - p < 0:
        return []
    out = []
    for T in combinations(system.variables(), p):
        rem = w
        for v in T:
            rem = oracle_weight_subtract(system, rem, system.weight((v,)))
            if rem is None:
                break
        if rem is None:
            continue
        out.extend((T, m) for m in komplex.quotient_basis(q - p, rem))
    return out


@lru_cache(maxsize=256)
def oracle_projections(komplex, d, w):
    """Each monomial of degree ``d`` and weight ``w`` projected onto
    ``quotient_basis(d, w)`` along a freshly built ideal slice at ``w``:
    the basis must be a complement of the slice, and sympy solves for the
    coordinates, returned as Fractions."""
    import sympy

    monos = monomials_of_weight(komplex.system, d, w)
    basis = komplex.quotient_basis(d, w)
    rows = komplex.ideal.component_span(d, w).vectors()
    assert len(set(basis)) == len(basis)
    assert len(basis) + len(rows) == len(monos), (komplex.ideal.label, d, w)
    index = {m: i for i, m in enumerate(monos)}
    mat = sympy.zeros(len(monos), len(monos))
    for j, col in enumerate([{m: 1} for m in basis] + rows):
        for m, c in col.items():
            mat[index[m], j] = sympy.Rational(c.numerator, c.denominator)
    assert mat.rank() == len(monos), (komplex.ideal.label, d, w)
    coords = mat.inv()
    return {m: {b: Fraction(int(x.p), int(x.q))
                for b, x in zip(basis, coords[:len(basis), k]) if x}
            for k, m in enumerate(monos)}


def oracle_normal_form(komplex, mono):
    """The projection of a monomial onto the quotient basis of its weight
    along the ideal, solved from scratch."""
    return oracle_projections(komplex, len(mono), komplex.system.weight(mono))[mono]


def oracle_apply_diff(komplex, vec):
    out = {}
    for (T, m), c in vec.items():
        for t, v in enumerate(T):
            nf = oracle_normal_form(komplex, tuple(sorted(m + (v,))))
            for m2, c2 in nf.items():
                key = (T[:t] + T[t + 1:], m2)
                out[key] = out.get(key, 0) + (-1) ** t * c * c2
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("flavor,top", UNIVERSES)
def test_grouped_chain_basis_matches_the_subset_scan(flavor, top):
    checked = 0
    for komplex in universe(flavor, top):
        for q in range(Q_MAX + 1):
            for w in occurring_weights(komplex.system, q):
                for p in range(P_MAX + 2):
                    got = komplex.chain_basis(p, q, w)
                    assert sorted(got) == sorted(oracle_chain_basis(komplex, p, q, w))
                    assert len(set(got)) == len(got)
                    checked += len(got)
    assert checked > 0


@pytest.mark.parametrize("flavor,top", UNIVERSES)
def test_cached_normal_forms_match_the_uncached_reduction(flavor, top):
    for komplex in universe(flavor, top):
        for d in range(Q_MAX + 1):
            for mono in monomials_of_degree(komplex.system, d):
                want = oracle_normal_form(komplex, mono)
                for _ in range(2):      # the miss, then the memo
                    got = komplex._normal_form(mono)
                    assert got == want, (komplex.ideal.label, mono)
                    assert not any(isinstance(c, Fraction) and c.denominator == 1
                                   for c in got.values())


@pytest.mark.parametrize("flavor,top", UNIVERSES)
def test_repeated_strands_agree_and_leave_the_memo_intact(flavor, top):
    for komplex in universe(flavor, top):
        keys = [(q, w) for q in range(Q_MAX + 1)
                for w in occurring_weights(komplex.system, q)]
        first = [komplex.strand(q, w) for q, w in keys]
        memo = {m: dict(nf) for m, nf in komplex._normal_forms.items()}
        assert [komplex.strand(q, w) for q, w in keys] == first
        assert komplex._normal_forms == memo


@pytest.mark.parametrize("flavor,top", [("symmetric", 3), ("antisymmetric", 4),
                                        ("generic", 2)])
def test_strand_ranks_match_a_sympy_rank_oracle(flavor, top):
    """Each differential as a dense sympy matrix built from the uncached
    path; sympy's rank against the ranks the strand reports."""
    import sympy

    matrices = 0
    for komplex in universe(flavor, top):
        for q in range(Q_MAX + 1):
            for w in occurring_weights(komplex.system, q):
                dims, ranks, _ = komplex.strand(q, w)
                bases = [oracle_chain_basis(komplex, p, q, w)
                         for p in range(P_MAX + 2)]
                assert dims == [len(b) for b in bases[:P_MAX + 1]]
                for p in range(1, P_MAX + 2):
                    if not bases[p] or not bases[p - 1]:
                        assert ranks[p] == 0
                        continue
                    row_of = {x: i for i, x in enumerate(bases[p - 1])}
                    mat = sympy.zeros(len(bases[p - 1]), len(bases[p]))
                    for j, x in enumerate(bases[p]):
                        for y, c in oracle_apply_diff(komplex, {x: 1}).items():
                            mat[row_of[y], j] = sympy.Rational(c.numerator,
                                                               c.denominator)
                    assert mat.rank() == ranks[p], (komplex.ideal.label, q, w, p)
                    matrices += 1
    assert matrices > 0


def test_tor_table_records_are_sorted():
    table = tor_table(DeterminantalIdealSpec("symmetric", 2, 0), 2, 2)
    recs = table.records()
    assert recs == sorted(recs)
    assert table.entries.get((1, 1)) == {(2,): 1}
    assert table.entries.get((9, 9)) is None
    assert isinstance(table, TorTable)


def assert_plain_character(char):
    """A character is a plain dict label -> multiplicity, each an ``int``
    above zero."""
    assert type(char) is dict, type(char)
    assert all(type(m) is int and m > 0 for m in char.values()), char


def test_characters_are_plain_dicts_of_positive_ints():
    """Every layer hands a character over in one form: the Schur expansion
    (``Fraction`` input and pair keys included), both decompositions of
    the algebra, and each Tor cell; a Tor table names its ideal."""
    assert_plain_character(decompose_into_schur(
        {k: Fraction(2 * c) for k, c in schur_character((2, 1), 3).items()}, 3))
    assert_plain_character(decompose_into_schur(
        poly_product(schur_character((1,), 2), schur_character((1,), 2)), 2))
    for flavor in ("symmetric", "antisymmetric", "generic"):
        for d in range(4):
            assert_plain_character(decompose_algebra(flavor, d, 3))
            assert_plain_character(algebra_closed_formula(flavor, d, 3))
    for spec in (DeterminantalIdealSpec("symmetric", 3, 1),
                 DeterminantalIdealSpec("antisymmetric", 4, 2),
                 DeterminantalIdealSpec("generic", 2, 1),
                 DeterminantalIdealSpec("symmetric", 2, 2)):
        table = tor_table(spec, 2, 4)
        assert table.label == spec.label
        assert table.entries
        for char in table.entries.values():
            assert_plain_character(char)
    unnamed = EquivariantIdeal.from_generators(VariableSystem("generic", 2), [])
    assert tor_table(unnamed, 1, 1).label == "(custom)"


def test_symmetry_sampling_path():
    # exercises the dominant-vs-shuffled weight audit; a clean engine passes
    table = tor_table(DeterminantalIdealSpec("symmetric", 2, 1), 2, 3,
                      sample_check_seed=5)
    assert table.entries[(1, 2)] == {(2, 2): 1}


def test_stabilization_between_consecutive_ranks():
    stab = stabilization_report(determinantal_family("generic", 1), 2, 4, (3, 4))
    assert stab.tables[3].entries == stab.tables[4].entries
    assert sorted(stab.tables[3].entries) == [(0, 0), (1, 2), (2, 3)]
    assert stab.first_stable == {(0, 0): 3, (1, 2): 3, (2, 3): 3}
    assert stab.never_stabilized == []
    assert {pq for pq, n in stab.first_stable.items()
            if n is not None} == {(0, 0), (1, 2), (2, 3)}


def test_stabilization_flags_unconfirmed_last_rank_cells():
    """A cell first visible at the top rank of the range cannot be declared
    stable from anywhere."""
    stab = stabilization_report(determinantal_family("generic", 1), 2, 4, (2, 3))
    assert stab.first_stable[(0, 0)] == 2
    assert stab.first_stable[(1, 2)] == 2
    assert stab.first_stable[(2, 3)] is None
    assert stab.never_stabilized == [(2, 3)]


@pytest.mark.parametrize("n_range", [(2, 2), (3, 2), (2, 4, 3)])
def test_stabilization_refuses_ranges_that_are_not_strictly_increasing(n_range):
    """A repeated rank would confirm its own stability and a descending
    range would read it backwards; both are input errors (CLI exit 4)."""
    with pytest.raises(ParseError, match="strictly increasing"):
        stabilization_report(determinantal_family("generic", 1), 2, 4, n_range)


def test_stabilization_refuses_an_empty_range():
    with pytest.raises(ParseError, match="non-empty"):
        stabilization_report(determinantal_family("generic", 1), 2, 4, ())


def _isotypic(flavor, lam):
    return lambda n: EquivariantIdeal.isotypic(VariableSystem(flavor, n), lam)


def _generated(flavor, lam):
    def family(n):
        system = VariableSystem(flavor, n)
        return EquivariantIdeal.from_generators(
            system, [highest_weight_vector(system, lam)], label=f"gen{lam}")
    return family


STABILIZATION_CASES = [
    # determinantal, clamped bounds included (rank bound above the low ranks)
    (determinantal_family("symmetric", 1), 3, 5, (1, 2, 3)),
    (determinantal_family("symmetric", 2), 2, 5, (1, 3)),
    (determinantal_family("symmetric", 0), 2, 3, (2, 4)),
    (determinantal_family("antisymmetric", 2), 2, 5, (2, 4, 5)),
    (determinantal_family("antisymmetric", 3), 2, 4, (1, 2, 3, 4)),
    (determinantal_family("generic", 1), 2, 4, (1, 2, 3)),
    (determinantal_family("generic", 2), 2, 4, (2, 3)),
    (determinantal_family("generic", 1), 2, 4, (3,)),
    # isotypic and hwv-generated families
    (_isotypic("symmetric", (2, 1)), 2, 4, (2, 3)),
    (_isotypic("antisymmetric", (1,)), 2, 4, (2, 4)),
    (_isotypic("generic", (1, 1)), 2, 3, (1, 2, 3)),
    (_generated("symmetric", (1, 1)), 2, 3, (2, 3)),
    (_generated("generic", (2,)), 1, 3, (1, 2)),
    # the zero family and the degree_one orbit of x_1
    (lambda n: EquivariantIdeal.from_generators(
        VariableSystem("symmetric", n), [], label="zero"), 2, 2, (1, 2, 3)),
    (lambda n: EquivariantIdeal.from_generators(
        VariableSystem("degree_one", n), [{((0, 1),): 1}]), 3, 3, (1, 2, 3)),
]


@pytest.mark.parametrize("family,p_max,q_max,n_range", STABILIZATION_CASES)
def test_stabilization_report_matches_the_rank_by_rank_oracle(
        family, p_max, q_max, n_range):
    """One table at the top rank, truncated, gives the report that a full
    table at every rank gives: tables, labels and first_stable alike."""
    got = stabilization_report(family, p_max, q_max, n_range)
    want = stabilization_by_rank(family, p_max, q_max, n_range)
    assert got == want
    assert list(got.tables) == list(n_range)


def test_stabilization_report_computes_one_table_at_the_top_rank(monkeypatch):
    ranks = []
    real = torlab.tor_table

    def counting(source, *args, **kwargs):
        table = real(source, *args, **kwargs)
        ranks.append(table.rank)
        return table

    monkeypatch.setattr(torlab, "tor_table", counting)
    stab = stabilization_report(determinantal_family("symmetric", 1),
                                2, 4, (2, 3, 5))
    assert ranks == [5]
    assert sorted(stab.tables) == [2, 3, 5]


@pytest.mark.parametrize("flavor", ["symmetric", "antisymmetric", "generic"])
def test_determinantal_family_is_one_ideal_at_every_rank(flavor):
    """Truncation relies on this: clamping the rank bound at rank n gives
    the zero ideal exactly when the unclamped block vanishes there, and
    otherwise the same block."""
    for r in range(7):
        lam = DeterminantalIdealSpec(flavor, r, r).lam
        for n in range(1, 9):
            spec = determinantal_family(flavor, r)(n)
            vanishes = block_vanishes(VariableSystem(flavor, n), lam)
            assert spec.is_trivial == vanishes
            assert (determinantal_ideal(spec).gen_degrees() == []) == vanishes
            if not vanishes:
                assert spec.lam == lam


def test_stabilization_koszul_case():
    stab = stabilization_report(determinantal_family("symmetric", 0), 2, 2, (2, 3))
    assert stab.first_stable == {(0, 0): 2, (1, 1): 2, (2, 2): 2}
    assert stab.never_stabilized == []


def test_rank_bound_is_clamped():
    stab = stabilization_report(determinantal_family("symmetric", 9), 1, 2, (2, 3))
    for n, table in stab.tables.items():
        assert table.entries == {(0, 0): {(): 1}}


def test_ft_label_boundedness():
    report = stabilization_report(
        lambda n: determinantal_ideal(DeterminantalIdealSpec("symmetric", n, 1)),
        1, 2, (2, 3))
    assert labels_per_p(report.tables, 1) == {
        0: {2: ((),), 3: ((),)}, 1: {2: ((2, 2),), 3: ((2, 2),)}}
    assert all_bounded(report.tables, 1)

    zero = stabilization_report(
        lambda n: EquivariantIdeal.from_generators(
            VariableSystem("symmetric", n), [], label="zero"),
        2, 2, (2, 3))
    labels = labels_per_p(zero.tables, 2)
    assert labels[0] == {2: ((),), 3: ((),)}
    assert labels[1] == {2: (), 3: ()}
    assert all_bounded(zero.tables, 2)


def _label(weight):
    """Partition label of a dominant weight: parts sorted, zeros cut."""
    if isinstance(weight[0], tuple):
        return tuple(_label(side) for side in weight)
    return tuple(sorted((x for x in weight if x), reverse=True))


@pytest.mark.parametrize("flavor,lam", [
    ("symmetric", (2,)), ("symmetric", (1, 1)), ("symmetric", (2, 1)),
    ("antisymmetric", (1,)), ("generic", (1, 1))])
def test_isotypic_family_runs_through_the_one_pipeline(flavor, lam):
    """Any family of ideals, not only determinantal specs: an isotypic
    block's Tor_1 in its generating degree is exactly that block, and the
    whole report matches the ideal built by ``rep_closure`` from the same
    highest weight vector."""
    label = f"I[{lam}]"
    d = sum(lam)

    def isotypic(n):
        return EquivariantIdeal.isotypic(VariableSystem(flavor, n), lam,
                                         label=label)

    def generated(n):
        system = VariableSystem(flavor, n)
        return EquivariantIdeal.from_generators(
            system, [highest_weight_vector(system, lam)], label=label)

    ranks = (2, 3, 4)
    stab = stabilization_report(isotypic, 2, d + 1, ranks)
    for n in ranks:
        system = VariableSystem(flavor, n)
        top = next(iter(highest_weight_vector(system, lam)))
        assert stab.tables[n].entries.get((1, d)) == {
            _label(system.weight(top)): 1}
    assert stab == stabilization_report(generated, 2, d + 1, ranks)


# -- the degree_one system runs the same Tor pipeline ------------------------

DEGREE_ONE_3 = VariableSystem("degree_one", 3)


def test_degree_one_linear_ideal_has_koszul_tor():
    """The red variables x_1..x_3 (the orbit of x_1) form a regular
    sequence of linear forms: Tor_{p,p} is the exterior power (1^p)."""
    ideal = EquivariantIdeal.from_generators(DEGREE_ONE_3, [{((0, 1),): 1}])
    assert tor_table(ideal, 4, 5).entries == {
        (0, 0): {(): 1}, (1, 1): {(1,): 1}, (2, 2): {(1, 1): 1},
        (3, 3): {(1, 1, 1): 1}}


def test_degree_one_two_by_two_minors_are_eagon_northcott():
    """The 2x2 minors x_i y_j - x_j y_i of the 2x3 matrix with rows x and y:
    three quadrics spanning (1,1), two linear syzygies spanning (1,1,1)
    twice, nothing more (Eagon-Northcott)."""
    minors = EquivariantIdeal.from_generators(
        DEGREE_ONE_3, [{((0, 1), (1, 2)): 1, ((0, 2), (1, 1)): -1}])
    want = {(0, 0): {(): 1}, (1, 2): {(1, 1): 1}, (2, 3): {(1, 1, 1): 2}}
    assert tor_table(minors, 3, 5).entries == want
    assert tor_table(minors, 3, 5, sample_check_seed=7).entries == want


@pytest.mark.parametrize("flavor,top", [("symmetric", 4), ("antisymmetric", 4),
                                        ("generic", 3), ("degree_one", 4)])
def test_dominant_weights_cover_every_sorted_weight(flavor, top):
    """Every weight of a degree-q monomial, sorted block by block, is one
    of the dominant weights a Tor table computes at."""
    for n in range(1, top + 1):
        system = VariableSystem(flavor, n)
        for q in range(5):
            dominant = set(_dominant_weights(system, q))
            for m in monomials_of_degree(system, q):
                w = system.weight(m)
                key = system.join([tuple(sorted(b, reverse=True))
                                   for b in system.blocks(w)])
                assert key in dominant, (n, q, w)

"""Partition combinatorics: shapes, characters, and the closed product formulas."""

import math
import random
import re

import pytest

from tca_lab.algebra import algebra_closed_formula, decompose_algebra
from tca_lab.errors import NegativeMultiplicityError, NonSymmetricInputError
from tca_lab.partitions import (
    CharacterTable,
    contains,
    decompose_into_schur,
    decompose_pair_into_schur,
    fmt_partition,
    hook_content_dim,
    partitions_of,
    partitions_upto,
    symmetrize_counts,
    transpose,
)

from oracles import lr_coefficient, poly_product, schur_character, schur_dim


def all_partitions_upto(size):
    out = []
    for k in range(size + 1):
        out.extend(partitions_of(k))
    return out


def test_partitions_of_counts():
    # p(0)..p(8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
    counts = [len(list(partitions_of(k))) for k in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert list(partitions_of(4, max_rows=2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_upto():
    assert partitions_upto(2) == [(), (1,), (2,), (1, 1)]
    assert len(partitions_upto(3)) == 7


def test_transpose_involution_exhaustive():
    """Transposing twice is the identity, for every shape of size <= 12."""
    for lam in all_partitions_upto(12):
        assert transpose(transpose(lam)) == lam
    # transpose is a bijection on partitions of each fixed size
    for k in range(13):
        shapes = list(partitions_of(k))
        assert sorted(transpose(lam) for lam in shapes) == sorted(shapes)


def test_transpose_fixtures():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose((2, 2)) == (2, 2)
    assert transpose(()) == ()


def test_contains_fixtures():
    assert contains((), (3, 1))
    assert contains((2, 1), (2, 1))
    assert contains((1, 1), (2, 1))
    assert not contains((3,), (2, 2))
    assert not contains((1, 1, 1), (2, 2))


def test_contains_is_a_partial_order():
    shapes = all_partitions_upto(6)
    for a in shapes:
        assert contains(a, a)
        for b in shapes:
            if contains(a, b) and contains(b, a):
                assert a == b


def test_hook_content_dims():
    assert hook_content_dim((1,), 5) == 5
    assert hook_content_dim((2,), 2) == 3
    assert hook_content_dim((1, 1), 2) == 1
    assert hook_content_dim((2, 2), 2) == 1
    assert hook_content_dim((3, 1), 2) == 3
    # too many rows for the rank: the module vanishes
    assert hook_content_dim((1, 1, 1), 2) == 0


def test_schur_dim_matches_hook_content():
    """Character sum and hook-content product agree — two separate formulas."""
    for n in range(1, 5):
        for lam in all_partitions_upto(6):
            assert schur_dim(lam, n) == hook_content_dim(lam, n)


def test_schur_roundtrip_single_block():
    for n in (2, 3, 4):
        for lam in all_partitions_upto(5):
            if len(lam) > n:
                continue
            table = decompose_into_schur(schur_character(lam, n), n)
            assert table.entries == {lam: 1}


def test_product_decomposition_fixture():
    prod = poly_product(schur_character((2,), 2), schur_character((2,), 2))
    table = decompose_into_schur(prod, 2)
    assert table.entries == {(4,): 1, (3, 1): 1, (2, 2): 1}


def test_lr_fixtures():
    # arguments are (inner shape, content, outer shape)
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 2)) == 0
    assert lr_coefficient((2,), (1,), (3,)) == 1
    assert lr_coefficient((2,), (1,), (2, 1)) == 1
    assert lr_coefficient((1,), (1,), (2, 1)) == 0   # content too small
    assert lr_coefficient((1,), (2, 1), (2, 2)) == 1


def test_lr_symmetry_sampled():
    """The two lower indices commute (product multiplicities are symmetric)."""
    rng = random.Random(5)
    shapes = [lam for lam in all_partitions_upto(4) if lam]
    for _ in range(200):
        mu = rng.choice(shapes)
        nu = rng.choice(shapes)
        for lam in partitions_of(sum(mu) + sum(nu)):
            assert lr_coefficient(mu, nu, lam) == lr_coefficient(nu, mu, lam)


def test_lr_pieri_rule():
    """Multiplying by a one-row shape adds a horizontal strip: 0/1 with no
    two added boxes in the same column."""
    def horizontal_strip(lam, mu, k):
        if sum(lam) != sum(mu) + k or not contains(mu, lam):
            return False
        lamt, mut = transpose(lam), transpose(mu)
        mut = mut + (0,) * (len(lamt) - len(mut))
        return all(a - b <= 1 for a, b in zip(lamt, mut))

    for mu in all_partitions_upto(4):
        for k in (1, 2, 3):
            for lam in partitions_of(sum(mu) + k):
                want = 1 if horizontal_strip(lam, mu, k) else 0
                assert lr_coefficient(mu, (k,), lam) == want


def test_lr_against_character_products():
    """The tableau rule and exact character arithmetic give the same
    multiplicities."""
    n = 4
    shapes = [lam for lam in all_partitions_upto(3) if lam]
    for mu in shapes:
        for nu in shapes:
            prod = poly_product(schur_character(mu, n), schur_character(nu, n))
            table = decompose_into_schur(prod, n)
            for lam in partitions_of(sum(mu) + sum(nu), max_rows=n):
                assert table.entries.get(lam, 0) == lr_coefficient(mu, nu, lam)


def test_decompose_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricInputError):
        decompose_into_schur({(1, 0): 1}, 2)


@pytest.mark.parametrize("char, n, bad", [
    ({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, 2, (1, 0, 0, 0)),
    ({(1, 0, 0): 1, (0, 1, 0): 1}, 2, (1, 0, 0)),
    ({((1, 0), (1,)): 1, ((0, 1), (1,)): 1}, 2, ((1, 0), (1,))),
    ({(1, 0): 1, ((1, 0), (0, 1)): 1}, 2, ((1, 0), (0, 1))),
    ({(-1, 1): 1, (1, -1): 1}, 2, (-1, 1)),
    ({((-1, 1), (1, -1)): 1, ((1, -1), (-1, 1)): 1}, 2, ((-1, 1), (1, -1))),
])
def test_decompose_rejects_keys_of_the_wrong_shape(char, n, bad):
    """Every key must be the same number of blocks of n labels: the Schur
    polynomials subtracted have that shape, so another key would never
    cancel.  No exponent may be negative, or it would be read as a part of
    a label.  Both checks run before the symmetry check."""
    with pytest.raises(ValueError, match=re.escape(f"character key {bad} ")):
        decompose_into_schur(char, n)


def test_decompose_rejects_negative_multiplicity():
    bad = dict(schur_character((2,), 2))
    bad[(1, 1)] = bad.get((1, 1), 0) - 1
    with pytest.raises(NegativeMultiplicityError):
        decompose_into_schur(bad, 2)


def test_character_table_api():
    table = CharacterTable({(2,): 1, (1, 1): 2}, 2)
    assert table.entries.get((2,), 0) == 1
    assert table.entries.get((9,), 0) == 0
    assert not table.is_multiplicity_free()
    assert table.sorted_items() == [((1, 1), 2), ((2,), 1)]
    assert table.total_dim() == 3 + 2 * 1


def test_decompose_algebra_fixture_tables():
    assert decompose_algebra("symmetric", 2, 4).entries == {(4,): 1, (2, 2): 1}
    assert decompose_algebra("antisymmetric", 2, 4).entries == {
        (1, 1, 1, 1): 1, (2, 2): 1}
    assert decompose_algebra("generic", 2, 4).entries == {
        ((2,), (2,)): 1, ((1, 1), (1, 1)): 1}
    assert decompose_algebra("symmetric", 3, 3).entries == {
        (6,): 1, (4, 2): 1, (2, 2, 2): 1}
    # truncation at low rank: the four-row label disappears at n=2
    assert decompose_algebra("antisymmetric", 2, 2).entries == {(2, 2): 1}
    assert decompose_algebra("generic", 1, 3).entries == {((1,), (1,)): 1}
    assert decompose_algebra("symmetric", 0, 1).entries == {(): 1}


def test_closed_formula_matches_brute_force():
    """Monomial counting and the product formulas agree, multiplicity-free."""
    for flavor in ("symmetric", "antisymmetric", "generic"):
        for n in range(1, 6):
            for d in range(5):
                got = decompose_algebra(flavor, d, n)
                want = algebra_closed_formula(flavor, d, n)
                assert got.entries == want.entries, (flavor, d, n)
                assert got.is_multiplicity_free()


def test_total_dim_against_stars_and_bars():
    """Sum of irreducible dimensions equals the count of degree-d monomials."""
    sizes = {"symmetric": lambda n: n * (n + 1) // 2,
             "antisymmetric": lambda n: n * (n - 1) // 2,
             "generic": lambda n: n * n}
    for flavor, nvars in sizes.items():
        for n in range(1, 6):
            v = nvars(n)
            for d in range(5):
                table = decompose_algebra(flavor, d, n)
                want = math.comb(v + d - 1, d) if v else (1 if d == 0 else 0)
                assert table.total_dim() == want


def test_pair_decomposition_roundtrip():
    n = 3
    char = {}
    for lam in ((2,), (1, 1)):
        row = schur_character(lam, n)
        col = schur_character(lam, n)
        for wr, cr in row.items():
            for wc, cc in col.items():
                key = (wr, wc)
                char[key] = char.get(key, 0) + cr * cc
    table = decompose_pair_into_schur(char, n)
    assert table.entries == {((2,), (2,)): 1, ((1, 1), (1, 1)): 1}


def _character(table, n):
    """The character of {label: multiplicity}, labels partitions or pairs."""
    char = {}
    for label, mult in table.items():
        if label and isinstance(label[0], tuple):
            terms = {(ex, ey): cx * cy
                     for ex, cx in schur_character(label[0], n).items()
                     for ey, cy in schur_character(label[1], n).items()}
        else:
            terms = schur_character(label, n)
        for key, c in terms.items():
            char[key] = char.get(key, 0) + mult * c
    return {k: v for k, v in char.items() if v}


def _random_tables(n, pairs, rng):
    """The zero table plus nonnegative combinations of labels of size <= 3."""
    labels = all_partitions_upto(3)
    labels = [lam for lam in labels if len(lam) <= n]
    if pairs:
        labels = [(lam, mu) for lam in labels for mu in labels]
    yield {}
    for _ in range(6):
        chosen = rng.sample(labels, min(3, len(labels)))
        yield {label: rng.randint(1, 3) for label in chosen}


@pytest.mark.parametrize("pairs", [False, True])
def test_decompose_round_trips_both_key_shapes(pairs):
    """Nonnegative combinations of s_lam, and of s_lam(x) s_mu(y), at n <= 3
    (the zero character included) decompose back to themselves; the
    dominant part alone rebuilds the whole character by symmetrizing."""
    rng = random.Random(12)
    for n in range(1, 4):
        for table in _random_tables(n, pairs, rng):
            char = _character(table, n)
            assert decompose_into_schur(char, n).entries == table
            if pairs:
                assert decompose_pair_into_schur(char, n).entries == table
            dominant = {
                key: c for key, c in char.items()
                if all(list(b) == sorted(b, reverse=True)
                       for b in (key if pairs else (key,)))}
            assert symmetrize_counts(dominant, n) == char


def test_pair_character_symmetric_in_rows_only_is_refused():
    """Symmetric under the row group, not the column group: the column swap
    is caught, naming the first pair of keys that disagree."""
    n = 3
    char = {(ex, (1, 0, 0)): c for ex, c in schur_character((2, 1), n).items()}
    message = ("coefficient mismatch between ((2, 1, 0), (1, 0, 0)) "
               "and ((2, 1, 0), (0, 1, 0))")
    for decompose in (decompose_into_schur, decompose_pair_into_schur):
        with pytest.raises(NonSymmetricInputError) as err:
            decompose(char, n)
        assert str(err.value) == message


def test_pair_decomposition_rejects_negative_multiplicity():
    n = 3
    char = _character({((2,), (1,)): 1}, n)
    for key, c in _character({((1, 1), (1,)): 1}, n).items():
        char[key] = char.get(key, 0) - c
    with pytest.raises(NegativeMultiplicityError,
                       match=r"multiplicity -1 at \(\(1, 1\), \(1,\)\)"):
        decompose_into_schur(char, n)


def test_fmt_partition():
    assert fmt_partition((3, 1)) == "(3,1)"
    assert fmt_partition(()) == "()"
    assert fmt_partition(((1,), (1,))) == "(1)*(1)"
    assert fmt_partition(((2,), (1, 1))) == "(2)*(1,1)"

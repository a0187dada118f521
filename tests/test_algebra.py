"""Equivariant ideals: derivation action, graded slices, initial sets.

Initial-matching fixtures here follow the package's total order on
matchings (largest edge first, then recursively), under which the
crossing picture on four labels beats the nested one.
"""

import itertools
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from tca_lab import algebra
from tca_lab.algebra import (
    MATCHING_FLAVORS,
    EquivariantIdeal,
    Span,
    VariableSystem,
    all_ops,
    block_vanishes,
    decompose_algebra,
    highest_weight_vector,
    ideal_contains_isotypic,
    indicator_weight,
    initial_set,
    lie_act,
    lowerings_from,
    monomials_of_weight,
    poly_add,
    rep_closure,
    term,
    verify_move_closure,
    weight_split,
    weight_splits,
)
from tca_lab.matchings import fmt_matching, leq_full, matching
from tca_lab.partitions import (contains, partitions_of, partitions_upto,
                                transpose)

from oracles import (ZeroVectorError, admissible_component, branchy_lie_act,
                     branchy_variables, branchy_weight, hw_weight,
                     character_dim, ideal_component, ideal_contains,
                     initial_matching, initial_set_by_support,
                     monomials_of_degree, raising_kernel)

SYM2 = VariableSystem("symmetric", 2)
SYM4 = VariableSystem("symmetric", 4)


def sym_poly(system, *terms):
    out = {}
    for coeff, pairs in terms:
        poly_add(out, term(system, coeff, pairs))
    return out


def det_corner(system):
    return sym_poly(system, (1, [(1, 1), (2, 2)]), (-1, [(1, 2), (1, 2)]))


def test_variable_systems():
    assert len(VariableSystem("symmetric", 3).variables()) == 6
    assert len(VariableSystem("antisymmetric", 3).variables()) == 3
    assert len(VariableSystem("generic", 3).variables()) == 9
    assert len(VariableSystem("degree_one", 3).variables()) == 6
    with pytest.raises(ValueError):
        VariableSystem("hermitian", 2)
    anti = VariableSystem("antisymmetric", 3)
    assert anti.canonical(2, 1) == ((1, 2), -1)
    assert anti.canonical(1, 1) == (None, 0)
    assert SYM4.weight(((1, 2), (1, 3))) == (2, 1, 1, 0)


def test_term_canonicalizes_signs():
    anti = VariableSystem("antisymmetric", 3)
    assert term(anti, 2, [(3, 1)]) == {((1, 3),): Fraction(-2)}
    assert term(anti, 1, [(2, 2)]) == {}
    assert term(SYM2, 0, [(1, 2)]) == {}


def test_derivation_action_fixtures():
    x22 = {((2, 2),): Fraction(1)}
    assert lie_act(SYM2, 1, 2, x22) == {((1, 2),): Fraction(2)}
    x11 = {((1, 1),): Fraction(1)}
    assert lie_act(SYM2, 1, 2, x11) == {}
    # the commutator [e12, e21] acts on x22 by its weight difference, -2
    inner = lie_act(SYM2, 1, 2, lie_act(SYM2, 2, 1, x22))
    outer = lie_act(SYM2, 2, 1, lie_act(SYM2, 1, 2, x22))
    diff = dict(inner)
    poly_add(diff, outer, scale=-1)
    assert diff == {((2, 2),): Fraction(-2)}


def test_derivation_action_sides():
    gen = VariableSystem("generic", 2)
    x22 = {((2, 2),): Fraction(1)}
    assert lie_act(gen, 1, 2, x22, side="row") == {((1, 2),): Fraction(1)}
    assert lie_act(gen, 1, 2, x22, side="col") == {((2, 1),): Fraction(1)}
    with pytest.raises(ValueError):
        lie_act(gen, 1, 2, x22)
    with pytest.raises(ValueError):
        lie_act(SYM2, 1, 2, x22, side="row")


@pytest.mark.parametrize("flavor,top", [
    ("symmetric", 4), ("antisymmetric", 5), ("generic", 3), ("degree_one", 4)])
def test_layout_entry_matches_branchy_oracle(flavor, top):
    """Variables, weights, slots and the derivation action read from the
    flavor's layout entry equal the flavor-by-flavor code: every op (the diagonal
    ones included) on every monomial of degree <= 2, and on each degree's
    sum of monomials, at every rank up to ``top``; dict order included."""
    for n in range(1, top + 1):
        system = VariableSystem(flavor, n)
        assert system.variables() == branchy_variables(system)
        for v in system.variables():
            flat = system.flatten(branchy_weight(system, (v,)))
            assert system.slots(v) == tuple(
                t for t, k in enumerate(flat) for _ in range(k))
        polys = []
        for d in range(3):
            monos = monomials_of_degree(system, d)
            for m in monos:
                assert system.weight(m) == branchy_weight(system, m)
            polys += [{m: 1} for m in monos]
            polys.append({m: (-1) ** k * (k + 1) for k, m in enumerate(monos)})
        ops = [(a, b, side) for side in system.sides()
               for a in range(1, n + 1) for b in range(1, n + 1)]
        for a, b, side in ops:
            for p in polys:
                got = lie_act(system, a, b, p, side)
                want = branchy_lie_act(system, a, b, p, side)
                assert list(got.items()) == list(want.items()), (n, a, b, side, p)
        for wrong in {None, "row", "col", "diag"} - set(system.sides()):
            messages = []
            for act in (lie_act, branchy_lie_act):
                with pytest.raises(ValueError) as exc:
                    act(system, 1, 2, {((1, 2),): 1}, wrong)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]


def test_rep_closure_dimensions():
    x11 = {((1, 1),): Fraction(1)}
    assert len(rep_closure(SYM2, [x11])) == 3
    assert len(rep_closure(SYM2, [det_corner(SYM2)])) == 1
    gen = VariableSystem("generic", 2)
    x12 = {((1, 2),): Fraction(1)}
    assert len(rep_closure(gen, [x12])) == 4


def test_monomial_enumeration():
    assert len(monomials_of_degree(SYM2, 2)) == 6
    pms = monomials_of_weight(SYM4, 2, (1, 1, 1, 1))
    assert sorted(pms) == sorted([
        ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))])
    assert monomials_of_weight(SYM2, 1, (1, 0)) == []   # odd total weight


def _var_weight(system, v):
    n = system.rank
    if system.flavor == "generic":
        row = [0] * n
        col = [0] * n
        row[v[0] - 1] += 1
        col[v[1] - 1] += 1
        return tuple(row) + tuple(col)
    w = [0] * n
    if system.flavor == "degree_one":
        w[v[1] - 1] += 1
    else:
        w[v[0] - 1] += 1
        w[v[1] - 1] += 1
    return tuple(w)


def oracle_monomials_of_weight(system, d, w):
    """The variable-by-variable recursion over every variable: counts of
    each variable ascending, pruned only where a label goes negative."""
    if system.flavor == "generic":
        target = tuple(w[0]) + tuple(w[1])
    else:
        target = tuple(w)
    unit = 2 if system.flavor in ("symmetric", "antisymmetric") else 1
    if system.flavor == "generic":
        if sum(w[0]) != d or sum(w[1]) != d:
            return []
    elif sum(target) != unit * d:
        return []
    variables = system.variables()
    vw = [_var_weight(system, v) for v in variables]
    out = []
    mono = []

    def rec(idx, d_left, left):
        if d_left == 0:
            if not any(left):
                out.append(tuple(mono))
            return
        if idx == len(variables):
            return
        rec(idx + 1, d_left, left)
        wv = vw[idx]
        cur = list(left)
        used = 0
        for _ in range(d_left):
            ok = True
            for t, u in enumerate(wv):
                if u:
                    cur[t] -= u
                    if cur[t] < 0:
                        ok = False
            if not ok:
                break
            used += 1
            mono.append(variables[idx])
            rec(idx + 1, d_left - used, tuple(cur))
        for _ in range(used):
            mono.pop()

    rec(0, d, target)
    return out


ENUMERATION_UNIVERSES = [("symmetric", 5), ("antisymmetric", 6), ("generic", 4),
                         ("degree_one", 5)]


@pytest.mark.parametrize("flavor,top", ENUMERATION_UNIVERSES)
def test_row_by_row_enumeration_matches_the_recursion_in_order(flavor, top):
    """Exact list equality, order included (seeded callers sample from it),
    for every degree up to 4 and every weight that occurs in it."""
    checked = 0
    for n in range(1, top + 1):
        system = VariableSystem(flavor, n)
        for d in range(5):
            weights = sorted({system.weight(m) for m in monomials_of_degree(system, d)})
            for w in weights:
                got = monomials_of_weight(system, d, w)
                assert got == oracle_monomials_of_weight(system, d, w), (n, d, w)
                assert got and len(set(got)) == len(got)
                assert all(system.weight(m) == w and list(m) == sorted(m) for m in got)
                checked += len(got)
    assert checked > 0


def _bounded(n, top):
    return [tuple(v) for v in itertools.product(range(top + 1), repeat=n)]


@pytest.mark.parametrize("flavor,top", ENUMERATION_UNIVERSES)
def test_weights_without_monomials_enumerate_nothing(flavor, top):
    """Every weight with entries up to 3 at a small rank, at every degree
    up to 4: the empty ones (odd totals, wrong row or column totals, one
    label above the sum of the others) agree with the recursion too."""
    n = min(top, 3)
    system = VariableSystem(flavor, n)
    if flavor == "generic":
        weights = [(r, c) for r in _bounded(n, 3) for c in _bounded(n, 3)]
    else:
        weights = _bounded(n, 3)
    empty = 0
    for d in range(5):
        for w in weights:
            got = monomials_of_weight(system, d, w)
            assert got == oracle_monomials_of_weight(system, d, w), (d, w)
            empty += not got
    assert empty > 0
    if flavor == "antisymmetric":
        assert monomials_of_weight(system, 2, (3, 1, 0)) == []   # 3 > 1 + 0
    if flavor == "generic":
        assert monomials_of_weight(system, 2, ((2, 0, 0), (1, 0, 0))) == []
        assert monomials_of_weight(system, 2, ((1, 1, 0), (0, 2, 1))) == []
    if flavor in ("symmetric", "antisymmetric"):
        assert monomials_of_weight(system, 1, (1, 0, 0)) == []   # odd total


@pytest.mark.parametrize("flavor,rank,w", [
    ("symmetric", 2, (1, 0, 1)),          # would name x[1,3] at rank 2
    ("symmetric", 3, (1, 1)),
    ("generic", 2, ((1, 0, 0), (1,))),
])
def test_weights_of_the_wrong_length_are_refused(flavor, rank, w):
    with pytest.raises(ValueError, match="not the rank"):
        monomials_of_weight(VariableSystem(flavor, rank), 1, w)


def oracle_subweights(system, w, d):
    """Weights of degree-``d`` monomials bounded above coordinatewise by
    ``w``, one flavor branch per layout (the composition that
    :func:`weight_splits` replaced)."""
    if system.flavor == "generic":
        rows = _bounded_vectors(w[0], d)
        cols = _bounded_vectors(w[1], d)
        return [(r, c) for r in rows for c in cols]
    unit = 2 if system.flavor in ("symmetric", "antisymmetric") else 1
    return _bounded_vectors(w, unit * d)


def _bounded_vectors(bound, total):
    return [v for v in itertools.product(*(range(b + 1) for b in bound))
            if sum(v) == total]


def oracle_weight_subtract(system, w, mw):
    """``w - mw``, or None when some label count goes negative."""
    if system.flavor == "generic":
        r = tuple(a - b for a, b in zip(w[0], mw[0]))
        c = tuple(a - b for a, b in zip(w[1], mw[1]))
        if min(r, default=0) < 0 or min(c, default=0) < 0:
            return None
        return (r, c)
    out = tuple(a - b for a, b in zip(w, mw))
    if min(out, default=0) < 0:
        return None
    return out


SPLIT_UNIVERSES = [("symmetric", 3), ("antisymmetric", 4), ("generic", 3),
                   ("degree_one", 3)]


def _weights_up_to_degree(system, top):
    return sorted({system.weight(m) for d in range(top + 1)
                   for m in monomials_of_degree(system, d)})


@pytest.mark.parametrize("flavor,top", SPLIT_UNIVERSES)
def test_weight_splits_match_the_subweights_oracle(flavor, top):
    """Same list, order included, for every weight of degree <= 4 and
    every d up to one past the degree."""
    checked = 0
    for n in range(1, top + 1):
        system = VariableSystem(flavor, n)
        for w in _weights_up_to_degree(system, 4):
            degree = sum(system.flatten(w)) // (system.unit * len(system.sides()))
            for d in range(degree + 2):
                want = []
                for mw in oracle_subweights(system, w, d):
                    gw = oracle_weight_subtract(system, w, mw)
                    if gw is not None:
                        want.append((mw, gw))
                assert weight_splits(system, w, d) == want, (n, w, d)
                checked += len(want)
    assert checked > 0


@pytest.mark.parametrize("flavor,top", SPLIT_UNIVERSES)
def test_weight_splits_cover_every_fitting_monomial(flavor, top):
    """Every degree-d monomial whose weight fits under w is one split."""
    for n in range(1, top + 1):
        system = VariableSystem(flavor, n)
        weights = _weights_up_to_degree(system, 4)
        for d in range(4):
            fitting = {system.weight(m) for m in monomials_of_degree(system, d)}
            for w in weights:
                splits = set(weight_splits(system, w, d))
                for mw in fitting:
                    gw = oracle_weight_subtract(system, w, mw)
                    if gw is not None:
                        assert (mw, gw) in splits, (n, w, d, mw)


def test_variable_system_weight_layout():
    gen = VariableSystem("generic", 2)
    w = ((2, 1), (0, 3))
    assert gen.unit == 1 and gen.blocks(w) == w and gen.join(gen.blocks(w)) == w
    assert gen.flatten(w) == (2, 1, 0, 3) and gen.unflatten((2, 1, 0, 3)) == w
    for flavor, unit in (("symmetric", 2), ("antisymmetric", 2), ("degree_one", 1)):
        system = VariableSystem(flavor, 3)
        w = (2, 0, 1)
        assert system.unit == unit and system.blocks(w) == (w,)
        assert system.join(system.blocks(w)) == w
        assert system.flatten(w) == w and system.unflatten(w) == w
        assert len(system.blocks(w)) == len(system.sides())


def test_highest_weight_vectors():
    assert highest_weight_vector(SYM4, (1,)) == {((1, 1),): Fraction(1)}
    assert highest_weight_vector(SYM4, (1, 1)) == det_corner(SYM4)
    assert hw_weight(SYM4, (1, 1)) == (2, 2, 0, 0)
    for lam in ((1,), (2,), (1, 1), (2, 1)):
        hwv = highest_weight_vector(SYM4, lam)
        for a in range(1, 5):
            for b in range(a + 1, 5):
                assert lie_act(SYM4, a, b, hwv) == {}


def test_hwv_agrees_with_raising_kernel():
    """The corner-product construction spans the same line the exact
    kernel solver finds."""
    for lam in ((2,), (1, 1), (2, 1)):
        hwv = highest_weight_vector(SYM4, lam)
        mono = next(iter(hwv))
        kern = raising_kernel(SYM4, len(mono), SYM4.weight(mono))
        assert len(kern) == 1
        span = Span()
        span.add(kern[0])
        assert span.contains(hwv)


def test_lowerings_span_the_weight_space():
    hwv = highest_weight_vector(SYM2, (1,))
    vecs = lowerings_from(SYM2, hwv, (2, 0), (0, 2))
    span = Span()
    for v in vecs:
        span.add(v)
    assert span.contains({((2, 2),): Fraction(1)})


def test_ideal_components():
    i1 = EquivariantIdeal.isotypic(VariableSystem("symmetric", 3), (1,))
    assert len(ideal_component(i1, 1)) == 6       # every degree-one element
    assert len(ideal_component(i1, 2)) == 21      # the whole quadratic slice too
    principal = EquivariantIdeal.from_generators(SYM2, [det_corner(SYM2)])
    assert len(ideal_component(principal, 2)) == 1
    assert ideal_component(principal, 1) == []
    assert ideal_contains(principal, det_corner(SYM2))
    doubled = {m: 2 * c for m, c in det_corner(SYM2).items()}
    assert ideal_contains(principal, doubled)
    assert not ideal_contains(principal, {((1, 1),): Fraction(1)})


def test_component_spans_are_derivation_stable():
    suite = [
        EquivariantIdeal.isotypic(SYM4, (2,)),
        EquivariantIdeal.from_generators(SYM4, [det_corner(SYM4)]),
    ]
    for ideal in suite:
        system = ideal.system
        for d in (2, 3):
            for vec in ideal_component(ideal, d):
                for a, b, side in all_ops(system):
                    img = lie_act(system, a, b, vec, side)
                    if not img:
                        continue
                    for w, piece in weight_split(system, img).items():
                        assert ideal.component_span(d, w).contains(piece)


def test_component_dims_match_decomposition():
    """Degree slice of I_(1) is everything, so its dimension must equal the
    character count of the full algebra."""
    for flavor in ("symmetric", "antisymmetric", "generic"):
        system = VariableSystem(flavor, 3)
        ideal = EquivariantIdeal.isotypic(system, (1,))
        for d in (1, 2, 3):
            assert len(ideal_component(ideal, d)) == \
                character_dim(decompose_algebra(flavor, d, 3), 3)


def test_containment_lattice_small():
    lams = partitions_upto(2)
    for flavor in ("symmetric", "antisymmetric", "generic"):
        system = VariableSystem(flavor, 4)
        ideals = {lam: EquivariantIdeal.isotypic(system, lam) for lam in lams}
        for lam in lams:
            for mu in lams:
                assert ideal_contains_isotypic(ideals[lam], mu) == \
                    contains(lam, mu), (flavor, lam, mu)


def test_containment_fixtures():
    i1 = EquivariantIdeal.isotypic(SYM4, (1,))
    i2 = EquivariantIdeal.isotypic(SYM4, (2,))
    assert ideal_contains_isotypic(i1, (2,))
    assert not ideal_contains_isotypic(i2, (1, 1))
    assert ideal_contains_isotypic(i2, (2,))
    # blocks that vanish at this rank count as contained
    assert ideal_contains_isotypic(
        EquivariantIdeal.isotypic(SYM2, (1,)), (1, 1, 1))


def test_admissible_component_fixtures():
    i1 = EquivariantIdeal.isotypic(SYM4, (1,))
    got = admissible_component(i1, (1, 2))
    assert got == [{matching([(1, 2)]): Fraction(1)}]
    # odd supports carry nothing
    assert admissible_component(i1, (1, 2, 3)) == []
    # the full quadratic slice on four labels is all three matchings
    full = admissible_component(i1, (1, 2, 3, 4))
    assert len(full) == 3


def test_initial_set_refuses_what_it_cannot_read():
    """A generic ideal has no initial data, and a support bound above the
    rank names both numbers, for initial sets and move closure alike."""
    with pytest.raises(ValueError, match="symmetric, antisymmetric"):
        initial_set(
            EquivariantIdeal.isotypic(VariableSystem("generic", 4), (1,)),
            1, 2)
    i1 = EquivariantIdeal.isotypic(SYM4, (1,))
    with pytest.raises(ValueError, match="support bound 5 > rank 4"):
        initial_set(i1, 2, 5)
    with pytest.raises(ValueError, match="support bound 5 > rank 4"):
        verify_move_closure(i1, 2, 5)
    sandbox = EquivariantIdeal.from_generators(
        VariableSystem("degree_one", 3), [{((0, 1),): 1}])
    with pytest.raises(ValueError, match="support bound 4 > rank 3"):
        initial_set(sandbox, 2, 4)


def initial_set_universe():
    """(ideal, degree bound, support bound): every non-vanishing isotypic
    ideal with |lam| <= 3 at ranks 4-6, the seeded sandbox ideals and a few
    orbit ideals."""
    from tca_lab.acceptance import sandbox_ideals

    for flavor in MATCHING_FLAVORS:
        for rank in (4, 5, 6):
            system = VariableSystem(flavor, rank)
            for lam in partitions_upto(3):
                if not block_vanishes(system, lam):
                    yield EquivariantIdeal.isotypic(system, lam), 3, rank
    for ideal in sandbox_ideals(1729, 6, 2):
        yield ideal, 3, 6
    sym5 = VariableSystem("symmetric", 5)
    anti6 = VariableSystem("antisymmetric", 6)
    for system, terms in (
            (SYM4, [(1, [(1, 1), (2, 2)]), (-1, [(1, 2), (1, 2)])]),
            (sym5, [(1, [(1, 2), (3, 3)])]),
            (sym5, [(2, [(1, 4), (2, 3)]), (1, [(1, 2), (3, 4)])]),
            (anti6, [(1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)])])):
        gen = sym_poly(system, *terms)
        yield EquivariantIdeal.from_generators(system, [gen]), 3, system.rank


def test_initial_set_relabels_the_support_by_support_oracle():
    """One slice per support size, relabelled, gives the same initial set
    as one echelon pass per support."""
    count = 0
    for ideal, degree, bound in initial_set_universe():
        assert initial_set(ideal, degree, bound) == \
            initial_set_by_support(ideal, degree, bound), ideal.label
        count += 1
    assert count == 54


def test_initial_set_eliminates_each_admissible_slice_once(monkeypatch):
    """``initial_set`` adds to a span exactly what ``component_span`` adds
    at the indicator weight of {1..s}, summed over support sizes s: the
    slice is echelonized once, with no second pass over its rows."""
    calls = []
    add = algebra.Span.add
    monkeypatch.setattr(algebra.Span, "add",
                        lambda self, vec: calls.append(1) or add(self, vec))

    def counted(run):
        calls.clear()
        run()
        return len(calls)

    cross = ((1, [(1, 2), (3, 4)]), (-1, [(1, 3), (2, 4)]))
    matrix = [VariableSystem(flavor, 6) for flavor in MATCHING_FLAVORS]
    cases = [(system, sym_poly(system, *cross), 3) for system in matrix]
    cases.append((VariableSystem("degree_one", 5), red(1), 2))
    for system, gen, degree in cases:
        ideal = EquivariantIdeal.from_generators(system, [gen])
        unit, rank = system.unit, system.rank
        slices = sum(
            counted(lambda: ideal.component_span(
                size // unit, indicator_weight(rank, range(1, size + 1))))
            for size in range(unit, unit * degree + 1, unit))
        assert slices > 0
        assert counted(lambda: initial_set(ideal, degree, rank)) == slices


def tableaux(shape):
    """Number of standard Young tableaux of ``shape``, by hook lengths."""
    cols = transpose(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return math.factorial(sum(shape)) // hooks


def closed_form_initial_size(mu, degree_bound, support_bound):
    """The slice of I(mu) on {1..2k} has the dimension of the weight
    (1^2k) in its blocks S_(2 lam) (or their transposes), lam |- k holding
    mu; each 2k-element support carries that many initial matchings."""
    return sum(math.comb(support_bound, 2 * k)
               * sum(tableaux(tuple(2 * x for x in lam))
                     for lam in partitions_of(k) if contains(mu, lam))
               for k in range(1, min(degree_bound, support_bound // 2) + 1))


@pytest.mark.parametrize("flavor", MATCHING_FLAVORS)
def test_initial_set_sizes_follow_the_blocks_of_the_ideal(flavor):
    system = VariableSystem(flavor, 8)
    sizes = []
    for mu in ((), (1,), (2,), (1, 1)):
        size = len(initial_set(EquivariantIdeal.isotypic(system, mu), 4, 8))
        assert size == closed_form_initial_size(mu, 4, 8), mu
        sizes.append(size)
    assert sizes == [763, 763, 441, 636]
    if flavor == "symmetric":
        big = EquivariantIdeal.isotypic(VariableSystem(flavor, 12), (2,))
        assert len(initial_set(big, 4, 12)) == \
            closed_form_initial_size((2,), 4, 12) == 54780


def test_initial_matching_fixtures():
    assert initial_matching({matching([(1, 2)]): Fraction(1)}) == \
        matching([(1, 2)])
    # nested minus crossing: the crossing picture leads
    vec = sym_poly(SYM4, (1, [(1, 4), (2, 3)]), (-1, [(1, 3), (2, 4)]))
    assert initial_matching({matching(m): c for m, c in vec.items()}) == \
        matching([(1, 3), (2, 4)])
    gamma = matching([(1, 4), (2, 5), (3, 6)])
    assert initial_matching({gamma: Fraction(3, 7)}) == gamma
    with pytest.raises(ZeroVectorError):
        initial_matching({})


def test_initial_set_fixtures():
    i1 = EquivariantIdeal.isotypic(SYM4, (1,))
    assert initial_set(i1, 1, 4) == tuple(
        sorted((matching([(i, j)]) for i, j in combinations(range(1, 5), 2)),
               key=lambda g: (g[0][1], g[0][0])))
    orbit = EquivariantIdeal.from_generators(SYM4, [det_corner(SYM4)])
    got = initial_set(orbit, 2, 4)
    assert [fmt_matching(g) for g in got] == ["{(2,4),(1,3)}", "{(3,4),(1,2)}"]
    zero = EquivariantIdeal.from_generators(SYM4, [])
    assert initial_set(zero, 2, 4) == ()


def test_initial_set_is_presentation_independent():
    a = EquivariantIdeal.isotypic(SYM4, (1, 1))
    b = EquivariantIdeal.from_generators(SYM4, [det_corner(SYM4)])
    redundant = rep_closure(SYM4, [det_corner(SYM4)])[:2]
    c = EquivariantIdeal.from_generators(
        SYM4, [det_corner(SYM4)] + [dict(v) for v in redundant])
    sets = {initial_set(i, 3, 4) for i in (a, b, c)}
    assert len(sets) == 1


def test_move_closure_zero_violation_examples():
    i1 = EquivariantIdeal.isotypic(SYM4, (1,))
    res = verify_move_closure(i1, 2, 4)
    assert res.initial_size == 9 and res.violations == []
    orbit = EquivariantIdeal.from_generators(SYM4, [det_corner(SYM4)])
    res = verify_move_closure(orbit, 3, 4)
    assert (res.initial_size, res.moves_checked, res.violations) == (2, 1, [])
    assert res.closed
    zero = EquivariantIdeal.from_generators(SYM4, [])
    assert verify_move_closure(zero, 2, 4).closed


def test_initial_set_is_an_up_set_in_the_small_poset():
    """Reachability-closedness (not just one-step closedness) on a universe
    small enough to enumerate."""
    from tca_lab.matchings import all_matchings

    universe = [matching(())] + all_matchings(1, 4) + all_matchings(2, 4)
    orbit = EquivariantIdeal.from_generators(SYM4, [det_corner(SYM4)])
    inset = set(initial_set(orbit, 2, 4))
    for g in inset:
        for h in universe:
            if leq_full(g, h):
                assert h in inset


def test_equal_initial_sets_come_from_equal_ideals_small():
    """Scan small generated-in-degree-two ideals: whenever truncated initial
    sets agree, the truncated ideals agree (no counterexample candidates)."""
    candidates = {
        "corner-orbit": EquivariantIdeal.from_generators(
            SYM4, [det_corner(SYM4)]),
        "block-(1,1)": EquivariantIdeal.isotypic(SYM4, (1, 1)),
        "block-(2)": EquivariantIdeal.isotypic(SYM4, (2,)),
        "sum": EquivariantIdeal.from_generators(
            SYM4, [det_corner(SYM4), highest_weight_vector(SYM4, (2,))]),
    }
    sets = {name: initial_set(ideal, 2, 4) for name, ideal in candidates.items()}
    surprises = []
    for a, b in combinations(candidates, 2):
        if sets[a] != sets[b]:
            continue
        for d in (1, 2):
            for mono in monomials_of_degree(SYM4, d):
                w = SYM4.weight(mono)
                ra = candidates[a].component_span(d, w).rank
                rb = candidates[b].component_span(d, w).rank
                if ra != rb:
                    surprises.append((a, b, d, w))
    assert surprises == []
    assert sets["corner-orbit"] == sets["block-(1,1)"]
    assert sets["block-(2)"] != sets["block-(1,1)"]


def closure_oracle_cases():
    """(system, lam, hwv, pieces, weights) for every non-vanishing block
    with |lam| <= 3 of four small universes: ``pieces`` maps each weight to
    the block's full closure there, and ``weights`` lists every weight of
    degree |lam|, sorted."""
    for flavor, rank in (("symmetric", 4), ("antisymmetric", 4),
                         ("antisymmetric", 5), ("generic", 3)):
        system = VariableSystem(flavor, rank)
        for lam in partitions_upto(3):
            if not lam or block_vanishes(system, lam):
                continue
            hwv = highest_weight_vector(system, lam)
            pieces = {}
            for vec in rep_closure(system, [hwv]):
                pieces.setdefault(system.weight(next(iter(vec))), []).append(vec)
            weights = sorted({system.weight(m)
                              for m in monomials_of_degree(system, sum(lam))})
            yield system, lam, hwv, pieces, weights


def assert_spans_the_piece(vecs, piece, case):
    got = Span()
    for vec in vecs:
        assert got.add(vec) is not None, case
    assert got.rank == len(piece), case
    assert all(got.contains(vec) for vec in piece), case


def test_lowerings_match_the_closure_oracle():
    """Every weight slice from relabelled dominant slices and simple
    lowerings equals the weight piece of the block's full closure."""
    for system, lam, hwv, pieces, weights in closure_oracle_cases():
        w_high = hw_weight(system, lam)
        cache = {}
        for w in weights:
            assert_spans_the_piece(lowerings_from(system, hwv, w_high, w, cache),
                                   pieces.get(w, []), (system, lam, w))


def test_isotypic_store_serves_every_slice_in_either_order():
    """An isotypic ideal keeps dominant and relabelled slices in one dict;
    read through ``gen_weight_slice`` in ascending weight order on one
    ideal and descending on a fresh one, every slice of the generating
    degree spans the weight piece of the block's closure."""
    for system, lam, _, pieces, weights in closure_oracle_cases():
        for order in (weights, weights[::-1]):
            ideal = EquivariantIdeal.isotypic(system, lam)
            assert ideal.gen_degrees() == [sum(lam)]
            for w in order:
                assert_spans_the_piece(ideal.gen_weight_slice(sum(lam), w),
                                       pieces.get(w, []), (system, lam, w))
            assert ideal.gen_weight_slice(sum(lam) + 1, weights[0]) == []


def test_a_vanishing_block_is_the_empty_store(monkeypatch):
    def no_closure(system, gens):
        raise AssertionError("rep_closure called for a vanishing block")

    monkeypatch.setattr(algebra, "rep_closure", no_closure)
    system = VariableSystem("symmetric", 2)
    ideal = EquivariantIdeal.isotypic(system, (1, 1, 1))
    assert ideal.gen_degrees() == []
    for d in range(4):
        for w in {system.weight(m) for m in monomials_of_degree(system, d)}:
            assert ideal.component_span(d, w).rank == 0


def test_antisymmetric_initial_sets():
    anti = VariableSystem("antisymmetric", 4)
    ideal = EquivariantIdeal.isotypic(anti, (1,))
    inset = initial_set(ideal, 2, 4)
    assert matching([(1, 2)]) in inset
    assert verify_move_closure(ideal, 2, 4).closed


# ---------------------------------------------------------------------------
# Degree-one sandbox.


D1 = VariableSystem("degree_one", 6)


def red(i):
    return {((0, i),): Fraction(1)}


def blue(i):
    return {((1, i),): Fraction(1)}


def test_sandbox_first_orbit():
    orbit = EquivariantIdeal.from_generators(D1, [red(1)])
    inset = initial_set(orbit, 2, 6)
    assert len(inset) == 51
    assert all(any(c == "R" for _, c in s) for s in inset)
    singles = [s for s in inset if len(s) == 1]
    assert [dict(s) for s in singles] == [{i: "R"} for i in range(1, 7)]
    assert verify_move_closure(orbit, 2, 6).closed


def test_sandbox_mixed_generator_pivots_blue():
    gen = dict(red(1))
    poly_add(gen, blue(1))
    ideal = EquivariantIdeal.from_generators(D1, [gen])
    inset = initial_set(ideal, 1, 6)
    assert [fmt_colored(s) for s in inset] == [
        "{1B}", "{2B}", "{3B}", "{4B}", "{5B}", "{6B}"]
    assert verify_move_closure(ideal, 2, 6).closed


def fmt_colored(s):
    from tca_lab.matchings import fmt_colored_set
    return fmt_colored_set(s)


def test_sandbox_zero_ideal():
    zero = EquivariantIdeal.from_generators(D1, [])
    assert initial_set(zero, 2, 6) == ()
    assert verify_move_closure(zero, 2, 6).closed


def test_sandbox_random_suite_is_closed():
    from tca_lab.acceptance import sandbox_ideals

    for ideal in sandbox_ideals(31337, 6, 2):
        res = verify_move_closure(ideal, 2, 6)
        assert res.closed, ideal.label

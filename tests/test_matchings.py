"""Matchings, rewriting moves, and the two reachability orders.

The exhaustive sections build an independent transitive-closure oracle
over the full universe of matchings with at most 3 edges on labels 1..8
(659 elements) and check the decision procedures against it on every
ordered pair.  A plain breadth-first search over the moves is the second
oracle, for random pairs on more labels.
"""

import random
from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from tca_lab.errors import IndexTooSmallError, SearchBudgetExceededError
from tca_lab.matchings import (
    Move,
    all_colored_sets,
    all_matchings,
    antichain_search,
    apply_move,
    colored_key,
    colored_set,
    degree_one_leq,
    degree_one_moves,
    edge_key,
    family_rotation_chain,
    fmt_colored_set,
    fmt_matching,
    fmt_move,
    gamma_family,
    label_sum,
    leq_full,
    leq_type1,
    matching,
    matching_key,
    max_antichain,
    max_matching,
    max_vertex,
    replay,
    type1_moves,
    type2_moves,
    vertices,
)

NESTED = matching([(1, 4), (2, 3)])
CROSSING = matching([(1, 3), (2, 4)])
ALIGNED = matching([(1, 2), (3, 4)])


def fmt_all(pairs):
    return sorted(fmt_matching(img) for _, img in pairs)


def test_matching_canonicalization():
    assert matching([(4, 1), (2, 3)]) == ((2, 3), (1, 4))
    assert matching(()) == ()
    with pytest.raises(ValueError):
        matching([(2, 2)])
    with pytest.raises(ValueError):
        matching([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        matching([(0, 1)])


def test_edge_order():
    assert edge_key((1, 2)) <= edge_key((1, 3))
    assert edge_key((1, 3)) <= edge_key((2, 3))
    assert not edge_key((2, 3)) <= edge_key((1, 3))
    assert edge_key((2, 3)) <= edge_key((1, 4))


def test_total_order_fixtures():
    # fewer edges first
    assert matching_key(matching([(1, 2)])) <= matching_key(ALIGNED)
    assert matching_key(matching([(1, 2)])) <= matching_key(matching([(1, 3)]))
    # on four labels the pictures sort nested, crossing, aligned
    assert matching_key(NESTED) <= matching_key(CROSSING)
    assert not matching_key(CROSSING) <= matching_key(NESTED)
    assert matching_key(CROSSING) <= matching_key(ALIGNED)
    assert not matching_key(ALIGNED) <= matching_key(CROSSING)
    assert matching_key(NESTED) <= matching_key(NESTED)


def test_fmt_matching_prints_largest_edge_first():
    assert fmt_matching(NESTED) == "{(1,4),(2,3)}"
    assert fmt_matching(CROSSING) == "{(2,4),(1,3)}"
    assert fmt_matching(()) == "{}"


def test_growth_moves_fixtures():
    assert [(m.kind, img) for m, img in type1_moves((), 2)] == [
        ("add_edge", ((1, 2),))]
    assert [(fmt_move(m), fmt_matching(img))
            for m, img in type1_moves(matching([(1, 2)]), 3)] == [
        ("shift_endpoint (1,2)->(1,3)", "{(1,3)}")]
    # one edge (1,4) with room up to 6: six fresh edges and two shifts
    got = fmt_all(type1_moves(matching([(1, 4)]), 6))
    assert got == sorted([
        "{(1,4),(2,3)}", "{(2,5),(1,4)}", "{(2,6),(1,4)}", "{(3,5),(1,4)}",
        "{(3,6),(1,4)}", "{(5,6),(1,4)}", "{(1,5)}", "{(2,4)}"])


def test_swap_moves_pictures():
    assert [(fmt_move(m), fmt_matching(img)) for m, img in type2_moves(NESTED)] \
        == [("swap_nested (2,3),(1,4)->(1,3),(2,4)", "{(2,4),(1,3)}")]
    assert [(fmt_move(m), fmt_matching(img)) for m, img in type2_moves(CROSSING)] \
        == [("swap_crossing (1,3),(2,4)->(1,2),(3,4)", "{(3,4),(1,2)}")]
    assert type2_moves(matching([(1, 2)])) == []
    assert type2_moves(ALIGNED) == []


def test_swap_gap_condition_blocks():
    """A label strictly inside the nesting whose partner sits low enough
    forbids the swap."""
    g = matching([(2, 3), (1, 6), (4, 5)])
    got = [fmt_move(m) for m, _ in type2_moves(g)]
    # (4,5) inside (1,6) cannot swap: 2 sits in the gap with partner 3 <= 5
    assert got == ["swap_nested (2,3),(1,6)->(1,3),(2,6)"]


def test_every_move_raises_the_total_order():
    rng = random.Random(11)
    pool = all_matchings(2, 6) + all_matchings(3, 7)
    for g in rng.sample(pool, 60):
        for mv, img in type1_moves(g, 8) + type2_moves(g):
            assert matching_key(img) > matching_key(g), (g, mv)


def test_apply_move_and_replay():
    ok, wit = leq_full(matching([(1, 2)]), matching([(2, 3)]), witness=True)
    assert ok
    assert [fmt_move(m) for m in wit] == [
        "shift_endpoint (1,2)->(1,3)", "shift_endpoint (1,3)->(2,3)"]
    assert replay(matching([(1, 2)]), wit) == matching([(2, 3)])
    with pytest.raises(ValueError):
        apply_move(ALIGNED, Move("swap_crossing",
                                 ((1, 3), (2, 4), (1, 2), (3, 4))))


def test_reachability_fixtures():
    assert leq_type1(matching([(1, 2)]), matching([(1, 2)]))
    assert leq_type1(matching([(1, 2)]), matching([(2, 3)]))
    assert leq_type1((), matching([(5, 9)]))
    assert not leq_type1(matching([(2, 3)]), matching([(1, 2)]))
    # the swap-only direction: aligned is above crossing, never below
    assert leq_full(CROSSING, ALIGNED)
    assert not leq_full(ALIGNED, NESTED)
    assert not leq_full(ALIGNED, CROSSING)


def test_budget_raises_rather_than_answering():
    with pytest.raises(SearchBudgetExceededError):
        leq_type1(matching([(1, 2)]), matching([(2, 3)]), budget=0)
    with pytest.raises(SearchBudgetExceededError):
        leq_full(gamma_family(3), gamma_family(4), budget=2)


def test_gamma_family_fixtures():
    assert gamma_family(3) == matching([(1, 4), (3, 6), (2, 5)])
    assert gamma_family(4) == matching([(1, 4), (3, 6), (5, 8), (2, 7)])
    for n in range(3, 8):
        g = gamma_family(n)
        assert len(g) == n
        assert vertices(g) == frozenset(range(1, 2 * n + 1))
    with pytest.raises(IndexTooSmallError):
        gamma_family(2)


def test_gamma_family_incomparable_then_comparable():
    gammas = {n: gamma_family(n) for n in (3, 4, 5)}
    for a in gammas:
        for b in gammas:
            if a != b:
                assert not leq_type1(gammas[a], gammas[b])
    for a, b in combinations(sorted(gammas), 2):
        ok, wit = leq_full(gammas[a], gammas[b], witness=True)
        assert ok
        assert replay(gammas[a], wit) == gammas[b]


def test_rotation_chain_reports_honestly():
    """Stepwise rotation between consecutive relabelings: most steps are
    single swaps, some are not, and the report says which."""
    expected = {
        3: ([(2, True)], True),
        4: ([(2, True), (3, False), (4, True)], True),
        5: ([(2, True), (3, True), (4, True), (5, False), (6, True)], True),
    }
    for n, (steps, grows) in expected.items():
        chain = family_rotation_chain(n)
        got = [(i, mv is not None) for i, _, _, mv in chain["steps"]]
        assert got == steps
        # the closing transposition of the top two labels is never one swap
        assert chain["final_step"][2] is None
        assert chain["grows_into_next"] is grows
        for _, src, tgt, mv in chain["steps"]:
            if mv is not None:
                assert apply_move(src, mv) == tgt


def test_all_matchings_enumeration():
    assert all_matchings(1, 4) == [
        matching([(1, 2)]), matching([(1, 3)]), matching([(2, 3)]),
        matching([(1, 4)]), matching([(2, 4)]), matching([(3, 4)])]
    assert len(all_matchings(2, 6)) == 45
    assert len(all_matchings(3, 8)) == 420
    assert all_matchings(2, 3) == []


def test_antichain_search():
    assert antichain_search(1, 4, order="type1") == [matching([(1, 2)])]
    found = antichain_search(2, 6, order="full")
    for a, b in combinations(found, 2):
        assert not leq_full(a, b) and not leq_full(b, a)
    assert found == antichain_search(2, 6, order="full")  # deterministic
    with pytest.raises(ValueError):
        antichain_search(1, 4, order="colex")


# ---------------------------------------------------------------------------
# Exhaustive closure oracle: <= 3 edges, labels <= 8.


def build_closures():
    universe = [matching(())]
    for k in (1, 2, 3):
        universe += all_matchings(k, 8)
    universe = sorted(set(universe), key=matching_key)
    index = {g: i for i, g in enumerate(universe)}
    adj1, adj2 = [], []
    for g in universe:
        adj1.append([index[img] for _, img in type1_moves(g, 8)
                     if len(img) <= 3])
        adj2.append([index[img] for _, img in type2_moves(g)])
    # moves strictly raise matching_key and the universe is sorted by it,
    # so descending index order is topological
    def closure(adjs):
        reach = [0] * len(universe)
        for u in range(len(universe) - 1, -1, -1):
            r = 1 << u
            for adj in adjs:
                for v in adj[u]:
                    r |= reach[v]
            reach[u] = r
        return reach

    return universe, closure([adj1]), closure([adj1, adj2])


UNIVERSE, REACH_GROWTH, REACH_FULL = build_closures()


def test_universe_size_and_pair_counts():
    assert len(UNIVERSE) == 659
    strict1 = sum(bin(r).count("1") for r in REACH_GROWTH) - len(UNIVERSE)
    strict2 = sum(bin(r).count("1") for r in REACH_FULL) - len(UNIVERSE)
    assert strict1 == 47731
    assert strict2 == 96123


def test_growth_reachable_implies_full_reachable():
    for u in range(len(UNIVERSE)):
        assert REACH_GROWTH[u] & ~REACH_FULL[u] == 0


def test_full_order_is_reflexive_transitive_antisymmetric():
    n = len(UNIVERSE)
    for u in range(n):
        assert REACH_FULL[u] >> u & 1
        acc, r = 0, REACH_FULL[u]
        while r:
            v = (r & -r).bit_length() - 1
            acc |= REACH_FULL[v]
            r &= r - 1
        assert acc == REACH_FULL[u]
    for u in range(n):
        for v in range(u + 1, n):
            assert not (REACH_FULL[u] >> v & 1 and REACH_FULL[v] >> u & 1)


def test_bfs_decisions_agree_with_closure():
    """Sampled cross-validation of the pruned BFS against the closure DP,
    biased toward comparable pairs (they are the rare ones)."""
    rng = random.Random(99)
    n = len(UNIVERSE)
    positives = [(u, v) for u in rng.sample(range(n), 40)
                 for v in range(n) if REACH_FULL[u] >> v & 1]
    sample = rng.sample(positives, 150)
    sample += [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
    for u, v in sample:
        a, b = UNIVERSE[u], UNIVERSE[v]
        assert leq_type1(a, b) == bool(REACH_GROWTH[u] >> v & 1)
        assert leq_full(a, b) == bool(REACH_FULL[u] >> v & 1)


def test_leq_type1_agrees_with_closure_on_every_pair():
    for u, a in enumerate(UNIVERSE):
        reach = REACH_GROWTH[u]
        for v, b in enumerate(UNIVERSE):
            assert leq_type1(a, b) == bool(reach >> v & 1), (a, b)


def test_growth_witnesses_replay_on_every_comparable_pair():
    """Every growth-comparable pair is decided by the injection, whose
    witness must replay exactly onto the target."""
    for u, a in enumerate(UNIVERSE):
        reach = REACH_GROWTH[u]
        for v, b in enumerate(UNIVERSE):
            if reach >> v & 1:
                ok, wit = leq_full(a, b, witness=True)
                assert ok and replay(a, wit) == b, (a, b)


def oracle_apply_move(g, move):
    """The candidate search: generate every move of the kind and look the
    given one up."""
    if move.kind in ("add_edge", "shift_endpoint"):
        bound = max((v for e in move.data for v in e), default=0)
        candidates = type1_moves(g, max(max_vertex(g) + 2, bound))
    else:
        candidates = type2_moves(g)
    for m, result in candidates:
        if m == move:
            return result
    raise ValueError(f"move {move} does not apply to {fmt_matching(g)}")


def _outcome(apply, g, move):
    try:
        return "value", apply(g, move)
    except ValueError as exc:
        return "error", str(exc)


def test_direct_move_check_agrees_with_the_candidate_search():
    """Every legal type-1 and type-2 move over the universe, plus illegal
    ones: a used label (added or shifted onto), a non-unit shift, an edge
    not in g, a label 0, the wrong number of edges, a swap taken from
    another matching."""
    checked = illegal = 0
    for u, g in enumerate(UNIVERSE):
        used = sorted(vertices(g))
        free = [v for v in range(1, 10) if v not in used]
        moves = [mv for mv, _ in type1_moves(g, 9) + type2_moves(g)]
        moves += [Move("add_edge", ((0, free[0]),)),
                  Move("add_edge", ((free[1], free[0]),)),
                  Move("add_edge", ((free[0], free[0]),))]
        moves += [Move("add_edge", (tuple(sorted((x, free[0]))),)) for x in used]
        moves += [Move("shift_endpoint", ((free[0], free[1]), (free[0], free[2]))),
                  Move("add_edge", ((free[0], free[1]), (free[2], 10))),
                  Move("add_edge", ())]
        for i, j in g:
            moves += [Move("shift_endpoint", ((i, j), new)) for new in
                      ((i + 1, j), (i, j + 1), (i, j + 2), (i + 2, j), (i - 1, j),
                       (i, j - 1), (i, j), (i + 1, j + 1), (0, j))]
            moves += [Move("shift_endpoint", ((i, j),)),
                      Move("shift_endpoint", ((i, j), (i, j + 1), (i + 1, j)))]
        moves += [mv for mv, _ in type2_moves(UNIVERSE[(u * 7 + 3) % len(UNIVERSE)])]
        for mv in moves:
            want = _outcome(oracle_apply_move, g, mv)
            assert _outcome(apply_move, g, mv) == want, (g, mv)
            checked += 1
            illegal += want[0] == "error"
    assert checked > 20000 and illegal > 5000, (checked, illegal)


def test_move_images_are_canonical_matchings():
    for g in UNIVERSE:
        for mv, img in type1_moves(g, 9) + type2_moves(g):
            assert img == matching(img), (g, mv)


def _oracle_reach(a, b, swaps):
    """Plain breadth-first search over the moves.  Labels above max(b) never
    come back down and no move lowers the edge count or the label sum, so
    those three bound the search."""
    bound, size, total = max_vertex(b), len(b), label_sum(b)
    seen = {a}
    queue = deque([a])
    while queue:
        g = queue.popleft()
        if g == b:
            return True
        moves = type1_moves(g, bound) + (type2_moves(g) if swaps else [])
        for _, img in moves:
            if img not in seen and len(img) <= size and label_sum(img) <= total:
                seen.add(img)
                queue.append(img)
    return False


def oracle_growth_reach(a, b):
    return _oracle_reach(a, b, swaps=False)


def oracle_full_reach(a, b):
    return _oracle_reach(a, b, swaps=True)


def test_bfs_oracles_agree_with_closure():
    rng = random.Random(5)
    n = len(UNIVERSE)
    for _ in range(200):
        u, v = rng.randrange(n), rng.randrange(n)
        a, b = UNIVERSE[u], UNIVERSE[v]
        assert oracle_growth_reach(a, b) == bool(REACH_GROWTH[u] >> v & 1)
        assert oracle_full_reach(a, b) == bool(REACH_FULL[u] >> v & 1)


# Matchings with at most 4 edges on labels 1..10.
SMALL_MATCHINGS = st.lists(st.integers(1, 10), unique=True, max_size=8).map(
    lambda labels: matching(zip(labels[::2], labels[1::2])))


@st.composite
def walks(draw):
    """A matching and the end of a short random walk of moves from it, so
    that comparable pairs are common."""
    a = g = draw(SMALL_MATCHINGS)
    for _ in range(draw(st.integers(0, 6))):
        options = [img for _, img in type1_moves(g, 10) + type2_moves(g)
                   if len(img) <= 4]
        if not options:
            break
        g = options[draw(st.integers(0, len(options) - 1))]
    return a, g


def check_against_oracles(a, b):
    assert leq_type1(a, b) == oracle_growth_reach(a, b)
    ok, wit = leq_full(a, b, witness=True)
    assert ok == oracle_full_reach(a, b)
    if ok:
        assert replay(a, wit) == b


@settings(max_examples=60, deadline=None)
@given(SMALL_MATCHINGS, SMALL_MATCHINGS)
def test_orders_agree_with_bfs_oracles_on_random_pairs(a, b):
    check_against_oracles(a, b)


@settings(max_examples=60, deadline=None)
@given(walks())
def test_orders_agree_with_bfs_oracles_on_random_walks(pair):
    check_against_oracles(*pair)


def test_growth_order_far_apart():
    """A growth-comparable pair whose breadth-first search is expensive: the
    injection decides it and its witness replays."""
    a = matching([(1, 2), (3, 4), (5, 6)])
    b = matching([(7, 9), (10, 12), (11, 14), (13, 15)])
    assert leq_type1(a, b)
    ok, wit = leq_full(a, b, witness=True)
    assert ok and replay(a, wit) == b
    assert [fmt_move(m) for m in wit if m.kind == "add_edge"] == [
        "add_edge (11,14)"]
    assert not leq_type1(b, a) and not leq_full(b, a)


def test_fuzz_moves_preserve_matching_shape():
    """Ten thousand random move applications: results stay valid matchings
    and each move kind changes exactly what it should."""
    rng = random.Random(1234)
    starts = all_matchings(1, 5) + all_matchings(2, 6)
    g = rng.choice(starts)
    for step in range(10_000):
        options = type1_moves(g, 9) + type2_moves(g)
        if len(g) >= 4 or not options:
            g = rng.choice(starts)
            continue
        mv, img = rng.choice(options)
        assert img == matching(img)  # canonical, valence one, no loops
        if mv.kind == "add_edge":
            assert len(img) == len(g) + 1
        elif mv.kind == "shift_endpoint":
            assert len(img) == len(g)
            assert label_sum(img) == label_sum(g) + 1
        else:
            assert mv.kind in ("swap_nested", "swap_crossing")
            assert len(img) == len(g)
            assert vertices(img) == vertices(g)
            assert label_sum(img) == label_sum(g)
        assert matching_key(img) > matching_key(g)
        assert max_vertex(img) <= 9
        g = img


# ---------------------------------------------------------------------------
# Colored one-element-per-slot sandbox.


def test_colored_set_basics():
    assert colored_set([(2, "B"), (1, "R")]) == ((1, "R"), (2, "B"))
    assert fmt_colored_set(colored_set([(1, "R"), (6, "B")])) == "{1R,6B}"
    with pytest.raises(ValueError):
        colored_set([(1, "R"), (1, "B")])
    with pytest.raises(ValueError):
        colored_set([(1, "G")])


def test_degree_one_moves_and_order():
    s = colored_set([(1, "R")])
    got = {(m.kind, fmt_colored_set(img)) for m, img in degree_one_moves(s, 3)}
    assert got == {("add_element", "{1R,2R}"), ("add_element", "{1R,2B}"),
                   ("add_element", "{1R,3R}"), ("add_element", "{1R,3B}"),
                   ("shift_element", "{2R}")}
    assert degree_one_leq([(1, "R")], [(2, "R")])
    assert not degree_one_leq([(1, "R")], [(1, "B")])
    assert not degree_one_leq([(1, "B")], [(1, "R")])
    assert degree_one_leq([(1, "R")], [(1, "R"), (2, "B")])


def test_colored_universe_size():
    assert len(all_colored_sets(2, 6)) == 73


def oracle_colored_reach(bound=6, max_size=2):
    """Independent closure: own move generator, own BFS."""
    def moves(s):
        used = {e for e, _ in s}
        out = []
        for v in range(1, bound + 1):
            if v not in used:
                for c in "RB":
                    out.append(tuple(sorted(s + ((v, c),))))
        for e, c in s:
            if e + 1 <= bound and e + 1 not in used:
                out.append(tuple(sorted([p for p in s if p != (e, c)]
                                        + [(e + 1, c)])))
        return out

    univ = [()]
    for size in range(1, max_size + 1):
        for sup in combinations(range(1, bound + 1), size):
            for cols in product("RB", repeat=size):
                univ.append(tuple(sorted(zip(sup, cols))))
    univ = sorted(set(univ))
    reach = {}
    for s in univ:
        seen = {s}
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for nxt in moves(cur):
                if len(nxt) <= max_size and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        reach[s] = seen
    return univ, reach


def test_degree_one_leq_matches_independent_oracle():
    univ, reach = oracle_colored_reach()
    for s in univ:
        for t in univ:
            assert degree_one_leq(s, t) == (t in reach[s]), (s, t)


def test_width_of_the_colored_poset():
    """Width 12 two ways: the package's chain-cover certificate and an
    oracle matching built on the independent closure above."""
    univ, reach = oracle_colored_reach()
    succ = {s: [t for t in reach[s] if t != s] for s in univ}
    match_r = {}

    def augment(u, seen):
        for v in succ[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    matched = sum(augment(u, set()) for u in univ)
    assert len(univ) - matched == 12

    antichain, width = max_antichain(all_colored_sets(2, 6), degree_one_leq)
    assert width == 12
    assert len(antichain) == 12
    for a, b in combinations(antichain, 2):
        assert not degree_one_leq(a, b) and not degree_one_leq(b, a)
    assert sorted(fmt_colored_set(s) for s in antichain) == sorted([
        "{3R,4R}", "{3R,4B}", "{3B,4R}", "{3B,4B}",
        "{2R,5R}", "{2R,5B}", "{2B,5R}", "{2B,5B}",
        "{1R,6R}", "{1R,6B}", "{1B,6R}", "{1B,6B}"])


def test_max_antichain_on_a_chain_and_an_antichain():
    chain = [1, 2, 3, 4]
    got, width = max_antichain(chain, lambda a, b: a <= b)
    assert width == 1 and len(got) == 1
    flat, width = max_antichain(chain, lambda a, b: a == b)
    assert width == 4 and sorted(flat) == chain


# -- the explicit-stack matching against the recursive search it replaced --


def oracle_max_matching(succ):
    """The recursive augmenting-path search, kept as the reference."""
    n = len(succ)
    match_l = [-1] * n
    match_r = [-1] * n

    def augment(u, seen):
        for v in succ[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_r[v] == -1 or augment(match_r[v], seen):
                match_l[u] = v
                match_r[v] = u
                return True
        return False

    for u in range(n):
        augment(u, set())
    return match_l, match_r


def chain_cover(succ):
    """The chains the matching links up, after checking it against the
    oracle; every chain is a chain of the poset and they partition it."""
    match_l, match_r = max_matching(succ)
    assert (match_l, match_r) == oracle_max_matching(succ)
    chains = []
    for start in range(len(succ)):
        if match_r[start] == -1:
            chain = [start]
            while match_l[chain[-1]] != -1:
                chain.append(match_l[chain[-1]])
            chains.append(chain)
    assert sorted(x for chain in chains for x in chain) == list(range(len(succ)))
    for chain in chains:
        assert all(b in succ[a] for a, b in zip(chain, chain[1:]))
    return chains


def check_width(elems, leq):
    succ = [[v for v in range(len(elems))
             if v != u and leq(elems[u], elems[v])] for u in range(len(elems))]
    chains = chain_cover(succ)
    antichain, width = max_antichain(elems, leq)
    assert width == len(chains) == len(antichain)
    for a, b in combinations(antichain, 2):
        assert not leq(a, b) and not leq(b, a)
    return width


def test_max_matching_agrees_with_the_recursive_oracle_on_random_posets():
    rng = random.Random(2015)
    for _ in range(150):
        n = rng.randint(0, 40)
        density = rng.choice((0.05, 0.15, 0.4))
        above = [set() for _ in range(n)]
        for u in range(n - 1, -1, -1):      # transitive closure, top down
            for v in range(u + 1, n):
                if v not in above[u] and rng.random() < density:
                    above[u] |= {v} | above[v]
        check_width(list(range(n)), lambda a, b: a == b or b in above[a])


def test_max_matching_agrees_with_the_recursive_oracle_on_the_universes():
    assert check_width(all_colored_sets(2, 6), degree_one_leq) == 12
    index = {g: u for u, g in enumerate(UNIVERSE)}
    for reach in (REACH_GROWTH, REACH_FULL):
        check_width(UNIVERSE, lambda a, b: reach[index[a]] >> index[b] & 1)


def test_max_matching_follows_alternating_paths_thousands_deep():
    """Greedy first choices leave one augmenting path through every vertex;
    the recursive search would overflow the interpreter's stack here."""
    n = 5000
    succ = [[u + 1, u] for u in range(n - 1)] + [[n - 1]]
    match_l, match_r = max_matching(succ)
    assert match_l == list(range(n)) and match_r == list(range(n))


def test_colored_key_orders_r_before_b():
    assert colored_key(colored_set([(1, "R")])) < colored_key(
        colored_set([(1, "B")]))
    assert colored_key(colored_set([(2, "B")])) < colored_key(
        colored_set([(1, "R"), (2, "R")]))

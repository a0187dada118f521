"""Finite matchings on the positive integers, rewriting moves, and orders.

A matching is a finite set of disjoint edges (i, j) with 0 < i < j; it is
stored canonically as a tuple of (min, max) pairs sorted by the edge
comparison key (larger endpoint first, then smaller endpoint).

Two families of rewriting moves act on matchings:

* growth moves ("type 1"): add a fresh edge on two unused labels, or shift
  one endpoint of an edge up by one onto an unused label;
* swap moves ("type 2"): given two edges that are nested (k < i < j < l) or
  crossing (i < k < j < l), exchange endpoints to form (k,j),(i,l) resp.
  (i,k),(j,l), allowed only when every label strictly inside the left gap
  is matched to something beyond j.

``leq_type1`` asks whether a matching can be rewritten into another using
growth moves only; ``leq_full`` allows both families.

The growth order has a closed form.  A shift moves one endpoint up by one
onto a free label, so no label ever passes another, and an added edge only
brings new labels in.  Hence ``a <= b`` under growth moves exactly when
some ``|a|``-subset S of b's edges admits the order-preserving bijection
``f`` from a's sorted labels onto S's sorted labels with ``f(x) >= x`` that
maps every edge of ``a`` onto an edge of S.  Conversely such an ``f`` is a
witness: shift the labels of ``a`` up to their images from the largest
down (the labels above are already in place, so each path is free), then
add the edges of ``b`` outside S.  ``leq_type1`` scans these subsets in a
fixed order.  ``leq_full`` runs a breadth-first search with both families
that tests the same injection on ``a`` and on every state it discovers,
and stops at the first state S that passes: ``a <= S`` by the path found
and ``S <= b`` by growth moves.  ``b`` itself passes, so the search is
complete.  Every move raises ``matching_key`` and none lowers the label
sum, so states above ``b`` in either are dropped and the search space is
finite.

Between k-edge matchings on 1..n, ``universe_order`` reads either order
off the moves in one scan, and ``max_antichain`` its width with a chain
cover as the certificate.

A ``budget`` caps the search work examined by one decision: each candidate
subset, on any state, and each expanded breadth-first state spends one
unit, and running out raises :class:`SearchBudgetExceededError` rather
than answering.

The total comparison ``matching_key`` orders matchings by edge count first
(more edges = larger), then by comparing the sorted edge sequences from the
largest edge downward.  Comparing from the largest edge (colex) rather than
the smallest is deliberate.  Reading from the smallest edge would rank the
nested pair {(1,4),(2,3)} above the crossing pair {(1,3),(2,4)}, and then
no leading-term set of a nonzero equivariant ideal could be closed under
the swap moves: the one-dimensional slice spanned by the sum of the three
two-edge matchings on {1,2,3,4} would have the nested pair as its only
leading term, yet the nested pair still has swap moves available.  Colex
ranks the move-free aligned pair on top instead, which is the only
orientation compatible with closure on small supports.  (On eight-point
supports closure provably fails for every total order; the equivariant
algebra module documents the lone violating slice.)
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from typing import NamedTuple

from .errors import IndexTooSmallError, SearchBudgetExceededError

DEFAULT_BUDGET = 10**6


class Move(NamedTuple):
    """A single rewriting step; ``data`` holds (old edges..., new edges...)."""

    kind: str
    data: tuple


def edge_key(e):
    return (e[1], e[0])


def matching(edges):
    """Canonicalize an iterable of edges; reject loops and repeated labels."""
    seen = set()
    out = []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise ValueError(f"loop edge ({i},{j})")
        if i > j:
            i, j = j, i
        if i < 1:
            raise ValueError(f"labels must be positive, got ({i},{j})")
        for v in (i, j):
            if v in seen:
                raise ValueError(f"label {v} used twice")
            seen.add(v)
        out.append((i, j))
    return tuple(sorted(out, key=edge_key))


def _canon(edges):
    """Canonical order for edges already known to form a matching."""
    return tuple(sorted(edges, key=edge_key))


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def vertices(g):
    return frozenset(v for e in g for v in e)


def max_vertex(g) -> int:
    return max((e[1] for e in g), default=0)


def label_sum(g) -> int:
    return sum(i + j for i, j in g)


def matching_key(g):
    """Sort key realizing the total order on matchings."""
    return (len(g), tuple(sorted((edge_key(e) for e in g), reverse=True)))


def fmt_matching(g) -> str:
    """Render with the greatest edge first, e.g. ``{(1,4),(2,3)}``."""
    return ("{" + ",".join(f"({i},{j})"
                           for i, j in sorted(g, key=edge_key, reverse=True)) + "}")


# ---------------------------------------------------------------------------
# Moves.


def type1_moves(g, vertex_bound):
    """All growth moves from ``g`` staying within labels <= vertex_bound."""
    used = vertices(g)
    free = [v for v in range(1, vertex_bound + 1) if v not in used]
    out = []
    for ai in range(len(free)):
        for bi in range(ai + 1, len(free)):
            e = (free[ai], free[bi])
            out.append((Move("add_edge", (e,)), _canon(g + (e,))))
    for e in g:
        i, j = e
        rest = tuple(f for f in g if f != e)
        for moved, other in ((i, j), (j, i)):
            up = moved + 1
            if up <= vertex_bound and up not in used:
                ne = _edge(other, up)
                out.append((Move("shift_endpoint", (e, ne)), _canon(rest + (ne,))))
    return out


def type2_moves(g):
    """All swap moves from ``g`` (no new labels, so no bound is needed)."""
    partner = {}
    for i, j in g:
        partner[i] = j
        partner[j] = i
    out = []
    for e in g:
        for f in g:
            if e == f:
                continue
            i, j = e
            k, l = f
            if not j < l:
                continue
            rest = tuple(x for x in g if x != e and x != f)
            if k < i:  # nested: k < i < j < l
                gap = range(k + 1, i)
                kind = "swap_nested"
                new = ((k, j), (i, l))
            elif i < k < j:  # crossing: i < k < j < l
                gap = range(k + 1, j)
                kind = "swap_crossing"
                new = ((i, k), (j, l))
            else:
                continue
            if all(partner.get(v, l + j) > j for v in gap if v in partner):
                out.append((Move(kind, (e, f) + new), _canon(rest + new)))
    return out


def apply_move(g, move):
    """Replay one move against ``g``; raises ValueError if it does not apply.

    Growth moves are checked directly, in O(|g|): an added edge (a, b)
    needs 1 <= a < b with both labels free; a shift needs its edge in ``g``
    and one endpoint moved up by one onto a free label.  Swap moves are
    looked up among :func:`type2_moves`.
    """
    used = vertices(g)
    if move.kind == "add_edge":
        if len(move.data) == 1:
            a, b = move.data[0]
            if 1 <= a < b and a not in used and b not in used:
                return _canon(g + ((a, b),))
    elif move.kind == "shift_endpoint":
        if len(move.data) == 2 and move.data[0] in g:
            (i, j), new = move.data
            for up, shifted in ((i + 1, (i + 1, j)), (j + 1, (i, j + 1))):
                if new == shifted and up not in used:
                    return _canon(tuple(e for e in g if e != (i, j)) + (shifted,))
    else:
        for m, result in type2_moves(g):
            if m == move:
                return result
    raise ValueError(f"move {move} does not apply to {fmt_matching(g)}")


def replay(g, moves):
    """Apply a witness sequence of moves, returning the final matching."""
    for m in moves:
        g = apply_move(g, m)
    return g


def fmt_move(mv) -> str:
    """One-line rendering of a move for reports and witnesses."""
    def pair(e):
        return f"({e[0]},{e[1]})"

    if mv.kind == "add_edge":
        return f"add_edge {pair(mv.data[0])}"
    if mv.kind == "shift_endpoint":
        old, new = mv.data
        return f"shift_endpoint {pair(old)}->{pair(new)}"
    if mv.kind in ("swap_nested", "swap_crossing"):
        e, f, p, q = mv.data
        return f"{mv.kind} {pair(e)},{pair(f)}->{pair(p)},{pair(q)}"
    if mv.kind == "add_element":
        (v, c), = mv.data
        return f"add_element {v}{c}"
    if mv.kind == "shift_element":
        (v, c), (u, _) = mv.data
        return f"shift_element {v}{c}->{u}{c}"
    return f"{mv.kind} {mv.data}"


# ---------------------------------------------------------------------------
# Order decision procedures.


def _ruled_out(a, b):
    """Moves never decrease the edge count, largest label or label sum."""
    return (len(a) > len(b) or max_vertex(a) > max_vertex(b)
            or label_sum(a) > label_sum(b))


def _spend(spent, budget):
    spent += 1
    if spent > budget:
        raise SearchBudgetExceededError(budget)
    return spent


def _growth_injection(a, b, budget, spent=0):
    """The injection ``f`` of a's labels into b's deciding ``a <= b`` under
    growth moves (None if there is none), and the budget spent so far."""
    labels = sorted(vertices(a))
    for sub in combinations(b, len(a)):
        spent = _spend(spent, budget)
        images = sorted(v for e in sub for v in e)
        if all(y >= x for x, y in zip(labels, images)):
            f = dict(zip(labels, images))
            if all((f[i], f[j]) in sub for i, j in a):
                return f, spent
    return None, spent


def _growth_witness(a, b, f):
    """Growth moves from ``a`` to ``b`` along the injection ``f``: shift each
    label up to its image, largest first, then add the missing edges."""
    partner = {}
    for i, j in a:
        partner[i], partner[j] = j, i
    moves = []
    for x in sorted(f, reverse=True):
        for v in range(x, f[x]):
            p = partner.pop(v)
            moves.append(Move("shift_endpoint", (_edge(v, p), _edge(v + 1, p))))
            partner[v + 1], partner[p] = p, v + 1
    have = {_edge(v, p) for v, p in partner.items()}
    moves += [Move("add_edge", (e,)) for e in b if e not in have]
    return moves


def _bfs_reach(a, b, budget):
    """Moves from ``a`` to ``b`` under both families, or None if there are
    none: a breadth-first search that drops states above ``b`` in
    ``matching_key`` or label sum and stops at the first state, ``a``
    first, that the growth injection already puts below ``b``."""
    maxb, sumb, keyb = max_vertex(b), label_sum(b), matching_key(b)
    f, spent = _growth_injection(a, b, budget)
    parent = {a: None}
    queue = deque([a])
    state = a
    while f is None and queue:
        src = queue.popleft()
        spent = _spend(spent, budget)
        for mv, state in type1_moves(src, maxb) + type2_moves(src):
            if (state in parent or label_sum(state) > sumb
                    or matching_key(state) > keyb):
                continue
            parent[state] = (src, mv)
            f, spent = _growth_injection(state, b, budget, spent)
            if f is not None:
                break
            queue.append(state)
    if f is None:
        return None
    moves = _growth_witness(state, b, f)
    while parent[state] is not None:
        state, mv = parent[state]
        moves.insert(0, mv)
    return moves


def leq_type1(a, b, budget=None) -> bool:
    """Is ``b`` reachable from ``a`` by growth moves alone?"""
    a, b = matching(a), matching(b)
    if a == b or _ruled_out(a, b):
        return a == b
    budget = DEFAULT_BUDGET if budget is None else budget
    return _growth_injection(a, b, budget)[0] is not None


def leq_full(a, b, budget=None, witness=False):
    """Is ``b`` reachable from ``a`` by growth and swap moves?

    Decided by :func:`_bfs_reach`, which answers a growth-comparable pair
    with its injection before expanding any state.  With ``witness=True``
    returns (verdict, move list or None); the move list replays from ``a``
    to ``b`` via :func:`replay`.  It need not be a shortest one.
    """
    a, b = matching(a), matching(b)
    if a == b or _ruled_out(a, b):
        moves = [] if a == b else None
    else:
        moves = _bfs_reach(a, b, DEFAULT_BUDGET if budget is None else budget)
    return (moves is not None, moves) if witness else moves is not None


# ---------------------------------------------------------------------------
# The standard family and poset widths.


def gamma_family(n):
    """The n-edge family on labels {1..2n}: edges (2i+1, 2i+4) plus (2, 2n-1).

    Its members are pairwise unreachable from one another under growth moves
    alone but form a chain once swap moves are allowed.  Defined for n >= 3.
    """
    if n < 3:
        raise IndexTooSmallError(f"family defined for n >= 3, got {n}")
    edges = [(2 * i + 1, 2 * i + 4) for i in range(n - 1)]
    edges.append((2, 2 * n - 1))
    return matching(edges)


def relabel(g, perm):
    """Apply a label permutation (dict, identity where missing)."""
    return matching(tuple((perm.get(i, i), perm.get(j, j)) for i, j in g))


def _rotation(i):
    """The permutation sending 2 to i+1 and k to k-1 for 3 <= k <= i+1."""
    perm = {2: i + 1}
    for k in range(3, i + 2):
        perm[k] = k - 1
    return perm


def family_rotation_chain(n, budget=None):
    """Replay the stepwise swap-move chain between rotated copies of
    ``gamma_family(n)``.

    Returns a dict with the per-step record ``(i, source, target, move)``
    (move is None when the target is not one swap away — reported, never
    assumed), the final transposition step that swaps the top two labels,
    and whether the end matching grows into ``gamma_family(n+1)`` using
    growth moves alone, decided by :func:`leq_type1` under ``budget``.
    """
    g = gamma_family(n)
    top = 2 * n
    steps = []
    for i in range(2, top - 3):
        src = relabel(g, _rotation(i))
        tgt = relabel(g, _rotation(i + 1))
        move = next((mv for mv, img in type2_moves(src) if img == tgt), None)
        steps.append((i, src, tgt, move))
    last = relabel(g, _rotation(top - 3))
    final = relabel(last, {top - 1: top, top: top - 1})
    final_move = next((mv for mv, img in type2_moves(last) if img == final), None)
    grows = leq_type1(final, gamma_family(n + 1), budget)
    return {
        "steps": steps,
        "final_step": (last, final, final_move),
        "grows_into_next": grows,
    }


def all_matchings(edge_count, vertex_bound):
    """Every matching with exactly ``edge_count`` edges on labels <= bound,
    sorted by ``matching_key``; each round adds an edge on free labels."""
    labels = frozenset(range(1, vertex_bound + 1))
    level = {()}
    for _ in range(edge_count):
        level = {_canon(g + (e,)) for g in level
                 for e in combinations(sorted(labels - vertices(g)), 2)}
    return sorted(level, key=matching_key)


def universe_order(universe, moves):
    """``leq(a, b)`` for the order that ``moves`` generate on a universe.

    ``moves(g)`` lists (move, image) pairs; images outside the universe are
    dropped.  Every move raises ``matching_key`` (a shift raises one edge
    key, a swap the larger of its two), so no path between k-edge matchings
    on 1..n leaves them, and reachability is one reverse scan of the sorted
    universe that ORs the bitsets of one-step images.  Raises ValueError if
    an image sorts at or below its source.
    """
    elems = sorted(universe, key=matching_key)
    index = {g: u for u, g in enumerate(elems)}
    reach = [0] * len(elems)
    for u in reversed(range(len(elems))):
        up = [index[img] for _, img in moves(elems[u]) if img in index]
        if min(up, default=u + 1) <= u:
            raise ValueError(f"a move from {fmt_matching(elems[u])} does not "
                             "raise matching_key")
        reach[u] = 1 << u
        for v in up:
            reach[u] |= reach[v]
    return lambda a, b: bool(reach[index[a]] >> index[b] & 1)


def max_antichain(elements, leq):
    """A maximum antichain of a small finite poset, with certificate.

    Chain-cover duality: the width equals the element count minus a
    maximum matching on the strict comparability relation, and the
    uncovered side of the corresponding minimum vertex cover is an
    antichain of exactly that size.  Returns (antichain, width).
    Quadratic in the universe size — meant for sandbox-scale posets.
    """
    elems = list(elements)
    n = len(elems)
    succ = [[v for v in range(n)
             if v != u and leq(elems[u], elems[v])] for u in range(n)]
    match_l, match_r = max_matching(succ)
    matched = n - match_l.count(-1)
    # Koenig: alternating reachability from unmatched left vertices.
    frontier = deque(u for u in range(n) if match_l[u] == -1)
    zl = set(frontier)
    zr = set()
    while frontier:
        u = frontier.popleft()
        for v in succ[u]:
            if v in zr:
                continue
            zr.add(v)
            w = match_r[v]
            if w != -1 and w not in zl:
                zl.add(w)
                frontier.append(w)
    antichain = [elems[i] for i in range(n) if i in zl and i not in zr]
    assert len(antichain) == n - matched
    return antichain, n - matched


def max_matching(succ):
    """Maximum matching of the bipartite graph with edges u -> succ[u], both
    sides labelled 0..len(succ)-1; returns (match_l, match_r), -1 where
    unmatched.

    Kuhn's augmenting paths, tried from each left vertex in turn, each one
    a depth-first search with an explicit stack, so deep alternating paths
    in universes of thousands of elements never touch the recursion limit.
    Read as successor links, ``match_l`` is a minimum chain cover.
    """
    n = len(succ)
    match_l = [-1] * n
    match_r = [-1] * n

    def augment(root):
        seen = set()
        path = [root]    # left vertices of the alternating path
        via = []         # via[k]: the right vertex after path[k]
        stack = [iter(succ[root])]
        while stack:
            for v in stack[-1]:
                if v in seen:
                    continue
                seen.add(v)
                via.append(v)
                w = match_r[v]
                if w == -1:
                    for u, x in zip(path, via):
                        match_l[u] = x
                        match_r[x] = u
                    return
                path.append(w)
                stack.append(iter(succ[w]))
                break
            else:
                stack.pop()
                path.pop()
                if via:
                    via.pop()

    for u in range(n):
        augment(u)
    return match_l, match_r


# ---------------------------------------------------------------------------
# Degree-one sandbox: colored sets.  The same growth-move story one degree
# down: elements carry a fixed color, moves add a fresh element or shift an
# element up onto a free slot, and colors never change.


COLORS = ("R", "B")


def colored_set(pairs):
    """Canonicalize {(element, color), ...}; colors are 'R' or 'B'."""
    seen = set()
    out = []
    for elem, color in pairs:
        elem = int(elem)
        if elem < 1:
            raise ValueError(f"elements must be positive, got {elem}")
        if color not in COLORS:
            raise ValueError(f"color must be one of {COLORS}, got {color!r}")
        if elem in seen:
            raise ValueError(f"element {elem} used twice")
        seen.add(elem)
        out.append((elem, color))
    return tuple(sorted(out))


def colored_word(s):
    """Colors read in increasing element order."""
    return tuple(color for _, color in s)


def colored_key(s):
    """Display/pivot order: compare supports from the largest element down,
    then color words letter by letter with R before B."""
    support = tuple(sorted((e for e, _ in s), reverse=True))
    word = tuple(0 if c == "R" else 1 for c in colored_word(s))
    return (len(s), support, word)


def fmt_colored_set(s) -> str:
    return "{" + ",".join(f"{e}{c}" for e, c in s) + "}"


def degree_one_moves(s, vertex_bound):
    """Growth moves for colored sets: add a fresh colored element or shift
    an element up by one onto a free slot (keeping its color)."""
    used = {e for e, _ in s}
    out = []
    for v in range(1, vertex_bound + 1):
        if v in used:
            continue
        for color in COLORS:
            out.append(
                (Move("add_element", ((v, color),)), colored_set(s + ((v, color),)))
            )
    for elem, color in s:
        up = elem + 1
        if up <= vertex_bound and up not in used:
            rest = tuple(p for p in s if p != (elem, color))
            out.append(
                (
                    Move("shift_element", ((elem, color), (up, color))),
                    colored_set(rest + ((up, color),)),
                )
            )
    return out


def degree_one_leq(a, b) -> bool:
    """Is ``b`` reachable from ``a`` by growth moves on colored sets?

    A shift moves one step up onto a free slot, so elements never pass one
    another and colors never change: ``a <= b`` exactly when some order- and
    color-preserving injection ``f`` of ``a`` into ``b`` has ``f(x) >= x``
    (shift from the largest element down, then add the rest).  Matching each
    element to the first usable element of ``b`` decides it.
    """
    rest = iter(colored_set(b))
    return all(any(y >= x and d == c for y, d in rest) for x, c in colored_set(a))


def all_colored_sets(max_size, vertex_bound):
    """Every colored set with at most ``max_size`` elements on labels <= bound."""
    out = [colored_set(())]
    for size in range(1, max_size + 1):
        for support in combinations(range(1, vertex_bound + 1), size):
            for colors in product(COLORS, repeat=size):
                out.append(colored_set(zip(support, colors)))
    return sorted(set(out), key=colored_key)

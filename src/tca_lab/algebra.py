"""Polynomial models of quadratic-variable algebras with a derivation action.

Four variable systems share one implementation:

* ``symmetric``      x[i,j] = x[j,i]           (i <= j stored),
* ``antisymmetric``  x[i,j] = -x[j,i], x[i,i]=0 (i < j stored),
* ``generic``        independent x[i,j] with separate row and column actions,
* ``degree_one``     two families x[i], y[i] ("red"/"blue") moved in lockstep.

A flavor is its entry in :data:`LAYOUTS`, the label block of each index
of a variable, plus the sign rule ``canonical``.  A weight is one tuple of
label counts per block of labels, each permuted by its own symmetric
group: GL_n acts on one block for the symmetric, antisymmetric and
degree_one systems, GL_n x GL_n on a (rows, cols) pair for the generic
one.  :class:`VariableSystem` reads the entry, so variables, weights, the
monomials of a weight, the derivation action, weight splits, dominant
slices and degree pieces run one path for every flavor.

A polynomial is a dict mapping monomials to exact coefficients, where a
monomial is a sorted tuple of stored variables.  Coefficients are ``int``
wherever they are integral and ``Fraction`` only where they are not: row
reduction (:class:`Span`) is fraction-free and stores primitive integer
rows, so integer vectors stay integer from the generators through the
derivation action, the ideal slices and the Koszul normal forms.  The
rank-n derivation action is ``act(a,b): x[b,...] -> x[a,...]`` extended by
the Leibniz rule; for the generic system the row and column copies act
independently.

Ideals are generated by finite sets of polynomials together with everything
the derivation action produces from them.  Graded pieces are computed one
weight at a time, which keeps every matrix small: the weight-w slice of
degree d is spanned by (monomial of weight w-w') * (generator component of
weight w').  Every ideal keeps its generator slices in one store, degree
-> weight -> basis.  For ideals generated by a single highest-weight vector
the store is filled on demand, so the full generating representation is
never materialized: a label permutation carries the slice at the dominant
weight sort(w) onto the slice at w, and the slice at a dominant weight is
the span of the simple lowering operators applied to the slices one simple
root higher.

Initial data: a vector of "admissible" weight (every coordinate 0 or 1) is
supported on squarefree monomials with all indices distinct, i.e. on
matchings of its support; its initial matching is the largest support
matching in the total order of :mod:`tca_lab.matchings`.  The initial set
of an ideal collects the leading matchings of every admissible slice: the
slice on {1..s} is echelonized once, under that order, and its pivots are
moved onto each s-element support by the order-preserving label map
(:func:`initial_set` says why this is exact).
The degree_one system reads the same data one degree down, on colored sets
ordered by :func:`tca_lab.matchings.colored_key`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import (accumulate, combinations, combinations_with_replacement,
                       product)
from math import gcd, lcm

from .partitions import decompose_into_schur, partitions_of, poly_add, transpose
from .matchings import (
    colored_key,
    colored_set,
    degree_one_moves,
    degree_one_shifts,
    matching,
    matching_key,
    relabel,
    shift_moves,
    type1_moves,
    type2_moves,
)

# flavor -> the label block of each index of a variable, position by
# position; None marks a color (0 or 1), which GL_n does not move.  The
# stored variables are the index tuples that ``canonical`` keeps.
LAYOUTS = {
    "symmetric": (0, 0),
    "antisymmetric": (0, 0),
    "generic": (0, 1),
    "degree_one": (None, 0),
}
FLAVORS = tuple(LAYOUTS)
MATRIX_FLAVORS = ("symmetric", "antisymmetric", "generic")
MATCHING_FLAVORS = ("symmetric", "antisymmetric")


@dataclass(frozen=True)
class VariableSystem:
    """A flavor plus a rank; all polynomial operations take one of these."""

    flavor: str
    rank: int

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def variables(self):
        """The stored variables, ascending."""
        return list(self._variables)

    @cached_property
    def _variables(self):
        """Each index tuple in the form :meth:`canonical` stores it, unless
        it kills it."""
        ranges = [(0, 1) if block is None else range(1, self.rank + 1)
                  for block in LAYOUTS[self.flavor]]
        stored = (self.canonical(*idx) for idx in product(*ranges))
        return tuple(sorted({v for v, sign in stored if sign}))

    @cached_property
    def _paired(self):
        """Whether a weight is a (rows, cols) pair of label blocks."""
        return 1 in LAYOUTS[self.flavor]

    @cached_property
    def _offsets(self):
        """(position, offset) of every label index: ``v[position]`` fills
        flat weight slot ``offset + v[position]``."""
        return tuple((pos, block * self.rank - 1)
                     for pos, block in enumerate(LAYOUTS[self.flavor])
                     if block is not None)

    def slots(self, v):
        """The flat weight slots a variable fills, one per label index."""
        return tuple(offset + v[pos] for pos, offset in self._offsets)

    @cached_property
    def capacity_table(self):
        """``(v, slots, r0, r1)`` per stored variable, ascending: the later
        variables on ``v``'s first slot take from it at most the capacity
        of the flat slots ``r0 .. r1 - 1`` (of that slot itself when one of
        them fills it alone)."""
        variables = self._variables
        filled = [self.slots(v) for v in variables]
        table = []
        for idx, (v, slots) in enumerate(zip(variables, filled)):
            others = sorted({s[-1] for s in filled[idx + 1:] if s[0] == slots[0]})
            if slots[0] in others:
                others = [slots[0]]
            r0 = others[0] if others else 0
            if others != list(range(r0, r0 + len(others))):
                raise ValueError(f"{self.flavor}: the variables after {v} "
                                 f"on slot {slots[0]} fill no range of slots")
            table.append((v, slots, r0, r0 + len(others)))
        return tuple(table)

    def canonical(self, i, j):
        """Store an index pair, returning (variable, sign); sign 0 kills it."""
        if self.flavor == "symmetric":
            return ((i, j) if i <= j else (j, i)), 1
        if self.flavor == "antisymmetric":
            if i == j:
                return None, 0
            return ((i, j), 1) if i < j else ((j, i), -1)
        return (i, j), 1

    def weight(self, mono):
        """Weight of a monomial: a tuple, or a (row, col) pair of tuples."""
        flat = [0] * (self.rank * len(self.sides()))
        for pos, offset in self._offsets:
            for v in mono:
                flat[offset + v[pos]] += 1
        return self.unflatten(tuple(flat))

    def sort_weight(self, w):
        """The dominant weight of ``w``, each label block sorted descending,
        and per block the label map (1-based; entry 0 unused) that carries
        each sorted slot back to its slot in ``w``."""
        blocks, maps = [], []
        for block in self.blocks(w):
            order = sorted(range(len(block)), key=block.__getitem__, reverse=True)
            blocks.append(tuple([block[i] for i in order]))
            maps.append((0, *[i + 1 for i in order]))
        return self.join(blocks), tuple(maps)

    def relabel(self, mono, maps):
        """(image, sign) of a monomial under one label map per block, as
        :meth:`sort_weight` gives them, stored through :meth:`canonical`;
        colors stay fixed."""
        f, g = (None if block is None else maps[block]
                for block in LAYOUTS[self.flavor])
        canonical = self.canonical
        sign = 1
        out = []
        for i, j in mono:
            var, s = canonical(i if f is None else f[i], j if g is None else g[j])
            sign *= s
            out.append(var)
        out.sort()
        return tuple(out), sign

    def sides(self):
        """The derivation side of each label block."""
        return ("row", "col") if self._paired else (None,)

    @cached_property
    def unit(self):
        """The weight one variable puts on its block."""
        return len(self._offsets) // len(self.sides())

    def blocks(self, w):
        """A weight as its label blocks: ``(rows, cols)`` or ``(w,)``."""
        return w if self._paired else (w,)

    def join(self, blocks):
        """The weight with these label blocks; inverse of :meth:`blocks`."""
        return tuple(blocks) if self._paired else blocks[0]

    def flatten(self, w):
        """All label counts of a weight in one tuple, block after block."""
        return w[0] + w[1] if self._paired else w

    def unflatten(self, flat):
        """The weight of a flat tuple of label counts; inverse of
        :meth:`flatten`."""
        n = self.rank
        return (flat[:n], flat[n:]) if self._paired else flat

    @cached_property
    def _actions(self):
        return {}

    def action(self, a, b, side):
        """act(a, b) on single variables, built on first use and kept:
        ``{v: ((image, sign), ...)}`` over the stored variables, one image
        per position of ``side``'s label block where ``v`` has index ``b``;
        images that :meth:`canonical` kills are left out."""
        sides = self.sides()
        if side not in sides:
            raise ValueError("generic system needs side='row' or side='col'"
                             if self._paired else
                             "side is only meaningful for the generic system")
        block = sides.index(side)
        positions = [pos for pos, blk in enumerate(LAYOUTS[self.flavor])
                     if blk == block]
        table = self._actions[(a, b, side)] = {}
        for v in self._variables:
            images = [self.canonical(*v[:pos], a, *v[pos + 1:])
                      for pos in positions if v[pos] == b]
            if images:
                table[v] = tuple(image for image in images if image[1])
        return table


# ---------------------------------------------------------------------------
# Polynomial plumbing.


def term(system, coeff, pairs):
    """Build a one-term polynomial from raw index pairs, canonicalizing."""
    sign = 1
    out = []
    for i, j in pairs:
        v, s = system.canonical(i, j)
        if s == 0:
            return {}
        sign *= s
        out.append(v)
    c = Fraction(coeff) * sign
    if not c:
        return {}
    return {tuple(sorted(out)): c.numerator if c.denominator == 1 else c}


def mono_mul_poly(mono, p):
    """Multiply every term of ``p`` by a fixed stored monomial."""
    return {tuple(sorted(mono + m)): c for m, c in p.items()}


def weight_split(system, p):
    """Split a polynomial into weight-homogeneous pieces."""
    out = {}
    for m, c in p.items():
        out.setdefault(system.weight(m), {})[m] = c
    return out


def lie_act(system, a, b, p, side=None):
    """Derivation act(a,b) applied to ``p``; ``side`` picks the row or column
    action of the generic system and must be None otherwise."""
    table = system._actions.get((a, b, side))
    if table is None:
        table = system.action(a, b, side)
    out = {}
    for mono, coeff in p.items():
        for t, v in enumerate(mono):
            for nv, sign in table.get(v, ()):
                nm = tuple(sorted(mono[:t] + (nv,) + mono[t + 1:]))
                c = out.get(nm, 0) + sign * coeff
                if c:
                    out[nm] = c
                else:
                    del out[nm]
    return out


def all_ops(system):
    """All off-diagonal derivation labels (a, b, side)."""
    n = system.rank
    return [
        (a, b, side)
        for side in system.sides()
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b
    ]


# ---------------------------------------------------------------------------
# Exact incremental row reduction.


class Span:
    """Row space with echelon pivots under a configurable monomial key.

    Fraction-free: stored rows are primitive integer vectors (the gcd of
    their entries divided out) whose largest monomial under the key is the
    pivot, with a positive coefficient, and whose tails are strictly
    smaller.  The pivot set equals the set of leading monomials of the
    whole row space.  Elimination clears the input's denominators once and
    then cross-multiplies, ``vec = (p/g)*vec - (c/g)*row`` with
    ``g = gcd(p, c)``, tracking the integer scale this puts on ``vec``, so
    ``reduce`` still returns the canonical normal form supported on
    non-pivot monomials: ``int`` where it is integral, ``Fraction`` only
    where it is not.
    """

    def __init__(self, key=None):
        self._key = key      # None: compare monomials themselves
        self.rows = {}       # pivot monomial -> its row

    def _eliminate(self, vec):
        """(vec, scale): an integer vector and a positive integer whose
        quotient is the normal form of the input."""
        scale = 1
        for c in vec.values():
            if type(c) is not int:
                scale = lcm(scale, c.denominator)
        vec = {k: int(c * scale) for k, c in vec.items() if c}
        rows = self.rows
        while True:
            hits = [m for m in vec if m in rows]
            if not hits:
                return vec, scale
            m = max(hits, key=self._key)
            row = rows[m]
            p = row[m]
            c = vec[m]
            g = gcd(p, c)
            c //= g
            f = p // g
            if f != 1:
                scale *= f
                for k in vec:
                    vec[k] *= f
            for k, v in row.items():
                nv = vec.get(k, 0) - c * v
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]

    def reduce(self, vec):
        vec, scale = self._eliminate(vec)
        if scale == 1:
            return vec
        return {k: v // scale if v % scale == 0 else Fraction(v, scale)
                for k, v in vec.items()}

    def add(self, vec):
        """Reduce and insert; returns the stored row, or None if dependent."""
        r, _ = self._eliminate(vec)
        if not r:
            return None
        piv = max(r, key=self._key)
        g = gcd(*r.values())
        if r[piv] < 0:
            g = -g
        row = {k: v // g for k, v in r.items()} if g != 1 else r
        self.rows[piv] = row
        return row

    def contains(self, vec):
        return not self.reduce(vec)

    @property
    def rank(self):
        return len(self.rows)

    def vectors(self):
        return list(self.rows.values())


def rep_closure(system, gens):
    """Basis of the smallest derivation-stable subspace containing ``gens``.

    Generators are split into weight-homogeneous pieces first; the action
    preserves this, so every returned row is weight-homogeneous.
    """
    span = Span()
    queue = []
    for g in gens:
        for piece in weight_split(system, g).values():
            row = span.add(piece)
            if row is not None:
                queue.append(row)
    sides = system.sides()
    ops = [(a, b, side, sides.index(side)) for a, b, side in all_ops(system)]
    while queue:
        vec = queue.pop()
        # act(a, b) kills a row with no label b on its side
        blocks = system.blocks(system.weight(next(iter(vec))))
        for a, b, side, k in ops:
            if not blocks[k][b - 1]:
                continue
            img = lie_act(system, a, b, vec, side)
            if not img:
                continue
            row = span.add(img)
            if row is not None:
                queue.append(row)
    return span.vectors()


# ---------------------------------------------------------------------------
# Monomial enumeration by degree and weight.


def monomials_of_weight(system, d, w):
    """All degree-``d`` monomials of exact weight ``w``, in one fixed order.

    Order guarantee: exponent vectors ascending lexicographically, in the
    order of ``system.variables()``.  Seeded callers draw from this list
    with ``rng.sample``, so the order is part of the contract.

    One depth-first search over the stored variables fills the flat view
    of ``w``, every count ascending, so the list comes out in that order
    without sorting.  A count is bounded above by what its slots have left
    (a variable that fills one slot twice, a symmetric diagonal, gets
    half) and below by what the later variables on its first slot cannot
    absorb (:attr:`VariableSystem.capacity_table`).  A weight whose blocks
    are not of length ``rank`` raises ValueError.
    """
    total = system.unit * d
    for block in system.blocks(w):
        if len(block) != system.rank:
            raise ValueError(f"weight {w!r} has a block of length "
                             f"{len(block)}, not the rank {system.rank}")
        if sum(block) != total or min(block) < 0:
            return []
    cap = list(system.flatten(w))
    table = system.capacity_table
    end = len(table)
    out = []
    mono = []

    def fill(idx):
        if idx == end:
            if len(mono) == d:
                out.append(tuple(mono))
            return
        v, slots, r0, r1 = table[idx]
        a = slots[0]
        b = slots[-1]
        left = cap[a]
        room = sum(cap[r0:r1])
        if a == b:
            m = len(slots)
            for k in range(max(0, left - room + m - 1) // m, left // m + 1):
                cap[a] = left - m * k
                mono.extend([v] * k)
                fill(idx + 1)
                del mono[len(mono) - k:]
            cap[a] = left
            return
        top = cap[b]
        for k in range(max(0, left - room), min(left, top) + 1):
            cap[a] = left - k
            cap[b] = top - k
            mono.extend([v] * k)
            fill(idx + 1)
            del mono[len(mono) - k:]
        cap[a] = left
        cap[b] = top

    fill(0)
    return out


def decompose_algebra(flavor, d, n) -> dict:
    """Schur expansion of the degree-``d`` component, computed by brute
    monomial weight counting (independent of the closed product formula)."""
    system = VariableSystem(flavor, n)
    monos = combinations_with_replacement(system.variables(), d)
    return decompose_into_schur(Counter(map(system.weight, monos)), n)


def algebra_closed_formula(flavor, d, n) -> dict:
    """The predicted multiplicity-free table for the degree-``d`` component:
    doubled rows, doubled columns, or diagonal pairs, indexed by partitions
    of ``d`` and truncated to shapes with at most ``n`` rows."""
    if flavor not in MATRIX_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    entries = {}
    for lam in partitions_of(d):
        if flavor == "symmetric":
            key = tuple(2 * x for x in lam)
            rows = len(key)
        elif flavor == "antisymmetric":
            key = transpose(tuple(2 * x for x in lam))
            rows = len(key)
        else:
            key = (lam, lam)
            rows = len(lam)
        if rows <= n:
            entries[key] = 1
    return entries


def weight_splits(system, w, d):
    """``(mw, w - mw)`` for every weight ``mw`` of total degree ``d`` that
    fits under ``w``, block by block.

    Over-generates slightly (not every vector of the right total is hit by
    a monomial in every flavor); callers pair this with an exact monomial
    enumeration, so spurious weights just contribute empty slices.
    """
    per_block = [_bounded_splits(b, system.unit * d) for b in system.blocks(w)]
    if len(per_block) == 1:
        return per_block[0]
    return [tuple(map(system.join, zip(*split))) for split in product(*per_block)]


def _bounded_splits(bound, total):
    """``(v, bound - v)`` for every vector ``0 <= v <= bound`` summing to
    ``total``, ascending lexicographically in ``v``."""
    out = []
    vec = []

    def rec(idx, left):
        if idx == len(bound):
            if left == 0:
                out.append((tuple(vec), tuple(b - k for b, k in zip(bound, vec))))
            return
        hi = min(bound[idx], left)
        tail = sum(bound[idx + 1:])
        for k in range(max(0, left - tail), hi + 1):
            vec.append(k)
            rec(idx + 1, left - k)
            vec.pop()

    rec(0, total)
    return out


# ---------------------------------------------------------------------------
# Closed-form highest weight vectors.


def corner_minor(system, k):
    """Determinant of the leading k-by-k block, as a polynomial."""
    if k == 0:
        return {(): 1}
    out = {}
    from itertools import permutations

    for perm in permutations(range(1, k + 1)):
        sign = 1
        seen = list(perm)
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                if seen[i] > seen[j]:
                    sign = -sign
        pairs = [(i + 1, perm[i]) for i in range(k)]
        poly_add(out, term(system, sign, pairs))
    return out


def corner_pfaffian(system, k):
    """Pfaffian of the leading k-by-k block of the antisymmetric system."""
    if k % 2:
        raise ValueError("pfaffian needs an even block size")
    if system.flavor != "antisymmetric":
        raise ValueError("pfaffian is defined for the antisymmetric system")

    def pf(labels):
        if not labels:
            return {(): 1}
        a = labels[0]
        out = {}
        for t, b in enumerate(labels[1:], start=1):
            rest = labels[1:t] + labels[t + 1:]
            sub = pf(rest)
            sign = 1 if t % 2 else -1
            for m, c in sub.items():
                poly_add(out, term(system, sign * c, [(a, b)] + list(m)))
        return out

    return pf(tuple(range(1, k + 1)))


def highest_weight_vector(system, lam):
    """Canonical generator of the isotypic block labelled by ``lam``.

    Products of leading principal minors (symmetric and generic systems,
    one factor per column of ``lam``) or of leading Pfaffians (one factor
    of size ``2*part`` per row of ``lam``).  Raises on blocks that vanish
    at this rank (see :func:`block_vanishes`).
    """
    if block_vanishes(system, lam):
        raise ValueError(f"block {lam} vanishes at rank {system.rank}")
    if system.flavor == "antisymmetric":
        factors = [corner_pfaffian(system, 2 * part) for part in lam]
    else:
        factors = [corner_minor(system, sum(1 for part in lam if part > j))
                   for j in range(max(lam, default=0))]
    out = {(): 1}
    for factor in factors:
        new = {}
        for m, c in out.items():
            for m2, c2 in factor.items():
                poly_add(new, {tuple(sorted(m + m2)): c * c2})
        out = new
    return out


def block_vanishes(system, lam):
    """Whether the isotypic block labelled ``lam`` is zero at this rank:
    it needs more rows (twice the first row for the antisymmetric system)
    than the rank affords."""
    if system.flavor == "degree_one":
        raise ValueError("degree_one system has no partition labels")
    if system.flavor == "antisymmetric":
        return bool(lam) and 2 * lam[0] > system.rank
    return len(lam) > system.rank


# ---------------------------------------------------------------------------
# Weight slices of one isotypic block (used by lazily generated ideals):
# relabelled from dominant weights, which are lowered by simple roots.


def lowerings_from(system, hwv, w_high, w_target, cache=None):
    """Basis of the weight-``w_target`` slice of the subrepresentation
    generated by the highest weight vector ``hwv`` of weight ``w_high``,
    for the three matrix flavors.

    The slice is relabelled from the one at the dominant weight
    ``sort(w_target)``, each label block sorted on its own (rows and
    columns separately for the generic system).  Dominant slices are
    memoised in ``cache``, which must belong to this ``hwv`` (an isotypic
    ideal passes its store for that degree), and stored as echelon rows.
    """
    if cache is None:
        cache = {}
    dominant, maps = system.sort_weight(w_target)
    basis = cache.get(dominant)
    if basis is None:
        basis = cache[dominant] = _dominant_slice(
            system, hwv, w_high, dominant, cache)
    if dominant == w_target:
        return basis
    out = []
    for vec in basis:
        moved = {}
        for mono, c in vec.items():
            image, sign = system.relabel(mono, maps)
            moved[image] = sign * c
        out.append(moved)
    return out


def _dominant_slice(system, hwv, w_high, dominant, cache):
    """Slice at a dominant weight: ``[hwv]`` at the top, empty unless
    ``w_high - dominant`` is a nonnegative sum of simple roots, otherwise
    the span of act(a+1, a) on the slices one simple root higher."""
    if dominant == w_high:
        return [hwv]
    lows = system.blocks(dominant)
    for low, high in zip(lows, system.blocks(w_high)):
        if sum(low) != sum(high) or any(
                x > y for x, y in zip(accumulate(low), accumulate(high))):
            return []
    span = Span()
    for k, (low, side) in enumerate(zip(lows, system.sides())):
        for a in range(1, system.rank):
            if not low[a]:
                continue
            blocks = list(lows)
            blocks[k] = low[:a - 1] + (low[a - 1] + 1, low[a] - 1) + low[a + 1:]
            up = system.join(blocks)
            for vec in lowerings_from(system, hwv, w_high, up, cache):
                span.add(lie_act(system, a + 1, a, vec, side))
    return span.vectors()


# ---------------------------------------------------------------------------
# Equivariant ideals.


class EquivariantIdeal:
    """Ideal generated by polynomials plus their derivation-action orbit.

    The generating subspace is one store, degree -> weight -> basis:
    ``from_generators`` fills it from :func:`rep_closure`, ``isotypic``
    registers the degree of its highest weight vector with an empty dict and
    fills that on demand through :func:`lowerings_from`, and the zero ideal
    is the empty store.
    """

    def __init__(self, system, label=""):
        self.system = system
        self.label = label
        self._slices = {}            # degree -> weight -> basis
        self._hw = None              # (hwv, weight) of an isotypic block
        self._monomial_cache = {}    # (degree, weight) -> monomials_of_weight

    # -- construction -----------------------------------------------------

    @classmethod
    def from_generators(cls, system, gens, label=""):
        ideal = cls(system, label)
        for row in rep_closure(system, gens):
            mono = next(iter(row))
            ideal._slices.setdefault(len(mono), {}).setdefault(
                system.weight(mono), []).append(row)
        return ideal

    @classmethod
    def isotypic(cls, system, lam, label=""):
        """The ideal generated by one isotypic block; the zero ideal when
        the block vanishes at this rank."""
        lam = tuple(lam)
        ideal = cls(system, label or f"I[{lam}]")
        if not block_vanishes(system, lam):
            hwv = highest_weight_vector(system, lam)
            mono = next(iter(hwv))
            ideal._hw = (hwv, system.weight(mono))
            ideal._slices[len(mono)] = {}
        return ideal

    # -- generator slices ---------------------------------------------------

    def gen_degrees(self):
        return sorted(self._slices)

    def gen_weight_slice(self, d, w):
        """Basis of the degree-d, weight-w piece of the generating subspace."""
        slices = self._slices.get(d)
        if slices is None:
            return []
        basis = slices.get(w)
        if basis is None and self._hw:
            basis = slices[w] = lowerings_from(self.system, *self._hw, w, slices)
        return basis or []

    # -- graded pieces ------------------------------------------------------

    def component_span(self, d, w, key=None):
        """Echelonized degree-d, weight-w slice of the ideal; ``key`` orders
        the monomials of the slice, as in :class:`Span`."""
        span = Span(key=key)
        for e in self.gen_degrees():
            rem = d - e
            if rem < 0:
                continue
            for mw, gw in weight_splits(self.system, w, rem):
                gens = self.gen_weight_slice(e, gw)
                if not gens:
                    continue
                monos = self._monomial_cache.get((rem, mw))
                if monos is None:
                    monos = monomials_of_weight(self.system, rem, mw)
                    self._monomial_cache[(rem, mw)] = monos
                for mono in monos:
                    for g in gens:
                        span.add(mono_mul_poly(mono, g))
        return span


def ideal_contains_isotypic(ideal, mu):
    """Whether the whole isotypic block labelled ``mu`` sits in the ideal.

    Graded pieces of the ideal are stable under the derivation action, so
    they contain the block iff they contain its highest vector: adding the
    vector to the slice leaves the weight-space dimension unchanged exactly
    when the block is inside.  A block that vanishes at this rank counts as
    contained.
    """
    system = ideal.system
    if block_vanishes(system, tuple(mu)):
        return True
    hwv = highest_weight_vector(system, tuple(mu))
    mono = next(iter(hwv))
    return ideal.component_span(len(mono), system.weight(mono)).contains(hwv)


# ---------------------------------------------------------------------------
# Admissible slices, initial matchings, initial sets.


def indicator_weight(n, support):
    w = [0] * n
    for s in support:
        w[s - 1] = 1
    return tuple(w)


def _initial_data(flavor):
    """How a flavor reads its initial data: (the matching or colored set of
    an admissible monomial, total order on them, moves within a label bound
    that add an edge or element only when ``grow`` is true, image under a
    label map).

    An admissible monomial of a matrix flavor already is an edge list; a
    degree_one monomial is a set of colored labels.  Built on every call, so
    the move functions are looked up when the code runs rather than frozen
    at import.
    """
    if flavor == "degree_one":
        return (lambda m: colored_set((i, "RB"[c]) for c, i in m),
                colored_key,
                lambda s, bound, grow: (degree_one_moves if grow
                                        else degree_one_shifts)(s, bound),
                lambda s, f: colored_set((f[e], c) for e, c in s))
    if flavor not in MATCHING_FLAVORS:
        raise ValueError("initial data need a symmetric, antisymmetric "
                         "or degree_one system")
    return (matching, matching_key,
            lambda g, bound, grow: ((type1_moves if grow else shift_moves)(g, bound)
                                    + type2_moves(g)),
            relabel)


def initial_set(ideal, degree_bound, support_bound):
    """All initial matchings (or colored sets) of admissible vectors within
    the bounds, in order; a support bound above the rank raises ValueError.

    One echelon pass per support size s, under the order on matchings (or
    colored sets), yields the pivots on {1..s}.  A label permutation
    extending the order-preserving f: {1..s} -> S lies in GL_n and carries
    that slice onto the one on S up to signs; the order compares labels
    only by their order, so the pivots on S are their images.
    """
    system = ideal.system
    element, key, _, relabel_by = _initial_data(system.flavor)
    if support_bound > system.rank:
        raise ValueError(f"support bound {support_bound} > rank {system.rank}")
    unit = system.unit
    out = []
    for size in range(unit, min(unit * degree_bound, support_bound) + 1, unit):
        d, w = size // unit, indicator_weight(system.rank, range(1, size + 1))
        # Ranks, not `key`: the elimination compares monomials many times.
        order = {m: i for i, m in enumerate(sorted(
            monomials_of_weight(system, d, w), key=lambda m: key(element(m))))}
        span = ideal.component_span(d, w, key=order.__getitem__)
        pivots = [element(m) for m in span.rows]
        for support in combinations(range(1, support_bound + 1), size):
            f = dict(enumerate(support, 1))
            out.extend(relabel_by(g, f) for g in pivots)
    return tuple(sorted(out, key=key))


@dataclass
class MoveClosureReport:
    initial_size: int
    moves_checked: int
    violations: list

    @property
    def closed(self):
        return not self.violations


def verify_move_closure(ideal, degree_bound, support_bound):
    """Check that the initial set is stable under every move that stays
    within the bounds; violations are returned, not raised.  A matching (or
    colored set) at the degree bound gets no moves that add to it."""
    moves = _initial_data(ideal.system.flavor)[2]
    initial = initial_set(ideal, degree_bound, support_bound)
    inset = set(initial)
    moves_checked = 0
    violations = []
    for g in initial:
        for mv, img in moves(g, support_bound, len(g) < degree_bound):
            moves_checked += 1
            if img not in inset:
                violations.append((g, mv, img))
    return MoveClosureReport(
        initial_size=len(inset),
        moves_checked=moves_checked,
        violations=violations,
    )

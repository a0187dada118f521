"""Polynomial models of quadratic-variable algebras with a derivation action.

Four variable systems share one implementation:

* ``symmetric``      x[i,j] = x[j,i]           (i <= j stored),
* ``antisymmetric``  x[i,j] = -x[j,i], x[i,i]=0 (i < j stored),
* ``generic``        independent x[i,j] with separate row and column actions,
* ``degree_one``     two families x[i], y[i] ("red"/"blue") moved in lockstep.

A weight is one tuple of label counts per block of labels, and each block
is permuted by its own symmetric group: GL_n acts on one block for the
symmetric, antisymmetric and degree_one systems, GL_n x GL_n on a (rows,
cols) pair of blocks for the generic one.  :class:`VariableSystem` owns
this layout (``unit``, ``blocks``, ``join``, ``flatten``, ``unflatten``),
so weight splits, dominant slices and their relabelling run one path for
every flavor.

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
weight w').  For ideals generated by a single highest-weight vector the
needed generator slices are produced on demand, so the full generating
representation is never materialized: a label permutation carries the
slice at the dominant weight sort(w) onto the slice at w, and the slice at
a dominant weight is the span of the simple lowering operators applied to
the slices one simple root higher.

Initial data: a vector of "admissible" weight (every coordinate 0 or 1) is
supported on squarefree monomials with all indices distinct, i.e. on
matchings of its support; its initial matching is the largest support
matching in the total order of :mod:`tca_lab.matchings`.  The initial set
of an ideal collects the leading matchings of every admissible slice, read
off as the pivots of an echelon form whose columns are sorted descending.
The degree_one system reads the same data one degree down: a 0/1 weight
of degree d is supported on colored sets of d elements, ordered by
:func:`tca_lab.matchings.colored_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import gcd, lcm

from .partitions import MATRIX_FLAVORS, flavor_variables, poly_add
from .matchings import (
    colored_key,
    colored_set,
    degree_one_moves,
    matching,
    matching_key,
    type1_moves,
    type2_moves,
)

FLAVORS = MATRIX_FLAVORS + ("degree_one",)
MATCHING_FLAVORS = ("symmetric", "antisymmetric")
INITIAL_DATA_FLAVORS = MATCHING_FLAVORS + ("degree_one",)


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
        if self.flavor == "degree_one":
            return [(c, i) for c in (0, 1) for i in range(1, self.rank + 1)]
        return flavor_variables(self.flavor, self.rank)

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
        n = self.rank
        if self.flavor == "generic":
            row = [0] * n
            col = [0] * n
            for i, j in mono:
                row[i - 1] += 1
                col[j - 1] += 1
            return (tuple(row), tuple(col))
        w = [0] * n
        if self.flavor == "degree_one":
            for _, i in mono:
                w[i - 1] += 1
        else:
            for i, j in mono:
                w[i - 1] += 1
                w[j - 1] += 1
        return tuple(w)

    def sides(self):
        """The derivation side of each label block."""
        return ("row", "col") if self.flavor == "generic" else (None,)

    @property
    def unit(self):
        """The weight one variable puts on its block."""
        return 2 if self.flavor in MATCHING_FLAVORS else 1

    def blocks(self, w):
        """A weight as its label blocks: ``(rows, cols)`` or ``(w,)``."""
        return w if self.flavor == "generic" else (w,)

    def join(self, blocks):
        """The weight with these label blocks; inverse of :meth:`blocks`."""
        return tuple(blocks) if self.flavor == "generic" else blocks[0]

    def flatten(self, w):
        """All label counts of a weight in one tuple, block after block."""
        return w[0] + w[1] if self.flavor == "generic" else w

    def unflatten(self, flat):
        """The weight of a flat tuple of label counts; inverse of
        :meth:`flatten`."""
        n = self.rank
        return (flat[:n], flat[n:]) if self.flavor == "generic" else flat


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
    if system.flavor == "generic":
        if side not in ("row", "col"):
            raise ValueError("generic system needs side='row' or side='col'")
    elif side is not None:
        raise ValueError("side is only meaningful for the generic system")
    out = {}
    for mono, coeff in p.items():
        for t, v in enumerate(mono):
            repls = []
            if system.flavor == "degree_one":
                if v[1] == b:
                    repls.append(((v[0], a), 1))
            elif system.flavor == "generic":
                if side == "row" and v[0] == b:
                    repls.append(((a, v[1]), 1))
                elif side == "col" and v[1] == b:
                    repls.append(((v[0], a), 1))
            else:
                if v[0] == b:
                    repls.append(system.canonical(a, v[1]))
                if v[1] == b:
                    repls.append(system.canonical(v[0], a))
            for nv, sign in repls:
                if sign == 0:
                    continue
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
        self.rows = {}

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

    def pivots(self):
        return list(self.rows.keys())

    def vectors(self):
        return list(self.rows.values())

    def reduced_vectors(self):
        """Reduced echelon basis: each pivot minus its normal form."""
        out = []
        for m in self.rows:
            row = {k: -c for k, c in self.reduce({m: 1}).items()}
            row[m] = 1
            out.append(row)
        return out


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
    ops = all_ops(system)
    while queue:
        vec = queue.pop()
        for a, b, side in ops:
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

    The exponent matrix is filled one label (row) at a time, every count
    ascending, so the list comes out in that order without sorting.  A
    symmetric row takes its diagonal first; what is left of the row is
    spread over the later labels, each bounded by its remaining capacity
    and from below by what the labels after it can still absorb, so no
    branch dies inside a row.  Generic rows fill against column
    capacities the same way.  The degree_one system splits each ``w_i``
    into its two colors.
    """
    total = system.unit * d
    for block in system.blocks(w):
        if sum(block) != total or min(block, default=0) < 0:
            return []
    flavor = system.flavor
    if flavor == "generic":
        return _fill_rows(list(w[0]), list(w[1]), upper=False, diagonal=False)
    cap = list(w)
    if flavor == "degree_one":
        out = []
        for red in product(*(range(k + 1) for k in cap)):
            mono = [(0, i) for i, k in enumerate(red, 1) for _ in range(k)]
            mono += [(1, i) for i, (k, r) in enumerate(zip(cap, red), 1)
                     for _ in range(k - r)]
            out.append(tuple(mono))
        return out
    return _fill_rows(cap, cap, upper=True, diagonal=flavor == "symmetric")


def _fill_rows(rows, cols, upper, diagonal):
    """Exponent matrices with row sums ``rows`` and column sums ``cols``,
    as sorted monomials, counts ascending variable by variable.

    ``upper`` keeps entries above the diagonal (``rows is cols``: a label's
    capacity counts both of its indices); ``diagonal`` adds the diagonal,
    where one entry uses two units of its label.
    """
    n = len(rows)
    out = []
    mono = []

    def row(i):
        if i == n:
            out.append(tuple(mono))
            return
        first = i + 1 if upper else 0
        left = rows[i]
        if not diagonal:
            if upper and 2 * max(rows[i:]) > sum(rows[i:]):
                return          # some label outweighs all the others
            spread(i, first, left)
            return
        tail = sum(cols[first:])
        for k in range(max(0, left - tail + 1) // 2, left // 2 + 1):
            mono.extend([(i + 1, i + 1)] * k)
            spread(i, first, left - 2 * k)
            del mono[len(mono) - k:]

    def spread(i, j, left):
        if j == n:
            row(i + 1)
            return
        room = sum(cols[j + 1:])
        var = (i + 1, j + 1)
        for k in range(max(0, left - room), min(left, cols[j]) + 1):
            cols[j] -= k
            mono.extend([var] * k)
            spread(i, j + 1, left - k)
            del mono[len(mono) - k:]
            cols[j] += k

    row(0)
    return out


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
    memoised in ``cache``, which must belong to this ``hwv``, and stored as
    reduced echelon bases.
    """
    if cache is None:
        cache = {}
    sorted_blocks = [_sort_labels(b) for b in system.blocks(w_target)]
    dominant = system.join([b for _, b in sorted_blocks])
    rows, cols = sorted_blocks[0][0], sorted_blocks[-1][0]
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
            new = []
            for i, j in mono:
                var, sign = system.canonical(rows[i], cols[j])
                new.append(var)
                c *= sign
            moved[tuple(sorted(new))] = c
        out.append(moved)
    return out


def _sort_labels(w):
    """Descending sort of a weight, with the label map that carries each
    sorted slot (1-based; entry 0 unused) back to its original slot."""
    order = sorted(range(len(w)), key=lambda i: -w[i])
    return (0,) + tuple(i + 1 for i in order), tuple(w[i] for i in order)


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
    return span.reduced_vectors()


# ---------------------------------------------------------------------------
# Equivariant ideals.


class EquivariantIdeal:
    """Ideal generated by polynomials plus their derivation-action orbit.

    Two construction paths share this class: ``from_generators``
    materializes the stable span of the given generators once, while
    ``isotypic`` keeps a single highest weight vector and produces any
    required weight slice of its subrepresentation on demand, through
    :func:`lowerings_from`.
    """

    def __init__(self, system, label=""):
        self.system = system
        self.label = label
        self._gen_slices = None      # degree -> weight -> list of vectors
        self._hw = None              # (hwv, degree, weight) when lazy
        self._lazy_cache = {}        # (degree, weight) -> slice, when lazy
        self._dominant_cache = {}    # dominant weight -> slice, when lazy
        self._monomial_cache = {}    # (degree, weight) -> monomials_of_weight

    # -- construction -----------------------------------------------------

    @classmethod
    def from_generators(cls, system, gens, label=""):
        ideal = cls(system, label)
        slices = {}
        for row in rep_closure(system, gens):
            mono = next(iter(row))
            d = len(mono)
            slices.setdefault(d, {}).setdefault(system.weight(mono), []).append(row)
        ideal._gen_slices = slices
        return ideal

    @classmethod
    def isotypic(cls, system, lam, label=""):
        """The ideal generated by one isotypic block; the zero ideal when
        the block vanishes at this rank."""
        lam = tuple(lam)
        label = label or f"I[{lam}]"
        if block_vanishes(system, lam):
            return cls.from_generators(system, [], label)
        ideal = cls(system, label)
        hwv = highest_weight_vector(system, lam)
        mono = next(iter(hwv))
        ideal._hw = (hwv, len(mono), system.weight(mono))
        return ideal

    # -- generator slices ---------------------------------------------------

    def gen_degrees(self):
        if self._hw is not None:
            return [self._hw[1]]
        return sorted(self._gen_slices)

    def gen_weight_slice(self, d, w):
        """Basis of the degree-d, weight-w piece of the generating subspace."""
        if self._hw is not None:
            hwv, hd, hwt = self._hw
            if d != hd:
                return []
            key = (d, w)
            if key not in self._lazy_cache:
                self._lazy_cache[key] = lowerings_from(
                    self.system, hwv, hwt, w, self._dominant_cache)
            return self._lazy_cache[key]
        return self._gen_slices.get(d, {}).get(w, [])

    # -- graded pieces ------------------------------------------------------

    def component_span(self, d, w):
        """Echelonized degree-d, weight-w slice of the ideal."""
        span = Span()
        for e in self.gen_degrees():
            rem = d - e
            if rem < 0:
                continue
            if rem == 0:
                for g in self.gen_weight_slice(e, w):
                    span.add(g)
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


def vector_to_matching_coords(vec):
    return {matching(m): c for m, c in vec.items()}


def colored_coords(vec):
    out = {}
    for m, c in vec.items():
        elems = tuple((i, "R" if col == 0 else "B") for col, i in m)
        out[colored_set(elems)] = c
    return out


def _initial_data(flavor):
    """How a flavor reads its initial data: (coordinates of a vector, total
    order on them, moves within a label bound).

    Matchings for the two matrix flavors, colored sets for ``degree_one``.
    Built on every call, so the move functions are looked up when the code
    runs rather than frozen at import.
    """
    if flavor == "degree_one":
        return colored_coords, colored_key, degree_one_moves
    if flavor not in MATCHING_FLAVORS:
        raise ValueError("initial data need a symmetric, antisymmetric "
                         "or degree_one system")
    return (vector_to_matching_coords, matching_key,
            lambda g, bound: type1_moves(g, bound) + type2_moves(g))


def ideal_admissible_component(ideal, support):
    """Squarefree slice of an equivariant ideal at the indicator weight of
    ``support``, in matching (or colored-set) coordinates; computed
    weight-first so only the one needed weight space is ever assembled."""
    coords, _, _ = _initial_data(ideal.system.flavor)
    unit = ideal.system.unit
    support = tuple(sorted(set(support)))
    if len(support) % unit:
        return []
    w = indicator_weight(ideal.system.rank, support)
    span = ideal.component_span(len(support) // unit, w)
    return [coords(v) for v in span.vectors()]


def initial_set(ideal, degree_bound, support_bound):
    """All initial matchings (or colored sets) of admissible vectors within
    the bounds.

    One echelon pass per support: the pivot set of a weight slice is
    exactly the set of leading terms of its nonzero vectors.
    """
    _, key, _ = _initial_data(ideal.system.flavor)
    unit = ideal.system.unit
    out = set()
    for size in range(unit, min(unit * degree_bound, support_bound) + 1, unit):
        for support in combinations(range(1, support_bound + 1), size):
            span = Span(key=key)
            for v in ideal_admissible_component(ideal, support):
                span.add(v)
            out.update(span.pivots())
    return tuple(sorted(out, key=key))


@dataclass
class MoveClosureReport:
    label: str
    degree_bound: int
    support_bound: int
    initial_size: int
    moves_checked: int
    violations: list
    flavor: str = ""

    @property
    def closed(self):
        return not self.violations


def verify_move_closure(ideal, degree_bound, support_bound):
    """Check that the initial set is stable under every move that stays
    within the bounds; violations are returned, not raised."""
    _, key, moves = _initial_data(ideal.system.flavor)
    inset = set(initial_set(ideal, degree_bound, support_bound))
    moves_checked = 0
    violations = []
    for g in sorted(inset, key=key):
        for mv, img in moves(g, support_bound):
            if len(img) > degree_bound:
                continue
            moves_checked += 1
            if img not in inset:
                violations.append((g, mv, img))
    return MoveClosureReport(
        label=ideal.label,
        degree_bound=degree_bound,
        support_bound=support_bound,
        initial_size=len(inset),
        moves_checked=moves_checked,
        violations=violations,
        flavor=ideal.system.flavor,
    )

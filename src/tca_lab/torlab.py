"""Koszul-complex homology with full weight grading.

For an equivariant ideal I in one of the variable systems, the complex

    ... -> Wedge^p(W) (x) (A/I)_{q-p} -> Wedge^{p-1}(W) (x) (A/I)_{q-p+1} -> ...

(W = the span of the variables) computes Tor_p(A/I, scalars) in internal
degree q.  Differentials preserve weight, so every (weight, q) strand is a
small exact elimination problem, solved fraction-free by
:class:`tca_lab.algebra.Span`; homology dimensions are computed at dominant
weights only and the full character is recovered by symmetry, then split
into irreducible labels.  Weights are read through the label-block layout
of :class:`tca_lab.algebra.VariableSystem`, so every flavor takes one path:
dominant weights are partitions of ``unit * q``, one per block, a strand
searches the flat view of its weight, and one ``symmetrize_counts`` plus
``decompose_into_schur`` turns exponent tuples and (rows, cols) pairs alike
into characters.

Across ranks there is one table.  :func:`stabilization_report` computes a
family n -> ideal at its top rank only, reads each lower rank off it by
dropping the labels of more rows, and marks each (p, q) cell stable from
the first rank that holds its longest label.

A strand enumerates only what fits its weight: a chain basis takes the
p-subsets of variables from a depth-first search that stops as soon as a
label runs out of capacity, grouped by what they leave of the weight, and
the monomials of each remainder come from
:func:`tca_lab.algebra.monomials_of_weight`.  Both searches read the
variables and their weight slots from the system's ``capacity_table``.
The d∘d = 0 check on a basis vector of K_p combines the images of
K_{p-1}, kept for one strand, along the terms of its own image: d is
linear, so this is d(d(x)) without a second differential.

Each KoszulComplex keeps its own caches, built lazily and dropped with it:
the quotient bases per (degree, weight) and the normal form of every
monomial reduced so far, as ``Span.reduce`` returns it: ``int`` wherever it
is integral, so the differential mostly multiplies ``int``.  The ideal
memoises its monomial enumerations the same way.  Nothing is cached at
module level.

Conventions baked into reports: internal degree q is the total degree
(the exterior factor counts 1 per variable); alternating-form rank bounds
are even, so rank <= r is cut out by Pfaffians of size r+2 for even r and
r+1 for odd r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from random import Random

from .algebra import (
    MATRIX_FLAVORS,
    EquivariantIdeal,
    Span,
    VariableSystem,
    block_vanishes,
    monomials_of_weight,
)
from .errors import NonSymmetricCharacterError, ParseError
from .partitions import (_key_blocks, decompose_into_schur, partitions_of,
                         symmetrize_counts)


@dataclass(frozen=True)
class DeterminantalIdealSpec:
    """Rank-bound locus: forms of rank at most ``rank_bound``."""

    flavor: str
    rank: int
    rank_bound: int

    def __post_init__(self):
        if self.flavor not in MATRIX_FLAVORS:
            raise ValueError(f"no determinantal ideals for flavor {self.flavor!r}")
        if not 0 <= self.rank_bound <= self.rank:
            raise ValueError("need 0 <= rank_bound <= rank")

    @property
    def is_trivial(self):
        """True when the rank condition is vacuous (zero ideal)."""
        return block_vanishes(VariableSystem(self.flavor, self.rank), self.lam)

    @property
    def minor_size(self):
        return self.rank_bound + 1

    @property
    def pfaffian_size(self):
        # alternating forms have even rank; for odd r the conditions
        # "rank <= r" and "rank <= r-1" coincide
        r = self.rank_bound
        return r + 2 if r % 2 == 0 else r + 1

    @property
    def lam(self):
        """The label of the block that cuts the locus out: one row of
        ``pfaffian_size // 2`` boxes, or one column of ``minor_size``."""
        if self.flavor == "antisymmetric":
            return (self.pfaffian_size // 2,)
        return (1,) * self.minor_size

    @property
    def label(self):
        if self.flavor == "antisymmetric":
            cut = f"pfaffians of size {self.pfaffian_size}"
        else:
            cut = f"minors of size {self.minor_size}"
        tag = " (zero ideal)" if self.is_trivial else ""
        return f"{self.flavor} rank<= {self.rank_bound} via {cut}{tag}"


def determinantal_ideal(spec):
    """The equivariant ideal cutting out forms of bounded rank.

    It is a single isotypic ideal (de Concini-Eisenbud-Procesi): the block
    ``spec.lam``, spanned by the minors of size ``minor_size`` or, for
    alternating forms, by the Pfaffians of size ``pfaffian_size``.  Trivial
    specs are exactly those whose block vanishes at this rank: the zero
    ideal.
    """
    system = VariableSystem(spec.flavor, spec.rank)
    return EquivariantIdeal.isotypic(system, spec.lam, label=spec.label)


# ---------------------------------------------------------------------------
# The complex.


class KoszulComplex:
    """Weight-strand Koszul homology of A/I against the scalars.

    Each call to :meth:`strand` works in the fixed-(weight, q) slice and
    returns chain dimensions, differential ranks and homology dimensions
    for p = 0..p_max; the square of the differential is asserted to vanish
    on every basis vector.
    """

    def __init__(self, ideal, p_max):
        self.system = ideal.system
        self.ideal = ideal
        self.p_max = p_max
        self._quotient_cache = {}
        self._normal_forms = {}      # monomial -> normal form modulo I

    # -- quotient bases -----------------------------------------------------

    def quotient_basis(self, d, w):
        """Standard monomials of (A/I)_{d,w}: non-pivot monomials."""
        key = (d, w)
        cached = self._quotient_cache.get(key)
        if cached is None:
            span = self.ideal.component_span(d, w)
            monos = [m for m in monomials_of_weight(self.system, d, w)
                     if m not in span.rows]
            cached = (tuple(monos), span)
            self._quotient_cache[key] = cached
        return cached

    def _normal_form(self, mono):
        """Normal form of a monomial modulo I, memoised; shared, never mutated.

        ``Span.reduce`` returns ``int`` coefficients wherever the normal form
        is integral, so most of the arithmetic in :meth:`apply_diff` stays
        on ``int``.
        """
        nf = self._normal_forms.get(mono)
        if nf is None:
            _, span = self.quotient_basis(len(mono), self.system.weight(mono))
            nf = span.reduce({mono: 1})
            self._normal_forms[mono] = nf
        return nf

    # -- chain spaces and differential ---------------------------------------

    def chain_basis(self, p, q, w):
        """Basis (T, m) of Wedge^p(W) (x) (A/I)_{q-p} in weight w."""
        if p < 0 or q - p < 0:
            return []
        out = []
        unflatten = self.system.unflatten
        for rem, subsets in self._fitting_subsets(p, w).items():
            monos, _ = self.quotient_basis(q - p, unflatten(rem))
            out.extend((T, m) for T in subsets for m in monos)
        return out

    def _fitting_subsets(self, p, w):
        """The p-subsets of variables whose weight fits under ``w``, grouped
        by what is left of the flat view of ``w``; a depth-first search
        over :attr:`VariableSystem.capacity_table` that takes a variable
        only while every label it uses has capacity left."""
        cap = list(self.system.flatten(w))
        table = self.system.capacity_table
        groups = {}
        chosen = []

        def dfs(start, left):
            if not left:
                groups.setdefault(tuple(cap), []).append(tuple(chosen))
                return
            for idx in range(start, len(table) - left + 1):
                v, slots, _, _ = table[idx]
                for t in slots:
                    cap[t] -= 1
                if cap[slots[0]] >= 0 and cap[slots[-1]] >= 0:
                    chosen.append(v)
                    dfs(idx + 1, left - 1)
                    chosen.pop()
                for t in slots:
                    cap[t] += 1

        dfs(0, p)
        return groups

    def apply_diff(self, vec):
        """One Koszul differential step on a chain vector."""
        out = {}
        for (T, m), c in vec.items():
            for t, v in enumerate(T):
                rest = T[:t] + T[t + 1:]
                sign = 1 if t % 2 == 0 else -1
                nf = self._normal_form(tuple(sorted(m + (v,))))
                for m2, c2 in nf.items():
                    key = (rest, m2)
                    nv = out.get(key, 0) + sign * c * c2
                    if nv:
                        out[key] = nv
                    else:
                        del out[key]
        return out

    # -- homology -------------------------------------------------------------

    def strand(self, q, w):
        """(chain dims, differential ranks, homology dims) for p=0..p_max."""
        P = self.p_max
        bases = [self.chain_basis(p, q, w) for p in range(P + 2)]
        dims = [len(b) for b in bases]
        ranks = [0] * (P + 3)   # ranks[p] = rank of d: K_p -> K_{p-1}
        below = {}              # basis vector of K_{p-1} -> its image
        for p in range(1, P + 2):
            span = Span()
            images = {}
            for x in bases[p]:
                img = images[x] = self.apply_diff({x: 1})
                if p >= 2:
                    again = {}
                    for y, c in img.items():
                        for z, c2 in below[y].items():
                            nv = again.get(z, 0) + c * c2
                            if nv:
                                again[z] = nv
                            else:
                                del again[z]
                    assert not again, f"differential does not square to zero at p={p}"
                if img:
                    span.add(img)
            ranks[p] = span.rank
            below = images
        hdims = []
        for p in range(P + 1):
            h = dims[p] - ranks[p] - ranks[p + 1]
            assert h >= 0
            hdims.append(h)
        return dims[: P + 1], ranks[: P + 2], hdims


# ---------------------------------------------------------------------------
# Character assembly.


@dataclass
class TorTable:
    """Tor of A/I at a fixed rank: ``entries`` maps each nonzero cell
    (p, q) to its character, a dict label -> multiplicity, and ``label``
    names the ideal (``"(custom)"`` for an unnamed one)."""

    rank: int
    entries: dict
    label: str

    def records(self):
        """Flat (p, q, label, multiplicity, rank) rows, canonically sorted."""
        out = []
        for (p, q) in sorted(self.entries):
            for lam, mult in sorted(self.entries[(p, q)].items()):
                out.append((p, q, lam, mult, self.rank))
        return out


def _dominant_weights(system, q):
    """Weights of degree q sorted in every block: a partition of
    ``unit * q`` per block, padded to the rank."""
    n = system.rank
    parts = [tuple(lam) + (0,) * (n - len(lam))
             for lam in partitions_of(system.unit * q, max_rows=n)]
    return [system.join(blocks)
            for blocks in product(parts, repeat=len(system.sides()))]


def tor_table(source, p_max, q_max, *, sample_check_seed=None):
    """Tor character tables of A/I for p <= p_max, q <= q_max.

    ``source`` is a DeterminantalIdealSpec or an EquivariantIdeal.  Each
    homology dimension is computed at dominant weights only; the character
    is completed by symmetry and split into irreducible labels.  With
    ``sample_check_seed`` set, a few non-dominant weights per degree are
    recomputed directly and compared — a mismatch means the character was
    not actually symmetric, which is reported as the dedicated error.
    """
    ideal = (determinantal_ideal(source)
             if isinstance(source, DeterminantalIdealSpec) else source)
    system = ideal.system
    complex_ = KoszulComplex(ideal, p_max)
    rng = Random(sample_check_seed) if sample_check_seed is not None else None
    per_pq = {}
    for q in range(q_max + 1):
        dominant = {}
        for w in _dominant_weights(system, q):
            hdims = complex_.strand(q, w)[2]
            for p, h in enumerate(hdims):
                if h:
                    dominant.setdefault(p, {})[w] = h
        if rng is not None:
            _sample_symmetry_check(complex_, q, dominant, rng)
        for p, dom in dominant.items():
            counts = symmetrize_counts(dom, system.rank)
            per_pq[(p, q)] = decompose_into_schur(counts, system.rank)
    return TorTable(system.rank, per_pq, ideal.label or "(custom)")


def _sample_symmetry_check(complex_, q, dominant, rng):
    system = complex_.system
    weights = sorted({w for dom in dominant.values() for w in dom})
    for w in weights[:2]:
        blocks = []
        for block in system.blocks(w):
            labels = list(block)
            rng.shuffle(labels)
            blocks.append(tuple(labels))
        probe = system.join(blocks)
        if probe == w:
            continue
        got = complex_.strand(q, probe)[2]
        want = [dominant.get(p, {}).get(w, 0) for p in range(complex_.p_max + 1)]
        if got != want:
            raise NonSymmetricCharacterError(
                f"homology dims at weight {probe} differ from dominant {w}: "
                f"{got} vs {want}")


# ---------------------------------------------------------------------------
# Stabilization across ranks.


@dataclass
class StabilizationReport:
    tables: dict
    first_stable: dict      # (p, q) -> first n holding its longest label, or None

    @property
    def never_stabilized(self):
        return sorted(pq for pq, n in self.first_stable.items() if n is None)


def determinantal_family(flavor, rank_bound):
    """The family n -> forms of rank at most ``rank_bound`` (clamped to n)."""
    return lambda n: DeterminantalIdealSpec(flavor, n, min(rank_bound, n))


def stabilization_report(family, p_max, q_max, n_range):
    """Tor tables at each rank of ``n_range``, computed at the top rank only.

    ``family`` maps a rank n to what :func:`tor_table` accepts, and must be
    one ideal of the twisted commutative algebra evaluated at C^n.  Then
    Tor_{p,q} is a polynomial functor evaluated at C^n (Sam-Snowden), so a
    label λ has one multiplicity at every n >= ℓ(λ) and none below, where ℓ
    of a (rows, cols) pair is its longer side.  Rank n keeps the top table's
    labels of at most n rows, and takes only its ``label`` from
    ``family(n)``: the name of the ideal at that rank.
    Raises ParseError unless ``n_range`` is non-empty and strictly
    increasing: a repeated rank would confirm its own stability.
    """
    n_range = tuple(n_range)
    if not n_range or any(a >= b for a, b in zip(n_range, n_range[1:])):
        raise ParseError(f"ranks {n_range} must be non-empty and strictly increasing")
    *lower, top_n = n_range
    top = tor_table(family(top_n), p_max, q_max)
    rows = {lam: max(map(len, _key_blocks(lam)))
            for char in top.entries.values() for lam in char}
    tables = {}
    for n in lower:
        cut = ((pq, {lam: m for lam, m in char.items() if rows[lam] <= n})
               for pq, char in top.entries.items())
        tables[n] = TorTable(n, {pq: c for pq, c in cut if c},
                             family(n).label or "(custom)")
    tables[top_n] = top
    # the top rank of a longer range has no rank above it to confirm a cell
    first_stable = {}
    for pq in sorted(top.entries):
        longest = max(map(rows.get, top.entries[pq]))
        first_stable[pq] = next((n for n in lower or [top_n] if n >= longest), None)
    return StabilizationReport(tables=tables, first_stable=first_stable)

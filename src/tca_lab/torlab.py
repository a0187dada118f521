"""Koszul-complex homology with full weight grading.

For an equivariant ideal I in one of the variable systems, the complex

    ... -> Wedge^p(W) (x) (A/I)_{q-p} -> Wedge^{p-1}(W) (x) (A/I)_{q-p+1} -> ...

(W = the span of the variables) computes Tor_p(A/I, scalars) in internal
degree q.  Differentials preserve weight, so every (weight, q) strand is a
small exact elimination problem, solved fraction-free by
:class:`tca_lab.algebra.Span`; homology dimensions are computed at dominant
weights only and the full character is recovered by symmetry, then split
into irreducible labels.

Each KoszulComplex keeps its own caches, built lazily and dropped with it:
the quotient bases per (degree, weight), the p-subsets of variables grouped
by weight (so a chain basis splits the weight once per group instead of
testing every subset), and the normal form of every monomial reduced so
far, as ``Span.reduce`` returns it: ``int`` wherever it is integral, so the
differential mostly multiplies ``int``.  The ideal memoises its monomial
enumerations the same way.  Nothing is cached at module level.

Conventions baked into reports: internal degree q is the total degree
(the exterior factor counts 1 per variable); alternating-form rank bounds
are even, so rank <= r is cut out by Pfaffians of size r+2 for even r and
r+1 for odd r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from random import Random

from .algebra import (
    EquivariantIdeal,
    Span,
    VariableSystem,
    monomials_of_weight,
    weight_subtract,
)
from .errors import NonSymmetricCharacterError, ParseError
from .partitions import (
    decompose_into_schur,
    decompose_pair_into_schur,
    partitions_of,
    symmetrize_counts,
    symmetrize_pair_counts,
)

MATRIX_FLAVORS = ("symmetric", "antisymmetric", "generic")


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
        if self.flavor == "antisymmetric":
            return self.pfaffian_size > self.rank
        return self.rank_bound >= self.rank

    @property
    def minor_size(self):
        return self.rank_bound + 1

    @property
    def pfaffian_size(self):
        # alternating forms have even rank; for odd r the conditions
        # "rank <= r" and "rank <= r-1" coincide
        r = self.rank_bound
        return r + 2 if r % 2 == 0 else r + 1

    def describe(self):
        if self.flavor == "antisymmetric":
            cut = f"pfaffians of size {self.pfaffian_size}"
        else:
            cut = f"minors of size {self.minor_size}"
        tag = " (zero ideal)" if self.is_trivial else ""
        return f"{self.flavor} rank<= {self.rank_bound} via {cut}{tag}"


def determinantal_ideal(spec):
    """The equivariant ideal cutting out forms of bounded rank.

    It is a single isotypic ideal (de Concini-Eisenbud-Procesi): the block
    of one column of ``minor_size`` boxes, spanned by the minors of that
    size, or for alternating forms the block of one row of
    ``pfaffian_size // 2`` boxes, spanned by the Pfaffians.  Trivial specs
    are exactly those whose block vanishes at this rank: the zero ideal.
    """
    system = VariableSystem(spec.flavor, spec.rank)
    if spec.flavor == "antisymmetric":
        lam = (spec.pfaffian_size // 2,)
    else:
        lam = (1,) * spec.minor_size
    return EquivariantIdeal.isotypic(system, lam, label=spec.describe())


# ---------------------------------------------------------------------------
# The complex.


class KoszulComplex:
    """Weight-strand Koszul homology of A/I against the scalars.

    Each call to :meth:`strand` works in the fixed-(weight, q) slice and
    returns chain dimensions, differential ranks and homology dimensions
    for p = 0..p_max; the square of the differential is asserted to vanish
    on every basis vector, and a rank-nullity bookkeeping identity ties
    chain and homology Euler sums together (with the boundary correction
    for the truncation at p_max + 1).
    """

    def __init__(self, system, ideal, p_max, q_max):
        self.system = system
        self.ideal = ideal
        self.p_max = p_max
        self.q_max = q_max
        self.variables = system.variables()
        self._quotient_cache = {}
        self._wedge_cache = {}       # p -> {weight: p-subsets of that weight}
        self._normal_forms = {}      # monomial -> normal form modulo I

    # -- quotient bases -----------------------------------------------------

    def quotient_basis(self, d, w):
        """Standard monomials of (A/I)_{d,w}: non-pivot monomials."""
        key = (d, w)
        cached = self._quotient_cache.get(key)
        if cached is None:
            span = self.ideal.component_span(d, w)
            pivots = set(span.pivots())
            monos = [m for m in monomials_of_weight(self.system, d, w)
                     if m not in pivots]
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
        for tw, subsets in self._wedge_groups(p).items():
            rem = weight_subtract(self.system, w, tw)
            if rem is None:
                continue
            monos, _ = self.quotient_basis(q - p, rem)
            out.extend((T, m) for T in subsets for m in monos)
        return out

    def _wedge_groups(self, p):
        """The p-subsets of variables, grouped by weight (built once per p)."""
        groups = self._wedge_cache.get(p)
        if groups is None:
            groups = {}
            for T in combinations(self.variables, p):
                groups.setdefault(self.system.weight(T), []).append(T)
            self._wedge_cache[p] = groups
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
        images = [[] for _ in range(P + 2)]
        for p in range(1, P + 2):
            span = Span()
            for x in bases[p]:
                img = self.apply_diff({x: 1})
                if p >= 2:
                    again = self.apply_diff(img)
                    assert not again, f"differential does not square to zero at p={p}"
                if img:
                    span.add(img)
            ranks[p] = span.rank
        hdims = []
        for p in range(P + 1):
            h = dims[p] - ranks[p] - ranks[p + 1]
            assert h >= 0
            hdims.append(h)
        # Euler bookkeeping over the truncated range, boundary-corrected.
        chain_sum = sum((-1) ** p * dims[p] for p in range(P + 1))
        hom_sum = sum((-1) ** p * hdims[p] for p in range(P + 1))
        assert hom_sum == chain_sum - (-1) ** P * ranks[P + 1], "euler bookkeeping"
        return dims[: P + 1], ranks[: P + 2], hdims

    def homology_dims(self, q, w):
        return self.strand(q, w)[2]


# ---------------------------------------------------------------------------
# Character assembly.


@dataclass
class TorTable:
    """(p, q) -> character decomposition, at a fixed rank."""

    rank: int
    entries: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def entry(self, p, q):
        return self.entries.get((p, q))

    def cells(self):
        return sorted(self.entries)

    def records(self):
        """Flat (p, q, label, multiplicity, rank) rows, canonically sorted."""
        out = []
        for (p, q) in self.cells():
            for lam, mult in self.entries[(p, q)].sorted_items():
                out.append((p, q, lam, mult, self.rank))
        return out

    def as_dict(self):
        return {
            (p, q): dict(tab.entries)
            for (p, q), tab in self.entries.items()
        }


def _dominant_weights(system, q):
    n = system.rank
    if system.flavor == "generic":
        parts = [tuple(lam) + (0,) * (n - len(lam))
                 for lam in partitions_of(q, max_rows=n)]
        return [(r, c) for r in parts for c in parts]
    return [tuple(lam) + (0,) * (n - len(lam))
            for lam in partitions_of(2 * q, max_rows=n)]


def tor_table(source, p_max, q_max, *, sample_check_seed=None):
    """Tor character tables of A/I for p <= p_max, q <= q_max.

    ``source`` is a DeterminantalIdealSpec or an EquivariantIdeal.  Each
    homology dimension is computed at dominant weights only; the character
    is completed by symmetry and split into irreducible labels.  With
    ``sample_check_seed`` set, a few non-dominant weights per degree are
    recomputed directly and compared — a mismatch means the character was
    not actually symmetric, which is reported as the dedicated error.
    """
    meta = {"p_max": p_max, "q_max": q_max}
    if isinstance(source, DeterminantalIdealSpec):
        ideal = determinantal_ideal(source)
        meta["ideal"] = source.describe()
        meta["trivial"] = source.is_trivial
    else:
        ideal = source
        meta["ideal"] = ideal.label or "(custom)"
    system = ideal.system
    complex_ = KoszulComplex(system, ideal, p_max, q_max)
    rng = Random(sample_check_seed) if sample_check_seed is not None else None
    per_pq = {}
    for q in range(q_max + 1):
        dominant = {}
        for w in _dominant_weights(system, q):
            hdims = complex_.homology_dims(q, w)
            for p, h in enumerate(hdims):
                if h:
                    dominant.setdefault(p, {})[w] = h
        if rng is not None:
            _sample_symmetry_check(complex_, q, dominant, rng)
        for p, dom in dominant.items():
            if system.flavor == "generic":
                counts = symmetrize_pair_counts(dom, system.rank)
                table = decompose_pair_into_schur(counts, system.rank)
            else:
                counts = symmetrize_counts(dom, system.rank)
                table = decompose_into_schur(counts, system.rank)
            per_pq[(p, q)] = table
    return TorTable(rank=system.rank, entries=per_pq, meta=meta)


def _sample_symmetry_check(complex_, q, dominant, rng):
    system = complex_.system
    n = system.rank
    weights = sorted({w for dom in dominant.values() for w in dom})
    for w in weights[:2]:
        if system.flavor == "generic":
            r = list(w[0])
            c = list(w[1])
            rng.shuffle(r)
            rng.shuffle(c)
            probe = (tuple(r), tuple(c))
        else:
            r = list(w)
            rng.shuffle(r)
            probe = tuple(r)
        if probe == w:
            continue
        got = complex_.homology_dims(q, probe)
        want = [dominant.get(p, {}).get(w, 0) for p in range(complex_.p_max + 1)]
        if got != want:
            raise NonSymmetricCharacterError(
                f"homology dims at weight {probe} differ from dominant {w}: "
                f"{got} vs {want}")


# ---------------------------------------------------------------------------
# Stabilization across ranks.


@dataclass
class StabilizationReport:
    flavor: str
    rank_bound: int
    p_max: int
    q_max: int
    n_range: tuple
    tables: dict
    first_stable: dict      # (p, q) -> first n from which entries agree, or None
    convention: str = ("labels compared literally; labels needing more rows "
                       "than the rank are absent by construction")

    @property
    def stable_pairs(self):
        return {pq for pq, n in self.first_stable.items() if n is not None}

    @property
    def never_stabilized(self):
        return sorted(pq for pq, n in self.first_stable.items() if n is None)


def stabilization_report(flavor, rank_bound, p_max, q_max, n_range):
    """Compare Tor tables across ranks and locate stabilization points.

    Raises ParseError unless ``n_range`` is strictly increasing: a repeated
    rank would confirm its own stability, a descending one read it backwards.
    """
    n_range = tuple(n_range)
    if any(a >= b for a, b in zip(n_range, n_range[1:])):
        raise ParseError(f"ranks {n_range} must be strictly increasing")
    tables = {}
    for n in n_range:
        spec = DeterminantalIdealSpec(flavor, n, min(rank_bound, n))
        tables[n] = tor_table(spec, p_max, q_max)
    entries = {n: t.as_dict() for n, t in tables.items()}
    cells = set()
    for e in entries.values():
        cells.update(e)
    first_stable = {}
    for pq in sorted(cells):
        first = None
        for i, n in enumerate(n_range):
            here = entries[n].get(pq, {})
            if all(entries[m].get(pq, {}) == here for m in n_range[i:]):
                first = n
                break
        # a cell that only the last rank can see never gets confirmation
        if first == n_range[-1] and len(n_range) > 1:
            prev = entries[n_range[-2]].get(pq, {})
            if prev != entries[n_range[-1]].get(pq, {}):
                first = None
        first_stable[pq] = first
    return StabilizationReport(
        flavor=flavor, rank_bound=rank_bound, p_max=p_max, q_max=q_max,
        n_range=n_range, tables=tables, first_stable=first_stable)


@dataclass
class FtReport:
    p_max: int
    q_max: int
    n_range: tuple
    labels_per_p: dict      # p -> {n -> sorted label tuple}
    bounded: dict           # p -> bool

    @property
    def all_bounded(self):
        return all(self.bounded.values())


def ft_check(ideal_factory, p_max, q_max, n_range):
    """Finite-rank shadow of the finite-length property.

    ``ideal_factory`` maps a rank to the ideal at that rank (ideals at
    different ranks are different objects, so a factory rather than a
    single ideal).  For each p the label set of Tor_p is collected per
    rank; "bounded" means the sets agree across the whole range.
    """
    n_range = tuple(n_range)
    labels_per_p = {p: {} for p in range(p_max + 1)}
    for n in n_range:
        ideal = ideal_factory(n)
        table = tor_table(ideal, p_max, q_max)
        for p in range(p_max + 1):
            labs = set()
            for (pp, q), tab in table.entries.items():
                if pp == p:
                    labs.update(tab.entries)
            labels_per_p[p][n] = tuple(sorted(labs))
    bounded = {}
    for p, per_n in labels_per_p.items():
        vals = list(per_n.values())
        bounded[p] = all(v == vals[0] for v in vals)
    return FtReport(p_max=p_max, q_max=q_max, n_range=n_range,
                    labels_per_p=labels_per_p, bounded=bounded)

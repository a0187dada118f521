"""Partition combinatorics and exact symmetric-polynomial arithmetic.

Partitions are plain tuples of weakly decreasing positive integers; ``()`` is
the empty partition.  A symmetric polynomial in ``n`` variables is a dict
mapping length-``n`` exponent tuples to nonzero exact coefficients (int or
Fraction).  Characters of doubly-symmetric objects (one group acting on rows,
one on columns) use pairs ``(row_exponents, col_exponents)`` as keys.  Either
key is a tuple of label blocks (one exponent tuple, or a row and a column
tuple), each permuted by its own symmetric group, and every routine here
reads it through :func:`_key_blocks`: pair keys share the one symmetry
check, the one symmetrization and the one Schur expansion, whose basis is
then the products s_lam(x) * s_mu(y).

Expansion into the Schur basis repeatedly subtracts the Schur polynomial of
the lexicographically leading exponent of top degree; Schur polynomials are
unitriangular against monomials (Kostka matrix), so the loop terminates.

Nothing here knows a flavor: the degree pieces of the algebras and their
closed formulas live in :mod:`tca_lab.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import prod

from .errors import NegativeMultiplicityError, NonSymmetricInputError


def partition(parts) -> tuple:
    """Canonicalize an iterable of row lengths: drop zeros, check shape."""
    p = tuple(int(x) for x in parts)
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts!r}")
    p = tuple(x for x in p if x)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
    return p


def contains(lam, mu) -> bool:
    """True iff the diagram of ``lam`` fits inside the diagram of ``mu``."""
    if len(lam) > len(mu):
        return False
    return all(lam[i] <= mu[i] for i in range(len(lam)))


def transpose(lam) -> tuple:
    """Conjugate partition (reflect the diagram across the diagonal)."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > r) for r in range(lam[0]))


def partitions_of(size, max_rows=None, max_part=None):
    """Yield all partitions of ``size`` (descending-lex order)."""
    if max_part is None:
        max_part = size
    if max_rows is None:
        max_rows = size

    def gen(remaining, cap, rows_left):
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first, rows_left - 1):
                yield (first,) + rest

    yield from gen(size, max_part, max_rows)


def partitions_upto(size):
    """All partitions of every size ``0..size``, small sizes first."""
    out = []
    for d in range(size + 1):
        out.extend(partitions_of(d))
    return out


def hook_content_dim(lam, n) -> int:
    """Dimension of the rank-``n`` irreducible with highest weight ``lam``,
    by the hook content formula.  Independent of tableau enumeration."""
    lam = partition(lam)
    if len(lam) > n:
        return 0
    num = Fraction(1)
    tr = transpose(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (tr[j] - i) - 1
            num *= Fraction(n + j - i, hook)
    assert num.denominator == 1
    return int(num)


# ---------------------------------------------------------------------------
# Schur polynomials by semistandard tableau enumeration.


@lru_cache(maxsize=None)
def _schur_cached(lam, n):
    if len(lam) > n:
        return {}
    if not lam:
        return {(0,) * n: 1}
    rows = len(lam)
    cells = []
    for r in range(rows):
        for c in range(lam[r]):
            cells.append((r, c))
    grid = [[0] * lam[r] for r in range(rows)]
    weight = [0] * n
    out = {}

    def fill(k):
        if k == len(cells):
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = grid[r][c - 1]  # weakly increasing along the row
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)  # strictly increasing down columns
        for v in range(lo, n + 1):
            grid[r][c] = v
            weight[v - 1] += 1
            fill(k + 1)
            weight[v - 1] -= 1
        grid[r][c] = 0

    fill(0)
    return out


@lru_cache(maxsize=None)
def _schur_of_blocks(parts, n):
    """s_lam, or s_lam(x) * s_mu(y) for two blocks, keyed like the
    characters it expands; shared, never mutated."""
    if len(parts) == 1:
        return _schur_cached(parts[0], n)
    out = {}
    for terms in product(*(_schur_cached(part, n).items() for part in parts)):
        out[_from_blocks([e for e, _ in terms])] = prod(c for _, c in terms)
    return out


# ---------------------------------------------------------------------------
# Generic symmetric-dict helpers.


def poly_add(acc, poly, scale=1):
    """acc += scale * poly, dropping zero entries.  Mutates and returns acc."""
    for k, v in poly.items():
        c = acc.get(k, 0) + scale * v
        if c:
            acc[k] = c
        else:
            acc.pop(k, None)
    return acc


def _key_blocks(key):
    """The label blocks of a character key: an exponent tuple (or a
    partition) is one block, a ``(rows, cols)`` pair is two."""
    return key if key and isinstance(key[0], tuple) else (key,)


def _from_blocks(blocks):
    """The character key with these label blocks; inverse of _key_blocks."""
    return tuple(blocks) if len(blocks) > 1 else blocks[0]


def symmetrize_counts(dominant, n):
    """Expand {sorted weight: value} to a full symmetric exponent dict,
    permuting every label block of the keys on its own."""
    out = {}
    for w, v in dominant.items():
        orbits = [set(permutations(tuple(b) + (0,) * (n - len(b))))
                  for b in _key_blocks(w)]
        for blocks in product(*orbits):
            out[_from_blocks(blocks)] = v
    return out


def _swap_slots(exp, i):
    e = list(exp)
    e[i], e[i + 1] = e[i + 1], e[i]
    return tuple(e)


def _check_symmetric(p, n):
    """Exact symmetry check: invariance under every adjacent transposition
    of every label block.

    Adjacent transpositions generate the full symmetric group, so this is a
    complete test, not a sampling heuristic.  Keys are checked flat, the
    blocks of length ``n`` one after another.
    """
    flat = {sum(_key_blocks(key), ()): coeff for key, coeff in p.items()}
    width = max(map(len, flat), default=0)

    def shaped(key):
        return _from_blocks([key[s:s + n] for s in range(0, width, n)])

    for t in [s + i for s in range(0, width, n) for i in range(n - 1)]:
        for key, coeff in flat.items():
            other = _swap_slots(key, t)
            if flat.get(other, 0) != coeff:
                raise NonSymmetricInputError(
                    f"coefficient mismatch between {shaped(key)} and {shaped(other)}"
                )


# ---------------------------------------------------------------------------
# Character tables and Schur-basis expansion.


@dataclass
class CharacterTable:
    """Multiset of irreducibles: partition (or partition pair) -> multiplicity."""

    entries: dict
    rank: int

    def is_multiplicity_free(self) -> bool:
        return all(v == 1 for v in self.entries.values())

    def sorted_items(self):
        return sorted(self.entries.items())

    def total_dim(self) -> int:
        total = 0
        for key, mult in self.entries.items():
            d = 1
            for lam in _key_blocks(key):
                d *= hook_content_dim(lam, self.rank)
            total += mult * d
        return total


def _as_exact(c):
    return c if isinstance(c, int) else Fraction(c)


def _as_plain(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def decompose_into_schur(p, n) -> CharacterTable:
    """Expand a symmetric polynomial in the Schur basis.

    Keys are exponent tuples, or (row exponent, col exponent) pairs
    expanded in the products s_lam(x) * s_mu(y).  Raises ValueError
    unless every key has the same number of blocks, each of length ``n``
    (the subtracted Schur polynomials have that shape, so any other key
    would never cancel) and every exponent is >= 0 (a negative one would
    be read as part of a label the input never had), NonSymmetricInputError
    for non-symmetric input and NegativeMultiplicityError when a negative
    coefficient appears: the input must be a genuine character, not a
    virtual one.
    """
    work = {k: _as_exact(v) for k, v in p.items() if v}
    shape = None
    for key in work:
        lengths = tuple(map(len, _key_blocks(key)))
        shape = shape or (n,) * len(lengths)
        if lengths != shape:
            raise ValueError(f"character key {key} does not have the "
                             f"block lengths {shape}")
        if any(x < 0 for block in _key_blocks(key) for x in block):
            raise ValueError(f"character key {key} has a negative exponent")
    _check_symmetric(work, n)
    # Schur polynomials are homogeneous: each degree expands on its own,
    # top degree first, and its leading exponent is the largest key
    by_degree = {}
    for k, v in work.items():
        by_degree.setdefault(sum(map(sum, _key_blocks(k))), {})[k] = v
    entries = {}
    for _, work in sorted(by_degree.items(), reverse=True):
        while work:
            lead = max(work)
            parts = tuple(tuple(x for x in b if x) for b in _key_blocks(lead))
            for part in parts:
                if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                    raise NonSymmetricInputError(
                        f"leading exponent {lead} is not dominant")
            label = _from_blocks(parts)
            coeff = work[lead]
            if coeff < 0:
                raise NegativeMultiplicityError(f"multiplicity {coeff} at {label}")
            entries[label] = _as_plain(coeff)
            poly_add(work, _schur_of_blocks(parts, n), -coeff)
    return CharacterTable(entries, n)


def decompose_pair_into_schur(p, n) -> CharacterTable:
    """:func:`decompose_into_schur` of a character with (row exponent, col
    exponent) keys, named for the callers that only have pairs."""
    return decompose_into_schur(p, n)


def fmt_partition(lam) -> str:
    return "*".join("(" + ",".join(str(x) for x in block) + ")"
                    for block in _key_blocks(lam))

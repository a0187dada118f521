"""Reference implementations that tests compare the package against.

No command runs these: each computes by brute force, or by an independent
rule, what the package computes another way.
"""

from functools import lru_cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

from tca_lab.algebra import (Span, _initial_data, highest_weight_vector,
                             indicator_weight, lie_act, monomials_of_weight,
                             weight_split)
from tca_lab.errors import ParseError, TcaLabError
from tca_lab.matchings import matching_key
from tca_lab.partitions import _schur_cached, contains, partition
from tca_lab.torlab import StabilizationReport, tor_table


class ZeroVectorError(TcaLabError):
    """The zero vector has no leading term."""


# ---------------------------------------------------------------------------
# The variable layout written out flavor by flavor.


def branchy_variables(system):
    """Stored variables, in the order of ``VariableSystem.variables()``."""
    n = system.rank
    if system.flavor == "degree_one":
        return [(c, i) for c in (0, 1) for i in range(1, n + 1)]
    if system.flavor == "symmetric":
        return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    if system.flavor == "antisymmetric":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def branchy_weight(system, mono):
    """Weight of a monomial: a tuple, or a (row, col) pair of tuples."""
    n = system.rank
    if system.flavor == "generic":
        row = [0] * n
        col = [0] * n
        for i, j in mono:
            row[i - 1] += 1
            col[j - 1] += 1
        return (tuple(row), tuple(col))
    w = [0] * n
    if system.flavor == "degree_one":
        for _, i in mono:
            w[i - 1] += 1
    else:
        for i, j in mono:
            w[i - 1] += 1
            w[j - 1] += 1
    return tuple(w)


def branchy_lie_act(system, a, b, p, side=None):
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


# ---------------------------------------------------------------------------
# Monomials, highest weight vectors and whole ideal degrees.


def monomials_of_degree(system, d):
    return list(combinations_with_replacement(system.variables(), d))


def hw_weight(system, lam):
    """Weight of the isotypic block's highest vector."""
    hwv = highest_weight_vector(system, lam)
    mono = next(iter(hwv))
    return system.weight(mono)


def initial_matching(coords):
    """Largest matching carrying a nonzero coefficient."""
    support = [g for g, c in coords.items() if c]
    if not support:
        raise ZeroVectorError("zero vector has no initial matching")
    return max(support, key=matching_key)


def ideal_component(ideal, d):
    """Full degree-d slice of an ideal, one weight at a time."""
    groups = {}
    for mono in monomials_of_degree(ideal.system, d):
        groups.setdefault(ideal.system.weight(mono), None)
    out = []
    for w in groups:
        out.extend(ideal.component_span(d, w).vectors())
    return out


def ideal_contains(ideal, p):
    """Exact membership test of a polynomial in an ideal."""
    for (w, piece) in weight_split(ideal.system, p).items():
        d = len(next(iter(piece)))
        if not ideal.component_span(d, w).contains(piece):
            return False
    return True


def raising_kernel(system, d, w):
    """Basis of the degree-d weight-w vectors killed by every raising
    operator act(a, a+1) (both sides for the generic system)."""
    monos = monomials_of_weight(system, d, w)
    if not monos:
        return []
    ops = []
    for side in system.sides():
        for a in range(1, system.rank):
            ops.append((a, a + 1, side))
    images = []
    for m in monos:
        per_op = []
        for a, b, side in ops:
            per_op.append(lie_act(system, a, b, {m: Fraction(1)}, side))
        images.append(per_op)
    targets = {}
    for per_op in images:
        for k, img in enumerate(per_op):
            for t in img:
                targets.setdefault((k, t), len(targets))
    # one row per (op, target monomial): a constraint on the coefficients
    mat = [[Fraction(0)] * len(monos) for _ in range(len(targets))]
    for j, per_op in enumerate(images):
        for k, img in enumerate(per_op):
            for t, c in img.items():
                mat[targets[(k, t)]][j] += c
    basis = _nullspace(mat, len(monos))
    return [
        {m: c for m, c in zip(monos, vec) if c}
        for vec in basis
    ]


def _nullspace(mat, ncols):
    rows = [row[:] for row in mat]
    pivot_of_col = {}
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    free = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for c, pr in pivot_of_col.items():
            vec[c] = -rows[pr][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Initial sets one support at a time.


def admissible_component(ideal, support):
    """Squarefree slice of an equivariant ideal at the indicator weight of
    ``support``, in matching (or colored-set) coordinates; computed
    weight-first so only the one needed weight space is ever assembled."""
    element = _initial_data(ideal.system.flavor)[0]
    unit = ideal.system.unit
    support = tuple(sorted(set(support)))
    if len(support) % unit:
        return []
    w = indicator_weight(ideal.system.rank, support)
    span = ideal.component_span(len(support) // unit, w)
    return [{element(m): c for m, c in v.items()} for v in span.vectors()]


def initial_set_by_support(ideal, degree_bound, support_bound):
    """All initial matchings (or colored sets) of admissible vectors within
    the bounds, from one echelon pass per support rather than per support
    size: the pivot set of a weight slice is exactly the set of leading
    terms of its nonzero vectors."""
    key = _initial_data(ideal.system.flavor)[1]
    unit = ideal.system.unit
    out = set()
    for size in range(unit, min(unit * degree_bound, support_bound) + 1, unit):
        for support in combinations(range(1, support_bound + 1), size):
            span = Span(key=key)
            for v in admissible_component(ideal, support):
                span.add(v)
            out.update(span.rows)
    return tuple(sorted(out, key=key))


# ---------------------------------------------------------------------------
# Tor labels across ranks.


def stabilization_by_rank(family, p_max, q_max, n_range):
    """The stabilization report computed rank by rank: a full Tor table at
    every rank of ``n_range``, compared cell by cell."""
    n_range = tuple(n_range)
    if any(a >= b for a, b in zip(n_range, n_range[1:])):
        raise ParseError(f"ranks {n_range} must be strictly increasing")
    tables = {n: tor_table(family(n), p_max, q_max) for n in n_range}
    entries = {n: t.entries for n, t in tables.items()}
    cells = set()
    for e in entries.values():
        cells.update(e)
    # the top rank of a longer range has no rank above it to confirm a cell
    candidates = n_range[:-1] if len(n_range) > 1 else n_range
    first_stable = {}
    for pq in sorted(cells):
        first_stable[pq] = None
        for i, n in enumerate(candidates):
            here = entries[n].get(pq, {})
            if all(entries[m].get(pq, {}) == here for m in n_range[i:]):
                first_stable[pq] = n
                break
    return StabilizationReport(tables=tables, first_stable=first_stable)


def labels_per_p(tables, p_max):
    """p -> {n -> sorted labels of Tor_p at rank n}, for p = 0..p_max, from
    the tables of a stabilization report."""
    out = {p: {} for p in range(p_max + 1)}
    for n, table in tables.items():
        cells = table.entries
        for p, per_n in out.items():
            per_n[n] = tuple(sorted({lam for (pp, _), tab in cells.items()
                                     if pp == p for lam in tab}))
    return out


def all_bounded(tables, p_max):
    """Finite-rank shadow of finite length: every Tor_p keeps one label set
    across the ranks of ``tables``."""
    return all(len(set(per_n.values())) <= 1
               for per_n in labels_per_p(tables, p_max).values())


# ---------------------------------------------------------------------------
# Schur polynomials and Littlewood-Richardson coefficients.


def schur_character(lam, n) -> dict:
    """Schur polynomial s_lam in n variables as an exponent->coefficient dict."""
    return dict(_schur_cached(partition(lam), n))


def schur_dim(lam, n) -> int:
    """Tableau-count dimension; cross-checkable against hook_content_dim."""
    return sum(_schur_cached(partition(lam), n).values())


def character_dim(char, n) -> int:
    """Dimension of a character {label: multiplicity} at rank n, by tableau
    counts; a (rows, cols) label is the tensor product of its two blocks."""
    total = 0
    for label, mult in char.items():
        blocks = label if label and isinstance(label[0], tuple) else (label,)
        total += mult * prod(schur_dim(lam, n) for lam in blocks)
    return total


def poly_product(p, q):
    """Product of two exponent-dict polynomials over the same variable set."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                del out[key]
    return out


@lru_cache(maxsize=None)
def lr_coefficient(lam, mu, nu) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    Cells are filled in reading order (rows top to bottom, right to left
    within a row); the running content prefix must stay a lattice word,
    rows weakly increase left to right, columns strictly increase.
    """
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if sum(lam) + sum(mu) != sum(nu) or not contains(lam, nu):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    rows = len(nu)
    inner = tuple(lam[i] if i < len(lam) else 0 for i in range(rows))
    cells = []
    for r in range(rows):
        for c in range(nu[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))

    grid = [[0] * nu[r] for r in range(rows)]
    counts = [0] * (len(mu) + 2)

    def fill(k):
        if k == len(cells):
            return 1
        r, c = cells[k]
        hi = len(mu)
        if c + 1 < nu[r] and grid[r][c + 1]:
            hi = min(hi, grid[r][c + 1])
        lo = 1
        if r > 0 and inner[r - 1] <= c < nu[r - 1]:
            # the cell directly above belongs to the filling and is set already
            lo = max(lo, grid[r - 1][c] + 1)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue  # placing v would break the lattice condition
            counts[v] += 1
            grid[r][c] = v
            total += fill(k + 1)
            grid[r][c] = 0
            counts[v] -= 1
        return total

    return fill(0)

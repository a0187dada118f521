"""Reference implementations that tests compare the package against.

No command runs these: each computes by brute force, or by an independent
rule, what the package computes another way.
"""

from functools import lru_cache
from fractions import Fraction
from itertools import combinations_with_replacement

from tca_lab.algebra import (highest_weight_vector, lie_act, monomials_of_weight,
                             weight_split)
from tca_lab.errors import TcaLabError
from tca_lab.matchings import matching_key
from tca_lab.partitions import _schur_cached, contains, partition


class ZeroVectorError(TcaLabError):
    """The zero vector has no leading term."""


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
# Schur polynomials and Littlewood-Richardson coefficients.


def schur_character(lam, n) -> dict:
    """Schur polynomial s_lam in n variables as an exponent->coefficient dict."""
    return dict(_schur_cached(partition(lam), n))


def schur_dim(lam, n) -> int:
    """Tableau-count dimension; cross-checkable against hook_content_dim."""
    return sum(_schur_cached(partition(lam), n).values())


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

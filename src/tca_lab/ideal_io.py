"""Plain-text input for ideals and matchings.

An ideal file names a matrix flavor and a rank, then lists one generator
polynomial per line::

    # 2x2 symmetric determinant
    flavor: symmetric
    rank: 4
    1 * x[1,1] * x[2,2] - 1 * x[1,2] * x[1,2]

Coefficients are integers or rationals ``p/q``; factors are ``x[i,j]``
joined by ``*``; terms are joined by ``+`` or ``-``.  A bare factor
without a coefficient means coefficient one.  Blank lines and ``#``
comments are ignored.  All syntax trouble is reported as ParseError
with a 1-based line and column.
"""

import re
from fractions import Fraction

from .algebra import FLAVORS, MATRIX_FLAVORS, VariableSystem, poly_add, term
from .errors import ParseError

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)
      | (?P<var>x\[\s*(?P<vi>\d+)\s*,\s*(?P<vj>\d+)\s*\])
      | (?P<op>[-+*])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text, lineno):
    out = []
    for m in _TOKEN.finditer(text):
        col = m.start() + 1
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", lineno, col)
        if m.lastgroup == "number":
            den = int(m.group("den") or 1)
            if not den:
                raise ParseError(f"zero denominator in {m.group()!r}", lineno, col)
            out.append(("number", Fraction(int(m.group("num")), den), col))
        elif m.lastgroup == "op":
            out.append((m.group(), m.group(), col))
        else:
            out.append(("var", (int(m.group("vi")), int(m.group("vj"))), col))
    out.append(("end", None, len(text) + 1))
    return out


class _PolyParser:
    """Recursive descent over one generator line."""

    def __init__(self, system, text, lineno):
        self.system = system
        self.lineno = lineno
        self.tokens = _tokenize(text, lineno)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, col):
        raise ParseError(message, self.lineno, col)

    def parse(self):
        poly = {}
        sign = 1
        kind, _, col = self.peek()
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            self.take()
        poly = poly_add(poly, self.term(), sign)
        while True:
            kind, _, col = self.peek()
            if kind == "end":
                break
            if kind not in ("+", "-"):
                self.fail(f"expected '+' or '-' between terms, got {kind!r}", col)
            self.take()
            poly = poly_add(poly, self.term(), -1 if kind == "-" else 1)
        return poly

    def term(self):
        coeff = Fraction(1)
        pairs = []
        kind, value, col = self.take()
        if kind == "number":
            coeff = value
        elif kind == "var":
            pairs.append(self.check_var(value, col))
        else:
            self.fail("expected a coefficient or a variable", col)
        while self.peek()[0] == "*":
            self.take()
            kind, value, col = self.take()
            if kind != "var":
                self.fail("expected a variable after '*'", col)
            pairs.append(self.check_var(value, col))
        return term(self.system, coeff, pairs)

    def check_var(self, pair, col):
        i, j = pair
        n = self.system.rank
        if not (1 <= i <= n and 1 <= j <= n):
            self.fail(f"index out of range for rank {n}: x[{i},{j}]", col)
        return pair


def parse_ideal_text(text):
    """Parse an ideal description; returns (VariableSystem, [polynomial])."""
    flavor = None
    rank = None
    system = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        key = head.strip().lower()
        if sep and key in ("flavor", "rank"):
            if gens:
                raise ParseError(f"{key} must precede the generators", lineno, 1)
            value = rest.strip()
            if key == "flavor":
                if value not in MATRIX_FLAVORS:
                    kind = "not a matrix" if value in FLAVORS else "unknown"
                    raise ParseError(f"{kind} flavor {value!r}", lineno,
                                     raw.index(value) + 1 if value else 1)
                flavor = value
            else:
                if not value.isdigit() or int(value) < 1:
                    raise ParseError("rank must be a positive integer", lineno, 1)
                rank = int(value)
            continue
        if flavor is None or rank is None:
            raise ParseError("flavor and rank must be declared before generators",
                             lineno, 1)
        system = system or VariableSystem(flavor, rank)
        # Tokenize the raw line up to any comment so columns match the file.
        body = raw.split("#", 1)[0]
        gens.append(_PolyParser(system, body, lineno).parse())
    if flavor is None or rank is None:
        raise ParseError("input never declared flavor and rank", 1, 1)
    return system or VariableSystem(flavor, rank), gens


def load_ideal_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal_text(fh.read())


# ---------------------------------------------------------------------------
# Rendering (inverse of the grammar, used by reports and round-trip tests).


def format_coeff(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p):
    """Render a polynomial in the input grammar, deterministically ordered."""
    if not p:
        return "0"
    parts = []
    for mono in sorted(p):
        c = p[mono]
        body = " * ".join(f"x[{i},{j}]" for i, j in mono)
        mag = format_coeff(abs(c))
        piece = f"{mag} * {body}" if body else mag
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(parts)


_MATCHING_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)|[{},\s]|(.)")


def parse_matching(text):
    """Parse ``{(1,4),(2,3)}`` (braces optional) into an edge tuple."""
    edges = []
    for m in _MATCHING_RE.finditer(text):
        if m.group(3) is not None:
            raise ParseError(f"unexpected character {m.group(3)!r} in matching",
                             1, m.start() + 1)
        if m.group(1) is not None:
            i, j = int(m.group(1)), int(m.group(2))
            if i == j:
                raise ParseError(f"loop ({i},{i}) is not an edge", 1, m.start() + 1)
            if min(i, j) < 1:
                raise ParseError(f"labels start at 1, got ({i},{j})", 1,
                                 m.start() + 1)
            edges.append((min(i, j), max(i, j)))
    seen = set()
    for e in edges:
        for v in e:
            if v in seen:
                raise ParseError(f"vertex {v} used twice", 1, 1)
            seen.add(v)
    from .matchings import matching

    return matching(edges)

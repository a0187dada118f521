"""The fraction-free Span against the monic-Fraction Span it replaced.

``FractionSpan`` is the previous implementation, kept as the oracle: rows
scaled to a pivot coefficient of 1, eliminated in ``Fraction``.  The new
``Span`` must agree with it on pivots, rank, membership and normal forms,
store only primitive integer rows with a positive pivot, and hold each row
as a positive multiple of the oracle's monic row.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from test_torlab import Q_MAX, UNIVERSES, occurring_weights
from tca_lab import algebra
from tca_lab.algebra import (
    Span,
    VariableSystem,
    block_vanishes,
    highest_weight_vector,
    monomials_of_weight,
    rep_closure,
)
from tca_lab.partitions import partitions_upto
from tca_lab.torlab import DeterminantalIdealSpec, determinantal_ideal

from oracles import monomials_of_degree


class FractionSpan:
    """Monic rows in ``Fraction``: the reference implementation."""

    def __init__(self, key=None):
        self._key = key if key is not None else (lambda m: m)
        self.rows = {}

    def reduce(self, vec):
        vec = dict(vec)
        while True:
            hits = [m for m in vec if m in self.rows]
            if not hits:
                return vec
            m = max(hits, key=self._key)
            c = vec[m]
            for k, v in self.rows[m].items():
                nv = vec.get(k, 0) - c * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)

    def add(self, vec):
        r = self.reduce(vec)
        if not r:
            return None
        piv = max(r, key=self._key)
        c = r[piv]
        row = {k: Fraction(v) / c for k, v in r.items()}
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


def assert_integer_rows(span):
    """Every stored row: int entries, content 1, the key's largest
    monomial as pivot, with a positive coefficient."""
    for piv, row in span.rows.items():
        assert all(type(c) is int and c for c in row.values()), row
        assert gcd(*row.values()) == 1, row
        assert row[piv] > 0, row
        assert max(row, key=span._key) == piv


def assert_proportional(row, monic, piv):
    """``row`` is a positive multiple of the oracle's monic row at ``piv``."""
    assert monic[piv] == 1 and row[piv] > 0
    assert {k: Fraction(v, row[piv]) for k, v in row.items()} == monic


def assert_same_normal_form(got, want):
    assert got == want
    assert not any(isinstance(c, Fraction) and c.denominator == 1
                   for c in got.values()), got


def assert_agree(span, oracle, probes):
    assert span.pivots() == oracle.pivots()
    assert span.rank == oracle.rank
    assert_integer_rows(span)
    for piv, row in span.rows.items():
        assert_proportional(row, oracle.rows[piv], piv)
    for vec in probes:
        assert_same_normal_form(span.reduce(vec), oracle.reduce(vec))
        assert span.contains(vec) == oracle.contains(vec)


# -- random rational vectors with mixed denominators ------------------------

coefficients = st.builds(
    Fraction,
    st.integers(-30, 30).filter(bool),
    st.sampled_from((1, 1, 1, 2, 3, 4, 6, 9, 12, 35)))
vectors = st.dictionaries(st.integers(0, 9), coefficients, min_size=1, max_size=7)


@settings(max_examples=150, deadline=None)
@given(st.lists(vectors, max_size=10), st.lists(vectors, max_size=5),
       st.sampled_from((None, lambda m: -m, lambda m: (m % 3, m))))
def test_random_rational_vectors_agree_with_the_oracle(adds, probes, key):
    span, oracle = Span(key), FractionSpan(key)
    for vec in adds:
        got, want = span.add(vec), oracle.add(vec)
        assert (got is None) == (want is None)
        if got is not None:
            assert got is span.rows[max(got, key=span._key)]
    assert_agree(span, oracle, adds + probes)


def test_integer_input_keeps_integer_normal_forms():
    span = Span()
    span.add({2: 3, 1: 6, 0: 9})
    assert span.rows == {2: {2: 1, 1: 2, 0: 3}}
    span.add({1: -4, 0: 2})
    assert span.rows[1] == {1: 2, 0: -1}
    assert span.reduce({2: 1}) == {0: -4}
    assert span.reduce({1: 1}) == {0: Fraction(1, 2)}
    assert type(span.reduce({1: 2})[0]) is int
    assert span.reduce({0: Fraction(1, 3)}) == {0: Fraction(1, 3)}


# -- whole small universes ------------------------------------------------


def closure_universe():
    """Every highest weight vector with 1-3 boxes: symmetric and
    antisymmetric up to rank 5, generic up to rank 3."""
    for flavor, top in (("symmetric", 5), ("antisymmetric", 5), ("generic", 3)):
        for n in range(1, top + 1):
            system = VariableSystem(flavor, n)
            for lam in partitions_upto(3):
                if lam and not block_vanishes(system, lam):
                    yield system, lam


CLOSURES = list(closure_universe())


@pytest.mark.parametrize("system,lam", CLOSURES,
                         ids=[f"{s.flavor}{s.rank}-{lam}" for s, lam in CLOSURES])
def test_rep_closure_agrees_with_the_oracle(monkeypatch, system, lam):
    hwv = highest_weight_vector(system, lam)
    rows = rep_closure(system, [hwv])
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "Span", FractionSpan)
        monic = rep_closure(system, [hwv])
    assert len(rows) == len(monic)
    span, oracle = Span(), FractionSpan()
    for row, want in zip(rows, monic):
        assert_proportional(row, want, max(row))
        span.add(row)
        oracle.add(want)
    probes = [{m: 1} for m in monomials_of_degree(system, sum(lam))]
    assert_agree(span, oracle, probes)


@pytest.mark.parametrize("flavor,top", UNIVERSES)
def test_component_spans_agree_with_the_oracle(monkeypatch, flavor, top):
    """The component spans of the determinantal ideals whose Koszul
    complexes tests/test_torlab.py builds, at every occurring weight."""
    checked = 0
    for n in range(1, top + 1):
        system = VariableSystem(flavor, n)
        keys = [(d, w) for d in range(Q_MAX + 1)
                for w in occurring_weights(system, d)]
        for r in range(n + 1):
            spec = DeterminantalIdealSpec(flavor, n, r)
            ideal = determinantal_ideal(spec)
            spans = [ideal.component_span(d, w) for d, w in keys]
            with monkeypatch.context() as patch:
                patch.setattr(algebra, "Span", FractionSpan)
                oracle_ideal = determinantal_ideal(spec)
                oracles = [oracle_ideal.component_span(d, w) for d, w in keys]
            for (d, w), span, oracle in zip(keys, spans, oracles):
                assert isinstance(span, Span) and isinstance(oracle, FractionSpan)
                probes = [{m: 1} for m in monomials_of_weight(system, d, w)]
                assert_agree(span, oracle, probes)
                checked += span.rank
    assert checked > 0

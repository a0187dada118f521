"""Property tests where the exhaustive tests stop: the enumeration at ranks
past its whole-universe checks, the text parsers on random input, and the
text round trips.  ``conftest.py`` makes every draw reproducible."""

from hypothesis import given, settings, strategies as st

from tca_lab.algebra import (FLAVORS, MATRIX_FLAVORS, VariableSystem,
                             monomials_of_weight, poly_add, term)
from tca_lab.errors import ParseError
from tca_lab.ideal_io import format_poly, parse_ideal_text, parse_matching
from tca_lab.matchings import fmt_matching, matching

from test_algebra import oracle_monomials_of_weight

# Ranks past ENUMERATION_UNIVERSES in test_algebra.py.
LARGE_SYSTEMS = [VariableSystem(flavor, rank) for flavor, rank in (
    ("symmetric", 6), ("symmetric", 7), ("antisymmetric", 7),
    ("antisymmetric", 8), ("generic", 5), ("degree_one", 6),
    ("degree_one", 7), ("degree_one", 8))]


@st.composite
def monomial_weights(draw):
    """(system, degree <= 5, the weight of a random monomial of it)."""
    system = draw(st.sampled_from(LARGE_SYSTEMS))
    mono = tuple(sorted(draw(st.lists(st.sampled_from(system.variables()),
                                      max_size=5))))
    return system, mono, system.weight(mono)


@settings(max_examples=200, deadline=None)
@given(monomial_weights())
def test_enumeration_matches_the_recursion_past_the_exhaustive_ranks(case):
    system, mono, w = case
    got = monomials_of_weight(system, len(mono), w)
    assert got == oracle_monomials_of_weight(system, len(mono), w)
    assert mono in got


IDEAL_PIECES = ["flavor:", "rank:", *FLAVORS, "x[", "]", ",", "0", "1", "2",
                "3", "12", "/", "+", "-", "*", " ", "\t", "\n", "#", ":",
                "x[1,2]", "x[2,2]", "1/0", "a"]
ideal_bodies = st.one_of(
    st.lists(st.sampled_from(IDEAL_PIECES), max_size=30).map("".join),
    st.text(alphabet="flavorsymetickgdu_:x[],0123456789/+-* \t\n#", max_size=60))
ideal_texts = st.one_of(ideal_bodies, st.builds(
    "flavor: {}\nrank: {}\n{}".format,
    st.sampled_from(FLAVORS + ("bogus",)), st.integers(0, 5), ideal_bodies))

MATCHING_PIECES = ["{", "}", "(", ")", ",", " ", "\n", "-", "x", "0", "1",
                   "2", "7", "10", "(1,2)", "(2,1)", "(0,3)", "(2,2)",
                   "(10,11)"]
matching_texts = st.one_of(
    st.lists(st.sampled_from(MATCHING_PIECES), max_size=20).map("".join),
    st.text(alphabet="{}(),0123456789 -x\n", max_size=40))


@settings(max_examples=400, deadline=None)
@given(ideal_texts)
def test_ideal_text_parses_or_raises_parse_error(text):
    try:
        parse_ideal_text(text)
    except ParseError:
        pass


@settings(max_examples=400, deadline=None)
@given(matching_texts)
def test_matching_text_parses_or_raises_parse_error(text):
    try:
        parse_matching(text)
    except ParseError:
        pass


@st.composite
def matrix_ideals(draw):
    """A matrix-flavor system and up to four generators (zero allowed)."""
    system = VariableSystem(draw(st.sampled_from(MATRIX_FLAVORS)),
                            draw(st.integers(1, 4)))
    labels = st.integers(1, system.rank)
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        poly = {}
        for _ in range(draw(st.integers(1, 4))):
            pairs = draw(st.lists(st.tuples(labels, labels), max_size=3))
            poly_add(poly, term(system, draw(coeffs), pairs))
        gens.append(poly)
    return system, gens


@settings(max_examples=150, deadline=None)
@given(matrix_ideals())
def test_ideal_file_round_trips_through_format_poly(ideal):
    system, gens = ideal
    text = f"flavor: {system.flavor}\nrank: {system.rank}\n" + "".join(
        format_poly(g) + "\n" for g in gens)
    assert parse_ideal_text(text) == (system, gens)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 30), unique=True, max_size=12))
def test_matching_text_round_trips(labels):
    g = matching(zip(labels[::2], labels[1::2]))
    assert parse_matching(fmt_matching(g)) == g

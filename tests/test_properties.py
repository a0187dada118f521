"""Property tests where the exhaustive tests stop: the enumeration at ranks
past its whole-universe checks, the text parsers on random input, the text
round trips, and the command line on random argument lists.
``conftest.py`` makes every draw reproducible."""

import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from tca_lab import cli
from tca_lab.algebra import (FLAVORS, MATRIX_FLAVORS, VariableSystem,
                             monomials_of_weight, poly_add, term)
from tca_lab.errors import ParseError
from tca_lab.ideal_io import format_poly, parse_ideal_text, parse_matching
from tca_lab.matchings import fmt_matching, matching

from test_algebra import oracle_monomials_of_weight
from test_cli import action_parsers

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


def ideal_file_text(ideal):
    system, gens = ideal
    return f"flavor: {system.flavor}\nrank: {system.rank}\n" + "".join(
        format_poly(g) + "\n" for g in gens)


@settings(max_examples=150, deadline=None)
@given(matrix_ideals())
def test_ideal_file_round_trips_through_format_poly(ideal):
    assert parse_ideal_text(ideal_file_text(ideal)) == ideal


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 30), unique=True, max_size=12))
def test_matching_text_round_trips(labels):
    g = matching(zip(labels[::2], labels[1::2]))
    assert parse_matching(fmt_matching(g)) == g


def numbers(low, high):
    """Integers from ``low - 1`` to ``high`` as text, and text that is no
    integer."""
    return st.sampled_from([*map(str, range(low - 1, high + 1)), "", "x", "1.5"])


nranges = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map("{0[0]}..{0[1]}".format),
    st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["", "x", "2..", "..3"]))
small_matchings = st.lists(st.integers(1, 6), unique=True, max_size=6).map(
    lambda labels: fmt_matching(matching(zip(labels[::2], labels[1::2]))))
# Paths are placeholders, resolved under the test's folder: ("ideal", text)
# is a file holding ``text``, "MISSING" a file that is not there, "FOLDER"
# the folder itself (an --output that cannot be written).
ARGUMENT_VALUES = {
    "flavor": st.sampled_from([*MATRIX_FLAVORS, "degree_one", "bogus"]),
    "rank": numbers(0, 4),
    "degree": numbers(0, 3),
    "pmax": numbers(0, 3),
    "nrange": nranges,
    "budget": numbers(0, 100),
    "seed": numbers(0, 3),
    "input": st.one_of(
        st.tuples(st.just("ideal"), st.one_of(
            matrix_ideals().map(ideal_file_text), ideal_texts)),
        st.just("MISSING")),
    "output": st.sampled_from(["report.txt", "FOLDER"]),
    "a": st.one_of(small_matchings, matching_texts),
    "b": st.one_of(small_matchings, matching_texts),
    "order": st.sampled_from(["type1", "full", "both"]),
}
CLI_ACTIONS = [(prefix, parser)
               for prefix, parser in action_parsers(cli.build_parser())
               if prefix != ("accept",)]


@st.composite
def cli_argvs(draw):
    """An action, most of its positionals, and up to four flags drawn from
    the action's own and from ``cli.FLAGS``, each with a valid or invalid
    value."""
    prefix, parser = draw(st.sampled_from(CLI_ACTIONS))
    argv = list(prefix)
    flags = set(cli.FLAGS)
    for action in parser._actions:
        if action.option_strings:
            flags.add(action.dest)
        elif draw(st.sampled_from((True, True, True, False))):
            argv.append(draw(ARGUMENT_VALUES[action.dest]))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv.append("--" + flag)
        if flag != "help":
            argv.append(draw(ARGUMENT_VALUES[flag]))
    return argv


def test_cli_exits_cleanly_on_any_argument_list(tmp_path):
    """Every draw ends within seconds with an exit code of 0, 2, 3 or 4 and
    no traceback, whether its arguments are valid or not."""

    def resolve(arg, i):
        if isinstance(arg, tuple):
            path = tmp_path / f"input{i}.ideal"
            path.write_text(arg[1], encoding="utf-8")
            arg = path
        elif arg in ("MISSING", "FOLDER", "report.txt"):
            arg = tmp_path / {"FOLDER": ""}.get(arg, arg)
        return str(arg)

    @settings(max_examples=300, deadline=None)
    @given(cli_argvs())
    def run(argv):
        argv = [resolve(arg, i) for i, arg in enumerate(argv)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert time.perf_counter() - start < 5, argv
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv

    run()

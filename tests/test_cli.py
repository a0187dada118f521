"""Input grammar, report rendering, and the tca-lab command surface.

CLI checks call cli.main() in-process and read stdout/stderr through
capsys; the byte-determinism checks at the bottom spawn real
subprocesses.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from tca_lab import __version__, cli
from tca_lab.cli import main, parse_nrange
from tca_lab.errors import ParseError
from tca_lab.ideal_io import (
    format_coeff,
    format_poly,
    parse_ideal_text,
    parse_matching,
)
from tca_lab.matchings import fmt_matching, matching
from tca_lab.reports import Report

DET2 = """# determinant of the top-left 2x2 block
flavor: symmetric
rank: 4
1 * x[1,1] * x[2,2] - 1 * x[1,2] * x[1,2]
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_nrange():
    assert parse_nrange("2..4") == (2, 3, 4)
    assert parse_nrange("3,5") == (3, 5)
    assert parse_nrange("4") == (4,)
    assert parse_nrange(" 2..2 ") == (2,)
    for bad in ("5..3", "x", "", "1..b", "3,3", "4,3", "2,4,3"):
        with pytest.raises(ParseError):
            parse_nrange(bad)


def test_ideal_grammar_round_trip():
    system, gens = parse_ideal_text(DET2)
    assert system.flavor == "symmetric" and system.rank == 4
    assert len(gens) == 1
    text = format_poly(gens[0])
    assert text == "1 * x[1,1] * x[2,2] - 1 * x[1,2] * x[1,2]"
    again = parse_ideal_text(f"flavor: symmetric\nrank: 4\n{text}")[1]
    assert again == gens

    _, gens = parse_ideal_text("flavor: symmetric\nrank: 2\n3/2 * x[1,2]\nx[1,1]")
    assert gens[0] == {((1, 2),): Fraction(3, 2)}
    assert gens[1] == {((1, 1),): Fraction(1)}

    # a diagonal entry of an alternating form is identically zero, not an error
    _, gens = parse_ideal_text("flavor: antisymmetric\nrank: 3\nx[1,1]")
    assert gens == [{}]
    assert format_poly({}) == "0"


def test_fraction_coefficient_with_any_whitespace_around_the_slash():
    _, gens = parse_ideal_text("flavor: symmetric\nrank: 2\n3\t/ 2 * x[1,2]")
    assert gens == [{((1, 2),): Fraction(3, 2)}]


def test_ideal_grammar_errors():
    cases = [
        ("flavor: symmetric\nrank: 2\nx[1,1] &",
         "unexpected character '&' at line 3, column 8"),
        ("flavor: symmetric\nrank: 2\nx[1,3]",
         "index out of range for rank 2: x[1,3] at line 3, column 1"),
        ("flavor: nope\nrank: 2\nx[1,1]",
         "unknown flavor 'nope' at line 1, column 9"),
        ("flavor: symmetric\nx[1,1]",
         "flavor and rank must be declared before generators at line 2, column 1"),
        ("flavor: symmetric\nrank: 2\n2 x[1,1]",
         "expected '+' or '-' between terms, got 'var' at line 3, column 3"),
        ("flavor: symmetric\nrank: 2\nx[1,1]\nrank: 3",
         "rank must precede the generators at line 4, column 1"),
        ("# nothing here\n", "input never declared flavor and rank at line 1, column 1"),
        ("flavor: symmetric\nrank: 2\nx[1,1] + 1/0 * x[1,2]",
         "zero denominator in '1/0' at line 3, column 10"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_ideal_text(text)
        assert str(exc.value) == message


def test_matching_text():
    assert parse_matching("{(1,4),(2,3)}") == matching([(1, 4), (2, 3)])
    assert parse_matching(" (2,3) , (1,4) ") == matching([(1, 4), (2, 3)])
    assert parse_matching("{}") == ()
    assert fmt_matching(parse_matching("{(1,4),(2,3)}")) == "{(1,4),(2,3)}"
    with pytest.raises(ParseError) as exc:
        parse_matching("{(1,2),(2,3)}")
    assert str(exc.value) == "vertex 2 used twice at line 1, column 1"
    with pytest.raises(ParseError) as exc:
        parse_matching("(2,2)")
    assert str(exc.value) == "loop (2,2) is not an edge at line 1, column 1"
    with pytest.raises(ParseError) as exc:
        parse_matching("(1,2);")
    assert str(exc.value) == "unexpected character ';' in matching at line 1, column 6"


def test_format_coeff():
    assert format_coeff(2) == "2"
    assert format_coeff(Fraction(3, 2)) == "3/2"
    assert format_coeff(Fraction(-3, 2)) == "-3/2"
    assert format_coeff(Fraction(4, 2)) == "2"


# ---------------------------------------------------------------------------
# Report object


def test_report_verdict_precedence():
    rep = Report("unit")
    assert rep.verdict == "PASS" and rep.exit_code() == 0
    assert rep.check("a", True) == "PASS"
    assert rep.verdict == "PASS"
    rep.check("b", "INCONCLUSIVE", "ran out")
    assert rep.verdict == "INCONCLUSIVE" and rep.exit_code() == 3
    rep.check("c", False)
    assert rep.verdict == "FAIL" and rep.exit_code() == 2
    with pytest.raises(ValueError):
        rep.check("d", "MAYBE")


def test_report_render(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    rep = Report("unit", config={"b": 1, "a": 2}, seed=7)
    rep.line("hello")
    rep.record("thing", value=Fraction(3, 2))
    rep.check("works", True, "detail")
    text = rep.render()
    lines = text.splitlines()
    assert lines[0] == f"tca-lab {__version__} :: unit"
    assert lines[1] == "config: a=2 b=1"
    assert lines[2] == "seed: 7"
    assert lines[3] == "timestamp: 1970-01-01T00:00:00Z"
    assert "check works: PASS  [detail]" in lines
    assert lines[-2] == "=== machine-readable ==="
    doc = json.loads(lines[-1])
    assert doc["verdict"] == "PASS"
    assert doc["records"] == [{"kind": "thing", "value": "3/2"}]
    assert doc["checks"] == [{"name": "works", "verdict": "PASS",
                              "detail": "detail"}]

    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert "timestamp: unstamped" in rep.render()
    assert "seed: none" in Report("unit").render()


def test_report_write_to_file(tmp_path, capsys):
    rep = Report("unit")
    rep.check("x", True)
    out = tmp_path / "report.txt"
    rep.write(str(out))
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == rep.render()


# ---------------------------------------------------------------------------
# subcommands, in process


def test_cli_decompose(capsys):
    code, out, err = run(capsys, "decompose")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"tca-lab {__version__} :: decompose"
    assert lines[1] == "config: degree=3 flavor=symmetric rank=4"
    assert "verdict: PASS" in lines
    doc = json.loads(lines[-1])
    assert [c["verdict"] for c in doc["checks"]] == ["PASS"] * 4

    code, out, _ = run(capsys, "decompose", "--flavor", "antisymmetric",
                       "--rank", "2", "--degree", "2")
    assert code == 0
    assert "degree 2: (2,2):1" in out


def test_cli_poset_compare(capsys):
    code, out, err = run(capsys, "poset", "compare", "{(1,2)}", "{(2,3)}")
    assert code == 0
    assert "growth-only: <=" in out
    assert "with swaps:  below" in out
    assert "shift_endpoint (1,2)->(1,3)" in out
    assert "shift_endpoint (1,3)->(2,3)" in out
    assert "check witness-replays: PASS" in out

    code, _, err = run(capsys, "poset", "compare", "{(1,2)}")
    assert code == 4
    assert "the following arguments are required: B" in err


def test_cli_poset_compare_replays_a_long_growth_witness_quickly(capsys):
    """Replaying ~2,000 unit shifts costs O(|g|) a move, whatever the labels."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "poset", "compare", "{(1,2)}", "{(999,1000)}",
                       "--budget", "10")
    assert code == 0
    assert time.perf_counter() - start < 5
    assert "growth-only: <=" in out
    assert out.count("  shift_endpoint ") == 2 * 998
    assert "shift_endpoint (998,1000)->(999,1000)" in out
    assert "check witness-replays: PASS" in out


def test_cli_poset_verify_example(capsys):
    code, out, _ = run(capsys, "poset", "verify-example", "--nrange", "3..4")
    assert code == 0
    assert "check family-growth-incomparable: PASS" in out
    assert "check family-swap-comparable: PASS  [witnesses replayed]" in out
    assert "member 3 reaches member 4 in 8 moves; witness replays: yes" in out
    assert "rotation replay n=4: 2/3 rotation steps are single swaps" in out

    code, _, err = run(capsys, "poset", "verify-example", "--nrange", "2..4")
    assert code == 4
    assert "family members are defined from index 3 up" in err


def test_cli_verify_example_reaches_member_ten(capsys):
    """Each full-order search stops at the first state that grows into the
    target, so members 3..10 form a replayed chain in seconds."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "poset", "verify-example", "--nrange", "3..10")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert "check family-swap-comparable: PASS  [witnesses replayed]" in out


def test_cli_poset_antichain(capsys):
    code, out, _ = run(capsys, "poset", "antichain")
    assert code == 0
    assert "pairwise-incomparable matchings with 2 edges on vertices 1..6" in out
    assert "width 7: 7 pairwise-incomparable" in out
    assert "under the full order" in out
    assert "check antichain-width: PASS  [width 7]" in out
    assert sum(line.startswith("  {") for line in out.splitlines()) == 7

    code, out, _ = run(capsys, "poset", "antichain", "type1")
    assert code == 0
    assert "width 9: 9 pairwise-incomparable" in out
    assert "under the growth-only order" in out
    assert "check antichain-width: PASS  [width 9]" in out

    code, _, err = run(capsys, "poset", "antichain", "sideways")
    assert code == 4
    assert "invalid choice: 'sideways'" in err


def test_cli_poset_antichain_refuses_universes_above_the_bound(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "poset", "antichain", "type1",
                         "--degree", "3", "--rank", "12")
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err.startswith("input error: poset antichain: 13,860 matchings")
    assert f"{cli.MAX_ANTICHAIN_UNIVERSE:,}" in err


def test_cli_poset_sandbox(capsys):
    code, first, _ = run(capsys, "poset", "sandbox", "--seed", "11")
    assert code == 0
    assert "seed: 11" in first
    assert "check sandbox-move-closure: PASS  [10 ideals]" in first
    assert "width of the colored poset (size <= 2, vertices <= 6): 12" in first
    code, second, _ = run(capsys, "poset", "sandbox", "--seed", "11")
    assert code == 0 and second == first


def test_cli_ideal_lattice(capsys):
    code, out, _ = run(capsys, "ideal", "lattice", "--rank", "4", "--degree", "2")
    assert code == 0
    assert "check lattice-matches-containment: PASS  [4x4 table]" in out


@pytest.mark.parametrize("flavor,rank", [
    ("antisymmetric", 2), ("antisymmetric", 3), ("antisymmetric", 4),
    ("symmetric", 2), ("generic", 2)])
def test_cli_ideal_lattice_where_blocks_vanish(capsys, flavor, rank):
    code, out, _ = run(capsys, "ideal", "lattice", "--flavor", flavor,
                       "--rank", str(rank), "--degree", "3")
    assert code == 0
    assert "check lattice-matches-containment: PASS  [7x7 table]" in out


def test_cli_ideal_initial_set(tmp_path, capsys):
    path = tmp_path / "det2.ideal"
    path.write_text(DET2, encoding="utf-8")
    code, out, _ = run(capsys, "ideal", "initial-set",
                       "--input", str(path), "--degree", "2")
    assert code == 0
    assert "2 initial matchings within degree 2, support 1..4:" in out
    assert "  {(2,4),(1,3)}" in out
    assert "  {(3,4),(1,2)}" in out


def test_cli_ideal_move_closure(tmp_path, capsys):
    path = tmp_path / "det2.ideal"
    path.write_text(DET2, encoding="utf-8")
    code, out, _ = run(capsys, "ideal", "move-closure", "--input", str(path))
    assert code == 0
    assert "initial set size 2; moves checked 1" in out
    assert "check move-closure: PASS  [0 violations]" in out


def test_cli_ideal_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, "ideal", "initial-set")
    assert code == 4
    assert "the following arguments are required: --input" in err

    code, _, err = run(capsys, "ideal", "initial-set",
                       "--input", str(tmp_path / "missing.ideal"))
    assert code == 4
    assert err.startswith("input error:")

    bad = tmp_path / "bad.ideal"
    bad.write_text("flavor: symmetric\nrank: 2\nx[1,1] &\n", encoding="utf-8")
    code, _, err = run(capsys, "ideal", "move-closure", "--input", str(bad))
    assert code == 4
    assert "unexpected character '&' at line 3, column 8" in err

    zero = tmp_path / "zero.ideal"
    zero.write_text("flavor: symmetric\nrank: 4\n1/0 * x[1,1]\n", encoding="utf-8")
    code, out, err = run(capsys, "ideal", "initial-set", "--input", str(zero))
    assert code == 4 and out == ""
    assert err == "input error: zero denominator in '1/0' at line 3, column 1\n"


@pytest.mark.parametrize("subtask", ["initial-set", "move-closure"])
def test_cli_ideal_refuses_flavors_without_initial_data(tmp_path, capsys,
                                                        subtask):
    path = tmp_path / "generic.ideal"
    path.write_text("flavor: generic\nrank: 2\nx[1,2]\n", encoding="utf-8")
    code, out, err = run(capsys, "ideal", subtask, "--input", str(path))
    assert code == 4
    assert out == "" and "Traceback" not in err
    assert err.startswith("input error: initial sets are defined for "
                          "symmetric, antisymmetric ideals")


@pytest.mark.parametrize("subtask", ["initial-set", "move-closure"])
def test_cli_ideal_refuses_a_degree_one_header(tmp_path, capsys, subtask):
    """An ideal file names a matrix flavor; a degree_one header is refused
    where it stands, generators or not."""
    path = tmp_path / "degree_one.ideal"
    for body in ("", "x[1,2]\n"):
        path.write_text("rank: 2\nflavor: degree_one\n" + body, encoding="utf-8")
        code, out, err = run(capsys, "ideal", subtask, "--input", str(path))
        assert code == 4 and out == ""
        assert err == ("input error: not a matrix flavor 'degree_one' "
                       "at line 2, column 9\n")


def test_cli_tor(capsys):
    code, out, _ = run(capsys, "tor", "--rank", "0", "--nrange", "2")
    assert code == 0
    assert "check table-computed: PASS  [n=2]" in out
    assert "n=2 Tor_1 internal 1: (2) x1" in out

    # a syzygy cell that only the top rank of the window can see
    code, out, _ = run(capsys, "tor", "--nrange", "2..3", "--degree", "3")
    assert code == 3
    assert "cell (p=2, q=3): not stabilized within range" in out
    assert "check stabilization-within-range: INCONCLUSIVE" in out


def test_cli_argparse_errors(capsys):
    assert run(capsys, )[0] == 4
    assert run(capsys, "decompose", "--bogus")[0] == 4
    assert run(capsys, "frobnicate")[0] == 4
    assert run(capsys, "poset")[0] == 4
    assert run(capsys, "poset", "meander")[0] == 4
    assert run(capsys, "decompose", "--flavor", "sideways")[0] == 4
    assert run(capsys, "decompose", "--rank", "x")[0] == 4


@pytest.mark.parametrize("argv", [
    ("ideal", "lattice", "--rank", "0"),
    ("poset", "sandbox", "--rank", "0"),
    ("tor", "--nrange", "0..2"),
    ("decompose", "--rank", "-1"),
    ("decompose", "--degree", "-2"),
    ("tor", "--pmax", "-1", "--nrange", "2"),
    ("tor", "--nrange", "3,3"),
    ("tor", "--nrange", "4,3"),
    ("poset", "verify-example", "--nrange", "5,4"),
    ("accept", "--budget", "-5"),
    ("poset", "compare", "{(0,1)}", "{(1,2)}"),
])
def test_cli_rejects_out_of_range_numbers(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == "" and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("poset", "sandbox", "--degree", "0"),
    ("poset", "sandbox", "--rank", "2", "--degree", "3"),
])
def test_cli_sandbox_rejects_degree_outside_one_to_rank(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == "" and "--degree" in err and "Traceback" not in err


def test_cli_budget_and_env(capsys):
    code, out, _ = run(capsys, "poset", "verify-example", "--budget", "1")
    assert code == 3
    assert "check search-budget: INCONCLUSIVE" in out

    code, out, _ = run(capsys, "poset", "compare", "{(1,2)}", "{(2,3)}",
                       "--budget", "0")
    assert code == 3
    assert ("check search-budget: INCONCLUSIVE  [search budget of 0 "
            "candidate injections plus expanded states exhausted]") in out


def test_cli_budget_reaches_the_rotation_replay(capsys):
    """One family member makes no pairwise comparison, so only the
    rotation replay's growth test can spend the budget."""
    code, out, _ = run(capsys, "poset", "verify-example", "--nrange", "3",
                       "--budget", "0")
    assert code == 3
    assert "check search-budget: INCONCLUSIVE" in out
    assert "rotation replay" not in out


# the flags an action does not read, and positionals it does not take
@pytest.mark.parametrize("argv", [
    ("poset", "verify-example", "--rank", "3"),
    ("poset", "verify-example", "--degree", "9"),
    ("poset", "verify-example", "--seed", "5"),
    ("poset", "compare", "{(1,2)}", "{(2,3)}", "--rank", "1"),
    ("poset", "compare", "{(1,2)}", "{(2,3)}", "--degree", "1"),
    ("poset", "compare", "{(1,2)}", "{(2,3)}", "--nrange", "7..9"),
    ("poset", "compare", "{(1,2)}", "{(2,3)}", "--seed", "9"),
    ("poset", "antichain", "type1", "--nrange", "3"),
    ("poset", "antichain", "type1", "--seed", "3"),
    ("poset", "antichain", "type1", "--budget", "1"),
    ("poset", "sandbox", "--nrange", "3..4"),
    ("poset", "sandbox", "--budget", "1"),
    ("ideal", "lattice", "--input", "FILE"),
    ("ideal", "initial-set", "--input", "FILE", "--flavor", "generic"),
    ("ideal", "move-closure", "--input", "FILE", "--flavor", "generic"),
    ("poset", "verify-example", "foo", "bar"),
    ("poset", "sandbox", "whatever"),
    ("poset", "antichain", "type1", "garbage"),
])
def test_cli_refuses_what_an_action_does_not_read(tmp_path, capsys, argv):
    path = tmp_path / "det2.ideal"
    path.write_text(DET2, encoding="utf-8")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 4
    assert out == "" and "error: unrecognized arguments:" in err
    assert "Traceback" not in err


class RecordingNamespace(argparse.Namespace):
    """Notes the name of every attribute read from it in ``reads``."""

    def __init__(self):
        super().__init__()
        self.reads = set()

    def __getattribute__(self, name):
        if not name.startswith("__") and name != "reads":
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def action_parsers(parser, prefix=()):
    """(argv prefix, parser) for every action below ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from action_parsers(child, prefix + (name,))


# one cheap invocation per action, giving every flag it defines
EVERY_FLAG = {
    ("decompose",): ["--flavor", "generic", "--rank", "2", "--degree", "1"],
    ("poset", "verify-example"): ["--nrange", "3..4", "--budget", "1"],
    ("poset", "compare"): ["{(1,2)}", "{(2,3)}", "--budget", "50"],
    ("poset", "antichain"): ["type1", "--degree", "1", "--rank", "3"],
    ("poset", "sandbox"): ["--rank", "2", "--degree", "1", "--seed", "3"],
    ("ideal", "lattice"): ["--flavor", "generic", "--rank", "2", "--degree", "1"],
    ("ideal", "initial-set"): ["--input", "FILE", "--degree", "1", "--rank", "2"],
    ("ideal", "move-closure"): ["--input", "FILE", "--degree", "1", "--rank", "2"],
    ("tor",): ["--flavor", "generic", "--rank", "0", "--pmax", "1",
               "--degree", "1", "--nrange", "2"],
    ("accept",): ["--seed", "3", "--budget", "5"],
}


def test_every_flag_an_action_defines_is_read(tmp_path, capsys, monkeypatch):
    """Each action reads every flag and positional its parser defines, so
    none is accepted and then ignored.  ``main`` parses into a namespace
    that records reads, cleared once parsing is done."""
    path = tmp_path / "det2.ideal"
    path.write_text(DET2, encoding="utf-8")
    parsers = dict(action_parsers(cli.build_parser()))
    assert set(parsers) == set(EVERY_FLAG)
    monkeypatch.setattr(cli, "run_all", lambda seed, budget: Report("accept"))
    parse_args = cli._Parser.parse_args
    unread = {}
    for prefix, flags in EVERY_FLAG.items():
        namespace = RecordingNamespace()

        def parse_into_namespace(self, args=None, _=None):
            parsed = parse_args(self, args, namespace)
            namespace.reads.clear()
            return parsed

        monkeypatch.setattr(cli._Parser, "parse_args", parse_into_namespace)
        argv = [*prefix, *(str(path) if a == "FILE" else a for a in flags),
                "--output", str(tmp_path / "report.txt")]
        code, out, err = run(capsys, *argv)
        assert code in (0, 2, 3) and out == "", (argv, err)
        defined = {a.dest for a in parsers[prefix]._actions if a.dest != "help"}
        if defined - namespace.reads:
            unread[prefix] = sorted(defined - namespace.reads)
    assert unread == {}


def test_cli_output_flag(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, "decompose", "--output", str(path))
    assert code == 0 and out == ""
    text = path.read_text(encoding="utf-8")
    assert "verdict: PASS" in text


def test_cli_output_to_a_missing_directory_exits_4(tmp_path, capsys):
    code, out, err = run(capsys, "decompose", "--rank", "1", "--degree", "0",
                         "--output", str(tmp_path / "missing" / "out.txt"))
    assert code == 4
    assert out == "" and err.startswith("input error:")


# ---------------------------------------------------------------------------
# cross-process determinism


def run_subprocess(args, **env_overrides):
    env = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    env.update(env_overrides)
    return subprocess.run([sys.executable, "-m", "tca_lab", *args],
                          capture_output=True, text=True, env=env, check=False)


def test_identical_runs_are_byte_identical():
    for args in (["decompose", "--rank", "3", "--degree", "3"],
                 ["poset", "sandbox", "--seed", "5"]):
        a = run_subprocess(args)
        b = run_subprocess(args)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout and a.stdout
        assert "timestamp: unstamped" in a.stdout


def test_source_date_epoch_stamps_reports():
    res = run_subprocess(["decompose", "--rank", "2", "--degree", "1"],
                         SOURCE_DATE_EPOCH="0")
    assert res.returncode == 0
    assert "timestamp: 1970-01-01T00:00:00Z" in res.stdout

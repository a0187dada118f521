"""End-to-end acceptance gate.

Runs the eight-criterion suite once at the pinned seed and prints one
verdict line per criterion (visible under ``pytest -s``).  Criterion 4
is EXPECTED to fail: on eight vertices the weight-(1,...,1) slice of
the ideal generated by the doubled-row quadratic block is not
move-closed, and an exhaustive search over candidate pivot sets shows
that no total order on matchings avoids this.  The suite reports the
lone forced violation instead of hiding it, so the overall verdict is
FAIL by design; every other criterion must pass.  The README carries
the full argument.
"""

import pytest

from tca_lab import cli
from tca_lab.acceptance import run_all

pytestmark = pytest.mark.slow

PINNED_SEED = 1729

EXPECTED = {
    1: "PASS",
    2: "PASS",
    3: "PASS",
    4: "FAIL",   # forced: see the module docstring
    5: "PASS",
    6: "PASS",
    7: "PASS",
    8: "PASS",
}

FORCED_VIOLATION = {
    "kind": "criterion4-violation",
    "ideal": "I(2)",
    "source": "{(3,8),(2,7),(1,6),(4,5)}",
    "move": "swap_nested (4,5),(2,7)->(2,5),(4,7)",
    "image": "{(3,8),(4,7),(1,6),(2,5)}",
}

_CACHE = {}


def suite():
    if "rep" not in _CACHE:
        _CACHE["rep"] = run_all(seed=PINNED_SEED)
    return _CACHE["rep"]


def criterion_checks(rep):
    return [c for c in rep.checks if c["name"].startswith("criterion")]


def test_prints_one_line_per_criterion():
    checks = criterion_checks(suite())
    assert [c["name"] for c in checks] == [
        "criterion 1 (closed-formula decompositions)",
        "criterion 2 (ideal lattice)",
        "criterion 3 (family comparability)",
        "criterion 4 (move closure)",
        "criterion 5 (homology oracles)",
        "criterion 6 (stabilization)",
        "criterion 7 (degree-one control)",
        "criterion 8 (determinism)",
    ]
    print()
    for c in checks:
        print(f"{c['name']}: {c['verdict']}  [{c['detail']}]")


def test_each_criterion_has_its_expected_verdict():
    checks = criterion_checks(suite())
    got = {i + 1: c["verdict"] for i, c in enumerate(checks)}
    assert got == EXPECTED


def test_criterion_4_fails_exactly_as_analyzed():
    rep = suite()
    check = criterion_checks(rep)[3]
    assert check["verdict"] == "FAIL"
    assert "provably unavoidable under any total order" in check["detail"]
    violations = [r for r in rep.records
                  if r["kind"] == "criterion4-violation"]
    assert violations == [FORCED_VIOLATION]


def test_overall_verdict_is_an_honest_fail():
    rep = suite()
    assert rep.verdict == "FAIL"
    assert rep.exit_code() == 2


def test_budget_starves_the_search_criterion_only():
    rep = run_all(seed=PINNED_SEED, budget=10)
    checks = criterion_checks(rep)
    got = {i + 1: c["verdict"] for i, c in enumerate(checks)}
    assert got[3] == "INCONCLUSIVE"
    assert "budget" in checks[2]["detail"]
    assert got[4] == "FAIL"
    for i in (1, 2, 5, 6, 7, 8):
        assert got[i] == EXPECTED[i]
    # FAIL outranks INCONCLUSIVE, so the exit code stays 2
    assert rep.verdict == "FAIL" and rep.exit_code() == 2


def test_accept_command_runs_are_byte_identical(capsys):
    code_a = cli.main(["accept", "--seed", "7"])
    out_a = capsys.readouterr().out
    code_b = cli.main(["accept", "--seed", "7"])
    out_b = capsys.readouterr().out
    assert code_a == code_b == 2
    assert out_a and out_a == out_b
    assert "verdict: FAIL" in out_a
    assert "seed: 7" in out_a

"""Tests of the benchmark itself: seeded inputs, tracer coverage, the
correctness gate, and the layer predictions the workloads are built on."""

import json
import sys
from pathlib import Path

import pytest

from perfbench import run, worker, workloads
from perfbench import tracer as tracer_mod
from tca_lab import algebra

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
POOLS = workloads.load_pools()


def small_jobs(workload, prefix, count=1, keep=lambda inp: True):
    """The first ``count`` kept entries of the strata named ``prefix...``."""
    entries = [e for name, stratum in sorted(POOLS[workload].items())
               if name.startswith(prefix) for e in stratum["entries"] if keep(e["input"])]
    return [{"kind": e["kind"], "input": dict(e["input"]), "expected": e["expected"]}
            for e in entries[:count]]


SMALL = {
    "tor-tables": small_jobs("tor-tables", "specs", count=2,
                             keep=lambda inp: inp["rank"] == 3 and inp["q_max"] <= 5),
    "ideal-closure": (
        small_jobs("ideal-closure", "orbit2",
                   keep=lambda inp: inp["text"].startswith("flavor: antisymmetric\nrank: 6"))
        + small_jobs("ideal-closure", "isotypic",
                     keep=lambda inp: inp["rank"] == 6 and inp["lam"] == [1])),
    "poset-search": (small_jobs("poset-search", "pruned")
                     + small_jobs("poset-search", "states-20")
                     + small_jobs("poset-search", "gamma")),
}
SMALL["tor-tables"][0]["input"]["sample_check_seed"] = 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = json.dumps(workloads.make_jobs(workload, 7, POOLS))
    again = json.dumps(workloads.make_jobs(workload, 7, POOLS))
    other = json.dumps(workloads.make_jobs(workload, 8, POOLS))
    assert first == again
    assert first != other


def test_tracer_replaces_every_binding_and_restores_them():
    modules = [m for name, m in sys.modules.items() if name.startswith("tca_lab")]
    originals = {(mod.__name__, key): value for mod in modules
                 for key, value in vars(mod).items()}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for module, attr in tracer_mod.TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert hasattr(vars(getattr(module, cls_name))[meth], "__wrapped__")
                continue
            original = getattr(module, attr).__wrapped__
            stale = [m.__name__ for m in modules if original in vars(m).values()]
            assert not stale, f"{attr} still bound unwrapped in {stale}"
    finally:
        tracer.uninstall()
    for mod in modules:
        for key, value in vars(mod).items():
            assert originals.get((mod.__name__, key), value) is value


def test_tor_job_counts_monomials_of_weight_from_both_call_sites():
    inp = {"flavor": "symmetric", "rank": 3, "rank_bound": 1, "p_max": 2, "q_max": 3}
    target = algebra.monomials_of_weight.__code__
    callers = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is target:
            site = frame.f_back.f_globals["__name__"]
            callers[site] = callers.get(site, 0) + 1

    sys.setprofile(profile)
    try:
        workloads.run_job("tor", inp)
    finally:
        sys.setprofile(None)
    assert callers.get("tca_lab.algebra", 0) > 0
    assert callers.get("tca_lab.torlab", 0) > 0
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        workloads.run_job("tor", inp)
    finally:
        tracer.uninstall()
    calls = tracer.metrics()["algebra.monomials_of_weight.calls"]
    assert calls == sum(callers.values())


def test_corrupted_expectation_and_raising_job_count_as_failures():
    jobs = small_jobs("poset-search", "pruned", count=4)
    jobs[1]["expected"] = [not v for v in jobs[1]["expected"]]
    jobs.append({"kind": "pair", "input": {"a": [[1, 1]], "b": [[1, 2]]},
                 "expected": [True, True]})
    res = worker.run("poset-search", jobs, seconds=0, trace=False)
    assert res["attempted"] == 5
    assert res["failed"] == 2
    assert res["failures"] == {"mismatch": 1, "error": 1}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_keeps_outputs(workload):
    res = worker.run(workload, SMALL[workload], seconds=0, trace=True)
    assert res["rounds"] == 2
    assert res["failed"] == 0
    assert res["consistent"]
    layer = res["layer"]
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in layer] == []
    traced_wall = res["wall_s"] * layer["trace.overhead_ratio"]
    calls = {k: v for k, v in layer.items() if k.endswith(".calls")}
    if workload == "tor-tables":
        assert layer["algebra.rep_closure.total_s"] < 0.05 * traced_wall
        assert all(v == 0 for k, v in calls.items() if k.startswith("matchings."))
        assert layer["torlab.KoszulComplex.apply_diff.calls"] > 0
    elif workload == "ideal-closure":
        assert layer["algebra.rep_closure.total_s"] > 0.5 * traced_wall
        assert layer["algebra.lowerings_from.calls"] > 0
        assert all(v == 0 for k, v in calls.items() if k.startswith("torlab."))
    else:
        assert all(v == 0 for k, v in calls.items()
                   if k.startswith(("algebra.", "torlab.")))
        assert layer["matchings.bfs.states_per_decision"] > 0


def test_benchmark_json_names_the_workloads_and_their_tail_percentile():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS == run.WORKLOADS
    for w in SPEC["workloads"]:
        assert f"p{workloads.TAIL_PERCENTILE[w['name']]}" in w["why"]

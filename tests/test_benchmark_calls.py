"""The benchmark's calls, run once each as ``perfbench/run.py`` runs them.

The benchmark imports entcap names, builds inputs and checks answers
outside its timed calls; a name it uses that went missing, or a wrong
answer, would otherwise first show when the benchmark itself runs.
"""

import json
import pathlib
import sys

import pytest

from entcap import netmodel

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from entcap import codingsearch  # noqa: E402

PER_LAYER = {
    m["name"]
    for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
}


def _traced_pass(workload):
    """One traced pass of ``workload``: its calls, their results and the
    per-layer metrics."""
    calls = workloads.BUILDERS[workload](bench.ROOT, 1)
    results = []
    with spans.Tracer() as tracer:
        for call in calls:
            with tracer.top(call):
                results.append(call.run())
    return calls, results, spans.layer_metrics(tracer.spans, workloads.variant_of)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_calls_answer_and_trace(workload):
    calls, results, metrics = _traced_pass(workload)
    assert calls
    for call, result in zip(calls, results):
        assert bench.check(call, result, call.expected) is None
    # trace_overhead_frac compares traced with plain passes, not one trace.
    assert PER_LAYER - set(metrics) == {"trace_overhead_frac"}


@pytest.mark.parametrize("workload", ["rank-powers", "reproduce"])
def test_draws_are_traced(workload):
    # Every rank estimate's trial draws through random_assignment, so the
    # draws are booked to it, not to estimate_r1's own time.
    _, _, metrics = _traced_pass(workload)
    assert metrics["tnrank.random_assignment.self_s"] > 0


#: Min-cuts each workload's pass computes, not counting those ``min_cut``
#: returns from its kept last cut.  The two N4 orientations that are
#: directed diamonds, and the property suite's networks with no internal
#: vertex, are counted, not searched, so no cut-set bound is cut for them.
CUTS_PER_PASS = {"diamond-bounds": 5, "rank-powers": 5, "repeater-mincut": 4, "reproduce": 501}


#: The other one-entry memos that must not carry work from one pass to
#: the next.  ``tnrank._plan_contraction`` is left out: diamond-bounds
#: plans only n_d5_2, so its plan is kept from one pass to the next.
MEMOS = {
    "topological_order": netmodel.topological_order,
    "_compile": codingsearch._compile,
}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_cuts_computed_per_pass(workload):
    """Two passes in a row compute the same cuts, topological orders and
    search plans, so no kept value carries work from one benchmark pass
    to the next."""
    calls = workloads.BUILDERS[workload](bench.ROOT, 1)
    memos = {"min_cut": netmodel.min_cut, **MEMOS}
    for memo in memos.values():
        memo.cache_clear()
    computed = []
    for _ in range(2):
        before = {name: memo.cache_info().misses for name, memo in memos.items()}
        for call in calls:
            call.run()
        computed.append({name: memo.cache_info().misses - before[name] for name, memo in memos.items()})
    assert computed[0] == computed[1]
    assert computed[0]["min_cut"] == CUTS_PER_PASS[workload]

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

PER_LAYER = {
    m["name"]
    for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_calls_answer_and_trace(workload):
    calls = workloads.BUILDERS[workload](bench.ROOT, 1)
    assert calls
    results = []
    with spans.Tracer() as tracer:
        for call in calls:
            with tracer.top(call):
                results.append(call.run())
    for call, result in zip(calls, results):
        assert bench.check(call, result, call.expected) is None
    metrics = spans.layer_metrics(tracer.spans, workloads.variant_of)
    # trace_overhead_frac compares traced with plain passes, not one trace.
    assert PER_LAYER - set(metrics) == {"trace_overhead_frac"}


#: Min-cuts each workload's pass computes, not counting those ``min_cut``
#: returns from its kept last cut.  The two N4 orientations that are
#: directed diamonds are counted, not searched, so no cut-set bound is cut.
CUTS_PER_PASS = {"diamond-bounds": 5, "rank-powers": 5, "repeater-mincut": 4, "reproduce": 522}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_cuts_computed_per_pass(workload):
    """Two passes in a row compute the same cuts, so the kept cut carries
    no work from one benchmark pass to the next."""
    calls = workloads.BUILDERS[workload](bench.ROOT, 1)
    netmodel.min_cut.cache_clear()
    computed = []
    for _ in range(2):
        before = netmodel.min_cut.cache_info().misses
        for call in calls:
            call.run()
        computed.append(netmodel.min_cut.cache_info().misses - before)
    assert computed == [CUTS_PER_PASS[workload]] * 2

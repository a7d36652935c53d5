"""The benchmark's calls, run once each as ``perfbench/run.py`` runs them.

The benchmark imports entcap names, builds inputs and checks answers
outside its timed calls; a name it uses that went missing, or a wrong
answer, would otherwise first show when the benchmark itself runs.
"""

import json
import pathlib
import sys

import pytest

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

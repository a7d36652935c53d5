"""Spans around entcap's public functions, and the per-layer metrics derived from them.

While a :class:`Tracer` is active, each traced function is replaced by a
wrapper in every ``entcap`` module namespace that holds it, so calls that
one layer makes into another are recorded too (``tnrank.min_cut``,
``capreport.estimate_r1``, ``reproduce.exhaustive_achievable``, ...).
Spans are kept in memory; work counts are computed from each call's
public inputs and results.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import prod

from entcap import capreport, codingsearch, netmodel, reproduce, tnrank, transforms

# c1_exact is traced so that the search scan is not counted as
# bounds_report's own (orchestration) time.
TRACED = {
    netmodel: ("min_cut",),
    tnrank: ("contract", "rank_mod_p", "random_assignment", "estimate_r1"),
    codingsearch: ("exhaustive_achievable", "is_valid", "c1_exact"),
    transforms: ("split_cycle_edge", "round_networks", "sandwich_check"),
    capreport: ("bounds_report",),
}


def _min_cut_counts(args, result):
    net = args["net"]
    return {"partitions": 2 ** (len(net.internal_vertices) - len(net.stage_pairs))}


def _contract_counts(args, result):
    net = args["net"]
    terminal = net.terminal_set
    inner = prod(e.dim for e in net.edges if e.u not in terminal and e.v not in terminal)
    rows, cols = result.matrix.shape
    return {"terms": rows * cols * inner}


def _rank_counts(args, result):
    return {"cells": int(args["m"].matrix.size)}


def _search_counts(args, result):
    return {"assignments": result.assignments}


COUNTERS = {
    "min_cut": _min_cut_counts,
    "contract": _contract_counts,
    "rank_mod_p": _rank_counts,
    "exhaustive_achievable": _search_counts,
}

#: Scans whose last l gets its own metrics: (fixture, variant, l) as the
#: seed commit runs them on diamond-bounds.
SCAN_ENDS = (
    ("n_d5_2", "d5-uv", 5),
    ("n_d5_2", "d5-vu", 6),
    ("n_d5_4", "d5-vu", 6),
    ("n_d5_4", "split", 6),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    args: dict | None = None  # kept for exhaustive_achievable: net and alphabet size
    tag: object = None  # the benchmark Call of a top-level span


class Tracer:
    """Context manager that records spans for one pass of a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched = []

    @contextmanager
    def top(self, call):
        """Span around one of the benchmark's own top-level calls."""
        span = self._open("call", tag=call)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name, tag=None) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None, tag=tag)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, orig):
        sig = inspect.signature(orig)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                span.counts = counter(bound, result)
                if name == "exhaustive_achievable":
                    span.args = {"net": bound["net"], "l": bound["cfg"].alphabet_size}
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "entcap" or n.startswith("entcap.")]
        for home, names in TRACED.items():
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], variant_of) -> dict:
    """Per-layer metrics of one traced pass (values only, units in BENCHMARK.json).

    Must run with the tracer inactive: the directed min-cut of each searched
    variant is computed with the unwrapped ``min_cut``.
    """
    own = self_times(spans)
    agg: dict[str, dict] = {}
    for s, t in zip(spans, own):
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += t
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {}
    for key in ("calls", "self_s", "partitions"):
        m[f"netmodel.min_cut.{key}"] = get("min_cut", key)
    for key in ("calls", "self_s", "terms"):
        m[f"tnrank.contract.{key}"] = get("contract", key)
    for key in ("calls", "self_s", "cells"):
        m[f"tnrank.rank_mod_p.{key}"] = get("rank_mod_p", key)
    m["tnrank.random_assignment.self_s"] = get("random_assignment", "self_s")
    m["tnrank.estimate_r1.self_s"] = get("estimate_r1", "self_s")
    for key in ("calls", "self_s", "assignments"):
        m[f"codingsearch.exhaustive_achievable.{key}"] = get("exhaustive_achievable", key)
    search_s = get("exhaustive_achievable", "self_s")
    m["codingsearch.assignments_per_s"] = (
        get("exhaustive_achievable", "assignments") / search_s if search_s else 0.0
    )
    for key in ("calls", "self_s"):
        m[f"codingsearch.is_valid.{key}"] = get("is_valid", key)

    scans = {end: [0, 0.0] for end in SCAN_ENDS}
    directed_mc: dict = {}
    above = total = 0
    for i, s in enumerate(spans):
        if s.name != "exhaustive_achievable":
            continue
        net, l = s.args["net"], s.args["l"]
        n = s.counts["assignments"]
        if net not in directed_mc:
            directed_mc[net] = netmodel.min_cut(net).value
        total += n
        if l > directed_mc[net]:
            above += n
        fixture = _top_call(spans, i).fixture
        key = (fixture, variant_of(net), l) if fixture else None
        if key in scans:
            scans[key][0] += n
            scans[key][1] += own[i]
    for (fixture, variant, l), (n, t) in scans.items():
        m[f"codingsearch.{fixture}.{variant}.l{l}.assignments"] = n
        m[f"codingsearch.{fixture}.{variant}.l{l}.s"] = t
    m["codingsearch.above_mc_frac"] = above / total if total else 0.0
    m["codingsearch.above_mc_base"] = total

    m["capreport.bounds_report.self_s"] = get("bounds_report", "self_s")
    m["transforms.self_s"] = sum(
        get(n, "self_s") for n in ("split_cycle_edge", "round_networks", "sandwich_check")
    )
    for name in reproduce.CLAIMS:
        m[f"reproduce.{name}.s"] = sum(
            s.end - s.start
            for s in spans
            if s.name == "call" and s.tag.label == f"run_claim({name})"
        )
    return m


def _top_call(spans: list[Span], i: int):
    while spans[i].parent is not None:
        i = spans[i].parent
    return spans[i].tag


def to_json(spans: list[Span]) -> list:
    """Spans as ``[name, start, end, parent, counts]`` rows for the trace file."""
    return [
        [s.tag.label if s.tag else s.name, s.start, s.end, s.parent, s.counts]
        for s in spans
    ]

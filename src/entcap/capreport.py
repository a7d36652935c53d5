"""Aggregate capacity quantities and bound orderings into one report.

The ordering backbone is: every one-shot coding value on an acyclic
variant lower-bounds the one-shot repeater capacity, which is upper
bounded by the tensor-network rank, which is upper bounded by the
min-cut.  The repeater value is therefore reported as an interval and
collapsed to a point only when the two ends meet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .codingsearch import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    ProtocolError,
    SearchConfig,
    c1_exact,
    counted_c1,
)
from .netmodel import Network, NetworkError, flow_orientation, is_acyclic, min_cut, orient
from .tnrank import diamond_r1, estimate_r1
from .transforms import SplitSpec, split_cycle_edge


class ReportInvariantError(AssertionError):
    """A proven capacity ordering failed; the report is not trustworthy."""


@dataclass(frozen=True)
class C1Result:
    """One-shot coding outcome on one acyclic variant of the network."""

    name: str
    directed_mc: int
    c1: int
    status: str  # "exact" | "budget_exceeded"


@dataclass(frozen=True)
class ReportOptions:
    splits: tuple[SplitSpec, ...] = ()
    rank_trials: int = 3
    seed: int = 0
    coding_budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class CapacityReport:
    """``q1_upper`` bounds R1, hence Q1: the exact R1 where
    :func:`~entcap.tnrank.diamond_r1` knows it, else ``mc``.  R1 is exact
    when the certified ``r1_lower`` meets it."""

    mc: int
    r1_lower: int
    r1_failure_bound: Fraction
    c1_results: tuple[C1Result, ...]
    q1_lower: int
    q1_upper: int
    regularized_c_directed: int
    notes: tuple[str, ...]


def _carrying(net: Network) -> Network:
    """The network without the edges that can carry no message, those with
    no arc of :attr:`~entcap.netmodel.Edge.arcs` from a non-sink to
    another non-source vertex: loops, edges between two sources or two
    sinks, and edges directed into a source or out of a sink.  No directed
    cut or coding value changes, and a cycle of what is left can only run
    through internal vertices."""
    sources, sinks = net.source_set, net.sink_set
    edges = tuple(
        e
        for e in net.edges
        if any(t != h and t not in sinks and h not in sources for t, h in e.arcs)
    )
    return net if len(edges) == len(net.edges) else replace(net, edges=edges)


def _orientations(net: Network):
    """The orientations ``bounds`` tries: terminal edges point with the
    flow, and the undirected edges between two internal vertices try both
    directions, all pointing one way, as opposite parallel edges close a
    2-cycle.  A group's direction is relative to its first edge, and groups
    go in first-edge order, so the acyclic orientations come in the order
    of trying every edge both ways."""
    groups = {}
    assignment = {}
    for e in net.edges:
        if e.is_directed:
            continue
        direction = flow_orientation(net, e)
        if direction is None:
            groups.setdefault(frozenset((e.u, e.v)), []).append(e)
        else:
            assignment[e.id] = direction
    flip = {"uv": "vu", "vu": "uv"}
    for dirs in itertools.product(("uv", "vu"), repeat=len(groups)):
        chosen = zip(dirs, groups.values())
        yield {**assignment, **{e.id: d if e.u == g[0].u else flip[d] for d, g in chosen for e in g}}


def _variant_name(kind: str, spec) -> str:
    if kind == "orient":
        return "orient[" + ",".join(f"{k}={v}" for k, v in sorted(spec.items())) + "]"
    return f"split[{spec.edge_id}={spec.a}x{spec.b}]"


def bounds_report(net: Network, options: ReportOptions = ReportOptions()) -> CapacityReport:
    """Compute MC, the rank estimate, per-variant coding values, and the
    repeater interval, asserting every proven ordering before returning.

    ``mc`` is the min-cut with orientations dropped (the rank's bound).
    A variant whose shape a count covers (a directed diamond, or no
    internal vertex) takes its c1 from
    :func:`~entcap.codingsearch.counted_c1`, which re-checks the count's
    witness in full with ``is_valid``.  Every other variant's coding scan
    stops at its directed min-cut, which bounds c1 by the cut-set bound,
    so a c1 reaching it needs no impossibility search; the search
    re-checks each witness it finds the same way.  The Q1 upper end is
    the exact R1 of a diamond with d5 <= 2, and ``mc`` elsewhere.

    Raises:
        NetworkError: no orientation is acyclic and no split was given, so
            there is no variant to search.
        ReportInvariantError: an ordering fails, or a counted or searched
            witness fails its re-check (``ProtocolError``); the message
            names the variant and the witness.
    """
    est = estimate_r1(net, trials=options.rank_trials, seed=options.seed)
    mc = est.mc_upper

    carrying = _carrying(net)
    variants = []
    for assignment in _orientations(carrying):
        oriented = orient(carrying, assignment)
        if is_acyclic(oriented):
            variants.append((_variant_name("orient", assignment), oriented))
    kept = {e.id for e in carrying.edges}
    for spec in options.splits:
        # A dropped edge is a loop or touches a terminal; the split refuses it.
        split = split_cycle_edge(carrying if spec.edge_id in kept else net, spec)
        variants.append((_variant_name("split", spec), split))
    if not variants:
        raise NetworkError("no acyclic variant: every orientation has a directed cycle")

    c1_results = []
    q1_lower = 1
    notes = []
    for name, variant in variants:
        directed_mc = min_cut(variant).value
        status = "exact"
        cfg = SearchConfig(alphabet_size=1, budget=options.coding_budget)
        try:
            counted = counted_c1(variant)
            c1 = c1_exact(variant, directed_mc, cfg) if counted is None else counted[0]
        except ProtocolError as exc:
            raise ReportInvariantError(f"{name}: {exc}") from exc
        except BudgetExceededError as exc:
            c1 = exc.best_known
            status = "budget_exceeded"
            notes.append(f"{name}: coding search hit the budget; c1 is a lower bound")
        c1_results.append(C1Result(name=name, directed_mc=directed_mc, c1=c1, status=status))
        q1_lower = max(q1_lower, c1)

    r1 = diamond_r1(est.net)
    q1_upper = mc if r1 is None else r1
    regularized_c = max(r.directed_mc for r in c1_results)
    notes.append("regularized repeater and rank capacities equal the min-cut")

    report = CapacityReport(
        mc=mc,
        r1_lower=est.r1_lower,
        r1_failure_bound=est.failure_bound,
        c1_results=tuple(c1_results),
        q1_lower=q1_lower,
        q1_upper=q1_upper,
        regularized_c_directed=regularized_c,
        notes=tuple(notes),
    )
    _assert_orderings(report)
    return report


def _assert_orderings(report: CapacityReport):
    checks = [
        (report.q1_lower <= report.q1_upper, "q1_lower <= q1_upper"),
        (report.q1_upper <= report.mc, "q1_upper <= mc"),
        (report.r1_lower <= report.mc, "r1_lower <= mc"),
        (report.r1_lower <= report.q1_upper, "r1_lower <= R1 upper end"),
    ]
    for r in report.c1_results:
        checks.append((r.c1 <= r.directed_mc, f"{r.name}: c1 <= directed mc"))
        checks.append((r.directed_mc <= report.mc, f"{r.name}: directed mc <= mc"))
    for ok, label in checks:
        if not ok:
            raise ReportInvariantError(f"capacity ordering violated: {label}")


def report_to_obj(report: CapacityReport) -> dict:
    return {
        "mc": report.mc,
        "r1": {
            "lower": report.r1_lower,
            "failure_bound": str(report.r1_failure_bound),
            "exact": report.r1_lower == report.q1_upper,
        },
        "c1": [
            {
                "variant": r.name,
                "directed_mc": r.directed_mc,
                "c1": r.c1,
                "status": r.status,
            }
            for r in report.c1_results
        ],
        "q1": {"lower": report.q1_lower, "upper": report.q1_upper},
        # The regularized repeater and rank capacities both equal the min-cut.
        "regularized": {
            "R": report.mc,
            "Q": report.mc,
            "C_directed": report.regularized_c_directed,
        },
        "notes": list(report.notes),
    }

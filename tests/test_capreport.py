import functools
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entcap import capreport, codingsearch
from entcap.capreport import (
    ReportInvariantError,
    ReportOptions,
    _orientations,
    bounds_report,
    report_to_obj,
)
from entcap.codingsearch import BudgetExceededError, ProtocolTable, SearchConfig, c1_exact
from entcap.fixtures import FIXTURE_NAMES, diamond_network, fixture, path_network
from entcap.netmodel import (
    Edge,
    NetworkError,
    flow_orientation,
    is_acyclic,
    min_cut,
    network,
    orient,
    random_network,
)
from entcap.reproduce import _status
from entcap.tnrank import estimate_r1
from entcap.transforms import SplitSpec
from networks import oriented_path


# Both fig2 tests read the one report, at the default budget: both of
# its orientations are directed diamonds, whose c1 is counted.
@functools.cache
def _fig2_report():
    return bounds_report(fixture("fig2_counterexample"), ReportOptions(rank_trials=5))


class TestBoundsReport:
    def test_n4_point_value(self):
        report = bounds_report(
            fixture("n_d5_4"),
            ReportOptions(splits=(SplitSpec("d5", 2, 2),)),
        )
        assert report.mc == 6
        assert report.r1_lower == 6
        assert (report.q1_lower, report.q1_upper) == (6, 6)

    def test_n2_interval(self):
        report = bounds_report(
            fixture("n_d5_2"),
            ReportOptions(splits=(SplitSpec("d5", 2, 1),)),
        )
        assert report.mc == 6
        assert (report.q1_lower, report.q1_upper) == (5, 6)

    def test_path_all_collapse(self):
        report = bounds_report(path_network(2, 3))
        assert report.mc == 2
        assert report.r1_lower == 2
        assert (report.q1_lower, report.q1_upper) == (2, 2)
        regularized = report_to_obj(report)["regularized"]
        assert regularized["R"] == regularized["Q"] == 2

    def test_fig2_gap_visible(self):
        report = _fig2_report()
        assert report.mc == 15
        assert report.r1_lower == 14
        assert (report.q1_lower, report.q1_upper) == (13, 14)

    def test_fig2_upper_is_exact_r1(self):
        report = _fig2_report()
        assert report.q1_upper == 14  # the exact R1 of a d5 = 2 diamond
        assert report_to_obj(report)["r1"]["exact"] is True

    def test_orientation_variants_enumerated(self):
        report = bounds_report(fixture("n_d5_2"))
        names = [r.name for r in report.c1_results]
        assert len(names) == 2  # the middle edge tried both ways
        assert all(name.startswith("orient[") for name in names)

    def test_c1_below_directed_mc(self):
        report = bounds_report(
            fixture("n_d5_4"), ReportOptions(splits=(SplitSpec("d5", 2, 2),))
        )
        for r in report.c1_results:
            assert r.c1 <= r.directed_mc <= report.mc
            assert r.status == "exact"
        # The best single direction gives 5; only the split reaches 6.
        assert [(r.name, r.c1) for r in report.c1_results] == [
            ("orient[d1=uv,d2=uv,d3=uv,d4=uv,d5=uv]", 4),
            ("orient[d1=uv,d2=uv,d3=uv,d4=uv,d5=vu]", 5),
            ("split[d5=2x2]", 6),
        ]

    def test_split_diamond_beats_every_orientation(self):
        # The (2,3,3,2,4) separation: splitting d5 as 2x2 lifts c1 from 5 to 6.
        report = bounds_report(
            fixture("n_d5_4"), ReportOptions(splits=(SplitSpec("d5", 2, 2),))
        )
        oriented = [r for r in report.c1_results if r.name.startswith("orient[")]
        (split,) = [r for r in report.c1_results if r.name.startswith("split[")]
        assert max(r.c1 for r in oriented) == 5
        assert (split.directed_mc, split.c1) == (6, 6)
        assert report.q1_lower == 6

    def test_scan_stops_at_directed_mc(self):
        # d5=uv reaches its directed MC of 4; l = 5 is never searched.
        report = bounds_report(fixture("n_d5_2"), ReportOptions(coding_budget=200_000))
        assert [r.status for r in report.c1_results] == ["exact", "exact"]
        assert not any("budget" in note for note in report.notes)

    @pytest.mark.parametrize(
        "name, c1_rows, q1",
        [
            ("fig2_counterexample", [(15, 13), (9, 9)], (13, 14)),
            ("fig1_scaled_k2", [(16, 16), (24, 20)], (20, 24)),
            ("fig1_scaled_k3", [(36, 36), (54, 45)], (45, 54)),
        ],
    )
    def test_diamond_rows_counted_at_default_settings(self, name, c1_rows, q1):
        # Directed MC and c1 of d5=uv, then d5=vu; the search alone does not
        # finish these at the default budget.
        report = bounds_report(fixture(name))
        assert [(r.directed_mc, r.c1) for r in report.c1_results] == c1_rows
        assert all(r.status == "exact" for r in report.c1_results)
        assert (report.q1_lower, report.q1_upper) == q1
        assert report.notes == ("regularized repeater and rank capacities equal the min-cut",)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_fixture_row_exact_at_default_settings(self, name):
        report = bounds_report(fixture(name))
        assert all(r.status == "exact" for r in report.c1_results)

    def test_counted_witness_rechecked(self, monkeypatch):
        monkeypatch.setattr(codingsearch, "is_valid", lambda net, pt: False)
        with pytest.raises(ReportInvariantError, match="counted diamond witness"):
            bounds_report(fixture("n_d5_2"))
        with pytest.raises(ReportInvariantError, match="counted direct witness"):
            bounds_report(path_network(5))

    def test_searched_witness_rechecked(self, monkeypatch):
        monkeypatch.setattr(codingsearch, "is_valid", lambda net, pt: False)
        with pytest.raises(
            ReportInvariantError, match=re.escape("orient[]: the searched witness is not valid")
        ):
            bounds_report(fixture("n2_up"))

    @pytest.mark.parametrize(
        "net",
        [
            orient(diamond_network(2, 3, 3, 2, 2), {f"d{i}": "uv" for i in range(1, 6)}),
            oriented_path(5),
        ],
        ids=["directed_diamond", "direct"],
    )
    def test_counted_witness_rechecked_by_claims(self, net, monkeypatch):
        # The claims re-check the whole counted witness, above c1 too.
        c1 = codingsearch.counted_c1(net)[0]
        monkeypatch.setattr(codingsearch, "is_valid", lambda net, pt: False)
        for l in (c1, c1 + 1):
            assert _status(net, l) == "invalid witness", l

    def test_malformed_counted_table_is_a_failure(self, monkeypatch):
        # is_valid's own ProtocolError (a row of the wrong arity) is reported
        # as a rejected count, not as bad input.
        malformed = ProtocolTable(((0, 0),), {})
        monkeypatch.setattr(codingsearch, "_COUNTS", (("direct", lambda net: (5, malformed)),))
        with pytest.raises(ReportInvariantError, match="counted direct witness is not valid: "
                           "source encoder row arity mismatch"):
            bounds_report(path_network(5))
        assert _status(oriented_path(5), 1) == "invalid witness"

    def test_regularized_c_is_best_directed_mc(self):
        report = bounds_report(fixture("n_d5_2"))
        assert report.regularized_c_directed == max(
            r.directed_mc for r in report.c1_results
        )

    def test_invalid_network_rejected(self):
        with pytest.raises(NetworkError):
            bounds_report(network(["s", "t"], [Edge("e", "s", "t", 0)], ["s"], ["t"]))

    def test_seed_independence_of_exact_values(self):
        a = bounds_report(fixture("n_d5_3"), ReportOptions(seed=0))
        b = bounds_report(fixture("n_d5_3"), ReportOptions(seed=99))
        assert (a.mc, a.r1_lower, a.q1_lower, a.q1_upper) == (
            b.mc,
            b.r1_lower,
            b.q1_lower,
            b.q1_upper,
        )


def _two_sinks():
    return network(
        ["s", "n", "t1", "t2"],
        [
            Edge("a", "s", "n", 2),
            Edge("b", "n", "t1", 2),
            Edge("c", "t1", "t2", 1),
            Edge("d", "t2", "t1", 1),
        ],
        ["s"],
        ["t1", "t2"],
    )


def _self_loop():
    return network(
        ["s", "n", "t"],
        [Edge("a", "s", "n", 2), Edge("b", "n", "t", 2), Edge("c", "n", "n", 3)],
        ["s"],
        ["t"],
    )


def _split_two_sinks():
    net = fixture("n_d5_4")
    return replace(
        net,
        vertices=(*net.vertices, "t2"),
        sinks=("t", "t2"),
        edges=(*net.edges, Edge("x", "t", "t2", 1), Edge("y", "t2", "t", 1)),
    )


class TestEdgesThatCarryNothing:
    """Sink-sink edges and loops once closed a cycle in every variant, so
    the report had no c1 row; ``bounds`` now leaves such edges out."""

    @pytest.mark.parametrize(
        "make, splits, q1",
        [
            (_two_sinks, (), (2, 2)),
            (_self_loop, (), (2, 2)),
            (_split_two_sinks, (SplitSpec("d5", 2, 2),), (6, 6)),
        ],
        ids=["two-sinks", "self-loop", "split"],
    )
    def test_rows_and_interval(self, make, splits, q1):
        report = bounds_report(make(), ReportOptions(splits=splits))
        assert report.c1_results
        assert all(r.status == "exact" for r in report.c1_results)
        assert (report.q1_lower, report.q1_upper) == q1
        assert report.regularized_c_directed == q1[0]

    def test_names_leave_out_dropped_edges(self):
        (row,) = bounds_report(_two_sinks()).c1_results
        assert row.name == "orient[a=uv,b=uv]"

    @pytest.mark.parametrize(
        "make, spec, reason",
        [
            (_self_loop, SplitSpec("c", 3, 1), "self-loop"),
            (_two_sinks, SplitSpec("c", 1, 1), "touches a source or sink"),
        ],
    )
    def test_split_of_a_dropped_edge_says_why(self, make, spec, reason):
        with pytest.raises(NetworkError, match=reason):
            bounds_report(make(), ReportOptions(splits=(spec,)))


def test_no_acyclic_variant_is_refused():
    """a -> b and b -> a form a cycle in every orientation, and a split of
    either is refused, so there is no variant whose c1 could be reported."""
    net = network(
        ["s", "a", "b", "t"],
        [
            Edge("sa", "s", "a", 2),
            Edge("ab", "a", "b", 2, "uv"),
            Edge("ba", "b", "a", 2, "uv"),
            Edge("bt", "b", "t", 2),
        ],
        ["s"],
        ["t"],
    )
    with pytest.raises(NetworkError, match="no acyclic variant"):
        bounds_report(net)
    with pytest.raises(NetworkError, match="parallel edge"):
        bounds_report(net, ReportOptions(splits=(SplitSpec("ab", 1, 2),)))


def _every_direction(net):
    """The orientations as ``bounds`` once enumerated them: terminal edges
    with the flow, every internal-internal undirected edge both ways, one
    edge at a time."""
    free, assignment = [], {}
    for e in net.edges:
        if not e.is_directed:
            direction = flow_orientation(net, e)
            if direction is None:
                free.append(e.id)
            else:
                assignment[e.id] = direction
    for dirs in itertools.product(("uv", "vu"), repeat=len(free)):
        yield {**assignment, **dict(zip(free, dirs))}


def _acyclic(net, assignments):
    return [a for a in assignments if is_acyclic(orient(net, a))]


def _with_parallel_edges(seed):
    """A random network with up to four more edges between internal
    vertices, each parallel or reversed to an internal edge it has, or
    new; a third of them directed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    net = random_network(rng)
    internal = net.internal_vertices
    edges = list(net.edges)
    if len(internal) >= 2:
        for i in range(int(rng.integers(0, 5))):
            u, v = (str(x) for x in rng.choice(internal, size=2, replace=False))
            inner = [e for e in edges if e.u in internal and e.v in internal]
            if inner and rng.random() < 0.7:
                e = inner[int(rng.integers(len(inner)))]
                u, v = (e.u, e.v) if rng.random() < 0.5 else (e.v, e.u)
            orientation = str(rng.choice(["undirected", "undirected", "uv", "vu"]))
            edges.append(Edge(f"p{i}", u, v, int(rng.integers(1, 4)), orientation))
    return replace(net, edges=tuple(edges))


class TestOrientations:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_match_every_direction(self, name):
        net = fixture(name)
        assert _acyclic(net, _orientations(net)) == _acyclic(net, _every_direction(net))

    def test_parallel_edges_match_every_direction(self):
        for seed in range(500):
            net = _with_parallel_edges(seed)
            got = _acyclic(net, _orientations(net))
            assert got == _acyclic(net, _every_direction(net)), seed

    def test_parallel_middle_edges_point_one_way(self):
        # 24 parallel middle edges: two orientations, not 2**24.
        middle = [Edge(f"m{i}", "n1", "n2", 1) for i in range(24)]
        base = diamond_network(2, 3, 3, 2, 1)
        net = replace(base, edges=base.edges[:4] + tuple(middle))
        assert len(list(itertools.islice(_orientations(net), 3))) == 2


_BUDGET = 20_000


def _best_over_all_orientations(net):
    """(best c1, best directed MC) over every orientation of every
    undirected edge, or None when a search hits the budget.  In each
    orientation, loops and edges into a source or out of a sink carry
    nothing and are left out; with no acyclic orientation, (1, 0)."""
    undirected = [e.id for e in net.edges if not e.is_directed]
    best_c1, best_mc = 1, 0
    for dirs in itertools.product(("uv", "vu"), repeat=len(undirected)):
        oriented = orient(net, dict(zip(undirected, dirs)))
        oriented = replace(
            oriented,
            edges=tuple(
                e
                for e in oriented.edges
                if not e.is_self_loop
                and e.head not in net.source_set
                and e.tail not in net.sink_set
            ),
        )
        if not is_acyclic(oriented):
            continue
        directed_mc = min_cut(oriented).value
        cfg = SearchConfig(1, budget=_BUDGET)
        try:
            c1 = c1_exact(oriented, directed_mc, cfg)
        except BudgetExceededError:
            return None
        best_c1, best_mc = max(best_c1, c1), max(best_mc, directed_mc)
    return best_c1, best_mc


@st.composite
def _small_networks(draw):
    """1-2 sources and sinks, 0-2 internal vertices, up to five edges of
    dim 1-3 between any two vertices (loops too), some of them directed."""
    sources = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    sinks = [f"t{i}" for i in range(draw(st.integers(1, 2)))]
    vertices = sources + sinks + [f"n{i}" for i in range(draw(st.integers(0, 2)))]
    ends = st.sampled_from(vertices)
    edges = draw(
        st.lists(
            st.tuples(
                ends, ends, st.integers(1, 3), st.sampled_from(["undirected"] * 3 + ["uv", "vu"])
            ),
            min_size=1,
            max_size=5,
        )
    )
    return network(
        vertices,
        [Edge(f"e{i}", u, v, dim, o) for i, (u, v, dim, o) in enumerate(edges)],
        sources,
        sinks,
    )


@given(_small_networks())
@settings(max_examples=150, deadline=None)
def test_flow_rule_matches_all_orientations(net):
    """Pointing terminal edges with the flow loses nothing: the report's
    Q1 lower end and best directed MC equal the best over all orientations."""
    oracle = _best_over_all_orientations(net)
    options = ReportOptions(coding_budget=_BUDGET, rank_trials=1)
    if oracle == (1, 0):
        with pytest.raises(NetworkError, match="no acyclic variant"):
            bounds_report(net, options)
        return
    report = bounds_report(net, options)
    assume(oracle is not None)
    assume(all(r.status == "exact" for r in report.c1_results))
    assert (report.q1_lower, report.regularized_c_directed) == oracle


class TestReportObj:
    def test_shape_and_values(self):
        report = bounds_report(
            fixture("n_d5_4"),
            ReportOptions(splits=(SplitSpec("d5", 2, 2),)),
        )
        obj = report_to_obj(report)
        assert set(obj) == {"mc", "r1", "c1", "q1", "regularized", "notes"}
        assert obj["q1"] == {"lower": 6, "upper": 6}
        assert obj["regularized"]["R"] == obj["regularized"]["Q"] == 6
        split_rows = [r for r in obj["c1"] if r["variant"].startswith("split")]
        assert split_rows and split_rows[0]["c1"] == 6

    def test_failure_bound_serialized_as_string(self):
        obj = report_to_obj(bounds_report(path_network(2, 2)))
        assert isinstance(obj["r1"]["failure_bound"], str)
        assert "/" in obj["r1"]["failure_bound"] or obj["r1"]["failure_bound"] == "0"


class TestOrderings:
    def test_invariant_error_is_assertion(self):
        assert issubclass(ReportInvariantError, AssertionError)

    def test_rank_above_r1_upper_end_is_refused(self, monkeypatch):
        # An exact R1 below the certified rank can only come from a bug.
        monkeypatch.setattr(capreport, "diamond_r1", lambda net: estimate_r1(net).r1_lower - 1)
        with pytest.raises(ReportInvariantError, match="r1_lower <= R1 upper end"):
            bounds_report(fixture("n_d5_2"))

    def test_c1_above_directed_mc_is_refused(self, monkeypatch):
        # A count of 5 on d5=uv (directed MC 4) stays below q1_upper 6, so
        # only the cut-set bound c1 <= directed MC can catch it.
        def overshooting(net):
            c1, witness = counted_c1(net)
            d5 = next(e for e in net.edges if e.id == "d5")
            return (5 if d5.orientation == "uv" else c1), witness

        counted_c1 = codingsearch.counted_c1
        monkeypatch.setattr(capreport, "counted_c1", overshooting)
        variant = re.escape("orient[d1=uv,d2=uv,d3=uv,d4=uv,d5=uv]: c1 <= directed mc")
        with pytest.raises(ReportInvariantError, match=variant):
            bounds_report(fixture("n_d5_2"))

    @pytest.mark.parametrize(
        "name", ["n_d5_2", "n_d5_3", "n_d5_4", "path_2_3", "path_3_3"]
    )
    def test_orderings_hold_on_fixtures(self, name):
        report = bounds_report(fixture(name))
        assert report.q1_lower <= report.q1_upper <= report.mc
        assert report.r1_lower <= report.mc
        assert report_to_obj(report)["regularized"]["R"] == report.mc

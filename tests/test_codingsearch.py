import itertools
import json
import sys
from dataclasses import replace
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entcap import codingsearch
from entcap.codingsearch import (
    BudgetExceededError,
    ProtocolError,
    ProtocolTable,
    SearchConfig,
    _Searcher,
    _compile,
    _forward,
    _protocol_plan,
    _source_symbols,
    _tuple_reader,
    c1_exact,
    counted_c1,
    diamond_c1,
    direct_c1,
    exhaustive_achievable,
    is_valid,
    paper_protocol_n2,
    paper_protocol_n4,
    protocol_to_obj,
    source_out_edges,
)
from entcap.fixtures import diamond_network, fixture, path_network
from entcap.netmodel import (
    ENUMERATION_LIMIT,
    CyclicNetworkError,
    Edge,
    TooLargeError,
    dump_network,
    is_acyclic,
    load_network,
    min_cut,
    network,
    orient,
    random_network,
    topological_order,
)
from entcap.reproduce import _status
from entcap.transforms import SplitSpec, split_cycle_edge
from networks import oriented_path


class _PlainSearcher(_Searcher):
    """The plain enumeration, the oracle for the search: no cut-set bound
    (only l above the source rows is refused), no message-order break,
    and the encoder pinned only when ``cfg.fix_source_bijection`` is set."""

    def __init__(self, net, cfg):
        super().__init__(net, cfg)
        self.max_l = self.P
        self.fixed = self.l == self.P and cfg.fix_source_bijection

    def _source_rows(self, after=None):
        return super()._source_rows()


def simulate(net, pt, message):
    """The sink tuple that ``message`` reaches under the protocol."""
    plan = _protocol_plan(net, pt)
    return _forward(plan, _source_symbols(plan, pt.source_encoder[message]), pt.node_functions)[0]


def identity_path_protocol(dim):
    return ProtocolTable(
        source_encoder=tuple((m,) for m in range(dim)),
        node_functions={"n1": tuple(range(dim))},
    )


class TestSimulate:
    def test_identity_routing(self):
        net = oriented_path(2, 2)
        pt = identity_path_protocol(2)
        assert [simulate(net, pt, m) for m in range(2)] == [(0,), (1,)]

    def test_single_sink_edge_gives_a_1_tuple(self):
        net = oriented_path(2, 3)
        pt = ProtocolTable(((0,), (1,)), {"n1": (2, 1)})
        assert [simulate(net, pt, m) for m in range(2)] == [(2,), (1,)]

    @pytest.mark.parametrize("positions", [(), (2,), (2, 0), (1, 2, 0)])
    def test_tuple_reader(self, positions):
        sym = [5, 6, 7]
        assert _tuple_reader(positions)(sym) == tuple(sym[p] for p in positions)

    def test_constant_node_function(self):
        net = oriented_path(3, 3)
        pt = ProtocolTable(
            source_encoder=((0,), (1,), (2,)),
            node_functions={"n1": (0, 0, 0)},
        )
        assert {simulate(net, pt, m) for m in range(3)} == {(0,)}
        assert not is_valid(net, pt)

    def test_transcribed_n2_escape_pair(self):
        net, pt = fixture("n2_up"), paper_protocol_n2()
        # Message 4 encodes the escape pair (0, 2): n1 emits the escape
        # symbol 2 on d3 and n2 falls back to 0 on d4.
        assert simulate(net, pt, 4) == (2, 0)
        assert simulate(net, pt, 3) == (1, 1)

    def test_transcribed_protocols_decode(self):
        assert is_valid(fixture("n4_split_2x2"), paper_protocol_n4())
        assert is_valid(fixture("n2_up"), paper_protocol_n2())

    def test_transcribed_n4_sink_tuples_distinct(self):
        net, pt = fixture("n4_split_2x2"), paper_protocol_n4()
        tuples = [simulate(net, pt, m) for m in range(6)]
        assert len(set(tuples)) == 6

    def test_cyclic_network_rejected(self):
        # s -> n1 -> t -> n2 -> s
        dirs = {"d1": "uv", "d2": "vu", "d3": "uv", "d4": "vu", "d5": "uv"}
        net = orient(diamond_network(2, 3, 3, 2, 2), dirs)
        with pytest.raises(CyclicNetworkError):
            is_valid(net, identity_path_protocol(2))

    def test_undirected_network_rejected(self):
        with pytest.raises(Exception, match="undirected"):
            is_valid(path_network(2, 2), identity_path_protocol(2))

    def test_missing_table_rejected(self):
        net = oriented_path(2, 2)
        pt = ProtocolTable(((0,), (1,)), {})
        with pytest.raises(ProtocolError, match="missing node function"):
            is_valid(net, pt)

    def test_wrong_table_length_rejected(self):
        net = oriented_path(2, 2)
        pt = ProtocolTable(((0,), (1,)), {"n1": (0,)})
        with pytest.raises(ProtocolError, match="rows"):
            is_valid(net, pt)


class TestExhaustiveSearch:
    def test_n4_split_l6_witness(self):
        net = fixture("n4_split_2x2")
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=6))
        assert res.status == "witness"
        assert is_valid(net, res.witness)

    def test_n4_split_l6_without_bijection_fixing(self):
        net = fixture("n4_split_2x2")
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=6))
        assert res.status == "witness"
        assert is_valid(net, res.witness)

    def test_n2_up_l5_witness_l6_impossible(self):
        net = fixture("n2_up")
        r5 = exhaustive_achievable(net, SearchConfig(alphabet_size=5))
        r6 = exhaustive_achievable(net, SearchConfig(alphabet_size=6))
        assert r5.status == "witness" and is_valid(net, r5.witness)
        assert r6.status == "impossible"

    def test_deterministic_witness(self):
        net = fixture("n2_up")
        a = exhaustive_achievable(net, SearchConfig(alphabet_size=5))
        b = exhaustive_achievable(net, SearchConfig(alphabet_size=5))
        assert a.witness == b.witness
        assert a.assignments == b.assignments

    # (status, assignments, witness) of the unpruned lazy enumeration,
    # recorded once; any change to the enumeration order shows here.
    N2_L5_WITNESS = {
        "l": 5,
        "source": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]],
        "nodes": {
            "n1_early": {"table": [0, 0]},
            "n1_late": {"table": [0, 1, 2, 0]},
            "n2_early": {"table": [0, 0, 1]},
            "n2_late": {"table": [0, 1, 0]},
        },
    }
    N4_L6_WITNESS = {
        "l": 6,
        "source": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        "nodes": {
            "n1_early": {"table": [0, 1]},
            "n1_late": {"table": [0, 1, 2, 1]},
            "n2_early": {"table": [0, 0, 1]},
            "n2_late": {"table": [0, 0, 1, 1, 0, 1]},
        },
    }

    @pytest.mark.parametrize(
        "name, l, fix, expected",
        [
            ("n2_up", 5, False, ("witness", 35, N2_L5_WITNESS)),
            ("n2_up", 6, True, ("impossible", 1773, None)),
            ("n4_split_2x2", 6, True, ("witness", 42, N4_L6_WITNESS)),
            ("n4_split_2x2", 6, False, ("witness", 109, N4_L6_WITNESS)),
        ],
    )
    def test_pinned_enumeration(self, name, l, fix, expected):
        res = _PlainSearcher(
            fixture(name),
            SearchConfig(alphabet_size=l, fix_source_bijection=fix),
        ).run()
        witness = protocol_to_obj(res.witness) if res.witness else None
        assert (res.status, res.assignments, witness) == expected

    # The same searches pruned: fewer assignments, the same witnesses.  At
    # l = 6, every source row, the pruned search pins the encoder whether
    # or not the oracle's flag is set, so those rows match the flagged oracle.
    # The n_d5_4 row is the impossibility proof that the diamond-bounds
    # benchmark times, at l = 6 and directed MC 6.  The n_d5_2 row asks
    # for l = 5 above its directed MC 4, so the cut-set bound refuses it
    # with no assignment.
    @pytest.mark.parametrize(
        "name, l, fix, expected",
        [
            ("n2_up", 5, False, ("witness", 25, N2_L5_WITNESS)),
            ("n2_up", 6, True, ("impossible", 1773, None)),
            ("n4_split_2x2", 6, True, ("witness", 42, N4_L6_WITNESS)),
            ("n4_split_2x2", 6, False, ("witness", 42, N4_L6_WITNESS)),
            ("n_d5_4:d5=vu", 6, True, ("impossible", 43_472, None)),
            ("n_d5_2:d5=uv", 5, True, ("impossible", 0, None)),
            ("n2_up", 6, False, ("impossible", 1773, None)),
        ],
    )
    def test_pinned_pruned_enumeration(self, name, l, fix, expected):
        name, _, d5 = name.partition(":d5=")
        net = fixture(name)
        if d5:
            net = orient(net, {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": d5})
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=l, fix_source_bijection=fix))
        witness = protocol_to_obj(res.witness) if res.witness else None
        assert (res.status, res.assignments, witness) == expected

    def test_cut_set_bound(self):
        # Sink in-edges of dims 1 and 2: three messages cannot all differ
        # there, although the source offers 2 * 2 rows.  On s -> a -> b -> t
        # with dims (3, 1, 3) the middle cut, of dim 1, is narrower than
        # both end cuts: two messages cannot both cross it.
        sink_cut = orient(
            diamond_network(2, 2, 1, 2, 1),
            {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": "uv"},
        )
        middle_cut = oriented_path(3, 1, 3)
        for net, l in ((sink_cut, 3), (middle_cut, 2)):
            assert min_cut(net).value < l
            pruned = exhaustive_achievable(net, SearchConfig(alphabet_size=l))
            oracle = _PlainSearcher(net, SearchConfig(alphabet_size=l)).run()
            assert (pruned.status, pruned.assignments) == ("impossible", 0)
            assert oracle.status == "impossible" and oracle.assignments > 0

    def test_cut_set_bound_past_the_enumeration_limit(self):
        # 21 cut units: min_cut refuses, so the search keeps the source and
        # sink cuts as its bound and still finds the dim-2 chain's code.
        net = oriented_path(*[2] * 22)
        assert len(net.internal_vertices) == ENUMERATION_LIMIT + 1
        with pytest.raises(TooLargeError):
            min_cut(net)
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=2))
        assert res.status == "witness" and is_valid(net, res.witness)
        above = exhaustive_achievable(net, SearchConfig(alphabet_size=3))
        assert (above.status, above.assignments) == ("impossible", 0)

    # _extend recurses at least once per message, so l messages at the
    # recursion limit cannot fit on the stack: the search is refused, not
    # crashed, and a later search runs as before.  Pinned and not, with
    # no relaying vertex and with one.
    @pytest.mark.parametrize("pinned, steps", [(True, 0), (True, 1), (False, 0), (False, 1)])
    def test_too_deep_for_the_stack(self, pinned, steps):
        def path(l):
            return oriented_path(*[l if pinned else 2 * l] * (steps + 1))

        deep = sys.getrecursionlimit()
        with pytest.raises(TooLargeError, match=f"at l={deep} nests past the recursion limit"):
            exhaustive_achievable(path(deep), SearchConfig(alphabet_size=deep))
        net = path(100)
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=100))
        assert res.status == "witness" and is_valid(net, res.witness)

    def test_no_symbol_toward_a_source(self):
        # A source reads nothing, so n's edge e into the source s2 carries 0.
        net = network(
            ["s1", "s2", "n", "m", "t"],
            [
                Edge("a", "s1", "n", 3, "uv"),
                Edge("b", "n", "m", 2, "uv"),
                Edge("c", "m", "t", 2, "uv"),
                Edge("d", "n", "t", 1, "uv"),
                Edge("e", "n", "s2", 3, "uv"),
                Edge("f", "s2", "t", 1, "uv"),
            ],
            ["s1", "s2"],
            ["t"],
        )
        (step,) = (s for s in _Searcher(net, SearchConfig(2)).plan.steps if s.vertex == "n")
        e_pos = [e.id for e in net.edges].index("e")
        assert e_pos not in [pos for pos, _ in step.outs]
        assert step.codomain == 2
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=2))
        assert (res.status, res.assignments) == ("witness", 8)

    def test_l1_always_achievable(self):
        net = oriented_path(2, 3)
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=1))
        assert res.status == "witness"

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_single_sink_edge_matches_oracle(self, l):
        net = oriented_path(2, 3)
        pruned = exhaustive_achievable(net, SearchConfig(alphabet_size=l))
        oracle = _PlainSearcher(net, SearchConfig(alphabet_size=l)).run()
        assert pruned.status == oracle.status == ("witness" if l <= 2 else "impossible")
        assert _witness_json(pruned) == _witness_json(oracle)
        if pruned.witness:
            assert is_valid(net, pruned.witness)

    def test_budget_exceeded(self):
        net = fixture("n4_split_2x2")
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=6, budget=3))
        assert res.status == "budget_exceeded"
        assert res.witness is None
        assert res.assignments == 3 + 1

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(alphabet_size=2, budget=0)


def _witness_json(res):
    return json.dumps(protocol_to_obj(res.witness)) if res.witness else None


def _differential_corpus():
    """The staged fixtures, the split diamonds with dims 2..3 and splits
    1x2, 2x1, 2x2, 1x3 and 3x1, every acyclic orientation of the
    (2,3,3,2,4) diamond, and acyclic random orientations of random
    networks."""
    corpus = [(name, fixture(name)) for name in ("n2_up", "n4_split_2x2")]
    for a, b in ((1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        for dims in itertools.product(range(2, 4), repeat=4):
            net = split_cycle_edge(diamond_network(*dims, a * b), SplitSpec("d5", a, b))
            corpus.append((f"split-{a}x{b}-" + "-".join(map(str, dims)), net))
    diamond = diamond_network(2, 3, 3, 2, 4)
    eids = [e.id for e in diamond.edges]
    for dirs in itertools.product(("uv", "vu"), repeat=len(eids)):
        net = orient(diamond, dict(zip(eids, dirs)))
        if is_acyclic(net):
            corpus.append(("diamond-" + "-".join(dirs), net))
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        net = random_network(rng)
        dirs = rng.choice(["uv", "vu"], size=len(net.edges))
        net = orient(net, {e.id: str(d) for e, d in zip(net.edges, dirs)})
        if is_acyclic(net):
            corpus.append((f"random-{seed}", net))
    return corpus


CORPUS = _differential_corpus()

#: Every diamond with dims 1..3, terminal edges u -> v and d5 either way:
#: 288 of the 486 search past the encoder pin at l = P, and 279 of those
#: finish unpinned within 5,000 assignments (233 witnesses, 46 impossible).
PIN_CORPUS = [
    (
        "pin-" + "-".join(map(str, dims)) + "-d5" + d5,
        orient(diamond_network(*dims), {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": d5}),
    )
    for dims in itertools.product(range(1, 4), repeat=5)
    for d5 in ("uv", "vu")
]


@pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[name for name, _ in CORPUS])
def test_pruned_search_matches_oracle(net):
    """Pruning never changes a finished search's status or witness, and
    never costs assignments; it may finish a search the oracle cannot."""
    for l, fix in itertools.product(range(1, 7), (False, True)):
        cfg = SearchConfig(alphabet_size=l, budget=5_000, fix_source_bijection=fix)
        oracle = _PlainSearcher(net, cfg).run()
        pruned = _Searcher(net, cfg).run()
        if oracle.status == "budget_exceeded":
            if pruned.status == "witness":
                assert is_valid(net, pruned.witness)
            continue
        assert pruned.status == oracle.status, (l, fix)
        assert _witness_json(pruned) == _witness_json(oracle), (l, fix)
        assert pruned.assignments <= oracle.assignments, (l, fix)


@pytest.mark.parametrize(
    "net",
    [net for _, net in CORPUS + PIN_CORPUS],
    ids=[name for name, _ in CORPUS + PIN_CORPUS],
)
def test_full_alphabet_pin(net):
    """At l = P, the number of source rows, the pruned search pins the
    encoder itself: the oracle's flag changes nothing, and the pin keeps
    the status and witness of the unpinned pruned search when that one
    finishes, at no more assignments."""
    l = prod(e.dim for e in source_out_edges(net))
    runs = [
        _Searcher(net, SearchConfig(alphabet_size=l, budget=5_000, fix_source_bijection=fix)).run()
        for fix in (False, True)
    ]
    assert runs[0] == runs[1]
    unpinned = _Searcher(net, SearchConfig(alphabet_size=l, budget=5_000))
    unpinned.fixed = False
    oracle = unpinned.run()
    if oracle.status != "budget_exceeded":
        assert (runs[0].status, _witness_json(runs[0])) == (oracle.status, _witness_json(oracle))
        assert runs[0].assignments <= oracle.assignments


def _vertex_rule_live_steps(net):
    """The live steps by the vertex-level rule, rebuilt over the full
    compiled plan: ``reached`` runs from the sources over a successor map
    (stage links included, a sink forwarding nothing); then, backwards, a
    reached vertex writes the out-edges whose head is a reader, and it is
    a reader itself when it writes one or when its late stage is live."""
    full = _compile(net)
    succ = {v: set() for v in net.vertices}
    for e in net.edges:
        succ[e.tail].add(e.head)
    for early, late in net.stage_pairs:
        succ[early].add(late)
    reached = set(net.sources)
    for v in topological_order(net):
        if v in reached and v not in net.sink_set:
            reached.update(succ[v])
    head = [e.head for e in net.edges]
    late_of = dict(net.stage_pairs)
    readers = set(net.sinks)
    live = {}
    for step in reversed(full.steps):
        if step.vertex not in reached:
            continue
        outs = tuple(port for port in step.outs if head[port[0]] in readers)
        if outs:
            live[step.vertex] = step._replace(outs=outs, codomain=prod(d for _, d in outs))
        if outs or late_of.get(step.vertex) in live:
            readers.add(step.vertex)
    return tuple(live[step.vertex] for step in full.steps if step.vertex in live)


def _unreached_early():
    """A late stage fed from the source whose early stage nothing reaches:
    x -> e is visible to the late stage but has no live writer."""
    return network(
        ["s", "x", "e", "l", "t"],
        [
            Edge("a", "s", "l", 2, "uv"),
            Edge("b", "x", "e", 3, "uv"),
            Edge("c", "e", "t", 2, "uv"),
            Edge("d", "l", "t", 2, "uv"),
        ],
        ["s"],
        ["t"],
        [("e", "l")],
    )


LIVENESS_CORPUS = CORPUS + [("unreached-early", _unreached_early())]


@pytest.mark.parametrize(
    "net", [net for _, net in LIVENESS_CORPUS], ids=[name for name, _ in LIVENESS_CORPUS]
)
def test_live_plan_matches_vertex_rule(net):
    """The port-level liveness passes keep exactly the steps, ins, outs
    and codomains that the vertex-level rule keeps."""
    assert _Searcher(net, SearchConfig(1)).plan.steps == _vertex_rule_live_steps(net)


@st.composite
def _partial_protocol(draw):
    """A compiled acyclic network, a source row and tables that are only
    partly filled: each entry is None or a value in the step's codomain."""
    if draw(st.booleans()):
        net = fixture(draw(st.sampled_from(["n2_up", "n4_split_2x2"])))
    else:
        rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
        net = random_network(rng)
        size = len(net.edges)
        dirs = draw(st.lists(st.sampled_from(["uv", "vu"]), min_size=size, max_size=size))
        net = orient(net, {e.id: d for e, d in zip(net.edges, dirs)})
        assume(is_acyclic(net))
    plan = _compile(net)
    row = tuple(draw(st.integers(0, e.dim - 1)) for e in source_out_edges(net))
    tables = {
        step.vertex: [
            draw(st.none() | st.integers(0, step.codomain - 1))
            for _ in range(prod(dim for _, dim in step.ins))
        ]
        for step in plan.steps
    }
    return plan, row, tables


@given(_partial_protocol(), st.data())
@settings(max_examples=150, deadline=None)
def test_resumed_pass_matches_fresh_pass(protocol, data):
    """Fill each missing entry a pass stops at, then resume the pass at the
    reported step k, or write the entry's outputs and resume at k + 1: both
    give the ``(sink_tuple, missing)`` of a fresh pass from step 0."""
    plan, row, tables = protocol
    sym = _source_symbols(plan, row)
    result = _forward(plan, sym, tables)
    while result[1] is not None:
        k, idx = result[1]
        step = plan.steps[k]
        out = tables[step.vertex][idx] = data.draw(st.integers(0, step.codomain - 1))
        at_k = _forward(plan, list(sym), tables, k)
        for pos, dim in step.outs:
            out, sym[pos] = divmod(out, dim)
        result = _forward(plan, sym, tables, k + 1)
        fresh = _forward(plan, _source_symbols(plan, row), tables)
        assert at_k == result == fresh


class TestC1Exact:
    def test_n2_up(self):
        net = fixture("n2_up")
        assert c1_exact(net, 8) == 5

    def test_n4_split(self):
        net = fixture("n4_split_2x2")
        assert c1_exact(net, 8) == 6

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (2, 2, 3)])
    def test_series_path(self, dims):
        net = oriented_path(*dims)
        assert c1_exact(net, max(dims) + 1) == min(dims)

    def test_c1_bounded_by_directed_mincut(self):
        for name in ("n2_up", "n4_split_2x2"):
            net = fixture(name)
            assert c1_exact(net, 8) <= min_cut(net).value

    def test_budget_carries_best_known(self):
        net = fixture("n4_split_2x2")
        with pytest.raises(BudgetExceededError) as exc_info:
            c1_exact(net, 8, SearchConfig(1, budget=10))
        best = exc_info.value.best_known
        assert 0 <= best < 6
        assert str(exc_info.value).endswith(f"(best known {best})")

    def test_searches_l_max_first_and_once(self, monkeypatch):
        searched = []
        search = codingsearch.exhaustive_achievable

        def spy(net, cfg):
            searched.append(cfg.alphabet_size)
            return search(net, cfg)

        monkeypatch.setattr(codingsearch, "exhaustive_achievable", spy)
        # A witness at l_max ends the scan: one search of 20,100 assignments,
        # where the ascending scan runs 200 searches.
        assert c1_exact(oriented_path(200, 200), 200) == 200
        assert searched == [200]
        searched.clear()
        assert c1_exact(oriented_path(2, 3), 3) == 2
        assert searched == [3, 1, 2]
        searched.clear()
        assert c1_exact(oriented_path(2, 3), 4) == 2
        assert searched == [4, 1, 2, 3]


class TestSearchRecheck:
    """:func:`exhaustive_achievable` re-checks every witness it returns."""

    def test_each_witness_checked_once(self, monkeypatch):
        calls = []

        def spy(net, pt):
            calls.append(pt)
            return is_valid(net, pt)

        monkeypatch.setattr(codingsearch, "is_valid", spy)
        net = fixture("n2_up")
        cases = [(5, 10**9, "witness"), (6, 10**9, "impossible"), (7, 10**9, "impossible"),
                 (5, 10, "budget_exceeded")]
        for l, budget, status in cases:
            calls.clear()
            result = exhaustive_achievable(net, SearchConfig(alphabet_size=l, budget=budget))
            assert result.status == status, l
            assert calls == ([result.witness] if status == "witness" else []), l

    def test_rejected_witness_raises(self, monkeypatch):
        monkeypatch.setattr(codingsearch, "is_valid", lambda net, pt: False)
        with pytest.raises(ProtocolError, match="^the searched witness is not valid$"):
            exhaustive_achievable(fixture("n2_up"), SearchConfig(alphabet_size=5))
        with pytest.raises(ProtocolError, match="searched witness"):
            c1_exact(fixture("n2_up"), 8)

    def test_malformed_witness_carries_the_reason(self, monkeypatch):
        build = _Searcher._build_witness

        def drop_row(self):
            pt = build(self)
            tables = {**pt.node_functions, "n1_late": pt.node_functions["n1_late"][:-1]}
            return replace(pt, node_functions=tables)

        monkeypatch.setattr(_Searcher, "_build_witness", drop_row)
        with pytest.raises(
            ProtocolError,
            match=r"^the searched witness is not valid: table at 'n1_late' has 3 rows, expected 4$",
        ):
            exhaustive_achievable(fixture("n2_up"), SearchConfig(alphabet_size=5))


class TestMemos:
    def test_search_then_is_valid_compiles_once(self):
        net = fixture("n4_split_2x2")
        _compile.cache_clear()
        result = exhaustive_achievable(net, SearchConfig(alphabet_size=6))
        assert is_valid(net, result.witness)
        info = _compile.cache_info()
        # The search's own re-check reads the kept plan, then this is_valid.
        assert (info.misses, info.hits) == (1, 2)

    def test_memoized_plan_matches_unmemoized(self):
        for _, net in CORPUS:
            _compile.cache_clear()
            _compile(net)
            # An equal network rebuilt from its JSON is a hit.
            plan = _compile(load_network(dump_network(net)))
            assert _compile.cache_info().hits == 1
            fresh = _compile.__wrapped__(net)
            # itemgetter objects compare by identity: compare what they read.
            sym = [10 * pos + 1 for pos in range(plan.size)]
            assert plan.read_sink(sym) == fresh.read_sink(sym)
            assert plan._replace(read_sink=None) == fresh._replace(read_sink=None)

    def test_scan_computes_the_min_cut_once(self):
        min_cut.cache_clear()
        vu = {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": "vu"}
        assert c1_exact(orient(fixture("n_d5_4"), vu), 6) == 5
        assert min_cut.cache_info().misses == 1


def _ascending_c1(net, l_max, cfg):
    """The plain scan: l = 1, 2, ... up to the first impossible size."""
    best = 0
    for l in range(1, l_max + 1):
        result = exhaustive_achievable(net, replace(cfg, alphabet_size=l))
        if result.status == "witness":
            best = l
        elif result.status == "impossible":
            break
        else:
            message = f"budget exhausted at l={l} (best known {best})"
            raise BudgetExceededError(message, best_known=best)
    return best


def _c1_outcome(scan, net, l_max, cfg):
    try:
        return "exact", scan(net, l_max, cfg)
    except BudgetExceededError as exc:
        return "budget_exceeded", exc.best_known, str(exc)


@pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[name for name, _ in CORPUS])
def test_c1_exact_matches_ascending_scan(net):
    """Searching l_max first gives the ascending scan's value and error
    whenever that scan finishes; where the scan runs out of budget, it may
    only be replaced by an exact l_max."""
    for l_max, budget in itertools.product(range(7), (20, 5_000)):
        cfg = SearchConfig(1, budget=budget)
        oracle = _c1_outcome(_ascending_c1, net, l_max, cfg)
        got = _c1_outcome(c1_exact, net, l_max, cfg)
        if oracle[0] == "budget_exceeded" and got == ("exact", l_max):
            continue
        assert got == oracle, (l_max, budget)


# ---------------------------------------------------------------------------
# The count on directed diamonds, against the search
# ---------------------------------------------------------------------------

_FLOW = {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv"}


def _directed_diamond(dims, middle):
    return orient(diamond_network(*dims), {**_FLOW, "d5": middle})


def _counted_value(d1, d2, d3, d4, d5):
    """The formula as stated: the best sum of min(d4, d2 * k_x) over every
    (k_x), x < d3, with k_x <= d5 and sum k_x <= d1, one group at a time."""
    best = {0: 0}  # classes used -> best value
    for _ in range(d3):
        step = {}
        for used, value in best.items():
            for k in range(min(d5, d1 - used) + 1):
                step[used + k] = max(step.get(used + k, 0), value + min(d4, d2 * k))
        best = step
    return max(best.values())


def _middle_undirected(net):
    *flow, middle = net.edges
    return replace(net, edges=(*flow, replace(middle, orientation="undirected")))


class TestDiamondCount:
    def test_matches_the_search(self):
        # Every oriented diamond with dims 1..3: 486 networks.
        for dims in itertools.product(range(1, 4), repeat=5):
            for middle in ("uv", "vu"):
                net = _directed_diamond(dims, middle)
                c1, witness = diamond_c1(net)
                assert c1 == c1_exact(net, min_cut(net).value), (dims, middle)
                assert witness.alphabet_size == c1 and is_valid(net, witness)
                assert counted_c1(net) == (c1, witness)

    @pytest.mark.parametrize(
        "net",
        [
            fixture("n4_split_2x2"),
            fixture("n2_up"),
            split_cycle_edge(fixture("n_d5_4"), SplitSpec("d5", 2, 2)),
            _middle_undirected(_directed_diamond((2, 3, 3, 2, 2), "uv")),
            fixture("n_d5_2"),
            network(
                ["s", "n1", "n2", "t"],
                [*_directed_diamond((2, 3, 3, 2, 2), "uv").edges, Edge("st", "s", "t", 2, "uv")],
                ["s"],
                ["t"],
            ),
            orient(diamond_network(2, 3, 3, 2, 2), {**_FLOW, "d1": "vu", "d5": "uv"}),
            orient(diamond_network(2, 3, 3, 2, 2), {**_FLOW, "d4": "vu", "d5": "vu"}),
        ],
        ids=["n4_split", "n2_up", "split_d5", "middle_undirected", "undirected", "plus_st",
             "source_edge_reversed", "sink_edge_reversed"],
    )
    def test_none_off_the_shape(self, net):
        assert diamond_c1(net) is None
        assert counted_c1(net) is None

    @pytest.mark.parametrize("l", [5, 6])
    def test_claim_status_matches_the_search(self, l):
        # The claims' N4 orientations, two of them directed diamonds, and n2_up.
        n4 = diamond_network(2, 3, 3, 2, 4)
        eids = [e.id for e in n4.edges]
        nets = [fixture("n2_up")]
        for dirs in itertools.product(("uv", "vu"), repeat=len(eids)):
            oriented = orient(n4, dict(zip(eids, dirs)))
            if is_acyclic(oriented):
                nets.append(oriented)
        assert len(nets) == 19
        assert sum(diamond_c1(net) is not None for net in nets) == 2
        for net in nets:
            assert _status(net, l) == exhaustive_achievable(net, SearchConfig(l)).status


@st.composite
def _relabelled_diamonds(draw):
    """A directed diamond with dims 1..8, its relays declared in either
    order and its edge ids shuffled, so every edge-id order of the tables
    comes up."""
    dims = draw(st.tuples(*[st.integers(1, 8)] * 5))
    ids = draw(st.permutations(["e0", "e1", "e2", "e3", "e4"]))
    relays = draw(st.permutations(["n1", "n2"]))
    net = _directed_diamond(dims, draw(st.sampled_from(["uv", "vu"])))
    edges = [replace(e, id=new) for e, new in zip(net.edges, ids)]
    return network(["s", *relays, "t"], edges, ["s"], ["t"]), dims


@given(_relabelled_diamonds())
@settings(max_examples=200, deadline=None)
def test_diamond_witness_reaches_the_count(drawn):
    net, (d1, d2, d3, d4, d5) = drawn
    c1, witness = diamond_c1(net)
    if net.edges[4].orientation == "vu":  # n2 -> n1: the roles swap
        d1, d2, d3, d4 = d2, d1, d4, d3
    assert c1 == _counted_value(d1, d2, d3, d4, d5)
    assert witness.alphabet_size == c1
    assert is_valid(net, witness)
    assert c1 <= min_cut(net).value


# ---------------------------------------------------------------------------
# The count on networks with no internal vertex, against the search
# ---------------------------------------------------------------------------

#: Directed arcs between the terminals of sources s, s2 and sinks t, t2:
#: into a sink, then ones that carry nothing (into a source, between two
#: sinks), then one between two sources, which the count leaves to the search.
_TERMINAL_ARCS = [("s", "t"), ("s", "t2"), ("s2", "t"), ("t", "s"), ("t", "t2"), ("s", "s2")]


def _terminal_networks():
    """Every network of one to three of those arcs, with dims 1..3."""
    for n in (1, 2, 3):
        for arcs in itertools.combinations(_TERMINAL_ARCS, n):
            for dims in itertools.product(range(1, 4), repeat=n):
                edges = [Edge(f"e{i}", u, v, d, "uv") for i, ((u, v), d) in enumerate(zip(arcs, dims))]
                yield network(["s", "s2", "t", "t2"], edges, ["s", "s2"], ["t", "t2"])


class TestDirectCount:
    def test_matches_the_search(self):
        counted = 0
        for net in _terminal_networks():
            result = direct_c1(net)
            # The search refuses a cycle (s -> t -> s); the count leaves it to it.
            if not is_acyclic(net) or any(e.u == "s" and e.v == "s2" for e in net.edges):
                assert result is None
                continue
            counted += 1
            c1, witness = result
            assert c1 == min_cut(net).value == c1_exact(net, c1 + 1)
            assert witness.alphabet_size == c1 and is_valid(net, witness)
            assert counted_c1(net) == (c1, witness)
            for l in range(1, c1 + 2):
                assert _status(net, l) == exhaustive_achievable(net, SearchConfig(l)).status
        # 5, 9 and 7 acyclic sets of one, two and three arcs off s -> s2.
        assert counted == 5 * 3 + 9 * 3**2 + 7 * 3**3

    @pytest.mark.parametrize(
        "net",
        [
            path_network(3),
            oriented_path(2, 3),
            network(["s", "a", "t"], [Edge("st", "s", "t", 2, "uv")], ["s"], ["t"]),
        ],
        ids=["undirected", "relay", "isolated_vertex"],
    )
    def test_none_off_the_shape(self, net):
        assert direct_c1(net) is None
        assert counted_c1(net) is None

    def test_rows_past_the_cap_refused(self):
        with pytest.raises(TooLargeError, match="source rows"):
            direct_c1(oriented_path(2**24 + 1))

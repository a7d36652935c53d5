import itertools
import json
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
    _source_symbols,
    _tuple_reader,
    c1_exact,
    exhaustive_achievable,
    is_valid,
    out_edges,
    paper_protocol_n2,
    paper_protocol_n4,
    protocol_to_obj,
    simulate,
    source_out_edges,
)
from entcap.fixtures import diamond_network, fixture, path_network
from entcap.netmodel import (
    CyclicNetworkError,
    Edge,
    is_acyclic,
    min_cut,
    network,
    orient,
    random_network,
    topological_order,
)


def oriented_path(*dims):
    net = path_network(*dims)
    return orient(net, {e.id: "uv" for e in net.edges})


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
            simulate(net, identity_path_protocol(2), 0)

    def test_undirected_network_rejected(self):
        with pytest.raises(Exception, match="undirected"):
            simulate(path_network(2, 2), identity_path_protocol(2), 0)

    def test_bad_message_rejected(self):
        net = oriented_path(2, 2)
        with pytest.raises(ProtocolError):
            simulate(net, identity_path_protocol(2), 2)

    def test_missing_table_rejected(self):
        net = oriented_path(2, 2)
        pt = ProtocolTable(((0,), (1,)), {})
        with pytest.raises(ProtocolError, match="missing node function"):
            simulate(net, pt, 0)

    def test_wrong_table_length_rejected(self):
        net = oriented_path(2, 2)
        pt = ProtocolTable(((0,), (1,)), {"n1": (0,)})
        with pytest.raises(ProtocolError, match="rows"):
            simulate(net, pt, 0)


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
        res = _Searcher(
            fixture(name),
            SearchConfig(alphabet_size=l, fix_source_bijection=fix),
            prune=False,
        ).run()
        witness = protocol_to_obj(res.witness) if res.witness else None
        assert (res.status, res.assignments, witness) == expected

    # The same searches pruned: fewer assignments, the same witnesses.  At
    # l = 6, every source row, the pruned search pins the encoder whether
    # or not the oracle's flag is set, so those rows match the flagged oracle.
    # The two n_d5 rows are the impossibility proofs that the
    # diamond-bounds benchmark times.
    @pytest.mark.parametrize(
        "name, l, fix, expected",
        [
            ("n2_up", 5, False, ("witness", 25, N2_L5_WITNESS)),
            ("n2_up", 6, True, ("impossible", 1773, None)),
            ("n4_split_2x2", 6, True, ("witness", 42, N4_L6_WITNESS)),
            ("n4_split_2x2", 6, False, ("witness", 42, N4_L6_WITNESS)),
            ("n_d5_4:d5=vu", 6, True, ("impossible", 43_472, None)),
            ("n_d5_2:d5=uv", 5, True, ("impossible", 9_318, None)),
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

    def test_sink_pigeonhole(self):
        # Sink in-edges of dims 1 and 2: three messages cannot all differ
        # there, although the source offers 2 * 2 rows.
        net = orient(
            diamond_network(2, 2, 1, 2, 1),
            {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": "uv"},
        )
        pruned = exhaustive_achievable(net, SearchConfig(alphabet_size=3))
        oracle = _Searcher(net, SearchConfig(alphabet_size=3), prune=False).run()
        assert (pruned.status, pruned.assignments) == ("impossible", 0)
        assert oracle.status == "impossible" and oracle.assignments > 0

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
        oracle = _Searcher(net, SearchConfig(alphabet_size=l), prune=False).run()
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
    """The staged fixtures, every acyclic orientation of the (2,3,3,2,4)
    diamond, and acyclic random orientations of random networks."""
    corpus = [(name, fixture(name)) for name in ("n2_up", "n4_split_2x2")]
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


@pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[name for name, _ in CORPUS])
def test_pruned_search_matches_oracle(net):
    """Pruning never changes a finished search's status or witness, and
    never costs assignments; it may finish a search the oracle cannot."""
    for l, fix in itertools.product(range(1, 7), (False, True)):
        cfg = SearchConfig(alphabet_size=l, budget=5_000, fix_source_bijection=fix)
        oracle = _Searcher(net, cfg, prune=False).run()
        pruned = _Searcher(net, cfg).run()
        if oracle.status == "budget_exceeded":
            if pruned.status == "witness":
                assert is_valid(net, pruned.witness)
            continue
        assert pruned.status == oracle.status, (l, fix)
        assert _witness_json(pruned) == _witness_json(oracle), (l, fix)
        assert pruned.assignments <= oracle.assignments, (l, fix)


@pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[name for name, _ in CORPUS])
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
    unpinned.fixed_enc = None
    oracle = unpinned.run()
    if oracle.status != "budget_exceeded":
        assert (runs[0].status, _witness_json(runs[0])) == (oracle.status, _witness_json(oracle))
        assert runs[0].assignments <= oracle.assignments


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
    outs = {v: out_edges(net, v) for v in net.internal_vertices}
    plan = _compile(net, topological_order(net), outs)
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


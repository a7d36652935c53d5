import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entcap.fixtures import FIXTURE_NAMES, diamond_network, fixture, fixture_text, path_network
from entcap.netmodel import (
    ORIENTATIONS,
    Cut,
    CyclicNetworkError,
    Edge,
    Network,
    NetworkError,
    TooLargeError,
    cut_value,
    diamond_edges,
    drop_orientations,
    dump_network,
    is_acyclic,
    load_network,
    merge_stage_pairs,
    min_cut,
    network,
    orient,
    random_network,
    scale,
    tensor_power,
    topological_order,
)
from entcap.transforms import SplitSpec, split_cycle_edge


def single_edge(dim):
    return network(["s", "t"], [Edge("e", "s", "t", dim)], ["s"], ["t"])


class TestValidate:
    def test_wellformed_diamond(self):
        diamond_network(2, 3, 3, 2, 2)

    def test_dim_zero(self):
        with pytest.raises(NetworkError, match="dimension < 1"):
            network(["s", "t"], [Edge("e", "s", "t", 0)], ["s"], ["t"])

    def test_overlapping_terminals(self):
        with pytest.raises(NetworkError, match="overlap"):
            network(["s"], [], ["s"], ["s"])

    def test_unknown_endpoint(self):
        with pytest.raises(NetworkError, match="unknown endpoint"):
            network(["s", "t"], [Edge("e", "s", "x", 2)], ["s"], ["t"])

    def test_empty_terminals(self):
        with pytest.raises(NetworkError, match="empty source"):
            network(["s", "t"], [], [], ["t"])

    @pytest.mark.parametrize(
        "sources, sinks, message",
        [(["s", "s"], ["t"], "duplicate source ids"), (["s"], ["t", "t"], "duplicate sink ids")],
    )
    def test_duplicate_terminal_ids(self, sources, sinks, message):
        # Counted twice, a terminal would make a diamond look unlike one.
        with pytest.raises(NetworkError, match=message):
            network(["s", "t"], [Edge("e", "s", "t", 2)], sources, sinks)

    @pytest.mark.parametrize(
        "u, v, orientation, arcs",
        [
            ("a", "b", "uv", (("a", "b"),)),
            ("a", "b", "vu", (("b", "a"),)),
            ("a", "b", "undirected", (("a", "b"), ("b", "a"))),
            ("a", "a", "undirected", (("a", "a"), ("a", "a"))),
        ],
    )
    def test_edge_arcs(self, u, v, orientation, arcs):
        assert Edge("e", u, v, 2, orientation).arcs == arcs


def _property_suite_networks():
    """The 200 random networks of the property-suite claim at seed 0."""
    rng = np.random.Generator(np.random.PCG64(0))
    return [random_network(rng) for _ in range(200)]


def _with_derived(nets):
    """Each network, then what the rank, the cut and the search build from it."""
    for net in nets:
        yield net
        yield tensor_power(net, 2)
        yield scale(net, 3)
        yield drop_orientations(net)
        yield merge_stage_pairs(net)
        yield orient(net, {e.id: "uv" for e in net.edges if not e.is_directed})


class TestViews:
    """The hash and the views a network computes once, when it is built,
    are only caches: each equals the value computed afresh."""

    @pytest.mark.parametrize(
        "nets",
        [[fixture(name) for name in FIXTURE_NAMES], _property_suite_networks()],
        ids=["fixtures", "property-suite"],
    )
    def test_match_a_fresh_network(self, nets):
        for net in _with_derived(nets):
            fresh = load_network(dump_network(net))
            assert fresh == net and fresh is not net
            sources, sinks = frozenset(fresh.sources), frozenset(fresh.sinks)
            assert net.source_set == fresh.source_set == sources
            assert net.sink_set == fresh.sink_set == sinks
            assert net.terminal_set == fresh.terminal_set == sources | sinks
            internal = tuple(v for v in fresh.vertices if v not in sources | sinks)
            assert net.internal_vertices == fresh.internal_vertices == internal
            fields = (fresh.vertices, fresh.edges, fresh.sources, fresh.sinks, fresh.stage_pairs)
            assert hash(net) == hash(fresh) == hash(fields)

    def test_equal_networks_hash_equal(self):
        for name in FIXTURE_NAMES:
            net = fixture(name)
            copies = [
                load_network(fixture_text(name)),
                replace(net),
                network(list(net.vertices), list(net.edges), net.sources, net.sinks, net.stage_pairs),
                tensor_power(net, 1),
                scale(net, 1),
            ]
            for other in copies:
                assert other == net and hash(other) == hash(net)

    def test_views_are_not_fields(self):
        # Equality, repr and replace read the five declared fields only.
        net = fixture("n_d5_2")
        assert "internal_vertices" not in repr(net)
        assert replace(net, sinks=("n2",)).internal_vertices == ("n1", "t")


class TestMinCut:
    def test_fig2_counterexample(self):
        assert min_cut(fixture("fig2_counterexample")).value == 15

    @pytest.mark.parametrize("d5", range(2, 11))
    def test_diamond_family(self, d5):
        assert min_cut(diamond_network(2, 3, 3, 2, d5)).value == 6

    def test_single_edge(self):
        cut = min_cut(single_edge(7))
        assert cut.value == 7
        assert cut.s_side == frozenset({"s"})

    @pytest.mark.parametrize("a,b", [(2, 5), (5, 2), (3, 3)])
    def test_path_bottleneck(self, a, b):
        assert min_cut(path_network(a, b)).value == min(a, b)

    def test_scaled_diamond(self):
        assert min_cut(scale(diamond_network(2, 3, 3, 2, 2), 2)).value == 24

    def test_witness_recomputes(self):
        for name in ("fig2_counterexample", "n_d5_4", "path_2_3"):
            net = fixture(name)
            cut = min_cut(net)
            assert cut_value(net, cut.s_side) == cut.value

    def test_deterministic_witness_tiebreak(self):
        # Both {s} and {s,n1,n2} attain 15 on the counterexample; the
        # lexicographically smaller sorted vertex tuple wins.
        cut = min_cut(fixture("fig2_counterexample"))
        assert sorted(cut.s_side) == ["n1", "n2", "s"]

    def test_self_loop_never_counts(self):
        net = network(
            ["s", "n", "t"],
            [Edge("a", "s", "n", 3), Edge("b", "n", "t", 3), Edge("l", "n", "n", 99)],
            ["s"],
            ["t"],
        )
        assert min_cut(net).value == 3

    def test_dim_one_edges_are_inert(self):
        with_triv = diamond_network(2, 3, 3, 2, 1)
        assert min_cut(with_triv).value == min(4, 6)

    def test_too_large(self):
        dims = [2] * 25
        with pytest.raises(TooLargeError):
            min_cut(path_network(*dims))

    def test_invalid_network_rejected(self):
        with pytest.raises(NetworkError):
            min_cut(network(["s", "t"], [Edge("e", "s", "t", 0)], ["s"], ["t"]))

    def test_relabel_invariance(self):
        net = diamond_network(5, 3, 3, 5, 2)
        relabeled = network(
            ["alpha", "zz1", "zz2", "omega"],
            [
                Edge("d1", "alpha", "zz1", 5),
                Edge("d2", "alpha", "zz2", 3),
                Edge("d3", "zz1", "omega", 3),
                Edge("d4", "zz2", "omega", 5),
                Edge("d5", "zz1", "zz2", 2),
            ],
            ["alpha"],
            ["omega"],
        )
        assert min_cut(net).value == min_cut(relabeled).value

    def test_edge_reorder_invariance(self):
        net = fixture("fig2_counterexample")
        shuffled = network(
            net.vertices, tuple(reversed(net.edges)), net.sources, net.sinks
        )
        assert min_cut(net).value == min_cut(shuffled).value


class TestMinCutMemo:
    """``min_cut`` keeps its last cut; ``__wrapped__`` is the unmemoized function."""

    @staticmethod
    def _networks():
        rng = np.random.Generator(np.random.PCG64(0))  # the property suite's 200
        return [fixture(name) for name in FIXTURE_NAMES] + [
            random_network(rng) for _ in range(200)
        ]

    def test_memoized_cut_matches_unmemoized(self):
        for net in self._networks():
            min_cut.cache_clear()
            assert min_cut(net) == min_cut.__wrapped__(net)
            # Asked again, and for an equal network rebuilt from its JSON.
            assert min_cut(net) == min_cut(load_network(dump_network(net)))
            info = min_cut.cache_info()
            assert (info.misses, info.hits) == (1, 2)

    def test_refusal_is_not_kept(self):
        min_cut.cache_clear()
        chain = path_network(*[2] * 25)
        for _ in range(2):
            with pytest.raises(TooLargeError):
                min_cut(chain)
        assert min_cut.cache_info().misses == 2


def oracle_min_cut(net: Network) -> Cut:
    """Reference min-cut: a frozenset and ``cut_value`` for every partition."""
    late_of = dict(net.stage_pairs)
    lates = set(late_of.values())
    units = [
        (v, late_of[v]) if v in late_of else (v,)
        for v in net.internal_vertices
        if v not in lates
    ]
    best = None
    for mask in range(1 << len(units)):
        s_side = frozenset(
            itertools.chain(
                net.source_set, *(units[i] for i in range(len(units)) if mask >> i & 1)
            )
        )
        key = (cut_value(net, s_side), tuple(sorted(s_side)))
        if best is None or key < best:
            best = key
    return Cut(s_side=frozenset(best[1]), value=best[0])


@st.composite
def cut_networks(draw):
    """Small multigraphs with 1-2 sources and sinks and random stage pairs.

    Edges join any two vertices (loops, parallels, terminal-terminal) in
    any orientation; dims start at 1, so many partitions tie.
    """
    sources = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    sinks = [f"t{i}" for i in range(draw(st.integers(1, 2)))]
    internal = [f"n{i}" for i in range(draw(st.integers(0, 7)))]
    vertices = draw(st.permutations(sources + sinks + internal))
    paired = draw(st.permutations(internal))
    pairs = [paired[2 * i : 2 * i + 2] for i in range(draw(st.integers(0, len(internal) // 2)))]
    ends = st.sampled_from(vertices)
    edges = draw(
        st.lists(
            st.tuples(ends, ends, st.integers(1, 3), st.sampled_from(ORIENTATIONS)),
            max_size=14,
        )
    )
    return network(
        vertices,
        [Edge(f"e{i}", u, v, dim, o) for i, (u, v, dim, o) in enumerate(edges)],
        sources,
        sinks,
        pairs,
    )


@st.composite
def split_diamonds(draw):
    """A diamond with its d5 split, the other edges in random orientations."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = [draw(st.integers(1, 4)) for _ in range(4)]
    net = diamond_network(*dims, a * b)
    net = split_cycle_edge(net, SplitSpec("d5", a, b))
    turns = {e.id: draw(st.sampled_from(ORIENTATIONS)) for e in net.edges}
    return replace(net, edges=tuple(replace(e, orientation=turns[e.id]) for e in net.edges))


@settings(max_examples=400, deadline=None)
@given(cut_networks() | split_diamonds())
def test_min_cut_matches_oracle(net):
    assert min_cut(net) == oracle_min_cut(net)


def _orientation(rng) -> str:
    return rng.choice(["undirected"] * 4 + ["uv", "vu"])


def _repeater_chains(rng, sources, sinks, chains, pairs=0) -> Network:
    """Parallel repeater chains, each from a random source to a random sink,
    joined by a few cross links; dims 1..3, a third of the edges directed
    either way.  The first ``pairs`` pairs of consecutive repeaters become
    stage pairs."""
    vertices, edges, repeaters = [*sources, *sinks], [], []

    def link(u, v):
        edges.append(Edge(f"e{len(edges)}", u, v, rng.randint(1, 3), _orientation(rng)))

    for length in chains:
        chain = [f"r{len(repeaters) + i}" for i in range(length)]
        repeaters += chain
        hops = [rng.choice(sources), *chain, rng.choice(sinks)]
        for u, v in zip(hops, hops[1:]):
            link(u, v)
    for _ in range(3):
        link(*rng.sample(repeaters, 2))
    stage = [repeaters[2 * i : 2 * i + 2] for i in range(pairs)]
    return network(vertices + repeaters, edges, sources, sinks, stage)


def _random_multigraph(rng, sources, sinks, n_internal, n_edges) -> Network:
    """Edges between any two vertices, loops and parallels included; dims
    1..3, a third of the edges directed either way."""
    internal = [f"n{i}" for i in range(n_internal)]
    vertices = [*sources, *sinks, *internal]
    rng.shuffle(vertices)
    edges = [
        Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices), rng.randint(1, 3), _orientation(rng))
        for i in range(n_edges)
    ]
    return network(vertices, edges, sources, sinks)


def _wide_networks() -> list:
    """Six seeded networks of 10-13 cut units, so that every position of
    the Gray walk up to bit 12 flips."""
    rng = random.Random(1)
    one, two = (["s"], ["t"]), (["s0", "s1"], ["t0", "t1"])
    return [
        _repeater_chains(rng, *one, [13]),
        _repeater_chains(rng, *one, [4, 4, 4]),
        _repeater_chains(rng, *two, [3, 5, 3], pairs=1),
        _random_multigraph(rng, *one, 11, 24),
        _random_multigraph(rng, *two, 12, 26),
        _random_multigraph(rng, *one, 10, 18),
    ]


@pytest.mark.parametrize("index", range(6))
def test_min_cut_matches_oracle_on_wide_networks(index):
    net = _wide_networks()[index]
    assert 10 <= len(net.internal_vertices) - len(net.stage_pairs) <= 13
    assert min_cut(net) == oracle_min_cut(net)


class TestPowerAndScale:
    def test_tensor_power_dims(self):
        net = tensor_power(diamond_network(2, 3, 3, 2, 2), 2)
        assert [e.dim for e in net.edges] == [4, 9, 9, 4, 4]

    def test_power_one_is_identity(self):
        net = diamond_network(2, 3, 3, 2, 2)
        assert tensor_power(net, 1) == net

    def test_scale_dims(self):
        net = scale(diamond_network(2, 3, 3, 2, 2), 2)
        assert [e.dim for e in net.edges] == [4, 6, 6, 4, 4]

    def test_scale_one_is_identity(self):
        net = diamond_network(2, 3, 3, 2, 2)
        assert scale(net, 1) == net

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mincut_multiplicative_on_paths(self, n):
        net = path_network(3, 5)
        assert min_cut(tensor_power(net, n)).value == min(3, 5) ** n


class TestOrient:
    def test_flow_orientation_acyclic(self):
        net = orient(
            diamond_network(2, 3, 3, 2, 2),
            {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": "vu"},
        )
        assert is_acyclic(net)

    def test_opposed_parallel_pair_is_cyclic(self):
        net = network(
            ["s", "n1", "n2", "t"],
            [
                Edge("d1", "s", "n1", 2, "uv"),
                Edge("d2", "s", "n2", 3, "uv"),
                Edge("d3", "n1", "t", 3, "uv"),
                Edge("d4", "n2", "t", 2, "uv"),
                Edge("d5a", "n2", "n1", 2, "uv"),
                Edge("d5b", "n1", "n2", 2, "uv"),
            ],
            ["s"],
            ["t"],
        )
        assert not is_acyclic(net)

    def test_empty_assignment_identity(self):
        directed = orient(
            diamond_network(2, 3, 3, 2, 2),
            {eid: "uv" for eid in ("d1", "d2", "d3", "d4", "d5")},
        )
        assert orient(directed, {}) == directed

    def test_unknown_edge_rejected(self):
        with pytest.raises(NetworkError):
            orient(diamond_network(2, 3, 3, 2, 2), {"nope": "uv"})

    def test_uncovered_undirected_rejected(self):
        with pytest.raises(NetworkError):
            orient(diamond_network(2, 3, 3, 2, 2), {"d1": "uv"})

    def test_orientation_never_beats_undirected(self):
        import itertools

        net = diamond_network(2, 3, 3, 2, 4)
        undirected_mc = min_cut(net).value
        eids = [e.id for e in net.edges]
        for dirs in itertools.product(("uv", "vu"), repeat=len(eids)):
            oriented = orient(net, dict(zip(eids, dirs)))
            assert min_cut(oriented).value <= undirected_mc


def _reference_order(net):
    """The topological order as first written: re-sort the ready vertices
    after every step and take the smallest."""
    succ = {v: set() for v in net.vertices}
    for e in net.edges:
        succ[e.tail].add(e.head)
    for early, late in net.stage_pairs:
        succ[early].add(late)
    indeg = {v: 0 for v in net.vertices}
    for outs in succ.values():
        for w in outs:
            indeg[w] += 1
    ready = sorted(v for v in net.vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    return tuple(order) if len(order) == len(net.vertices) else None


class TestTopologicalOrder:
    def test_matches_the_reference(self):
        nets = [
            split_cycle_edge(fixture("n_d5_4"), SplitSpec("d5", 2, 2)),
            fixture("n2_up"),
            fixture("n4_split_2x2"),
        ]
        n4 = diamond_network(2, 3, 3, 2, 4)
        eids = [e.id for e in n4.edges]
        nets += [orient(n4, dict(zip(eids, dirs))) for dirs in itertools.product(("uv", "vu"), repeat=5)]
        rng = random.Random(3)
        for net in _property_suite_networks():
            nets.append(orient(net, {e.id: rng.choice(("uv", "vu")) for e in net.edges}))
        cyclic = 0
        for net in nets:
            expected = _reference_order(net)
            if expected is None:
                cyclic += 1
                assert not is_acyclic(net)
                with pytest.raises(CyclicNetworkError):
                    topological_order(net)
            else:
                assert topological_order(net) == topological_order.__wrapped__(net) == expected
        assert 0 < cyclic < len(nets)

    def test_is_acyclic_then_order_sorts_once(self):
        net = fixture("n2_up")
        topological_order.cache_clear()
        assert is_acyclic(net)
        topological_order(load_network(dump_network(net)))
        info = topological_order.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def _named_random_network(rng):
    """``random_network`` as first written, permuting and choosing from
    the lists of vertex names; the oracle for its index draws."""
    n_internal = int(rng.integers(0, 5))
    internal = [f"n{i}" for i in range(1, n_internal + 1)]
    vertices = ["s", *internal, "t"]
    edges = []

    def add(u, v):
        edges.append(Edge(id=f"e{len(edges)}", u=u, v=v, dim=int(rng.integers(1, 5))))

    route = ["s", *rng.permutation(internal).tolist(), "t"] if internal else ["s", "t"]
    for u, v in zip(route, route[1:]):
        add(u, v)
    budget = {"s": 1, "t": 1}
    for _ in range(int(rng.integers(0, 3))):
        u, v = (str(x) for x in rng.choice(vertices, size=2, replace=True))
        if u == v or budget.get(u, 9) <= 0 or budget.get(v, 9) <= 0:
            continue
        for w in (u, v):
            if w in budget:
                budget[w] -= 1
        add(u, v)
    return network(vertices, edges, ["s"], ["t"])


def test_random_network_index_draws_match_named_draws():
    for seed in range(300):
        a, b = np.random.Generator(np.random.PCG64(seed)), np.random.Generator(np.random.PCG64(seed))
        for _ in range(20):
            assert random_network(a) == _named_random_network(b), seed
        assert a.bit_generator.state == b.bit_generator.state


class TestMergeStagePairs:
    def test_split_fixture_merges_to_two_relays(self):
        merged = merge_stage_pairs(fixture("n4_split_2x2"))
        assert merged.vertices == ("s", "n1_early", "n2_early", "t")
        assert merged.stage_pairs == ()
        ends = {e.id: (e.u, e.v) for e in merged.edges}
        assert ends["d5a"] == ("n2_early", "n1_early")
        assert ends["d3"] == ("n1_early", "t")

    def test_early_late_edge_becomes_self_loop(self):
        net = network(
            ["s", "a", "b", "t"],
            [Edge("e0", "s", "a", 2), Edge("m", "a", "b", 5), Edge("e1", "b", "t", 3)],
            ["s"],
            ["t"],
            [("a", "b")],
        )
        merged = merge_stage_pairs(net)
        assert merged.edge_by_id("m").is_self_loop
        assert min_cut(merged).value == min_cut(net).value == 2

    def test_unstaged_network_unchanged(self):
        net = fixture("n_d5_2")
        assert merge_stage_pairs(net) == net


class TestDiamondEdges:
    def test_edges_in_role_order(self):
        net = fixture("fig2_counterexample")
        assert [e.id for e in diamond_edges(net)] == ["d1", "d3", "d2", "d4", "d5"]

    def test_relays_in_declaration_order(self):
        net = fixture("fig2_counterexample")
        swapped = replace(net, vertices=("s", "n2", "n1", "t"))
        assert [e.id for e in diamond_edges(swapped)] == ["d2", "d4", "d1", "d3", "d5"]

    def test_orientations_not_read(self):
        net = fixture("n_d5_2")
        flipped = orient(net, {e.id: "vu" for e in net.edges})
        assert [e.id for e in diamond_edges(flipped)] == [e.id for e in diamond_edges(net)]

    @pytest.mark.parametrize(
        "net",
        [
            fixture("path_3_3"),
            fixture("n2_up"),
            # The staged diamond itself: one stage pair, four vertices.
            network(
                ["s", "a", "b", "t"],
                [Edge("e0", "s", "a", 2), Edge("e1", "s", "b", 2), Edge("e2", "a", "t", 2),
                 Edge("e3", "b", "t", 2), Edge("m", "a", "b", 2)],
                ["s"],
                ["t"],
                [("a", "b")],
            ),
            network(
                ["s", "n1", "n2", "t"],
                [*diamond_network(2, 3, 3, 2, 2).edges, Edge("st", "s", "t", 2)],
                ["s"],
                ["t"],
            ),
            network(
                ["s", "n1", "n2", "t"],
                [*diamond_network(2, 3, 3, 2, 2).edges[:4], Edge("d5", "n1", "n1", 2)],
                ["s"],
                ["t"],
            ),
            network(
                ["s", "n1", "n2", "t"],
                [*diamond_network(2, 3, 3, 2, 2).edges, Edge("d6", "n1", "n2", 2)],
                ["s"],
                ["t"],
            ),
        ],
        ids=["path", "split", "staged", "plus_st", "loop_for_middle", "two_middles"],
    )
    def test_none_off_the_shape(self, net):
        assert diamond_edges(net) is None


class TestJson:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_roundtrip_byte_identical(self, name):
        text = fixture_text(name)
        assert dump_network(load_network(text)) == text

    def test_unknown_network_field_rejected(self):
        obj = json.loads(fixture_text("path_2_3"))
        obj["extra"] = 1
        with pytest.raises(NetworkError, match="unknown network fields"):
            load_network(json.dumps(obj))

    def test_unknown_edge_field_rejected(self):
        obj = json.loads(fixture_text("path_2_3"))
        obj["edges"][0]["weight"] = 1.0
        with pytest.raises(NetworkError, match="unknown edge fields"):
            load_network(json.dumps(obj))

    def test_missing_field_rejected(self):
        obj = json.loads(fixture_text("path_2_3"))
        del obj["sources"]
        with pytest.raises(NetworkError, match="missing network field"):
            load_network(json.dumps(obj))

    def test_stage_pairs_roundtrip(self):
        text = fixture_text("n4_split_2x2")
        net = load_network(text)
        assert net.stage_pairs == (("n1_early", "n1_late"), ("n2_early", "n2_late"))
        assert dump_network(net) == text

    @pytest.mark.parametrize(
        "key, value",
        [
            ("edges", 5),
            ("edges", [5]),
            ("stage_pairs", [["a"]]),
            ("vertices", "st"),
            ("sources", [1]),
            ("stage_pairs", "ab"),
        ],
    )
    def test_malformed_field_rejected(self, key, value):
        obj = json.loads(fixture_text("path_2_3"))
        obj[key] = value
        with pytest.raises(NetworkError, match="must be"):
            load_network(json.dumps(obj))

    def test_non_string_edge_endpoint_rejected(self):
        obj = json.loads(fixture_text("path_2_3"))
        obj["edges"][0]["u"] = 0
        with pytest.raises(NetworkError, match="must be strings"):
            load_network(json.dumps(obj))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["s", "t", "n1", "e", "uv", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "u", "v", "dim", "x"]), inner, max_size=4),
    max_leaves=10,
)
_edge_like = st.fixed_dictionaries(
    {},
    optional={
        "id": _json,
        "u": st.sampled_from(["s", "t", "n1"]) | _json,
        "v": st.sampled_from(["s", "t", "n1"]) | _json,
        "dim": st.integers(-1, 3) | _json,
        "orientation": st.sampled_from(["undirected", "uv", "vu", "up"]) | _json,
    },
)
_names = st.lists(st.sampled_from(["s", "t", "n1"]), max_size=3) | _json
_network_like = st.fixed_dictionaries(
    {
        "vertices": _names,
        "sources": _names,
        "sinks": _names,
        "edges": st.lists(_edge_like, max_size=3) | _json,
    },
    optional={"stage_pairs": st.lists(_names, max_size=2) | _json},
)


@settings(max_examples=300, deadline=None)
@given(_json | _network_like)
def test_any_json_gives_network_or_network_error(obj):
    try:
        net = load_network(json.dumps(obj))
    except NetworkError:
        return
    assert isinstance(net, Network)

"""Hypothesis property suites over randomly generated small networks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entcap.codingsearch import (
    SearchConfig,
    c1_exact,
    exhaustive_achievable,
    is_valid,
    protocol_to_obj,
)
from entcap.fixtures import FIXTURE_NAMES, fixture, path_network
from entcap.netmodel import (
    cut_value,
    is_acyclic,
    min_cut,
    network,
    orient,
    random_network,
    tensor_power,
)
from entcap.tnrank import PrimeField, contract, estimate_r1, random_assignment
from entcap.transforms import round_networks

SUITE = settings(max_examples=60, deadline=None)


def net_from_seed(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return random_network(rng)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def all_bidirectional(net):
    """Replace every undirected edge by two opposite directed edges of equal dim."""
    edges = []
    for e in net.edges:
        if e.is_directed:
            edges.append(e)
        else:
            edges.append(replace(e, id=e.id + ".fw", orientation="uv"))
            edges.append(replace(e, id=e.id + ".bw", orientation="vu"))
    return replace(net, edges=tuple(edges))


@SUITE
@given(seeds)
def test_mincut_witness_recomputes(seed):
    net = net_from_seed(seed)
    cut = min_cut(net)
    assert cut_value(net, cut.s_side) == cut.value


@SUITE
@given(seeds, st.integers(min_value=1, max_value=3))
def test_mincut_multiplicative(seed, n):
    net = net_from_seed(seed)
    assert min_cut(tensor_power(net, n)).value == min_cut(net).value ** n


@SUITE
@given(seeds)
def test_edge_reordering_invariance(seed):
    net = net_from_seed(seed)
    shuffled = network(
        net.vertices,
        tuple(sorted(net.edges, key=lambda e: e.dim)),
        net.sources,
        net.sinks,
        net.stage_pairs,
    )
    assert min_cut(net).value == min_cut(shuffled).value


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_edge_declaration_order_changes_nothing(name):
    """Tensor axes, boundary slots and protocol tables are keyed by edge id,
    so declaring a network's edges in reverse changes no result."""
    net = fixture(name)
    rev = replace(net, edges=net.edges[::-1])
    cut, rev_cut = min_cut(net), min_cut(rev)
    assert (cut.value, cut.s_side) == (rev_cut.value, rev_cut.s_side)
    ta, rev_ta = random_assignment(net, PrimeField(), 1), random_assignment(rev, PrimeField(), 1)
    assert ta.tensors.keys() == rev_ta.tensors.keys()
    for v, t in ta.tensors.items():
        assert np.array_equal(t, rev_ta.tensors[v]), v
    assert np.array_equal(contract(net, ta).matrix, contract(rev, rev_ta).matrix)
    est, rev_est = estimate_r1(net, trials=2), estimate_r1(rev, trials=2)
    assert (est.r1_lower, est.witness_seed) == (rev_est.r1_lower, rev_est.witness_seed)
    if name not in ("n2_up", "n4_split_2x2"):
        return
    for l in (2, 4, 5):
        res = exhaustive_achievable(net, SearchConfig(alphabet_size=l))
        rev_res = exhaustive_achievable(rev, SearchConfig(alphabet_size=l))
        assert res.status == rev_res.status
        assert (res.witness is None) == (rev_res.witness is None)
        if res.witness is not None:
            assert protocol_to_obj(res.witness) == protocol_to_obj(rev_res.witness), l


@SUITE
@given(seeds)
def test_rank_below_mincut(seed):
    net = net_from_seed(seed)
    est = estimate_r1(net, trials=1, seed=seed)
    assert est.r1_lower <= min_cut(net).value


@SUITE
@given(seeds)
def test_rank_below_mc_upper_on_directed_input(seed):
    # The rank ignores orientation, so its bound must too.
    net = net_from_seed(seed)
    directed = orient(net, {e.id: "uv" for e in net.edges})
    est = estimate_r1(directed, trials=1, seed=seed)
    assert est.r1_lower <= est.mc_upper


@SUITE
@given(seeds)
def test_bidirectional_matches_undirected_mincut(seed):
    net = net_from_seed(seed)
    assert min_cut(all_bidirectional(net)).value == min_cut(net).value


def test_bidirectional_attains_undirected():
    for name in ("fig2_counterexample", "n_d5_3", "path_2_3"):
        net = fixture(name)
        assert min_cut(all_bidirectional(net)).value == min_cut(net).value


@SUITE
@given(seeds)
def test_oriented_mincut_never_larger(seed):
    net = net_from_seed(seed)
    oriented = orient(net, {e.id: "uv" for e in net.edges if not e.is_directed})
    assert min_cut(oriented).value <= min_cut(net).value


@SUITE
@given(seeds)
def test_coding_witness_is_valid(seed):
    net = net_from_seed(seed)
    oriented = orient(net, {e.id: "uv" for e in net.edges if not e.is_directed})
    if not is_acyclic(oriented):
        return
    res = exhaustive_achievable(oriented, SearchConfig(alphabet_size=2, budget=10**6))
    if res.status == "witness":
        assert is_valid(oriented, res.witness)


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_series_path_c1_is_bottleneck(dims):
    net = path_network(*dims)
    oriented = orient(net, {e.id: "uv" for e in net.edges})
    assert c1_exact(oriented, max(dims) + 1) == min(dims)


@given(
    st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4)
)
@settings(max_examples=100, deadline=None)
def test_rounding_brackets(dim, n):
    pair = round_networks(path_network(dim), n)
    low, high = pair.lower.edges[0].dim, pair.upper.edges[0].dim
    assert low <= dim**n <= high <= 2 * low
    assert low.bit_count() == 1 and high.bit_count() == 1

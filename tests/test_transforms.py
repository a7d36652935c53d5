import pytest
from hypothesis import given, settings, strategies as st

from entcap.codingsearch import SearchConfig, c1_exact
from entcap.fixtures import diamond_network, fixture, path_network
from entcap.netmodel import (
    NetworkError,
    drop_orientations,
    is_acyclic,
    merge_stage_pairs,
    min_cut,
    network_to_obj,
    orient,
    scale,
    tensor_power,
)
from entcap.tnrank import estimate_r1
from entcap.transforms import (
    RoundedPair,
    SplitSpec,
    round_networks,
    sandwich_check,
    split_cycle_edge,
)


class TestSplit:
    def test_split_matches_n4_fixture(self):
        split = split_cycle_edge(diamond_network(2, 3, 3, 2, 4), SplitSpec("d5", 2, 2))
        assert network_to_obj(split) == network_to_obj(fixture("n4_split_2x2"))

    def test_split_matches_n2_fixture(self):
        split = split_cycle_edge(diamond_network(2, 3, 3, 2, 2), SplitSpec("d5", 2, 1))
        assert network_to_obj(split) == network_to_obj(fixture("n2_up"))

    def test_result_is_acyclic_and_directed(self):
        split = split_cycle_edge(diamond_network(2, 3, 3, 2, 6), SplitSpec("d5", 3, 2))
        assert is_acyclic(split)
        assert all(e.is_directed for e in split.edges)

    def test_stage_pairs_recorded(self):
        split = split_cycle_edge(diamond_network(2, 3, 3, 2, 4), SplitSpec("d5", 2, 2))
        assert split.stage_pairs == (("n1_early", "n1_late"), ("n2_early", "n2_late"))

    def test_mincut_never_separates_a_pair(self):
        base = diamond_network(2, 3, 3, 2, 4)
        split = split_cycle_edge(base, SplitSpec("d5", 2, 2))
        cut = min_cut(split)
        for early, late in split.stage_pairs:
            assert (early in cut.s_side) == (late in cut.s_side)

    def test_terminal_edge_rejected(self):
        with pytest.raises(NetworkError, match="source or sink"):
            split_cycle_edge(diamond_network(2, 3, 3, 2, 2), SplitSpec("d1", 2, 1))

    def test_bad_factorization_rejected(self):
        with pytest.raises(NetworkError, match="factorization"):
            split_cycle_edge(diamond_network(2, 3, 3, 2, 4), SplitSpec("d5", 3, 2))

    def test_double_split_rejected(self):
        split = split_cycle_edge(diamond_network(2, 3, 3, 2, 4), SplitSpec("d5", 2, 2))
        with pytest.raises(NetworkError):
            split_cycle_edge(split, SplitSpec("d5a", 2, 1))

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_merged_split_keeps_mincut_and_rank(self, dims, a, b):
        # Merging the stage pairs gives the diamond back, with d5 in two
        # parallel pieces of dims a and b: the same MC and the same R1.
        base = diamond_network(*dims, a * b)
        split = split_cycle_edge(base, SplitSpec("d5", a, b))
        merged = merge_stage_pairs(drop_orientations(split))
        assert not merged.stage_pairs
        assert min_cut(merged).value == min_cut(base).value
        assert estimate_r1(split).r1_lower == estimate_r1(base).r1_lower

    def test_trivial_split_equals_dropping_the_edge(self):
        # Splitting a dim-1 middle edge into 1*1 is the degenerate case:
        # the staged network codes exactly like the diamond without d5.
        base = diamond_network(2, 3, 3, 2, 1)
        split = split_cycle_edge(base, SplitSpec("d5", 1, 1))
        no_middle = orient(
            diamond_network(2, 3, 3, 2, 1),
            {"d1": "uv", "d2": "uv", "d3": "uv", "d4": "uv", "d5": "uv"},
        )
        cfg = SearchConfig(1)
        assert c1_exact(split, 8, cfg) == c1_exact(no_middle, 8, cfg)


class TestTeleport:
    """The k-scaled diamond against its residual: the same network with a
    factor k teleported off each of the four boundary edges, which leaves
    the diamond with only its middle edge scaled."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_mincut_accounting(self, k):
        scaled = scale(diamond_network(2, 3, 3, 2, 2), k)
        residual = diamond_network(2, 3, 3, 2, 2 * k)
        assert min_cut(residual).value * k * k >= min_cut(scaled).value

    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_composition_bound(self, k):
        scaled = scale(diamond_network(2, 3, 3, 2, 2), k)
        residual = diamond_network(2, 3, 3, 2, 2 * k)
        r1_scaled = estimate_r1(scaled, trials=3, seed=0).r1_lower
        r1_residual = estimate_r1(residual, trials=3, seed=0).r1_lower
        assert r1_scaled >= k * k * r1_residual

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_scaled_mincut_formula(self, k):
        # On this family the scaled min-cut is k^2 times the boundary
        # bottleneck; the middle edge never helps a minimal cut.
        net = scale(diamond_network(2, 3, 3, 2, 2), k)
        assert min_cut(net).value == k * k * min(2 * 3, 3 * 2)


class TestRounding:
    def test_dim3_brackets(self):
        pair = round_networks(path_network(3, 3), 1)
        assert [e.dim for e in pair.lower.edges] == [2, 2]
        assert [e.dim for e in pair.upper.edges] == [4, 4]

    def test_power_of_two_is_fixed(self):
        pair = round_networks(path_network(4, 2), 1)
        assert pair.lower == pair.upper == path_network(4, 2)

    def test_fig1_n2_values(self):
        pair = round_networks(diamond_network(2, 3, 3, 2, 2), 2)
        assert [e.dim for e in pair.lower.edges] == [4, 8, 8, 4, 4]
        assert [e.dim for e in pair.upper.edges] == [4, 16, 16, 4, 4]
        assert pair.c1 == 2 and pair.c2 == 2

    def test_bad_power_rejected(self):
        with pytest.raises(NetworkError):
            round_networks(path_network(2, 2), 0)

    @pytest.mark.parametrize("dim", range(1, 11))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bracket_invariants(self, dim, n):
        pair = round_networks(path_network(dim), n)
        low, high = pair.lower.edges[0].dim, pair.upper.edges[0].dim
        assert low <= dim**n <= high
        assert high <= 2 * low
        assert low & (low - 1) == 0 and high & (high - 1) == 0


class TestSandwich:
    def test_fig1_n1(self):
        report = sandwich_check(diamond_network(2, 3, 3, 2, 2), 1, 0)
        assert (report.mc_lower, report.r1_estimate, report.mc_upper) == (4, 6, 8)
        assert report.ok

    def test_fig1_n2(self):
        report = sandwich_check(diamond_network(2, 3, 3, 2, 2), 2, 0)
        assert (report.mc_lower, report.r1_estimate, report.mc_upper) == (32, 36, 64)
        assert report.mc_power == 36
        assert report.ok

    def test_path_collapses(self):
        report = sandwich_check(path_network(2, 3), 2, 0)
        assert report.mc_lower == report.r1_estimate == report.mc_power == 4
        assert report.ok

    def test_all_powers_of_two_collapse(self):
        report = sandwich_check(diamond_network(2, 4, 4, 2, 2), 1, 0)
        assert report.mc_lower == report.r1_estimate == report.mc_upper
        assert report.ok

    def test_power_consistency_with_round(self):
        net = diamond_network(2, 3, 3, 2, 2)
        pair = round_networks(net, 2)
        report = sandwich_check(net, 2, 0)
        assert isinstance(pair, RoundedPair)
        assert min_cut(pair.lower).value == report.mc_lower
        assert min_cut(pair.upper).value == report.mc_upper
        assert min_cut(tensor_power(net, 2)).value == report.mc_power

    def test_directed_diamond_brackets_the_orientation_free_rank(self):
        # R1 ignores orientations, so the rounded networks are cut without
        # them: cut with d1 reversed, the upper network would read MC = 2.
        dirs = {"d1": "vu", "d2": "uv", "d3": "uv", "d4": "uv", "d5": "uv"}
        report = sandwich_check(orient(diamond_network(2, 3, 3, 2, 2), dirs), 1, 0)
        got = (report.mc_lower, report.r1_estimate, report.mc_upper, report.mc_power)
        assert got == (4, 6, 8, 6)
        assert report.ok

    def test_each_network_is_cut_once(self):
        min_cut.cache_clear()
        sandwich_check(diamond_network(2, 3, 3, 2, 2), 2, 0)
        assert min_cut.cache_info().misses == 4  # lower, base, upper and the power

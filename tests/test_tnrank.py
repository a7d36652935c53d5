import hashlib
import itertools
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entcap import tnrank
from entcap.fixtures import (
    FIXTURE_NAMES,
    diamond_network,
    fixture,
    path_network,
    r1_witness_n2,
)
from entcap.netmodel import (
    Edge,
    NetworkError,
    TooLargeError,
    drop_orientations,
    dump_network,
    load_network,
    merge_stage_pairs,
    min_cut,
    network,
    orient,
    random_network,
    scale,
    tensor_power,
)
from entcap.tnrank import (
    MAX_ENTRIES,
    MAX_TRIALS,
    BoundaryMatrix,
    PrimeField,
    R1Estimate,
    TensorAssignment,
    _plan_contraction,
    _trial_seed,
    contract,
    diamond_r1,
    estimate_r1,
    matmul_mod,
    random_assignment,
    rank_mod_p,
)
from entcap.transforms import SplitSpec, split_cycle_edge

PRIMES = [2, 101, 2**31 - 1]


def _by_id(net):
    return sorted(net.edges, key=lambda e: e.id)


def axes(net, v):
    """The documented axis rule: one axis per end of an edge at ``v``,
    edges in id order, so a self-loop gives two adjacent axes."""
    return [e for e in _by_id(net) for end in (e.u, e.v) if end == v]


def slots(net, terminals):
    """The documented slot rule: the terminals in sorted order, each with
    its non-loop edges in id order."""
    return [
        e for t in sorted(terminals) for e in _by_id(net)
        if t in (e.u, e.v) and not e.is_self_loop
    ]


def shape(net, v):
    return tuple(e.dim for e in axes(net, v))


def delta_assignment(net, field=PrimeField()):
    """Copy tensors (generalized Kronecker deltas) at every internal vertex."""
    tensors = {}
    for v in net.internal_vertices:
        dims = shape(net, v)
        t = np.zeros(dims, dtype=np.int64)
        for i in range(min(dims)):
            t[(i,) * len(dims)] = 1
        tensors[v] = t
    return TensorAssignment(field=field, tensors=tensors)


class TestPrimeField:
    def test_default_is_mersenne(self):
        assert PrimeField().p == 2**31 - 1

    @pytest.mark.parametrize("p", [2, 3, 101, 7919])
    def test_accepts_primes(self, p):
        assert PrimeField(p).p == p

    @pytest.mark.parametrize("p", [0, 1, 4, 100, 2**31 + 1])
    def test_rejects_composites(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)

    @pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
    def test_rejects_primes_from_2_31(self, p):
        # int64 elimination overflowed over these primes and certified
        # R1(fig2) >= 15, above its true value 14.
        with pytest.raises(ValueError, match="below 2\\^31"):
            PrimeField(p)


class TestRandomAssignment:
    def test_deterministic(self):
        net = fixture("n_d5_2")
        a = random_assignment(net, PrimeField(), seed=7)
        b = random_assignment(net, PrimeField(), seed=7)
        assert set(a.tensors) == set(b.tensors) == {"n1", "n2"}
        for v in a.tensors:
            assert np.array_equal(a.tensors[v], b.tensors[v])

    def test_seed_sensitivity(self):
        net = fixture("n_d5_2")
        a = random_assignment(net, PrimeField(), seed=0)
        b = random_assignment(net, PrimeField(), seed=1)
        assert any(not np.array_equal(a.tensors[v], b.tensors[v]) for v in a.tensors)

    def test_shapes_follow_incident_edges(self):
        net = fixture("n_d5_2")
        ta = random_assignment(net, PrimeField(), seed=0)
        assert ta.tensors["n1"].shape == (2, 3, 2)  # d1, d3, d5 in id order
        assert ta.tensors["n2"].shape == (3, 2, 2)  # d2, d4, d5

    def test_no_internal_vertices(self):
        net = network(["s", "t"], [Edge("e", "s", "t", 4)], ["s"], ["t"])
        assert random_assignment(net, PrimeField(), seed=0).tensors == {}

    def test_oversized_tensor_refused_before_drawing(self):
        # n1's tensor would have 10^12 entries (7.28 TiB of int64).
        net = path_network(10**6, 10**6)
        with pytest.raises(TooLargeError, match="the tensor at 'n1'"):
            random_assignment(net, PrimeField(), seed=0)


#: numpy promises the same ``Generator`` stream only within one version,
#: so the pins below hold for the version they were recorded with.
PINNED_NUMPY = "2.4.6"

#: sha256 over every tensor ``random_assignment`` draws on each fixture at
#: seeds 0, 1 and 7 (see ``_draws_digest``).
PINNED_DRAWS = "1a714b6423636192bae69e5eccbd1eeb25d6210eb47b514ad342866de97699f0"

#: ``_trial_seed(s, t)`` for s, t < 4, row s.
PINNED_TRIAL_SEEDS = [
    [12750949206108985319, 17029223190271853676, 13490992829113174973, 11222848102595132014],
    [7883430198869069541, 5106859519625161097, 6858248496773155009, 17226065100414665902],
    [12172482724234175010, 1321245530788527746, 5755371474409674551, 9056032179904243166],
    [6772693778316037487, 1963617303309389107, 4124585228780039059, 18267611208432274339],
]


def _draws_digest() -> str:
    h = hashlib.sha256()
    for name in FIXTURE_NAMES:
        for seed in (0, 1, 7):
            tensors = random_assignment(fixture(name), PrimeField(), seed).tensors
            for v in sorted(tensors):
                h.update(f"{name}/{seed}/{v}/{tensors[v].shape}/".encode())
                h.update(tensors[v].astype("<i8").tobytes())
    return h.hexdigest()


class TestDrawPin:
    """Every drawn tensor is keyed by (seed, vertex id); a change to how
    the draws are seeded must not change a single entry."""

    def test_tensors(self):
        assert _draws_digest() == PINNED_DRAWS, (
            f"random_assignment draws changed (pinned with numpy {PINNED_NUMPY}, "
            f"running numpy {np.__version__})"
        )

    def test_trial_seeds(self):
        got = [[_trial_seed(s, t) for t in range(4)] for s in range(4)]
        assert got == PINNED_TRIAL_SEEDS, (
            f"_trial_seed changed (pinned with numpy {PINNED_NUMPY}, "
            f"running numpy {np.__version__})"
        )


class TestContract:
    def test_path_all_ones_rank_one(self):
        net = path_network(2, 3)
        tensors = {"n1": np.ones((2, 3), dtype=np.int64)}
        bm = contract(net, TensorAssignment(PrimeField(), tensors))
        assert bm.matrix.shape == (2, 3)
        assert rank_mod_p(bm) == 1

    def test_delta_path_is_identity(self):
        net = path_network(3, 3)
        bm = contract(net, delta_assignment(net))
        assert np.array_equal(bm.matrix, np.eye(3, dtype=np.int64))

    def test_delta_chain_two_internal_is_identity(self):
        net = path_network(4, 4, 4)
        bm = contract(net, delta_assignment(net))
        assert np.array_equal(bm.matrix, np.eye(4, dtype=np.int64))

    def test_boundary_to_boundary_edge_identity_wiring(self):
        net = network(["s", "t"], [Edge("e", "s", "t", 3)], ["s"], ["t"])
        bm = contract(net, TensorAssignment(PrimeField(), {}))
        assert np.array_equal(bm.matrix, np.eye(3, dtype=np.int64))

    def test_shape_matches_boundary_slots(self):
        net = fixture("fig2_counterexample")
        bm = contract(net, random_assignment(net, PrimeField(), seed=0))
        assert bm.matrix.shape == (15, 15)

    def test_internal_self_loop_traced(self):
        loop = network(
            ["s", "n", "t"],
            [
                Edge("a", "s", "n", 2),
                Edge("b", "n", "t", 2),
                Edge("l", "n", "n", 2),
            ],
            ["s"],
            ["t"],
        )
        plain = path_network(2, 2)
        field = PrimeField(101)
        rng = np.random.Generator(np.random.PCG64(5))
        t = rng.integers(0, field.p, size=(2, 2, 2, 2), dtype=np.int64)
        looped = contract(loop, TensorAssignment(field, {"n": t}))
        traced = contract(
            plain, TensorAssignment(field, {"n1": np.trace(t, axis1=2, axis2=3) % field.p})
        )
        assert np.array_equal(looped.matrix, traced.matrix)

    def test_missing_tensor_rejected(self):
        net = path_network(2, 2)
        with pytest.raises(NetworkError, match="missing tensor"):
            contract(net, TensorAssignment(PrimeField(), {}))

    def test_wrong_shape_rejected(self):
        net = path_network(2, 2)
        bad = {"n1": np.ones((3, 3), dtype=np.int64)}
        with pytest.raises(NetworkError, match="shape"):
            contract(net, TensorAssignment(PrimeField(), bad))


class TestMatmulMod:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize(
        "m,k,n",
        # k = 2^16 - 1 is the last single chunk; 2^16 and 70,000 take two.
        [(1, 1, 1), (3, 5, 4), (2, 40_000, 3), (2, 2**16 - 1, 3), (2, 2**16, 3), (2, 70_000, 3)],
    )
    def test_all_entries_p_minus_1(self, p, m, k, n):
        a = np.full((m, k), p - 1, dtype=np.int64)
        b = np.full((k, n), p - 1, dtype=np.int64)
        expected = (p - 1) * (p - 1) * k % p
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert got.tolist() == [[expected] * n] * m

    @pytest.mark.parametrize("p", PRIMES)
    def test_against_python_ints(self, p):
        rng = np.random.Generator(np.random.PCG64(p))
        a = rng.integers(0, p, size=(7, 9), dtype=np.int64)
        b = rng.integers(0, p, size=(9, 5), dtype=np.int64)
        expected = [
            [sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T]
            for row in a
        ]
        assert matmul_mod(a, b, p).tolist() == expected

    @pytest.mark.parametrize("p", PRIMES)
    def test_row_vector_across_chunks_against_python_ints(self, p):
        rng = np.random.Generator(np.random.PCG64(p))
        a = rng.integers(0, p, size=(1, 70_000), dtype=np.int64)
        b = rng.integers(0, p, size=(70_000, 2), dtype=np.int64)
        row = a[0].tolist()
        expected = [sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
        assert matmul_mod(a, b, p).tolist() == [expected]

    def test_inner_dimension_from_2_30_rejected(self):
        # Zero strides: neither operand allocates its 2^30 entries.
        a = np.broadcast_to(np.int64(1), (1, 2**30))
        b = np.broadcast_to(np.int64(1), (2**30, 1))
        with pytest.raises(ValueError, match="2\\^30"):
            matmul_mod(a, b, 101)


def _multigraph(draw):
    """1-2 sources and sinks, 0-3 internal vertices, any edges (self-loops
    and terminal-terminal edges included), dims 1-3, declared in any order."""
    sources = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    sinks = [f"t{i}" for i in range(draw(st.integers(1, 2)))]
    internal = [f"n{i}" for i in range(draw(st.integers(0, 3)))]
    vertices = sources + internal + sinks
    ends = st.sampled_from(vertices)
    triples = draw(st.lists(st.tuples(ends, ends, st.integers(1, 3)), max_size=5))
    edges = [Edge(f"e{i}", u, v, dim) for i, (u, v, dim) in enumerate(triples)]
    return network(vertices, draw(st.permutations(edges)), sources, sinks)


@st.composite
def small_networks(draw):
    kind = draw(st.sampled_from(["random", "multigraph", "split"]))
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        net = random_network(np.random.Generator(np.random.PCG64(seed)))
    elif kind == "multigraph":
        net = _multigraph(draw)
    else:
        d = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
        a, b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        net = split_cycle_edge(diamond_network(*d, a * b), SplitSpec("d5", a, b))
    terminal = net.terminal_set
    cost = 1  # the reference loop's iterations: rows * cols * internal configurations
    for e in net.edges:
        if not (e.is_self_loop and e.u in terminal):
            cost *= e.dim ** ((e.u in terminal) + (e.v in terminal) or 1)
    assume(cost <= 20_000)
    return net


def contract_reference(net, ta):
    """The boundary matrix of :func:`contract` by direct summation over
    internal edge configurations: O(rows * cols * prod(internal dims))
    Python-level steps, the test oracle for :func:`contract`.

    Tensor axes, rows and columns follow the documented rules of
    :func:`axes` and :func:`slots`, written here apart from the library.
    """
    p = ta.field.p
    terminal = net.terminal_set
    internal = list(net.internal_vertices)
    row_slots, col_slots = slots(net, net.sources), slots(net, net.sinks)
    internal_edges = [e for e in net.edges if e.u not in terminal and e.v not in terminal]
    vertex_axes = {v: [e.id for e in axes(net, v)] for v in internal}

    out = np.zeros((prod(e.dim for e in row_slots), prod(e.dim for e in col_slots)), dtype=np.int64)
    col_combos = list(itertools.product(*[range(e.dim) for e in col_slots]))
    int_configs = list(itertools.product(*[range(e.dim) for e in internal_edges]))

    for ri, rvals in enumerate(itertools.product(*[range(e.dim) for e in row_slots])):
        fixed = {}
        ok = True
        for e, val in zip(row_slots, rvals):
            if fixed.setdefault(e.id, val) != val:
                ok = False  # identity wiring between two source slots
                break
        if not ok:
            continue
        for ci, cvals in enumerate(col_combos):
            val_map = dict(fixed)
            ok = True
            for e, val in zip(col_slots, cvals):
                if val_map.setdefault(e.id, val) != val:
                    ok = False
                    break
            if not ok:
                continue
            acc = 0
            for config in int_configs:
                for e, val in zip(internal_edges, config):
                    val_map[e.id] = val
                term = 1
                for v in internal:
                    idx = tuple(val_map[eid] for eid in vertex_axes[v])
                    term = term * int(ta.tensors[v][idx]) % p
                acc = (acc + term) % p
            out[ri, ci] = acc
    return BoundaryMatrix(field=ta.field, matrix=out)


class TestContractDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        small_networks(),
        st.sampled_from(PRIMES),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_matches_reference(self, net, p, seed, reduced):
        rng = np.random.Generator(np.random.PCG64(seed))
        low, high = (0, p) if reduced else (-(2**62), 2**62)
        shapes = {v: shape(net, v) for v in net.internal_vertices}
        tensors = {v: rng.integers(low, high, size=s, dtype=np.int64) for v, s in shapes.items()}
        ta = TensorAssignment(PrimeField(p), tensors)
        fast, slow = contract(net, ta), contract_reference(net, ta)
        assert fast.matrix.dtype == slow.matrix.dtype == np.int64
        assert np.array_equal(fast.matrix, slow.matrix)

    @pytest.mark.parametrize("name", ["n_d5_2", "fig2_counterexample", "n4_split_2x2", "path_3_3"])
    def test_fixtures_match_reference(self, name):
        net = fixture(name)
        ta = random_assignment(net, PrimeField(), seed=0)
        assert np.array_equal(contract(net, ta).matrix, contract_reference(net, ta).matrix)


def _k4(x):
    """Four internal vertices joined pairwise by dim-``x`` edges, between
    a source and a sink with dim-1 edges: tensors of x^3 entries whose
    first pairwise product has x^4."""
    inner = ["a", "b", "c", "d"]
    edges = [Edge("sa", "s", "a", 1), Edge("dt", "d", "t", 1)]
    edges += [Edge(u + w, u, w, x) for u, w in itertools.combinations(inner, 2)]
    return network(["s", *inner, "t"], edges, ["s"], ["t"])


class TestSizeGuard:
    def test_power_6_refused_before_sampling(self):
        # fig2^6 node tensors alone would take ~5.8 GB.
        with pytest.raises(TooLargeError, match="above the limit"):
            estimate_r1(tensor_power(fixture("fig2_counterexample"), 6), trials=1)

    def test_contract_refuses_before_allocating(self):
        net = tensor_power(fixture("fig2_counterexample"), 6)
        # Zero-stride stand-ins of the right shapes: nothing is allocated.
        tensors = {
            v: np.broadcast_to(np.int64(0), shape(net, v))
            for v in net.internal_vertices
        }
        with pytest.raises(TooLargeError):
            contract(net, TensorAssignment(PrimeField(), tensors))

    def test_intermediate_refused(self):
        x = 75  # tensors 75^3 < MAX_ENTRIES < 75^4
        assert x**3 <= MAX_ENTRIES < x**4
        with pytest.raises(TooLargeError, match="intermediate"):
            estimate_r1(_k4(x), trials=1)

    def test_within_limit_still_runs(self):
        est = estimate_r1(_k4(3), trials=1)
        assert est.r1_lower == est.mc_upper == 1


class TestRankModP:
    def test_identity(self):
        bm = BoundaryMatrix(PrimeField(), np.eye(6, dtype=np.int64))
        assert rank_mod_p(bm) == 6

    def test_all_ones(self):
        bm = BoundaryMatrix(PrimeField(), np.ones((4, 7), dtype=np.int64))
        assert rank_mod_p(bm) == 1

    def test_zero(self):
        bm = BoundaryMatrix(PrimeField(), np.zeros((3, 3), dtype=np.int64))
        assert rank_mod_p(bm) == 0

    def test_rank_drops_mod_p(self):
        field = PrimeField(7)
        m = np.array([[1, 1], [1, 8]], dtype=np.int64)  # singular mod 7 only
        assert rank_mod_p(BoundaryMatrix(field, m)) == 1
        assert rank_mod_p(BoundaryMatrix(PrimeField(101), m)) == 2

    def test_against_minor_oracle(self):
        # Every shape here has at most 16 entries, so this reaches only the
        # Python-int elimination; TestRankPathsAgree checks it against numpy's.
        def oracle_rank(m, p):
            """Largest k with a k x k submatrix of nonzero determinant mod p."""
            n_rows, n_cols = m.shape
            from fractions import Fraction as F

            def det(sub):
                sub = [[int(x) for x in row] for row in sub]
                n = len(sub)
                if n == 1:
                    return sub[0][0]
                total = 0
                for j in range(n):
                    minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
                    total += (-1) ** j * sub[0][j] * det(minor)
                return total

            best = 0
            for k in range(1, min(n_rows, n_cols) + 1):
                found = False
                for rows in itertools.combinations(range(n_rows), k):
                    for cols in itertools.combinations(range(n_cols), k):
                        sub = [[m[r, c] for c in cols] for r in rows]
                        if det(sub) % p != 0:
                            found = True
                            break
                    if found:
                        break
                if found:
                    best = k
            return best

        field = PrimeField(101)
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(30):
            shape = tuple(rng.integers(1, 5, size=2))
            m = rng.integers(0, field.p, size=shape, dtype=np.int64)
            bm = BoundaryMatrix(field, m)
            assert rank_mod_p(bm) == oracle_rank(m, field.p)


@st.composite
def _low_rank_matrices(draw):
    """A product of random n x r and r x m factors mod p, some rows and
    columns zeroed and some entries raised by multiples of p."""
    p = draw(st.sampled_from(PRIMES))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(0, min(n, m)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    u = rng.integers(0, p, size=(n, r), dtype=np.int64)
    v = rng.integers(0, p, size=(r, m), dtype=np.int64)
    a = matmul_mod(u, v, p) if r else np.zeros((n, m), dtype=np.int64)
    a[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    a[:, draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0
    a += p * rng.integers(0, 2, size=(n, m)) * rng.integers(1, 4, size=(n, m))
    return a, p, r


class TestRankPathsAgree:
    """The Python-int elimination of small matrices against the numpy one
    that ranks larger matrices, on shapes either side of the threshold."""

    @settings(max_examples=300, deadline=None)
    @given(_low_rank_matrices())
    def test_same_rank(self, case):
        a, p, r = case
        rank = tnrank._rank_numpy(a, p)
        assert tnrank._rank_ints(a.tolist(), p) == rank <= r
        assert rank_mod_p(BoundaryMatrix(PrimeField(p), a)) == rank

    def test_threshold_between_shapes(self):
        # The strategy's shapes reach both paths of rank_mod_p.
        assert 1 <= tnrank.SMALL_RANK_ENTRIES < 12 * 12


class TestEstimateR1:
    def test_fig2_gap(self):
        est = estimate_r1(fixture("fig2_counterexample"), trials=5, seed=0)
        assert est.r1_lower == 14
        assert est.mc_upper == 15

    @pytest.mark.parametrize("d5", [2, 3, 4])
    def test_family_saturates(self, d5):
        est = estimate_r1(diamond_network(2, 3, 3, 2, d5), trials=3, seed=0)
        assert est.r1_lower == est.mc_upper == 6

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 3), (4, 2)])
    def test_path_rank_is_bottleneck(self, a, b):
        est = estimate_r1(path_network(a, b), trials=2, seed=0)
        assert est.r1_lower == min(a, b)

    def test_powers_of_two_saturate(self):
        est = estimate_r1(diamond_network(2, 4, 4, 2, 2), trials=3, seed=0)
        assert est.r1_lower == est.mc_upper == 8

    def test_scaled_conjecture_values(self):
        base = diamond_network(2, 3, 3, 2, 2)
        for k, expected in ((2, 24), (3, 54)):
            est = estimate_r1(scale(base, k), trials=3, seed=0)
            assert est.r1_lower == est.mc_upper == expected

    def test_fig2_square_closes_gap(self):
        # The one-shot gap 14 < 15 closes on the tensor square: R1 = MC^2.
        est = estimate_r1(tensor_power(fixture("fig2_counterexample"), 2), trials=1, seed=0)
        assert est.r1_lower == est.mc_upper == 225

    def test_witness_is_drawn_from_its_seed(self):
        net = fixture("n_d5_3")
        est = estimate_r1(net, trials=2, seed=11)
        again = random_assignment(net, PrimeField(), est.witness_seed)
        assert est.witness.tensors.keys() == again.tensors.keys()
        for v, t in again.tensors.items():
            assert np.array_equal(est.witness.tensors[v], t)

    def test_witness_reproduces_rank(self):
        est = estimate_r1(fixture("n_d5_3"), trials=2, seed=11)
        assert rank_mod_p(contract(fixture("n_d5_3"), est.witness)) == est.r1_lower

    def test_failure_bound_shape(self):
        est = estimate_r1(fixture("n_d5_2"), trials=4, seed=0)
        assert isinstance(est.failure_bound, Fraction)
        assert 0 < est.failure_bound < 1
        single = estimate_r1(fixture("n_d5_2"), trials=1, seed=0)
        assert est.failure_bound == single.failure_bound**4
        # rank <= 6 times two internal tensors: degree 12.
        assert single.failure_bound == Fraction(12, 2**31 - 1)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_r1(fixture("n_d5_2"), trials=0)

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**30])
    def test_trials_above_the_cap_refused(self, trials):
        # n_d5_2's first trial reaches its MC: 10^30 would otherwise build
        # (12/p)^(10^30) at once.
        with pytest.raises(ValueError):
            estimate_r1(fixture("n_d5_2"), trials=trials)

    def test_failure_bound_counts_the_requested_trials(self):
        # path_2_3's first trial reaches its MC, and the bound still
        # counts all 256 trials; p^256 has under 2,400 digits, so it prints.
        est = estimate_r1(fixture("path_2_3"), trials=MAX_TRIALS)
        assert est.trials == MAX_TRIALS
        assert est.failure_bound == Fraction(2, 2**31 - 1) ** MAX_TRIALS
        str(est.failure_bound)

    def test_stored_witness_certifies_six(self):
        net, ta = r1_witness_n2()
        assert rank_mod_p(contract(net, ta)) == 6


def _ranked(net):
    """The network that :func:`estimate_r1` plans and ranks."""
    return merge_stage_pairs(drop_orientations(net))


def _property_suite_networks():
    """The 200 random networks of the property-suite claim at seed 0."""
    rng = np.random.Generator(np.random.PCG64(0))
    return [random_network(rng) for _ in range(200)]


def _every_trial(net, field, trials, seed):
    """:func:`estimate_r1` for 1..``trials`` trials, each running every
    trial, without the stop at the min-cut."""
    net = _ranked(net)
    mc = min_cut(net).value
    plan = _plan_contraction.__wrapped__(net)
    degree = min(plan.rows, plan.cols) * len(net.internal_vertices)
    per_trial = min(Fraction(1), Fraction(degree, field.p))
    best_rank, best_seed, estimates = -1, 0, []
    for t in range(trials):
        s = _trial_seed(seed, t)
        r = rank_mod_p(contract(net, random_assignment(net, field, s)))
        if r > best_rank:
            best_rank, best_seed = r, s
        estimates.append(R1Estimate(best_rank, mc, per_trial ** (t + 1), t + 1, best_seed, net, field))
    return estimates


class TestEarlyStop:
    @pytest.mark.parametrize(
        "nets",
        [
            [fixture(name) for name in FIXTURE_NAMES]
            + [_ranked(fixture("n2_up")), _ranked(fixture("n4_split_2x2"))],
            _property_suite_networks(),
        ],
        ids=["fixtures", "property-suite"],
    )
    def test_matches_running_every_trial(self, nets):
        for net, p, seed in itertools.product(nets, [2**31 - 1, 101, 2], range(3)):
            field = PrimeField(p)
            for trials, expected in enumerate(_every_trial(net, field, 4, seed), start=1):
                assert estimate_r1(net, field, trials, seed) == expected

    @pytest.mark.parametrize(
        "name, trials, contracts",
        [("n_d5_2", 3, 1), ("fig2_counterexample", 5, 5)],
    )
    def test_stops_at_the_min_cut(self, monkeypatch, name, trials, contracts):
        # n_d5_2's first trial reaches its MC of 6; fig2's R1 of 14 is below its MC of 15.
        calls = []

        def counting(net, ta):
            calls.append(net)
            return contract(net, ta)

        monkeypatch.setattr(tnrank, "contract", counting)
        estimate_r1(fixture(name), trials=trials)
        assert len(calls) == contracts


class TestWitnessIsRanked:
    @pytest.mark.parametrize(
        "nets",
        [[fixture(name) for name in FIXTURE_NAMES], _property_suite_networks()],
        ids=["fixtures", "property-suite"],
    )
    def test_winning_trial_is_the_witness(self, monkeypatch, nets):
        wirings, contracted = [], []

        def counting_wiring(net):
            wirings.append(net)
            return wiring(net)

        def spying_contract(net, ta):
            bm = contract(net, ta)
            contracted.append((ta, rank_mod_p(bm)))
            return bm

        wiring = tnrank._wiring
        monkeypatch.setattr(tnrank, "_wiring", counting_wiring)
        monkeypatch.setattr(tnrank, "contract", spying_contract)
        for net in nets:
            _plan_contraction.cache_clear()
            wirings.clear()
            contracted.clear()
            est = estimate_r1(net)
            assert len(wirings) == 1
            ranks = [r for _, r in contracted]
            winner = contracted[ranks.index(max(ranks))][0]
            witness = est.witness
            assert winner.tensors.keys() == witness.tensors.keys()
            assert all(np.array_equal(t, witness.tensors[v]) for v, t in winner.tensors.items())
            assert rank_mod_p(contract(est.net, witness)) == est.r1_lower == max(ranks)


class TestPlanMemo:
    def test_estimate_plans_once(self):
        _plan_contraction.cache_clear()
        estimate_r1(fixture("fig2_counterexample"), trials=3)
        info = _plan_contraction.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    @pytest.mark.parametrize(
        "nets",
        [[fixture(name) for name in FIXTURE_NAMES], _property_suite_networks()],
        ids=["fixtures", "property-suite"],
    )
    def test_memoized_plan_matches_unmemoized(self, nets):
        for net in map(_ranked, nets):
            _plan_contraction.cache_clear()
            first = _plan_contraction(net)
            # An equal network rebuilt from its JSON is a hit.
            again = _plan_contraction(load_network(dump_network(net)))
            assert _plan_contraction.cache_info().hits == 1
            assert first == again == _plan_contraction.__wrapped__(net)

    def test_alternating_networks(self):
        nets = [fixture("fig2_counterexample"), fixture("n4_split_2x2")]
        tas = [random_assignment(net, PrimeField(), seed=3) for net in nets]
        fresh = []
        for net, ta in zip(nets, tas):
            _plan_contraction.cache_clear()
            fresh.append(contract(net, ta).matrix)
        for _ in range(2):
            for net, ta, expected in zip(nets, tas, fresh):
                assert np.array_equal(contract(net, ta).matrix, expected)


def _rank_over_q(rows) -> int:
    """Exact rank over Q by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _canonical_blocks():
    """(name, A1, A2) for L_e and L_e^T, e = 1..4, and regular 1 x 1 blocks (1, mu)."""
    blocks = []
    for e in range(1, 5):
        a1 = [[int(j == i) for j in range(e + 1)] for i in range(e)]
        a2 = [[int(j == i + 1) for j in range(e + 1)] for i in range(e)]
        blocks.append((f"L{e}", a1, a2))
        blocks.append((f"L{e}T", [list(c) for c in zip(*a1)], [list(c) for c in zip(*a2)]))
    for mu in (0, 1, -1, 2, Fraction(3, 7)):
        blocks.append((f"reg{mu}", [[1]], [[mu]]))
    return blocks


class TestDiamondR1:
    def test_pair_lemma_over_q(self):
        # Each canonical block pair's A1 (x) B1 + A2 (x) B2 has full rank;
        # two regular blocks (1, mu), (1, nu) give 1 + mu * nu.
        blocks = _canonical_blocks()
        for (na, a1, a2), (nb, b1, b2) in itertools.product(blocks, repeat=2):
            m = [
                [x + y for x, y in zip(r1, r2)]
                for r1, r2 in zip(_kron(a1, b1), _kron(a2, b2))
            ]
            if na.startswith("reg") and nb.startswith("reg"):
                expected = int(m[0][0] != 0)
            else:
                expected = min(len(m), len(m[0]))
            assert _rank_over_q(m) == expected, (na, nb)

    def test_matches_estimate_on_small_diamonds(self):
        for d1, d2, d3, d4 in itertools.product(range(1, 5), repeat=4):
            for d5 in (1, 2):
                net = diamond_network(d1, d2, d3, d4, d5)
                est = estimate_r1(net, trials=2, seed=1)
                assert diamond_r1(net) == est.r1_lower, (d1, d2, d3, d4, d5)

    def test_orientations_ignored(self):
        net = fixture("fig2_counterexample")
        assert diamond_r1(orient(net, {e.id: "vu" for e in net.edges})) == 14

    @pytest.mark.parametrize(
        "net",
        [
            fixture("path_2_3"),
            fixture("n_d5_3"),
            # Their stage pairs merge into relays joined by two parallel edges.
            fixture("n4_split_2x2"),
            fixture("n2_up"),
            network(
                ["s", "n1", "n2", "t"],
                [*diamond_network(2, 3, 3, 2, 2).edges, Edge("st", "s", "t", 2)],
                ["s"],
                ["t"],
            ),
        ],
        ids=["path_2_3", "n_d5_3", "n4_split_2x2", "n2_up", "diamond_plus_st"],
    )
    def test_none_off_the_shape(self, net):
        assert diamond_r1(net) is None

import itertools
from fractions import Fraction

import numpy as np
import pytest

from entcap.fixtures import diamond_network, fixture, path_network, r1_witness_n2
from entcap.netmodel import Edge, NetworkError, network, scale
from entcap.tnrank import (
    BoundaryMatrix,
    PrimeField,
    TensorAssignment,
    contract,
    embed_assignment,
    estimate_r1,
    random_assignment,
    rank_mod_p,
    tensor_axes,
)


def delta_assignment(net, field=PrimeField()):
    """Copy tensors (generalized Kronecker deltas) at every internal vertex."""
    tensors = {}
    for v in net.internal_vertices:
        shape = tuple(e.dim for e in tensor_axes(net, v))
        t = np.zeros(shape, dtype=np.int64)
        for i in range(min(shape)):
            t[(i,) * len(shape)] = 1
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
        assert bm.row_edge_ids == ("d1", "d2")
        assert bm.col_edge_ids == ("d3", "d4")

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


class TestRankModP:
    def test_identity(self):
        bm = BoundaryMatrix(PrimeField(), np.eye(6, dtype=np.int64), (), ())
        assert rank_mod_p(bm) == 6

    def test_all_ones(self):
        bm = BoundaryMatrix(PrimeField(), np.ones((4, 7), dtype=np.int64), (), ())
        assert rank_mod_p(bm) == 1

    def test_zero(self):
        bm = BoundaryMatrix(PrimeField(), np.zeros((3, 3), dtype=np.int64), (), ())
        assert rank_mod_p(bm) == 0

    def test_rank_drops_mod_p(self):
        field = PrimeField(7)
        m = np.array([[1, 1], [1, 8]], dtype=np.int64)  # singular mod 7 only
        assert rank_mod_p(BoundaryMatrix(field, m, (), ())) == 1
        assert rank_mod_p(BoundaryMatrix(PrimeField(101), m, (), ())) == 2

    def test_against_minor_oracle(self):
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
            bm = BoundaryMatrix(field, m, (), ())
            assert rank_mod_p(bm) == oracle_rank(m, field.p)


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

    def test_witness_reproduces_rank(self):
        est = estimate_r1(fixture("n_d5_3"), trials=2, seed=11)
        assert rank_mod_p(contract(fixture("n_d5_3"), est.witness)) == est.r1_lower

    def test_failure_bound_shape(self):
        est = estimate_r1(fixture("n_d5_2"), trials=4, seed=0)
        assert isinstance(est.failure_bound, Fraction)
        assert 0 < est.failure_bound < 1
        single = estimate_r1(fixture("n_d5_2"), trials=1, seed=0)
        assert est.failure_bound == single.failure_bound**4

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_r1(fixture("n_d5_2"), trials=0)

    def test_stored_witness_certifies_six(self):
        net, ta = r1_witness_n2()
        assert rank_mod_p(contract(net, ta)) == 6


class TestEmbedAssignment:
    def test_monotone_under_dimension_growth(self):
        small = diamond_network(2, 3, 3, 2, 2)
        big = diamond_network(2, 4, 4, 2, 4)
        est = estimate_r1(small, trials=3, seed=0)
        embedded = embed_assignment(est.witness, small, big)
        assert rank_mod_p(contract(big, embedded)) >= est.r1_lower

    def test_identity_embedding_preserves_matrix(self):
        net = diamond_network(2, 3, 3, 2, 2)
        ta = random_assignment(net, PrimeField(), seed=1)
        same = embed_assignment(ta, net, net)
        assert np.array_equal(
            contract(net, ta).matrix, contract(net, same).matrix
        )

    def test_mismatched_edge_sets_rejected(self):
        with pytest.raises(NetworkError):
            embed_assignment(
                random_assignment(path_network(2, 2), PrimeField(), seed=0),
                path_network(2, 2),
                diamond_network(2, 3, 3, 2, 2),
            )

    def test_shrinking_dims_rejected(self):
        small = diamond_network(2, 3, 3, 2, 2)
        big = diamond_network(2, 2, 2, 2, 2)
        ta = random_assignment(small, PrimeField(), seed=0)
        with pytest.raises(NetworkError, match="embed"):
            embed_assignment(ta, small, big)

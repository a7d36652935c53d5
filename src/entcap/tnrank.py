"""Tensor-network contraction over a prime field and randomized rank estimation.

The one-shot tensor-network capacity of a network is the maximal rank of
the boundary map obtained by contracting one tensor per internal vertex.
The maximal rank is generic: uniformly random tensors over a large prime
field achieve it with quantifiable failure probability, so a handful of
seeded trials yields a certified lower bound together with an honest
bound on the chance that the true value is larger.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .netmodel import Network, incident_edges, min_cut, validate, NetworkError

MERSENNE_31 = 2**31 - 1


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of ``p`` elements; the exact-arithmetic substrate for ranks.

    ``p`` must be a prime below 2^31, else ``ValueError``: elimination
    multiplies two residues in int64, and (p - 1)^2 < 2^62 keeps that
    product exact.  A larger prime would overflow silently and could
    report a rank above the true one.
    """

    p: int = MERSENNE_31

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p >= 2**31:
            raise ValueError(f"prime {self.p} is not below 2^31")


def tensor_axes(net: Network, vertex: str) -> list:
    """Edges indexing the tensor at ``vertex`` (id order, self-loops twice)."""
    axes = []
    for e in incident_edges(net, vertex):
        axes.append(e)
        if e.is_self_loop:
            axes.append(e)
    return axes


@dataclass(frozen=True)
class TensorAssignment:
    """One tensor per internal vertex, entries in ``field``.

    Tensor axes follow :func:`tensor_axes`: one axis per incident edge in
    edge-id order, self-loops contributing two adjacent axes.
    """

    field: PrimeField
    tensors: dict  # vertex id -> np.ndarray (int64, entries in [0, p))


def _vertex_seed(seed: int, vertex: str) -> np.random.SeedSequence:
    digest = hashlib.sha256(vertex.encode("utf-8")).digest()
    return np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])


def random_assignment(net: Network, field: PrimeField, seed: int) -> TensorAssignment:
    """Uniform tensors from a PCG64 stream keyed by (seed, vertex id).

    Identical inputs reproduce identical assignments on any platform.
    """
    tensors = {}
    for v in net.internal_vertices:
        shape = tuple(e.dim for e in tensor_axes(net, v))
        rng = np.random.Generator(np.random.PCG64(_vertex_seed(seed, v)))
        tensors[v] = rng.integers(0, field.p, size=shape, dtype=np.int64)
    return TensorAssignment(field=field, tensors=tensors)


@dataclass(frozen=True)
class BoundaryMatrix:
    """The contracted boundary map, rows = source space, columns = sink space."""

    field: PrimeField
    matrix: np.ndarray
    row_edge_ids: tuple[str, ...]
    col_edge_ids: tuple[str, ...]


def _boundary_slots(net: Network, terminals) -> list:
    """Boundary index slots: per terminal (sorted), its incident non-loop edges."""
    slots = []
    for v in sorted(terminals):
        for e in incident_edges(net, v):
            if not e.is_self_loop:
                slots.append(e)
    return slots


def contract(net: Network, ta: TensorAssignment) -> BoundaryMatrix:
    """Contract all internal edges, producing the source-to-sink matrix mod p.

    Direct summation over internal edge configurations; edges between two
    boundary vertices contribute identity wiring.  Complexity is
    O(rows * cols * prod(internal dims)), fine at desk scale.
    """
    p = ta.field.p
    terminal = net.terminal_set
    internal = list(net.internal_vertices)
    for v in internal:
        if v not in ta.tensors:
            raise NetworkError(f"assignment missing tensor for vertex {v!r}")
        expected = tuple(e.dim for e in tensor_axes(net, v))
        if tuple(ta.tensors[v].shape) != expected:
            raise NetworkError(
                f"tensor at {v!r} has shape {ta.tensors[v].shape}, expected {expected}"
            )

    row_slots = _boundary_slots(net, net.source_set)
    col_slots = _boundary_slots(net, net.sink_set)
    rows = prod(e.dim for e in row_slots)
    cols = prod(e.dim for e in col_slots)

    internal_edges = [
        e for e in net.edges if e.u not in terminal and e.v not in terminal
    ]
    vertex_axes = {v: [e.id for e in tensor_axes(net, v)] for v in internal}
    flat_tensors = {v: ta.tensors[v] for v in internal}

    out = np.zeros((rows, cols), dtype=np.int64)
    row_ranges = [range(e.dim) for e in row_slots]
    col_ranges = [range(e.dim) for e in col_slots]
    col_combos = list(itertools.product(*col_ranges))
    int_configs = list(
        itertools.product(*[range(e.dim) for e in internal_edges])
    )

    for ri, rvals in enumerate(itertools.product(*row_ranges)):
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
                    term = term * int(flat_tensors[v][idx]) % p
                acc = (acc + term) % p
            out[ri, ci] = acc
    return BoundaryMatrix(
        field=ta.field,
        matrix=out,
        row_edge_ids=tuple(e.id for e in row_slots),
        col_edge_ids=tuple(e.id for e in col_slots),
    )


def rank_mod_p(m: BoundaryMatrix) -> int:
    """Exact rank over GF(p) by Gaussian elimination."""
    p = m.field.p
    a = np.array(m.matrix, dtype=np.int64) % p
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        below = a[rank + 1 :, col] != 0
        if below.any():
            factors = a[rank + 1 :, col][below]
            a[rank + 1 :][below] = (
                a[rank + 1 :][below] - factors[:, None] * a[rank]
            ) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


@dataclass(frozen=True)
class R1Estimate:
    """Randomized lower bound on the one-shot tensor-network capacity.

    ``r1_lower`` is certified (a witness assignment exists); the
    ``failure_bound`` only qualifies the claim that it equals the true
    maximal rank.
    """

    r1_lower: int
    mc_upper: int
    failure_bound: Fraction
    trials: int
    witness: TensorAssignment
    witness_seed: int


def _trial_seed(seed: int, trial: int) -> int:
    state = np.random.SeedSequence([seed, trial]).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


def estimate_r1(
    net: Network,
    field: PrimeField = PrimeField(),
    trials: int = 3,
    seed: int = 0,
) -> R1Estimate:
    """Sample tensor assignments and keep the best boundary rank found.

    The per-trial failure probability of missing the generic rank is
    bounded Schwartz-Zippel style by D/p with D = (max possible rank)
    times the number of internal tensor entries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    errors = validate(net)
    if errors:
        raise NetworkError("; ".join(errors))
    mc = min_cut(net).value
    best_rank = -1
    best = None
    best_seed = 0
    for t in range(trials):
        s = _trial_seed(seed, t)
        ta = random_assignment(net, field, s)
        r = rank_mod_p(contract(net, ta))
        if r > best_rank:
            best_rank, best, best_seed = r, ta, s
    rows = prod(e.dim for e in _boundary_slots(net, net.source_set))
    cols = prod(e.dim for e in _boundary_slots(net, net.sink_set))
    n_entries = sum(int(np.prod(t.shape)) for t in best.tensors.values())
    degree = min(rows, cols) * max(n_entries, 1)
    per_trial = min(Fraction(1), Fraction(degree, field.p))
    return R1Estimate(
        r1_lower=best_rank,
        mc_upper=mc,
        failure_bound=per_trial**trials,
        trials=trials,
        witness=best,
        witness_seed=best_seed,
    )


def embed_assignment(
    ta: TensorAssignment, small: Network, big: Network
) -> TensorAssignment:
    """Zero-pad a witness from a network into one with edgewise larger dims.

    Both networks must share vertex and edge ids; this certifies rank
    monotonicity under dimension increase without fresh sampling.
    """
    if tuple(e.id for e in small.edges) != tuple(e.id for e in big.edges):
        raise NetworkError("networks do not share an edge set")
    tensors = {}
    for v in small.internal_vertices:
        small_shape = tuple(e.dim for e in tensor_axes(small, v))
        big_shape = tuple(e.dim for e in tensor_axes(big, v))
        if any(a > b for a, b in zip(small_shape, big_shape)):
            raise NetworkError(f"dims at {v!r} do not embed")
        t = np.zeros(big_shape, dtype=np.int64)
        t[tuple(slice(0, d) for d in small_shape)] = ta.tensors[v]
        tensors[v] = t
    return TensorAssignment(field=ta.field, tensors=tensors)

"""Tensor-network contraction over a prime field and randomized rank estimation.

The one-shot tensor-network capacity of a network is the maximal rank of
the boundary map obtained by contracting one tensor per internal vertex.
The maximal rank is generic: uniformly random tensors over a large prime
field achieve it with quantifiable failure probability, so a handful of
seeded trials yields a certified lower bound together with an honest
bound on the chance that the true value is larger.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .netmodel import (
    Network,
    NetworkError,
    TooLargeError,
    diamond_edges,
    drop_orientations,
    merge_stage_pairs,
    min_cut,
)

MERSENNE_31 = 2**31 - 1

#: The most entries any one array of :func:`contract` may have: an input
#: tensor, an intermediate or the boundary matrix (2^24 int64 entries are 128 MiB).
MAX_ENTRIES = 2**24

#: The most trials :func:`estimate_r1` runs.  Its failure bound is
#: (D/p)^trials, and for every accepted p < 2^31, p^256 has under 2,400
#: digits, inside Python's 4300-digit limit for printing an integer.
MAX_TRIALS = 256

#: The most entries of a matrix that :func:`rank_mod_p` eliminates in Python
#: ints: the two eliminations cost the same near here (8 x 8: 70 us in ints,
#: 83 us in numpy; 10 x 10: 117 against 105 us; 2-core x86_64 host).
SMALL_RANK_ENTRIES = 64


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


def _wiring(net: Network) -> tuple[dict, list, list]:
    """How the rank reads ``net``: each internal vertex's tensor axes, the
    row slots and the column slots, as edges, from one pass over the
    edges in edge-id order.

    Each end of an edge at an internal vertex is one axis of its tensor,
    so a self-loop gives two adjacent axes.  Each end of a non-loop edge
    at a terminal is one slot of that terminal; a terminal's loop gives
    none.  The rows are the sources' slots, sources in sorted order, and
    the columns the sinks' slots, sinks in sorted order: an edge between
    two sources gives a row slot at each end, an s-t edge one row slot
    and one column slot.
    """
    axes = {v: [] for v in net.internal_vertices}
    slots = {v: [] for v in net.terminal_set}
    for e in sorted(net.edges, key=lambda e: e.id):
        for end in (e.u, e.v):
            if end in axes:
                axes[end].append(e)
            elif not e.is_self_loop:
                slots[end].append(e)
    rows = [e for v in sorted(net.sources) for e in slots[v]]
    cols = [e for v in sorted(net.sinks) for e in slots[v]]
    return axes, rows, cols


@dataclass(frozen=True)
class TensorAssignment:
    """One tensor per internal vertex, entries in ``field``.

    Tensor axes follow :func:`_wiring`: one axis per edge end at the
    vertex, edges in id order, so a self-loop gives two adjacent axes.
    """

    field: PrimeField
    tensors: dict  # vertex id -> np.ndarray (int64, entries in [0, p))


@functools.lru_cache(maxsize=1024)
def _vertex_key(vertex: str) -> int:
    return int.from_bytes(hashlib.sha256(vertex.encode("utf-8")).digest()[:8], "big")


def _draw(shapes, field: PrimeField, seed: int) -> TensorAssignment:
    """Uniform tensors of the given ``(vertex id, shape)`` pairs from a
    PCG64 stream keyed by (seed, vertex id)."""
    tensors = {}
    for v, shape in shapes:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _vertex_key(v)])))
        tensors[v] = rng.integers(0, field.p, size=shape, dtype=np.int64)
    return TensorAssignment(field=field, tensors=tensors)


def random_assignment(net: Network, field: PrimeField, seed: int) -> TensorAssignment:
    """Uniform tensors from a PCG64 stream keyed by (seed, vertex id), with
    the axes of :func:`_wiring`.

    Identical inputs reproduce identical assignments on any platform.

    Raises:
        TooLargeError: a tensor would exceed ``MAX_ENTRIES``, checked
            before any tensor is drawn.
    """
    shapes = [(v, tuple(e.dim for e in axes)) for v, axes in _wiring(net)[0].items()]
    for v, shape in shapes:
        _check_entries(f"the tensor at {v!r}", prod(shape))
    return _draw(shapes, field, seed)


@dataclass(frozen=True)
class BoundaryMatrix:
    """The contracted boundary map, rows = source space, columns = sink space."""

    field: PrimeField
    matrix: np.ndarray


#: The most inner indices one :func:`_matmul_chunk` sums without overflow.
_CHUNK = 2**16 - 1


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``a @ b mod p`` for int64 matrices of residues in [0, p), p < 2^31.

    Only ``b`` is split, into 16-bit halves b = hi * 2^16 + lo, so each
    int64 product a * hi or a * lo is below 2^47, and a sum of fewer than
    2^16 of them stays below 2^63.  Each chunk of at most 2^16 - 1 inner
    indices is then two matrix products, ``(a @ hi mod p) * 2^16 +
    a @ lo mod p``, reduced once more, and the chunks are summed mod p
    (Dumas, Giorgi and Pernet, "Dense linear algebra over word-size prime
    fields", ACM TOMS 2008, delay the reduction the same way).  The inner
    dimension k must be below 2^30.
    """
    k = a.shape[1]
    if k >= 2**30:
        raise ValueError(f"inner dimension {k} is not below 2^30")
    out = _matmul_chunk(a[:, :_CHUNK], b[:_CHUNK], p)
    for start in range(_CHUNK, k, _CHUNK):
        out += _matmul_chunk(a[:, start : start + _CHUNK], b[start : start + _CHUNK], p)
        out %= p
    return out


def _matmul_chunk(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    out = a @ (b >> 16)
    out %= p
    out <<= 16
    lo = a @ (b & 0xFFFF)
    lo %= p
    out += lo
    out %= p
    return out


@dataclass(frozen=True)
class _Plan:
    """The whole of :func:`contract` for one network, compiled from shapes alone.

    Factors are the internal vertices' tensors (``vertices``: each with
    the shape :func:`contract` checks and the first position of each
    self-loop's two adjacent axes, which it traces out) followed by one
    identity matrix per edge between two terminals (``identities``).
    Each step multiplies factors ``i`` and ``j``, transposed by ``left``
    and ``right`` so that the ``k`` entries of their shared axes meet,
    into a new factor of ``shape`` appended at the end.  ``order``
    permutes the last factor's axes into row slots, then column slots.
    """

    vertices: tuple  # (vertex id, shape, self-loop axis positions)
    identities: tuple  # dims
    steps: tuple  # (i, j, left, right, k, shape)
    order: tuple
    rows: int
    cols: int


def _check_entries(what: str, n: int) -> None:
    if n > MAX_ENTRIES:
        raise TooLargeError(f"{what} would have {n} entries, above the limit {MAX_ENTRIES}")


@functools.lru_cache(maxsize=1)
def _plan_contraction(net: Network) -> _Plan:
    """Greedy pairwise order, every step's axes, and the size guard for
    every array the steps make.

    While planning, an axis is labelled by its edge id when the edge
    joins two internal vertices, and by the number of its boundary slot,
    rows first, then columns, when it reaches a terminal.  Among live factors
    that share a label, the pair whose product has the fewest entries
    merges first; factors sharing none merge last, by outer products.
    Each step keeps the first factor's free axes, then the second's.
    Raises :class:`TooLargeError` if an input tensor, an intermediate or
    the boundary matrix would exceed ``MAX_ENTRIES``.

    The plan is a pure function of the frozen network, and the last one
    is kept: back-to-back plans of an equal network, as
    :func:`estimate_r1`'s guard and then each trial's :func:`contract`,
    are made once.  ``__wrapped__`` is the unmemoized function.
    """
    axes_of, row_slots, col_slots = _wiring(net)
    rows = prod(e.dim for e in row_slots)
    cols = prod(e.dim for e in col_slots)
    _check_entries("the boundary matrix", rows * cols)
    slot_labels = {}  # edge id -> labels of its boundary slots (two between terminals)
    dims = {e.id: e.dim for e in net.edges}
    for i, e in enumerate(row_slots + col_slots):
        slot_labels.setdefault(e.id, []).append(i)
        dims[i] = e.dim

    vertices, labels = [], []
    for v, axes in axes_of.items():
        shape = tuple(e.dim for e in axes)
        _check_entries(f"the tensor at {v!r}", prod(shape))
        loops = tuple(
            i for i in range(len(axes) - 1) if axes[i].is_self_loop and axes[i] is axes[i + 1]
        )
        kept = tuple(
            slot_labels[e.id][0] if e.id in slot_labels else e.id
            for e in axes
            if not e.is_self_loop
        )
        vertices.append((v, shape, loops))
        labels.append(kept)
    identities = []
    for e in net.edges:
        if len(slot_labels.get(e.id, ())) == 2:
            identities.append(e.dim)
            labels.append(tuple(slot_labels[e.id]))

    # A label is on at most two factors, so a product has size_i * size_j / k^2 entries.
    steps = []
    live = {i: (frozenset(ls), prod([dims[x] for x in ls])) for i, ls in enumerate(labels)}
    while len(live) > 1:
        best = None
        for i, j in itertools.combinations(live, 2):
            (set_i, size_i), (set_j, size_j) = live[i], live[j]
            shared = set_i & set_j
            k = prod(map(dims.__getitem__, shared))
            key = (not shared, size_i * size_j // (k * k), i, j)
            if best is None or key < best:
                best = key
        _, size, i, j = best
        _check_entries("an intermediate tensor", size)
        del live[i], live[j]
        la, lb = labels[i], labels[j]
        shared = tuple(x for x in la if x in lb)
        merged = tuple(x for x in la + lb if x not in shared)
        n = len(la) - len(shared)  # merged is la's free labels, then lb's
        left = tuple(map(la.index, merged[:n] + shared))
        right = tuple(map(lb.index, shared + merged[n:]))
        k = prod(map(dims.__getitem__, shared))
        steps.append((i, j, left, right, k, tuple(map(dims.__getitem__, merged))))
        live[len(labels)] = (frozenset(merged), size)
        labels.append(merged)
    n_slots = len(row_slots) + len(col_slots)
    return _Plan(
        vertices=tuple(vertices),
        identities=tuple(identities),
        steps=tuple(steps),
        order=tuple(map(labels[-1].index, range(n_slots))) if labels else (),
        rows=rows,
        cols=cols,
    )


def contract(net: Network, ta: TensorAssignment) -> BoundaryMatrix:
    """Contract all internal edges, producing the source-to-sink matrix mod p.

    The contraction is compiled once from the shapes
    (:func:`_plan_contraction`) and replayed here: each tensor is
    reduced mod p and its self-loops traced, the identity wiring of each
    edge between two terminals is appended, each step is one
    :func:`matmul_mod` of two transposed and reshaped factors, and the
    last factor is transposed once into slot order.  Tensor axes, rows
    and columns follow :func:`_wiring`: rows index the source slots and
    columns the sink slots, row-major.

    Raises:
        TooLargeError: a tensor, an intermediate or the boundary matrix
            would exceed ``MAX_ENTRIES``, checked before any allocation.
        NetworkError: a tensor is missing or has the wrong shape.
    """
    plan = _plan_contraction(net)
    p = ta.field.p
    factors = []
    for v, shape, loops in plan.vertices:
        if v not in ta.tensors:
            raise NetworkError(f"assignment missing tensor for vertex {v!r}")
        if ta.tensors[v].shape != shape:
            raise NetworkError(
                f"tensor at {v!r} has shape {ta.tensors[v].shape}, expected {shape}"
            )
        t = ta.tensors[v] % p
        for i in reversed(loops):
            t = np.trace(t, axis1=i, axis2=i + 1) % p
        factors.append(t.astype(np.int64, copy=False))
    factors += [np.eye(dim, dtype=np.int64) for dim in plan.identities]
    for i, j, left, right, k, shape in plan.steps:
        a = factors[i].transpose(left).reshape(-1, k)
        b = factors[j].transpose(right).reshape(k, -1)
        factors[i] = factors[j] = None
        factors.append(matmul_mod(a, b, p).reshape(shape))
    out = factors[-1] if factors else np.ones((), dtype=np.int64)
    return BoundaryMatrix(
        field=ta.field,
        matrix=np.ascontiguousarray(out.transpose(plan.order).reshape(plan.rows, plan.cols)),
    )


def rank_mod_p(m: BoundaryMatrix) -> int:
    """Exact rank over GF(p) by Gaussian elimination.

    A matrix of at most ``SMALL_RANK_ENTRIES`` entries is eliminated in
    Python ints (:func:`_rank_ints`), a larger one row-wise in numpy
    (:func:`_rank_numpy`); both invert each pivot with ``pow(x, -1, p)``.
    """
    if m.matrix.size <= SMALL_RANK_ENTRIES:
        return _rank_ints(np.asarray(m.matrix, dtype=np.int64).tolist(), m.field.p)
    return _rank_numpy(m.matrix, m.field.p)


def _rank_ints(rows: list, p: int) -> int:
    """The rank mod p of a matrix given as lists of ints.

    Each step takes the first remaining row that is nonzero in the
    leftmost remaining column as the pivot, removes it, clears that
    column from the other rows and drops the column, so the rows shrink
    as the elimination goes.
    """
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    while rows and rows[0]:
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        inv = pow(top[0], -1, p)
        top = top[1:]
        rows = [
            [(x - f * y) % p for x, y in zip(row[1:], top)] if (f := row[0] * inv % p) else row[1:]
            for row in rows
        ]
        rank += 1
    return rank


def _rank_numpy(a: np.ndarray, p: int) -> int:
    """The rank mod p of an integer matrix, one numpy row update per pivot."""
    a = np.array(a, dtype=np.int64) % p
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
        inv = pow(int(a[rank, col]), -1, p)
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


def _pencil_blocks(m: int, n: int) -> list:
    """Block shapes (rows, cols) of a generic m x n pencil's Kronecker form:
    |m - n| blocks L_e (e x (e+1)), or L_e^T if m > n, whose e sum to
    min(m, n) and differ by at most one; m regular 1 x 1 blocks if m = n."""
    if m == n:
        return [(1, 1)] * m
    k = abs(m - n)
    q, r = divmod(min(m, n), k)
    eps = [q + 1] * r + [q] * (k - r)
    return [(e, e + 1) if m < n else (e + 1, e) for e in eps]


def diamond_r1(net: Network) -> int | None:
    """The exact R1 of a diamond whose middle edge has dim at most 2, else None.

    The diamond's shape is read by :func:`~entcap.netmodel.diamond_edges`
    once stage pairs are merged, as :func:`estimate_r1` ranks it: one
    source s, one sink t, relays a and b, and exactly the five edges s-a,
    s-b, a-t, b-t and a-b.  Relay a holds matrices A_k (dim s-a x
    dim a-t), b holds B_k, k < d5, and M = sum_k A_k (x) B_k.  For d5 = 1,
    rank M = rank A_1 * rank B_1.  For d5 = 2, A_k -> P A_k R and B_k ->
    Q B_k S (P, Q, R, S invertible) change M by invertible Kronecker
    factors, so rank M depends only on the strict-equivalence classes of
    the pencils (A_1, A_2) and (B_1, B_2).  Their generic Kronecker forms
    (:func:`_pencil_blocks`; Gantmacher, *The Theory of Matrices*, ch. XII;
    Demmel and Edelman, Linear Algebra Appl. 1995) are block diagonal, so
    M is the direct sum of one product per block pair.  With L_e =
    ([I | 0], [0 | I]), L_e (x) L_f reindexes into all-ones bidiagonal
    "path" matrices, one per diagonal i - j, and L_e^T (x) L_f one per
    anti-diagonal i + j, all leaning the same way; a regular block (1, mu)
    against L_f gives L_f's pencil at mu.  A path matrix has rank
    min(rows, cols) over any field (unit triangular leading part), so each
    such pair has full rank; two regular blocks give 1 + mu * nu, nonzero
    generically.  Rank is lower semicontinuous, so its maximum is taken on
    this dense open set: R1 = sum_ij min(r_i s_j, c_i t_j) over the block
    shapes (r_i x c_i) of a's pencil and (s_j x t_j) of b's.  It is summed
    in integers: a rank mod p of a canonical matrix may fall below its
    rank over Q.
    """
    edges = diamond_edges(merge_stage_pairs(net))
    if edges is None:
        return None
    d1, d3, d2, d4, d5 = (e.dim for e in edges)
    if d5 == 1:
        return min(d1, d3) * min(d2, d4)
    if d5 != 2:
        return None
    blocks_b = _pencil_blocks(d2, d4)
    return sum(min(r * r2, c * c2) for r, c in _pencil_blocks(d1, d3) for r2, c2 in blocks_b)


@dataclass(frozen=True)
class R1Estimate:
    """Randomized lower bound on the one-shot tensor-network capacity.

    ``r1_lower`` is certified: the assignment drawn from ``witness_seed``
    reaches it, and :attr:`witness` redraws that assignment on ``net``,
    the network that was ranked.  The ``failure_bound`` only qualifies
    the claim that it equals the true maximal rank.  ``mc_upper`` is the
    min-cut of ``net``.  ``trials`` is the count requested, and the
    bound is computed from it even when the trials stopped early at
    ``mc_upper``: there the chance of a miss is 0, so the bound still holds.
    """

    r1_lower: int
    mc_upper: int
    failure_bound: Fraction
    trials: int
    witness_seed: int
    net: Network
    field: PrimeField

    @property
    def witness(self) -> TensorAssignment:
        return random_assignment(self.net, self.field, self.witness_seed)


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

    The rank ignores orientations, as entanglement is shared, not sent,
    and a stage pair is one node, so the network ranked is
    ``merge_stage_pairs(drop_orientations(net))``.

    The per-trial failure probability of missing the generic rank is
    bounded Schwartz-Zippel style by D/p: each boundary entry takes one
    factor from each internal tensor, so a k x k minor (k the max
    possible rank) has degree D = k times the internal vertex count.

    The boundary map factors through every cut, so no rank over any
    field exceeds the min-cut (Cui, Freedman, Sattath, Stong and Minton,
    "Quantum max-flow/min-cut", 2016).  A trial that reaches it settles
    R1, and the trials stop there.  Only a strictly larger rank replaces
    the kept one, so ``witness_seed`` is the first trial that reached the
    maximum, as it would be after every trial.

    The guard's contraction plan is the one every trial's
    :func:`contract` reuses (:func:`_plan_contraction` keeps the last plan),
    and each trial draws the tensors of its shapes, as
    :func:`random_assignment` would, without wiring the network again.

    Raises:
        ValueError: ``trials`` is not from 1 to ``MAX_TRIALS``.
        TooLargeError: :func:`contract` would exceed ``MAX_ENTRIES``,
            checked before any tensor is drawn.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be from 1 to {MAX_TRIALS}")
    net = merge_stage_pairs(drop_orientations(net))
    mc = min_cut(net).value
    plan = _plan_contraction(net)
    shapes = [(v, shape) for v, shape, _ in plan.vertices]
    best_rank, best_seed = -1, 0
    for t in range(trials):
        s = _trial_seed(seed, t)
        r = rank_mod_p(contract(net, _draw(shapes, field, s)))
        if r > best_rank:
            best_rank, best_seed = r, s
            if r == mc:
                break
    degree = min(plan.rows, plan.cols) * len(net.internal_vertices)
    return R1Estimate(
        r1_lower=best_rank,
        mc_upper=mc,
        failure_bound=Fraction(min(degree, field.p) ** trials, field.p**trials),
        trials=trials,
        witness_seed=best_seed,
        net=net,
        field=field,
    )

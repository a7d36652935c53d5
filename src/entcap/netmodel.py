"""Graph model for entanglement networks and the exact multiplicative min-cut.

Networks are multigraphs whose edges carry a positive integer dimension
(the local Schmidt rank of the shared entangled state).  Cuts are valued
by the *product* of crossing dimensions, so all arithmetic is done with
Python's arbitrary-precision integers; no floating point enters any
capacity decision.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from math import prod

ORIENTATIONS = ("undirected", "uv", "vu")

#: Cap on the number of enumerable cut units (2**20 partitions).
ENUMERATION_LIMIT = 20


class NetworkError(ValueError):
    """Malformed network or invalid operation argument."""


class TooLargeError(NetworkError):
    """A computation would exceed a fixed size limit (cut partitions, array entries)."""


class CyclicNetworkError(NetworkError):
    """The directed network has a cycle; split it first."""


@dataclass(frozen=True)
class Edge:
    """An edge carrying a maximally entangled state of dimension ``dim``.

    ``orientation`` is one of ``"undirected"``, ``"uv"`` (u -> v) or
    ``"vu"`` (v -> u).
    """

    id: str
    u: str
    v: str
    dim: int
    orientation: str = "undirected"

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise NetworkError(f"edge {self.id}: bad orientation {self.orientation!r}")

    @property
    def is_self_loop(self) -> bool:
        return self.u == self.v

    @property
    def is_directed(self) -> bool:
        return self.orientation != "undirected"

    @property
    def tail(self) -> str:
        if self.orientation == "uv":
            return self.u
        if self.orientation == "vu":
            return self.v
        raise NetworkError(f"edge {self.id} is undirected")

    @property
    def head(self) -> str:
        if self.orientation == "uv":
            return self.v
        if self.orientation == "vu":
            return self.u
        raise NetworkError(f"edge {self.id} is undirected")

    @property
    def arcs(self) -> tuple[tuple[str, str], ...]:
        """The (tail, head) pairs the edge may carry along: one for a
        directed edge, both ways for an undirected one."""
        if self.orientation == "uv":
            return ((self.u, self.v),)
        if self.orientation == "vu":
            return ((self.v, self.u),)
        return ((self.u, self.v), (self.v, self.u))


@dataclass(frozen=True)
class Network:
    """An entanglement network ``(G, d, S, T)``.

    ``stage_pairs`` records early/late vertex pairs created by cycle
    node-splitting: each pair is one logical node with staged I/O.  The
    late stage sees the full input of its early stage, and ``min_cut``
    counts the pair as one cut unit, so no cut separates the two.
    ``source_set``, ``sink_set``, ``terminal_set``, ``internal_vertices``
    (non-terminals in declaration order) and the hash are computed once,
    when the network is built, for the memos keyed by networks.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    stage_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        sources, sinks = frozenset(self.sources), frozenset(self.sinks)
        terminals = sources | sinks
        internal = tuple(v for v in self.vertices if v not in terminals)
        fields = (self.vertices, self.edges, self.sources, self.sinks, self.stage_pairs)
        vars(self).update(source_set=sources, sink_set=sinks, terminal_set=terminals)
        vars(self).update(internal_vertices=internal, _hash=hash(fields))
        errors = []
        vset = set(self.vertices)
        if len(self.vertices) != len(vset):
            errors.append("duplicate vertex ids")
        if len(self.sources) != len(self.source_set):
            errors.append("duplicate source ids")
        if len(self.sinks) != len(self.sink_set):
            errors.append("duplicate sink ids")
        if not self.sources:
            errors.append("empty source set")
        if not self.sinks:
            errors.append("empty sink set")
        overlap = self.source_set & self.sink_set
        if overlap:
            errors.append(f"sources and sinks overlap: {sorted(overlap)}")
        for v in itertools.chain(self.sources, self.sinks):
            if v not in vset:
                errors.append(f"terminal {v!r} is not a declared vertex")
        seen_ids = set()
        for e in self.edges:
            if e.id in seen_ids:
                errors.append(f"duplicate edge id {e.id!r}")
            seen_ids.add(e.id)
            for end in (e.u, e.v):
                if end not in vset:
                    errors.append(f"edge {e.id}: unknown endpoint {end!r}")
            if e.dim < 1:
                errors.append(f"edge {e.id}: dimension < 1")
        paired = set()
        for early, late in self.stage_pairs:
            for v in (early, late):
                if v not in vset:
                    errors.append(f"stage pair vertex {v!r} is not declared")
                elif v in self.terminal_set:
                    errors.append(f"stage pair vertex {v!r} is a terminal")
                if v in paired:
                    errors.append(f"vertex {v!r} appears in two stage pairs")
                paired.add(v)
        if errors:
            raise NetworkError("; ".join(errors))

    def __hash__(self) -> int:
        return self._hash

    def edge_by_id(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise NetworkError(f"unknown edge id {edge_id!r}")


def network(
    vertices,
    edges,
    sources,
    sinks,
    stage_pairs=(),
) -> Network:
    """Convenience constructor accepting any iterables."""
    return Network(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=tuple(sources),
        sinks=tuple(sinks),
        stage_pairs=tuple(tuple(p) for p in stage_pairs),
    )


@dataclass(frozen=True)
class Cut:
    """A source-side vertex set together with its exact product value."""

    s_side: frozenset[str]
    value: int


def crossing_edges(net: Network, s_side: frozenset[str]) -> list[Edge]:
    """Edges contributing to the cut value of the partition ``s_side``:
    those with an arc of :attr:`Edge.arcs` from the source side to the
    sink side.  Self-loops never cross.
    """
    return [
        e for e in net.edges if any(t in s_side and h not in s_side for t, h in e.arcs)
    ]


def cut_value(net: Network, s_side: frozenset[str]) -> int:
    return prod(e.dim for e in crossing_edges(net, s_side))


@functools.lru_cache(maxsize=1)
def min_cut(net: Network) -> Cut:
    """Exact multiplicative min-cut by enumeration of all vertex partitions.

    A cut unit is an internal vertex together with its late partner, if
    it has one, so a cut never separates a stage pair.  All 2**units
    partitions are visited in Gray-code order, so consecutive partitions
    differ in one unit, and each is valued from the previous one and the
    arcs of the one unit that moved; a network with more than
    ``ENUMERATION_LIMIT`` units is refused.

    The witness is deterministic: among minimizers the lexicographically
    smallest source side (by sorted vertex ids) is returned.  The last cut
    is kept, so a caller asking again for the network just cut (or an
    equal one) gets it without a second enumeration; a refusal is not
    kept.  ``__wrapped__`` is the unmemoized function.

    Raises:
        TooLargeError: more than ``ENUMERATION_LIMIT`` enumerable units.
    """
    late_of = dict(net.stage_pairs)
    lates = set(late_of.values())
    sources = net.source_set
    units = [
        (v, late_of[v]) if v in late_of else (v,)
        for v in net.internal_vertices
        if v not in lates
    ]
    if len(units) > ENUMERATION_LIMIT:
        raise TooLargeError(
            f"{len(units)} cut units exceed the enumeration limit {ENUMERATION_LIMIT}"
        )
    # Unit i owns bit i; the sources share one bit that every mask sets;
    # sinks own no bit, so they are never on the source side.  An edge
    # becomes an arc (tail and head bits, tail bit, dim) per pair of
    # ``Edge.arcs``, and crosses under a mask exactly when the mask holds
    # its tail bit and not its head bit.  Arcs that never cross (loops,
    # edges inside one unit, out of a sink or into a source) are left out.
    # Each unit lists the arcs it is an end of.  ``value`` starts as the
    # product of the first mask, with no unit on the source side, under
    # which exactly the arcs out of the sources cross.
    source_bit = 1 << len(units)
    bit = dict.fromkeys(net.sinks, 0)
    bit.update(dict.fromkeys(sources, source_bit))
    touching = []
    for i, unit in enumerate(units):
        bit.update(dict.fromkeys(unit, 1 << i))
        touching.append((1 << i, []))
    value = 1
    for e in net.edges:
        for t, h in e.arcs:
            t, h = bit[t], bit[h]
            if t and h != t and h != source_bit:
                arc = (t | h, t, e.dim)
                if t == source_bit:
                    value *= e.dim
                else:
                    touching[t.bit_length() - 1][1].append(arc)
                if h:
                    touching[h.bit_length() - 1][1].append(arc)
    # Binary-reflected Gray order: step k moves the unit in position
    # ctz(k), and position j moves 2**(units-1-j) times, so the units with
    # the fewest arcs take the low positions.  Only the moved unit's arcs
    # can change whether they cross.
    touching.sort(key=lambda unit: len(unit[1]))
    mask = source_bit
    best = (value, tuple(sorted(sources)))
    for k in range(1, source_bit):
        flip, arcs = touching[(k & -k).bit_length() - 1]
        before = prod([dim for ends, t, dim in arcs if mask & ends == t])
        mask ^= flip
        after = prod([dim for ends, t, dim in arcs if mask & ends == t])
        value = value // before * after
        if value <= best[0]:
            s_side = itertools.chain(
                sources, *(unit for i, unit in enumerate(units) if mask >> i & 1)
            )
            key = (value, tuple(sorted(s_side)))
            if key < best:
                best = key
    return Cut(s_side=frozenset(best[1]), value=best[0])


def _with_edges(net: Network, edges) -> Network:
    """``net`` with its edges replaced by ``edges``, validated as any network is."""
    return Network(net.vertices, tuple(edges), net.sources, net.sinks, net.stage_pairs)


def tensor_power(net: Network, n: int) -> Network:
    """``N^(boxtimes n)``: same graph, every dimension raised to the n-th power."""
    if n < 1:
        raise NetworkError("tensor power requires n >= 1")
    return _with_edges(net, (Edge(e.id, e.u, e.v, e.dim**n, e.orientation) for e in net.edges))


def scale(net: Network, k: int) -> Network:
    """``N^(odot k)``: same graph, every dimension multiplied by k."""
    if k < 1:
        raise NetworkError("scale requires k >= 1")
    return _with_edges(net, (Edge(e.id, e.u, e.v, e.dim * k, e.orientation) for e in net.edges))


def orient(net: Network, assignment: dict[str, str]) -> Network:
    """Apply an edge-id -> direction assignment; all undirected edges must be covered."""
    known = {e.id for e in net.edges}
    for eid in assignment:
        if eid not in known:
            raise NetworkError(f"unknown edge id {eid!r}")
    new_edges = []
    for e in net.edges:
        if e.id in assignment:
            direction = assignment[e.id]
            if direction not in ("uv", "vu"):
                raise NetworkError(f"edge {e.id}: bad direction {direction!r}")
            new_edges.append(Edge(e.id, e.u, e.v, e.dim, direction))
        else:
            if not e.is_directed:
                raise NetworkError(f"undirected edge {e.id} not covered by assignment")
            new_edges.append(e)
    return _with_edges(net, new_edges)


def drop_orientations(net: Network) -> Network:
    """The same network with every edge undirected.

    Entanglement is shared, not sent, so the tensor-network rank ignores
    orientation; its min-cut bound must be taken on this network.  A
    network with no directed edge is returned as is, not copied.
    """
    if not any(e.is_directed for e in net.edges):
        return net
    return _with_edges(net, (Edge(e.id, e.u, e.v, e.dim) for e in net.edges))


def merge_stage_pairs(net: Network) -> Network:
    """The network with each stage pair merged into one vertex.

    An early/late pair is one physical node whose memory link is
    unbounded, so it is one tensor: each late vertex is renamed to its
    early partner, early-late edges become self-loops, and
    ``stage_pairs`` is dropped.  A vertex is in at most one pair, so
    pairs never chain.  A network without stage pairs is returned as is.
    """
    if not net.stage_pairs:
        return net
    early_of = {late: early for early, late in net.stage_pairs}

    def rename(v: str) -> str:
        return early_of.get(v, v)

    return Network(
        tuple(v for v in net.vertices if v not in early_of),
        tuple(Edge(e.id, rename(e.u), rename(e.v), e.dim, e.orientation) for e in net.edges),
        net.sources,
        net.sinks,
    )


@functools.lru_cache(maxsize=1)
def topological_order(net: Network) -> tuple[str, ...]:
    """Topological order of a fully directed network, each early stage
    before its late stage.  Among the vertices ready at any point the
    smallest id comes first, so the order is deterministic, and so are the
    coding witnesses built on it.  The last order is kept, so
    :func:`is_acyclic` and then the search's compile sort a network once.

    Raises NetworkError on an undirected edge and CyclicNetworkError on a
    directed cycle.
    """
    succ: dict[str, set[str]] = {v: set() for v in net.vertices}
    for e in net.edges:
        if not e.is_directed:
            raise NetworkError(f"edge {e.id} is undirected; orient the network first")
        succ[e.tail].add(e.head)
    for early, late in net.stage_pairs:
        succ[early].add(late)
    indeg = {v: 0 for v in net.vertices}
    for v, outs in succ.items():
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
    if len(order) != len(net.vertices):
        raise CyclicNetworkError("directed network has a cycle")
    return tuple(order)


def is_acyclic(net: Network) -> bool:
    """True iff the fully directed network has no directed cycle."""
    try:
        topological_order(net)
    except CyclicNetworkError:
        return False
    return True


def flow_orientation(net: Network, e: Edge) -> str | None:
    """The direction an edge takes when it points with the flow: ``"uv"``
    if it leaves a source or enters a sink, ``"vu"`` if the reverse, else
    None (an edge between internal vertices)."""
    if e.u in net.source_set or e.v in net.sink_set:
        return "uv"
    if e.v in net.source_set or e.u in net.sink_set:
        return "vu"
    return None


def diamond_edges(net: Network) -> tuple[Edge, ...] | None:
    """The edges s-a, a-t, s-b, b-t and a-b of a diamond, in that order, else None.

    A diamond has one source s, one sink t, two relays a and b (in
    declaration order), no stage pairs, and exactly five edges, one
    joining each of those five pairs.  Orientations are not read.
    """
    if net.stage_pairs or len(net.sources) != 1 or len(net.sinks) != 1 or len(net.vertices) != 4:
        return None
    (s,), (t,), (a, b) = net.sources, net.sinks, net.internal_vertices
    by_pair = {frozenset((e.u, e.v)): e for e in net.edges}
    pairs = [frozenset(p) for p in ((s, a), (a, t), (s, b), (b, t), (a, b))]
    if len(net.edges) != 5 or by_pair.keys() != set(pairs):
        return None
    return tuple(by_pair[p] for p in pairs)


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

_NET_KEYS = {"vertices", "sources", "sinks", "edges", "stage_pairs"}
_EDGE_KEYS = {"id", "u", "v", "dim", "orientation"}


def network_to_obj(net: Network) -> dict:
    obj = {
        "vertices": list(net.vertices),
        "sources": list(net.sources),
        "sinks": list(net.sinks),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "dim": e.dim, "orientation": e.orientation}
            for e in net.edges
        ],
    }
    if net.stage_pairs:
        obj["stage_pairs"] = [list(p) for p in net.stage_pairs]
    return obj


def _names(value, what: str) -> list:
    """A JSON list of strings (vertex or terminal ids), else NetworkError."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise NetworkError(f"{what} must be a list of strings")
    return value


def network_from_obj(obj: dict) -> Network:
    """The network a parsed JSON value describes, else :class:`NetworkError`."""
    if not isinstance(obj, dict):
        raise NetworkError("network JSON must be an object")
    unknown = set(obj) - _NET_KEYS
    if unknown:
        raise NetworkError(f"unknown network fields: {sorted(unknown)}")
    for key in ("vertices", "sources", "sinks", "edges"):
        if key not in obj:
            raise NetworkError(f"missing network field {key!r}")
    if not isinstance(obj["edges"], list):
        raise NetworkError("edges must be a list of objects")
    edges = []
    for eobj in obj["edges"]:
        if not isinstance(eobj, dict):
            raise NetworkError("edges must be a list of objects")
        unknown = set(eobj) - _EDGE_KEYS
        if unknown:
            raise NetworkError(f"unknown edge fields: {sorted(unknown)}")
        for key in ("id", "u", "v", "dim"):
            if key not in eobj:
                raise NetworkError(f"edge missing field {key!r}")
        if not all(isinstance(eobj[key], str) for key in ("id", "u", "v")):
            raise NetworkError("edge id, u and v must be strings")
        if not isinstance(eobj["dim"], int) or isinstance(eobj["dim"], bool):
            raise NetworkError(f"edge {eobj['id']}: dim must be an integer")
        edges.append(
            Edge(
                id=eobj["id"],
                u=eobj["u"],
                v=eobj["v"],
                dim=eobj["dim"],
                orientation=eobj.get("orientation", "undirected"),
            )
        )
    pairs = obj.get("stage_pairs", [])
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs
    ):
        raise NetworkError("stage_pairs must be a list of [early, late] pairs")
    return network(
        _names(obj["vertices"], "vertices"),
        edges,
        _names(obj["sources"], "sources"),
        _names(obj["sinks"], "sinks"),
        [_names(pair, "a stage pair") for pair in pairs],
    )


def dump_network(net: Network) -> str:
    """Canonical serialization: fixed field order, 2-space indent, trailing newline."""
    return json.dumps(network_to_obj(net), indent=2) + "\n"


def load_network(text: str) -> Network:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise NetworkError(f"invalid JSON: {exc}") from exc
    return network_from_obj(obj)


# ---------------------------------------------------------------------------
# Random networks for property suites
# ---------------------------------------------------------------------------


def random_network(rng) -> Network:
    """Draw a small random network: one source, one sink, at most 4
    internal vertices and dimensions at most 4.

    ``rng`` is a numpy Generator.  Edge counts are kept modest so that the
    tensor-network boundary spaces stay desk-sized.
    """
    n_internal = int(rng.integers(0, 5))
    internal = [f"n{i}" for i in range(1, n_internal + 1)]
    vertices = ["s", *internal, "t"]
    edges = []

    def add(u, v):
        dim = int(rng.integers(1, 5))
        edges.append(Edge(id=f"e{len(edges)}", u=u, v=v, dim=dim))

    # A guaranteed source->sink route so the boundary map is never trivial.
    order = rng.permutation(n_internal) if internal else ()
    route = ["s", *(internal[i] for i in order), "t"]
    for u, v in zip(route, route[1:]):
        add(u, v)
    # Sprinkle a few extra edges, bounded per terminal to cap boundary sizes.
    budget = {"s": 1, "t": 1}
    for _ in range(int(rng.integers(0, 3))):
        u, v = (vertices[i] for i in rng.integers(0, len(vertices), size=2))
        if u == v:
            continue
        if budget.get(u, 9) <= 0 or budget.get(v, 9) <= 0:
            continue
        for w in (u, v):
            if w in budget:
                budget[w] -= 1
        add(u, v)
    return network(vertices, edges, ["s"], ["t"])

"""One-shot classical network coding: simulation and exhaustive search.

A protocol is a source encoder plus one function table per internal
vertex; a decoder exists iff the end-to-end map from messages to sink
symbol tuples is injective, so the decoder is never represented.

The exhaustive search assigns table entries lazily, branching only on
entries actually reached by some message and pruning a branch the moment
two messages produce identical sink tuples.  Entries never reached are
fixed to zero in the returned witness; the enumeration order is
deterministic, so witnesses are reproducible across machines.  After each
table assignment the search resumes that message's forward pass at the
step it just assigned, instead of re-running it from the source.

Two sound prunes cut the search without changing any witness.  Messages
are interchangeable, so encoder rows must strictly increase in row-major
order (a lex-leader symmetry break): sorting the rows of a valid protocol
gives a valid protocol, and the first one the unpruned enumeration finds
is already sorted.  When l is the number of source rows, the only such
encoder is the canonical bijection, so the search pins it.  And l above
the product of the sink in-edge alphabets is impossible outright, since
two messages would share a sink tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice, product
from math import prod
from operator import itemgetter
from typing import Callable, NamedTuple

from .netmodel import (
    Network,
    NetworkError,
    successors,
    topological_order,
)

DEFAULT_BUDGET = 10**9


class ProtocolError(NetworkError):
    """Protocol tables do not match the network."""


class BudgetExceededError(RuntimeError):
    """Search aborted; carries the best certified alphabet size so far."""

    def __init__(self, message, best_known=0):
        super().__init__(message)
        self.best_known = best_known


@dataclass(frozen=True)
class ProtocolTable:
    """A deterministic one-shot coding protocol.

    ``source_encoder[m]`` is the tuple of symbols placed on the source
    out-edges (edge-id order).  ``node_functions[v]`` is a flat table:
    row index = flattened visible-input tuple (row-major over in-edge
    alphabets in edge-id order, the early stage's in-edges included for
    late stages), value = flattened output tuple over the out-edges.
    """

    source_encoder: tuple[tuple[int, ...], ...]
    node_functions: dict

    @property
    def alphabet_size(self) -> int:
        return len(self.source_encoder)


@dataclass(frozen=True)
class SearchConfig:
    """``fix_source_bijection`` is read only by the unpruned test oracle,
    ``_Searcher(..., prune=False)``: the pruned search pins a full-alphabet
    encoder by itself.  Delete the field once ``perfbench/workloads.py``
    stops passing it."""

    alphabet_size: int
    budget: int = DEFAULT_BUDGET
    fix_source_bijection: bool = False

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    """The outcome of the whole search for one alphabet size: a witness,
    ``impossible`` after every branch failed, or ``budget_exceeded``."""

    status: str  # "witness" | "impossible" | "budget_exceeded"
    witness: ProtocolTable | None
    assignments: int


# ---------------------------------------------------------------------------
# Network wiring helpers
# ---------------------------------------------------------------------------


def source_out_edges(net: Network) -> list:
    return sorted(
        (e for e in net.edges if e.tail in net.source_set), key=lambda e: e.id
    )


def sink_in_edges(net: Network) -> list:
    return sorted(
        (e for e in net.edges if e.head in net.sink_set), key=lambda e: e.id
    )


def visible_in_edges(net: Network, vertex: str) -> list:
    """In-edges a vertex may condition on: its own, plus its early stage's."""
    early_of = {late: early for early, late in net.stage_pairs}
    watched = {vertex}
    if vertex in early_of:
        watched.add(early_of[vertex])
    return sorted(
        (e for e in net.edges if e.head in watched), key=lambda e: e.id
    )


def out_edges(net: Network, vertex: str) -> list:
    return sorted((e for e in net.edges if e.tail == vertex), key=lambda e: e.id)


def _flatten(values, dims) -> int:
    idx = 0
    for val, dim in zip(values, dims):
        idx = idx * dim + val
    return idx


# ---------------------------------------------------------------------------
# The compiled forward pass
# ---------------------------------------------------------------------------


class _Step(NamedTuple):
    """One computing vertex.  A table value is the row-major index of its
    output tuple over ``outs`` in edge-id order, so repeated ``divmod`` by
    the dims yields the outputs last edge first: ``outs`` is stored in that
    write order."""

    vertex: str
    ins: tuple  # (position, dim) of each visible in-edge, edge-id order
    outs: tuple  # (position, dim) of each out-edge the vertex writes, last edge id first
    codomain: int


class _Plan(NamedTuple):
    """A directed acyclic network compiled for :func:`_forward`; symbols
    live in a list indexed by edge position, and edges no step writes carry 0."""

    size: int
    source: tuple  # positions of the source out-edges
    read_sink: Callable  # symbol list -> tuple of the sink in-edge symbols, edge-id order
    steps: tuple  # one _Step per computing vertex, topological order


def _tuple_reader(positions: tuple):
    """``sym -> tuple(sym[p] for p in positions)``, compiled once."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (pos,) = positions
        return lambda sym: (sym[pos],)
    return lambda sym: ()


def _compile(net: Network, order: list, outs: dict) -> _Plan:
    """Plan over the vertices of ``outs`` in ``order``, each writing ``outs[v]``."""
    pos = {e.id: i for i, e in enumerate(net.edges)}

    def at(edges):
        return tuple((pos[e.id], e.dim) for e in edges)

    steps = tuple(
        _Step(v, at(visible_in_edges(net, v)), at(outs[v])[::-1], prod(e.dim for e in outs[v]))
        for v in order
        if v in outs
    )
    source = tuple(pos[e.id] for e in source_out_edges(net))
    sink = _tuple_reader(tuple(pos[e.id] for e in sink_in_edges(net)))
    return _Plan(len(net.edges), source, sink, steps)


def _source_symbols(plan: _Plan, row) -> list:
    """A fresh symbol list holding the source symbol ``row``, every other edge 0."""
    sym = [0] * plan.size
    for pos, val in zip(plan.source, row):
        sym[pos] = val
    return sym


def _forward(plan: _Plan, sym: list, tables, start: int = 0):
    """Run ``plan.steps[start:]`` over the symbol list ``sym``, reading
    ``tables[v][idx]`` and writing each step's outputs into ``sym`` in the
    step's write order, by ``divmod`` over ``outs``.

    A step reads only source symbols and the outputs of earlier steps, so
    a pass that stopped at step k can resume: ``sym`` still holds what the
    steps before k wrote.  Once the missing entry is filled, resume at k,
    or write that entry's outputs into ``sym`` and resume at k + 1.
    Returns ``(sink_tuple, None)``, or ``(None, (k, idx))`` at the first
    table entry that is still ``None``.
    """
    steps = plan.steps
    for k in range(start, len(steps)):
        v, ins, outs, _ = steps[k]
        idx = 0
        for pos, dim in ins:
            idx = idx * dim + sym[pos]
        out = tables[v][idx]
        if out is None:
            return None, (k, idx)
        for pos, dim in outs:
            out, sym[pos] = divmod(out, dim)
    return plan.read_sink(sym), None


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _check_protocol(net: Network, pt: ProtocolTable):
    src = source_out_edges(net)
    for row in pt.source_encoder:
        if len(row) != len(src):
            raise ProtocolError("source encoder row arity mismatch")
        for val, e in zip(row, src):
            if not 0 <= val < e.dim:
                raise ProtocolError(f"source symbol {val} outside alphabet of {e.id}")
    for v in net.internal_vertices:
        if v not in pt.node_functions:
            raise ProtocolError(f"missing node function for {v!r}")
        dom = prod(e.dim for e in visible_in_edges(net, v))
        cod = prod(e.dim for e in out_edges(net, v))
        table = pt.node_functions[v]
        if len(table) != dom:
            raise ProtocolError(f"table at {v!r} has {len(table)} rows, expected {dom}")
        for val in table:
            if not 0 <= val < cod:
                raise ProtocolError(f"table value {val} at {v!r} outside codomain")


def _protocol_plan(net: Network, pt: ProtocolTable) -> _Plan:
    order = topological_order(net)
    _check_protocol(net, pt)
    return _compile(net, order, {v: out_edges(net, v) for v in net.internal_vertices})


def simulate(net: Network, pt: ProtocolTable, message: int) -> tuple:
    """Run one message through the protocol; returns the sink symbol tuple.

    Sink-incident symbols are reported in edge-id order.  Sink out-edges
    carry the constant 0 (nothing downstream of a sink can reach it again
    in an acyclic network).
    """
    plan = _protocol_plan(net, pt)
    if not 0 <= message < pt.alphabet_size:
        raise ProtocolError(f"message {message} outside alphabet")
    sym = _source_symbols(plan, pt.source_encoder[message])
    return _forward(plan, sym, pt.node_functions)[0]


def is_valid(net: Network, pt: ProtocolTable) -> bool:
    """True iff message -> sink tuple is injective (a decoder exists)."""
    plan = _protocol_plan(net, pt)
    tuples = {
        _forward(plan, _source_symbols(plan, row), pt.node_functions)[0]
        for row in pt.source_encoder
    }
    return len(tuples) == pt.alphabet_size


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


class _Budget(Exception):
    pass


class _Searcher:
    """The lazy enumeration; ``prune=False`` turns both prunes and the
    encoder pin off, which keeps the plain enumeration as the test oracle
    for the pruned one.  The oracle pins the encoder only when
    ``cfg.fix_source_bijection`` is set."""

    def __init__(self, net: Network, cfg: SearchConfig, prune: bool = True):
        order = topological_order(net)
        self.net = net
        self.cfg = cfg
        self.prune = prune
        self.l = cfg.alphabet_size
        if self.l < 1:
            raise ValueError("alphabet size must be >= 1")

        self.src_dims = [e.dim for e in source_out_edges(net)]
        self.P = prod(self.src_dims)
        self.max_l = self.P
        if prune:
            self.max_l = min(self.P, prod(e.dim for e in sink_in_edges(net)))

        # Only live vertices compute: those a source feeds through internal
        # vertices (a sink forwards nothing), writing only the out-edges a
        # sink or a live vertex reads (a source reads nothing).  Every other
        # edge carries 0; it cannot help or hurt injectivity.
        succ = successors(net)
        sinks, internal = net.sink_set, set(net.internal_vertices)
        reached = set(net.sources)
        for v in order:
            if v in reached and v not in sinks:
                reached.update(succ[v])
        late_of = dict(net.stage_pairs)
        readers = set(sinks)
        live = {}
        for v in reversed(order):
            if v in reached and v in internal:
                outs = [e for e in out_edges(net, v) if e.head in readers]
                if outs:
                    live[v] = outs
                if outs or late_of.get(v) in live:  # a late stage reads its early's in-edges
                    readers.add(v)
        self.plan = _compile(net, order, live)

        # At l = P the message-order break leaves one encoder, the canonical one.
        fixed = self.l == self.P and (prune or cfg.fix_source_bijection)
        self.fixed_enc = list(self._source_rows()) if fixed else None

    def _source_rows(self, after=None):
        """Every source symbol row in row-major (flattened-index) order,
        or only those after the row ``after``."""
        rows = product(*(range(dim) for dim in self.src_dims))
        if after is None:
            return rows
        return islice(rows, _flatten(after, self.src_dims) + 1, None)

    def run(self) -> SearchResult:
        if self.l > self.max_l:
            # Pigeonhole: two messages must share their source symbols or
            # their sink tuples; no protocol can decode.
            return SearchResult("impossible", None, 0)
        self.assignments = 0
        self.enc = self.fixed_enc or [None] * self.l
        # One symbol list per message, written by its encoder row and its
        # forward pass; a pass resumes in place, so backtracking copies nothing.
        self.sym = [
            None if row is None else _source_symbols(self.plan, row) for row in self.enc
        ]
        self.tables = {
            step.vertex: [None] * prod(dim for _, dim in step.ins)
            for step in self.plan.steps
        }
        self.seen = set()
        self.witness = None
        try:
            found = self._extend(0)
        except _Budget:
            return SearchResult("budget_exceeded", None, self.assignments)
        status = "witness" if found else "impossible"
        return SearchResult(status, self.witness, self.assignments)

    def _extend(self, m, start=0) -> bool:
        """Extend the partial protocol so messages m.. decode too; message
        m's forward pass resumes at step ``start``.  Each encoder row and
        each table value tried counts as one assignment against the budget."""
        if m == self.l:
            self.witness = self._build_witness()
            return True
        if self.enc[m] is None:
            after = self.enc[m - 1] if self.prune and m else None
            budget = self.cfg.budget
            for row in self._source_rows(after):
                self.assignments += 1
                if self.assignments > budget:
                    raise _Budget
                self.enc[m] = row
                self.sym[m] = _source_symbols(self.plan, row)
                if self._extend(m):
                    return True
            self.enc[m] = None
            return False
        sinks, missing = _forward(self.plan, self.sym[m], self.tables, start)
        if missing is None:
            if sinks in self.seen:
                return False
            self.seen.add(sinks)
            if self._extend(m + 1):
                return True
            self.seen.remove(sinks)
            return False
        k, idx = missing
        v, _, outs, codomain = self.plan.steps[k]
        sym = self.sym[m]
        table = self.tables[v]
        budget = self.cfg.budget
        for c in range(codomain):
            self.assignments += 1
            if self.assignments > budget:
                raise _Budget
            table[idx] = out = c
            for pos, dim in outs:
                out, sym[pos] = divmod(out, dim)
            if self._extend(m, k + 1):
                return True
        table[idx] = None
        return False

    def _build_witness(self) -> ProtocolTable:
        """Widen each live table to all out-edges; dead entries become 0."""
        pos = {e.id: i for i, e in enumerate(self.net.edges)}
        node_functions = {
            v: (0,) * prod(e.dim for e in visible_in_edges(self.net, v))
            for v in self.net.internal_vertices
        }
        for v, _, live_outs, _ in self.plan.steps:
            outs = out_edges(self.net, v)
            table = []
            for out in self.tables[v]:
                out, val = out or 0, {}
                for p, dim in live_outs:
                    out, val[p] = divmod(out, dim)
                full = [val.get(pos[e.id], 0) for e in outs]
                table.append(_flatten(full, [e.dim for e in outs]))
            node_functions[v] = tuple(table)
        return ProtocolTable(source_encoder=tuple(self.enc), node_functions=node_functions)


def exhaustive_achievable(net: Network, cfg: SearchConfig) -> SearchResult:
    """Search all protocols for alphabet size ``cfg.alphabet_size``.

    Returns the lexicographically first witness under the deterministic
    lazy enumeration, ``impossible`` only after exhausting the space, or
    ``budget_exceeded``.  When l equals the product of the source
    out-edge alphabets, the encoder is pinned to the canonical bijection:
    its rows must be distinct, and the message-order break admits only
    the increasing run of all of them.
    """
    return _Searcher(net, cfg).run()


def c1_exact(net: Network, l_max: int, cfg: SearchConfig | None = None) -> int:
    """Largest achievable alphabet size <= l_max.

    Achievability is monotone in l (drop messages), so a witness at l_max
    alone proves the answer, and l_max is searched first.  Otherwise the
    scan ascends from 1 and stops at the first impossible size, never
    searching l_max again.  A budget exhaustion raises BudgetExceededError
    carrying the best certified value, which its message states too.
    """
    if cfg is None:
        cfg = SearchConfig(alphabet_size=1)
    if l_max < 1:
        return 0
    top = exhaustive_achievable(net, replace(cfg, alphabet_size=l_max))
    if top.status == "witness":
        return l_max
    best = 0
    for l in range(1, l_max):
        result = exhaustive_achievable(net, replace(cfg, alphabet_size=l))
        if result.status == "witness":
            best = l
        elif result.status == "impossible":
            return best
        else:
            message = f"budget exhausted at l={l} (best known {best})"
            raise BudgetExceededError(message, best_known=best)
    if top.status == "impossible":
        return best
    message = f"budget exhausted at l={l_max} (best known {best})"
    raise BudgetExceededError(message, best_known=best)


# ---------------------------------------------------------------------------
# The two protocols transcribed from the cyclic-splitting construction
# ---------------------------------------------------------------------------


def paper_protocol_n4() -> ProtocolTable:
    """The alphabet-6 protocol on the split network with d5 = 2*2.

    Messages are (x1, x2) with x1 on the dim-2 source edge and x2 on the
    dim-3 one.  The up edge signals whether x2 is in {0,1}; if so both
    late stages forward their staged inputs, otherwise n1 emits the
    escape symbol 2 and n2 relays x1 received through the down edge.
    """
    return ProtocolTable(
        source_encoder=tuple((m // 3, m % 3) for m in range(6)),
        node_functions={
            # visible (d1,) -> out (d5b,): always forward x1 down
            "n1_early": (0, 1),
            # visible (d2,) -> out (d5a,): flag x2 == 2
            "n2_early": (0, 0, 1),
            # visible (d1, d5a) -> out (d3,): forward x1, or escape 2
            "n1_late": (0, 2, 1, 2),
            # visible (d2, d5b) -> out (d4,): forward x2, or relay x1
            "n2_late": (0, 0, 1, 1, 0, 1),
        },
    )


def paper_protocol_n2() -> ProtocolTable:
    """The alphabet-5 protocol on the up-oriented split network (d5 = 2*1).

    Transmits the pairs (0,0), (0,1), (1,0), (1,1), (0,2); the trivial
    down edge means n2 can no longer learn x1, so only one escape pair
    survives.
    """
    return ProtocolTable(
        source_encoder=((0, 0), (0, 1), (1, 0), (1, 1), (0, 2)),
        node_functions={
            # visible (d1,) -> out (d5b,): the down edge is trivial
            "n1_early": (0, 0),
            # visible (d2,) -> out (d5a,): flag x2 == 2
            "n2_early": (0, 0, 1),
            # visible (d1, d5a) -> out (d3,)
            "n1_late": (0, 2, 1, 2),
            # visible (d2, d5b) -> out (d4,): x2 if small, else 0
            "n2_late": (0, 1, 0),
        },
    )


# ---------------------------------------------------------------------------
# Protocol JSON
# ---------------------------------------------------------------------------


def protocol_to_obj(pt: ProtocolTable) -> dict:
    return {
        "l": pt.alphabet_size,
        "source": [list(row) for row in pt.source_encoder],
        "nodes": {
            v: {"table": list(table)} for v, table in sorted(pt.node_functions.items())
        },
    }


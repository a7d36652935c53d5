"""One-shot classical network coding: protocol validation and exhaustive search.

A protocol is a source encoder plus one function table per internal
vertex; a decoder exists iff the end-to-end map from messages to sink
symbol tuples is injective, so the decoder is never represented.

Each network is compiled once, by :func:`_compile`: one pass over the
edges lists the ports each internal vertex reads and writes, and the
validator, the size guard, the search and the witness builder all read
that plan.  The last plan is kept, so a search and the ``is_valid`` of
its witness, or every size of a :func:`c1_exact` scan, compile the
network once.  Only live vertices compute in the search: those a source
feeds, writing the edges that a sink or a live vertex reads.

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
the directed min-cut is impossible outright, by the cut-set bound
(Ahlswede, Cai, Li and Yeung, "Network information flow", IEEE Trans.
IT 2000): in an acyclic network the symbols on the arcs crossing a cut
decide every sink tuple, and a stage pair is one cut unit, so a late
stage never reads across a cut.  :func:`~entcap.netmodel.min_cut` keeps
its last cut, so a scan computes it once.  On a network of more than
``ENUMERATION_LIMIT`` cut units, where :func:`~entcap.netmodel.min_cut`
refuses, the bound falls back to the source and sink cuts: the product
of the source out-edge alphabets and of the sink in-edge alphabets.
The plain enumeration, with neither prune nor the pin, lives only in the
tests, as the oracle that the prunes change no witness.

The search recurses once per message and once per entry it assigns, so
a search that reaches Python's recursion limit is refused with
:class:`~entcap.netmodel.TooLargeError` instead of crashing.  Encoder
rows, the pinned ones too, are unflattened from their row-major index as
they are reached, so a wide source edge costs only the rows tried.

On a directed diamond c1 has a closed form, and :func:`diamond_c1`
counts it and builds a protocol that reaches it, with no search; on a
network with no internal vertex, :func:`direct_c1` does.  The callers
that want only the number (``bounds`` and the reproduction claims) take
it from :func:`counted_c1`, which re-checks the count's whole witness; a
new count is one more entry there.  :func:`exhaustive_achievable` and
:func:`c1_exact` stay the plain search, and the tests hold the counts to it.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, replace
from math import prod
from operator import itemgetter
from typing import Callable, NamedTuple

from .netmodel import (
    Network,
    NetworkError,
    TooLargeError,
    diamond_edges,
    is_acyclic,
    min_cut,
    topological_order,
)
from .tnrank import MAX_ENTRIES

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
    """``fix_source_bijection`` is read only by the plain enumeration
    that the tests keep as the oracle for the search: the search pins a
    full-alphabet encoder by itself.  ``perfbench/workloads.py`` still
    passes it; delete the field once it stops (ROADMAP item 1)."""

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
# The compiled network
# ---------------------------------------------------------------------------


def source_out_edges(net: Network) -> list:
    return sorted(
        (e for e in net.edges if e.tail in net.source_set), key=lambda e: e.id
    )


def _flatten(values, dims) -> int:
    idx = 0
    for val, dim in zip(values, dims):
        idx = idx * dim + val
    return idx


def _unflatten(idx, dims) -> tuple:
    """The row whose row-major index under ``dims`` is ``idx``."""
    row = []
    for dim in reversed(dims):
        idx, val = divmod(idx, dim)
        row.append(val)
    return tuple(reversed(row))


class _Step(NamedTuple):
    """One computing vertex.  A port is the ``(position, dim)`` of an edge.
    A table value is the row-major index of its output tuple over ``outs``
    in edge-id order, so repeated ``divmod`` by the dims yields the outputs
    last edge first: ``outs`` is stored in that write order."""

    vertex: str
    ins: tuple  # port of each visible in-edge, edge-id order
    outs: tuple  # port of each out-edge the vertex writes, last edge id first
    codomain: int


class _Plan(NamedTuple):
    """A directed acyclic network compiled for :func:`_forward`; symbols
    live in a list indexed by edge position, and edges no step writes carry 0."""

    size: int
    source: tuple  # ports of the source out-edges, edge-id order
    sink: tuple  # ports of the sink in-edges, edge-id order
    read_sink: Callable  # symbol list -> tuple of the sink in-edge symbols
    steps: tuple  # one _Step per computing vertex, topological order
    live: tuple  # the steps the search computes, topological order


def _tuple_reader(positions: tuple):
    """``sym -> tuple(sym[p] for p in positions)``, compiled once."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (pos,) = positions
        return lambda sym: (sym[pos],)
    return lambda sym: ()


@functools.lru_cache(maxsize=1)
def _compile(net: Network) -> _Plan:
    """The one reading of the network's wiring: a step for every internal
    vertex in :func:`~entcap.netmodel.topological_order`, reading its
    visible in-edges (its own, plus its early stage's when it is a late
    stage) and writing all of its out-edges.

    Raises on an undirected edge or a directed cycle, before any port is
    listed.  The last plan is kept, and no caller mutates it;
    ``__wrapped__`` is the unmemoized function.
    """
    order = topological_order(net)
    late_of = dict(net.stage_pairs)
    sources, sinks = net.source_set, net.sink_set
    source, sink = [], []
    ins = {v: [] for v in net.internal_vertices}
    outs = {v: [] for v in net.internal_vertices}
    for pos, e in sorted(enumerate(net.edges), key=lambda item: item[1].id):
        tail, head = (e.u, e.v) if e.orientation == "uv" else (e.v, e.u)
        port = (pos, e.dim)
        if tail in sources:
            source.append(port)
        if head in sinks:
            sink.append(port)
        for reader in (head, late_of.get(head)):
            if reader in ins:
                ins[reader].append(port)
        if tail in outs:
            outs[tail].append(port)
    steps = tuple(
        _Step(v, tuple(ins[v]), tuple(outs[v][::-1]), prod(dim for _, dim in outs[v]))
        for v in order
        if v in outs
    )
    read_sink = _tuple_reader(tuple(pos for pos, _ in sink))
    # Only live steps compute: those a source feeds (a sink forwards
    # nothing), writing only the out-edges a sink or a live step reads
    # (a source reads nothing).  A late stage's ins hold its early
    # stage's in-edges, so a live late keeps its early's writers live.
    # Every other edge carries 0; it cannot help or hurt injectivity.
    fed = {pos for pos, _ in source}
    reached = []
    for step in steps:
        if not fed.isdisjoint([pos for pos, _ in step.ins]):
            reached.append(step)
            fed.update([pos for pos, _ in step.outs])
    read = {pos for pos, _ in sink}
    live = []
    for step in reversed(reached):
        outs = tuple([port for port in step.outs if port[0] in read])
        if outs:
            live.append(_Step(step.vertex, step.ins, outs, prod([dim for _, dim in outs])))
            read.update([pos for pos, _ in step.ins])
    return _Plan(len(net.edges), tuple(source), tuple(sink), read_sink, steps, tuple(live[::-1]))


def _source_symbols(plan: _Plan, row) -> list:
    """A fresh symbol list holding the source symbol ``row``, every other edge 0."""
    sym = [0] * plan.size
    for (pos, _), val in zip(plan.source, row):
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
# Validation
# ---------------------------------------------------------------------------


def _protocol_plan(net: Network, pt: ProtocolTable) -> _Plan:
    """The compiled network, once ``pt`` is checked against its shapes."""
    plan = _compile(net)
    for row in pt.source_encoder:
        if len(row) != len(plan.source):
            raise ProtocolError("source encoder row arity mismatch")
        for val, (pos, dim) in zip(row, plan.source):
            if not 0 <= val < dim:
                raise ProtocolError(
                    f"source symbol {val} outside alphabet of {net.edges[pos].id}"
                )
    for v, ins, _, codomain in plan.steps:
        if v not in pt.node_functions:
            raise ProtocolError(f"missing node function for {v!r}")
        dom = prod(dim for _, dim in ins)
        table = pt.node_functions[v]
        if len(table) != dom:
            raise ProtocolError(f"table at {v!r} has {len(table)} rows, expected {dom}")
        for val in table:
            if not 0 <= val < codomain:
                raise ProtocolError(f"table value {val} at {v!r} outside codomain")
    return plan


def is_valid(net: Network, pt: ProtocolTable) -> bool:
    """True iff message -> sink tuple is injective (a decoder exists).

    A sink tuple lists the sink-incident symbols in edge-id order.  Sink
    out-edges carry the constant 0 (nothing downstream of a sink can
    reach it again in an acyclic network).
    """
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
    """The lazy enumeration with both prunes and the encoder pin.

    It answers ``impossible`` for l above ``max_l``: the directed
    min-cut, or, on a network past the enumeration limit of
    :func:`~entcap.netmodel.min_cut`, the smaller of the source-cut and
    sink-cut products.  Encoder rows must increase, and at l equal to the
    source rows the encoder is pinned (``fixed``): message m gets row m.
    It raises ``TooLargeError`` for a source row count or table past the
    array cap, and for a search that reaches the recursion limit.  The
    tests subclass it into the plain enumeration, the oracle for this one.
    """

    def __init__(self, net: Network, cfg: SearchConfig):
        self.full = full = _compile(net)
        self.cfg = cfg
        self.l = cfg.alphabet_size
        if self.l < 1:
            raise ValueError("alphabet size must be >= 1")

        self.src_dims = [dim for _, dim in full.source]
        self.P = prod(self.src_dims)
        self.max_l = min(self.P, prod([dim for _, dim in full.sink]))
        # The cut-set bound.  The min-cut is no wider than the source or
        # sink cut, so only an l that those admit needs it; past the
        # enumeration limit those end cuts stay the bound.
        if 1 < self.l <= self.max_l:
            try:
                self.max_l = min_cut(net).value
            except TooLargeError:
                pass

        self.plan = _Plan(full.size, full.source, full.sink, full.read_sink, full.live, full.live)

        # At l = P the message-order break leaves one encoder, the canonical one.
        self.fixed = self.l == self.P

    def _source_rows(self, after=None):
        """Every source symbol row in row-major (flattened-index) order,
        or only those after the row ``after``, each unflattened from its
        index when it is reached."""
        start = 0 if after is None else _flatten(after, self.src_dims) + 1
        for idx in range(start, self.P):
            yield _unflatten(idx, self.src_dims)

    def run(self) -> SearchResult:
        if self.l > self.max_l:
            # Pigeonhole: two messages must share their source symbols or
            # the symbols crossing some cut; no protocol can decode.
            return SearchResult("impossible", None, 0)
        # The encoder walks all P source rows, each live table is allocated
        # in full, and a witness holds a full table for every internal
        # vertex, dead ones included: refuse a search past the array cap
        # first.
        self.widths = {v: prod(dim for _, dim in ins) for v, ins, _, _ in self.full.steps}
        largest = max([self.P, *self.widths.values()])
        if largest > MAX_ENTRIES:
            raise TooLargeError(
                f"coding search would list {largest} source rows or table entries, "
                f"above the limit {MAX_ENTRIES}"
            )
        self.assignments = 0
        self.enc = [None] * self.l
        # One symbol list per message, written by its encoder row and its
        # forward pass; a pass resumes in place, so backtracking copies nothing.
        self.sym = [None] * self.l
        self.tables = {step.vertex: [None] * self.widths[step.vertex] for step in self.plan.steps}
        self.seen = set()
        self.witness = None
        try:
            found = self._extend(0)
        except _Budget:
            return SearchResult("budget_exceeded", None, self.assignments)
        except RecursionError:
            # The unwound search state is dropped with the searcher.
            raise TooLargeError(
                f"coding search at l={self.l} nests past the recursion limit "
                f"{sys.getrecursionlimit()}"
            ) from None
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
            if self.fixed:
                # The pinned row is set once and kept through backtracking.
                self.enc[m] = row = _unflatten(m, self.src_dims)
                self.sym[m] = _source_symbols(self.plan, row)
            else:
                after = self.enc[m - 1] if m else None
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
        """Widen each live table onto all of its vertex's out-edges, each
        output times its stride in the full row-major value; dead entries
        and dead out-edges become 0."""
        node_functions = {v: (0,) * n for v, n in self.widths.items()}
        full_outs = {step.vertex: step.outs for step in self.full.steps}
        for v, _, live_outs, _ in self.plan.steps:
            stride, strides = 1, {}
            for pos, dim in full_outs[v]:  # last edge id first: stride 1
                strides[pos] = stride
                stride *= dim
            widen = [(dim, strides[pos]) for pos, dim in live_outs]
            table = []
            for out in self.tables[v]:
                out, full = out or 0, 0
                for dim, weight in widen:
                    out, val = divmod(out, dim)
                    full += val * weight
                table.append(full)
            node_functions[v] = tuple(table)
        return ProtocolTable(source_encoder=tuple(self.enc), node_functions=node_functions)


def exhaustive_achievable(net: Network, cfg: SearchConfig) -> SearchResult:
    """Search all protocols for alphabet size ``cfg.alphabet_size``.

    Returns the lexicographically first witness under the deterministic
    lazy enumeration, ``impossible`` after exhausting the space, or
    ``budget_exceeded``.  An l above the directed min-cut is
    ``impossible`` with 0 assignments, by the cut-set bound; past the
    enumeration limit of :func:`~entcap.netmodel.min_cut`, only an l
    above the source-cut or sink-cut product is.  When l equals the
    product of the source out-edge alphabets, the encoder is pinned to
    the canonical bijection: its rows must be distinct, and the
    message-order break admits only the increasing run of all of them.
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
# The counts on directed diamonds and on networks with no internal vertex
# ---------------------------------------------------------------------------


def diamond_c1(net: Network) -> tuple[int, ProtocolTable] | None:
    """The exact c1 of a directed diamond and a protocol reaching it, else None.

    A directed diamond is a diamond (:func:`~entcap.netmodel.diamond_edges`)
    whose edges all point with the flow, s->a, s->b, a->t and b->t, and
    whose middle edge is directed.  Call its tail n1 and its head n2, and
    let d1 = s-n1, d2 = s-n2, d3 = n1-t, d4 = n2-t and d5 = n1-n2.  Then

        c1 = max of sum_x min(d4, d2 * k_x) over (k_x), x < d3,
             with 0 <= k_x <= d5 and sum_x k_x <= d1.

    Upper bound.  A message is a pair (a, b) of source symbols, a < d1 on
    s->n1 and b < d2 on s->n2.  n1 writes (x, y) = f(a), x < d3 to the
    sink and y < d5 to n2; n2 writes z = g(b, y) < d4, and the sink sees
    (x, z).  Sort the messages into classes by (x, y), and the classes
    into groups by x; k_x is the number of classes of group x.  Two
    messages of one class that share b collide, so a class holds at most
    d2 messages.  The messages of one group are told apart by z alone, so
    a group holds at most d4.  Hence group x holds at most min(d4, d2 *
    k_x).  And k_x <= d5, while distinct classes come from distinct a, so
    sum_x k_x <= d1.

    The maximum.  Group x's value min(d4, d2 * k) rises by d2 for each of
    its first q = floor(d4 / d2) classes, then by r = d4 mod d2 once, then
    by 0, and k stops at d5.  These rises never grow, so the best choice
    of at most d1 classes takes the largest rises: ``whole`` = min(d1, d3
    * min(d5, q)) classes of d2 messages, then, where d5 > q, up to d3
    remainder classes of r messages, one per group.

    The witness reaches it.  Class y of group x gets an s->n1 symbol a of
    its own, f(a) = (x, y), and its messages are (a, b) for each b < min(d2,
    d4 - y * d2).  n2 writes g(b, y) = (b + y * d2) mod d4, which for
    these messages is y * d2 + b < d4, distinct within a group.  Symbols
    no message uses map to 0.
    """
    edges = diamond_edges(net)
    if edges is None or not all(e.is_directed for e in edges):
        return None
    sa, at, sb, bt, ab = edges
    (s,), (t,) = net.sources, net.sinks
    if sa.tail != s or sb.tail != s or at.head != t or bt.head != t:
        return None
    if ab.tail == sa.head:
        s1, n1t, s2, n2t = sa, at, sb, bt
    else:
        s1, n1t, s2, n2t = sb, bt, sa, at
    d1, d2, d3, d4, d5 = s1.dim, s2.dim, n1t.dim, n2t.dim, ab.dim

    per_group = min(d5, d4 // d2)
    whole = min(d1, d3 * per_group)
    rest = d4 - per_group * d2 if d5 > per_group else 0
    remainder = min(d1 - whole, d3) if rest else 0
    c1 = whole * d2 + remainder * rest

    # (x, y, messages) of each class, indexed by its s->n1 symbol a.
    classes = [(a // per_group, a % per_group, d2) for a in range(whole)]
    classes += [(x, per_group, rest) for x in range(remainder)]
    # Rows and values are row-major over the edges in edge-id order (ProtocolTable).
    a_first, x_first, b_first = s1.id < s2.id, n1t.id < ab.id, s2.id < ab.id
    encoder = tuple(
        (a, b) if a_first else (b, a) for a, (_, _, size) in enumerate(classes) for b in range(size)
    )
    n1_table = [0] * d1
    for a, (x, y, _) in enumerate(classes):
        n1_table[a] = x * d5 + y if x_first else y * d3 + x
    if b_first:
        reads = [(b, y) for b in range(d2) for y in range(d5)]
    else:
        reads = [(b, y) for y in range(d5) for b in range(d2)]
    n2_table = tuple((b + y * d2) % d4 for b, y in reads)
    tables = {s1.head: tuple(n1_table), s2.head: n2_table}
    return c1, ProtocolTable(source_encoder=encoder, node_functions=tables)


def direct_c1(net: Network) -> tuple[int, ProtocolTable] | None:
    """The exact c1 of a directed acyclic network with no internal vertex
    whose source out-edges all enter a sink, and a protocol reaching it,
    else None.

    The sinks then read every source symbol as sent, so all P source rows
    decode: c1 is P, the product of the source out-edge dims, which is also
    the directed min-cut.  Message m is sent as the row of row-major index
    m.  Raises :class:`~entcap.netmodel.TooLargeError` for more than
    ``MAX_ENTRIES`` rows, as the search would.
    """
    if net.internal_vertices or not all(e.is_directed for e in net.edges) or not is_acyclic(net):
        return None
    outs = source_out_edges(net)
    if not all(e.head in net.sink_set for e in outs):
        return None
    dims = [e.dim for e in outs]
    c1 = prod(dims)
    if c1 > MAX_ENTRIES:
        raise TooLargeError(f"{c1} source rows would be listed, above the limit {MAX_ENTRIES}")
    return c1, ProtocolTable(tuple(_unflatten(m, dims) for m in range(c1)), {})


#: The counts :func:`counted_c1` tries, in order, by the name its error gives.
_COUNTS = (("diamond", diamond_c1), ("direct", direct_c1))


def counted_c1(net: Network) -> tuple[int, ProtocolTable] | None:
    """``(c1, witness)`` from the first count in ``_COUNTS`` that covers
    ``net``'s shape, else None.  Raises :class:`ProtocolError` naming the
    count ("the counted diamond witness is not valid") when :func:`is_valid`
    rejects the whole witness or finds its tables malformed."""
    for kind, count in _COUNTS:
        counted = count(net)
        if counted is not None:
            error = f"the counted {kind} witness is not valid"
            try:
                valid = is_valid(net, counted[1])
            except ProtocolError as exc:
                raise ProtocolError(f"{error}: {exc}") from exc
            if not valid:
                raise ProtocolError(error)
            return counted
    return None


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


"""Network transformations: cycle node-splitting and the power-of-two
rounding machinery.

Splitting a length-2 cycle turns each of its endpoints into an early/late
stage pair; the pair is one logical node with staged I/O (the late stage
sees the early stage's full input), so no infinite-dimensional
intra-node edge is ever materialized and min-cut values stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .netmodel import (
    Edge,
    Network,
    NetworkError,
    crossing_edges,
    drop_orientations,
    flow_orientation,
    is_acyclic,
    min_cut,
    network,
    tensor_power,
)
from .tnrank import estimate_r1


@dataclass(frozen=True)
class SplitSpec:
    """Factorization (a, b) of the dimension of the edge to split."""

    edge_id: str
    a: int
    b: int


def split_cycle_edge(net: Network, spec: SplitSpec) -> Network:
    """Split both endpoints of an internal edge into staged node pairs.

    The edge of dimension a*b becomes two directed edges: dimension ``a``
    from the far endpoint's early stage to the near endpoint's late
    stage, and ``b`` the other way round.  In-edges attach to early
    stages, out-edges leave late stages; the result is acyclic by
    construction.
    """
    e = net.edge_by_id(spec.edge_id)
    u, v = e.u, e.v
    terminals = net.terminal_set
    if u in terminals or v in terminals:
        raise NetworkError(f"edge {e.id} touches a source or sink")
    if u == v:
        raise NetworkError(f"edge {e.id} is a self-loop")
    if spec.a < 1 or spec.b < 1 or spec.a * spec.b != e.dim:
        raise NetworkError(
            f"factorization {spec.a}*{spec.b} does not match dim {e.dim}"
        )
    for early, late in net.stage_pairs:
        if {early, late} & {u, v}:
            raise NetworkError(f"vertex {early}/{late} is already staged")

    early = {w: f"{w}_early" for w in (u, v)}
    late = {w: f"{w}_late" for w in (u, v)}

    vertices = []
    for w in net.vertices:
        if w in (u, v):
            vertices.extend([early[w], late[w]])
        else:
            vertices.append(w)

    def redirect(f: Edge) -> Edge:
        touches = {u, v} & {f.u, f.v}
        if len(touches) == 2:
            raise NetworkError(f"parallel edge {f.id} between split vertices")
        if not f.is_directed:
            direction = flow_orientation(net, f)
            if direction is None:
                raise NetworkError(f"cannot infer a direction for edge {f.id}")
            f = replace(f, orientation=direction)
        tail, head = f.tail, f.head
        if head in touches:
            head = early[head]
        if tail in touches:
            tail = late[tail]
        return Edge(id=f.id, u=tail, v=head, dim=f.dim, orientation="uv")

    edges = []
    for f in net.edges:
        if f.id == e.id:
            continue
        edges.append(redirect(f))
    edges.append(Edge(id=e.id + "a", u=early[v], v=late[u], dim=spec.a, orientation="uv"))
    edges.append(Edge(id=e.id + "b", u=early[u], v=late[v], dim=spec.b, orientation="uv"))

    result = network(
        vertices,
        edges,
        net.sources,
        net.sinks,
        (*net.stage_pairs, (early[u], late[u]), (early[v], late[v])),
    )
    # Reached by edges between two sources or two sinks, a terminal loop,
    # an edge directed against the flow, or a directed cycle elsewhere.
    if not is_acyclic(result):
        raise NetworkError("split produced a cyclic network")
    return result


@dataclass(frozen=True)
class RoundedPair:
    """Power-of-two bracketing of the n-th tensor power of a network."""

    lower: Network
    upper: Network
    c1: int  # crossing-edge count of the lower network's min-cut witness
    c2: int  # crossing-edge count of the n-th power's min-cut witness


def _round_dim(dim: int, n: int) -> tuple[int, int]:
    x = dim**n
    low = 1 << (x.bit_length() - 1)
    high = low if x == low else low * 2
    return low, high


def round_networks(net: Network, n: int) -> RoundedPair:
    """Bracket every dimension of N^(boxtimes n) by adjacent powers of two.

    ``c2`` is read off the min-cut of ``net`` itself: a cut of N^(boxtimes n)
    is valued as the same cut of N raised to the n-th power, so the two
    min-cuts have the same witness, and the power is never built.  The
    lower network is cut last, so its min-cut is the one
    :func:`~entcap.netmodel.min_cut` keeps.
    """
    if n < 1:
        raise NetworkError("n must be >= 1")
    lows, highs = [], []
    for e in net.edges:
        low, high = _round_dim(e.dim, n)
        lows.append(replace(e, dim=low))
        highs.append(replace(e, dim=high))
    lower = replace(net, edges=tuple(lows))
    upper = replace(net, edges=tuple(highs))
    c2 = len(crossing_edges(net, min_cut(net).s_side))
    c1 = len(crossing_edges(lower, min_cut(lower).s_side))
    return RoundedPair(lower=lower, upper=upper, c1=c1, c2=c2)


@dataclass(frozen=True)
class SandwichReport:
    """The four quantities of the power-of-two sandwich around R1(N^boxtimes n),
    and whether it and the 2^(+-c) bounds hold."""

    mc_lower: int
    r1_estimate: int
    mc_upper: int
    mc_power: int
    ok: bool


def sandwich_check(net: Network, n: int, seed: int) -> SandwichReport:
    """Evaluate MC(N_l) <= R1-est(N^boxtimes n) <= MC(N_u) plus the 2^(+-c) bounds.

    The rank ignores orientations, so every network here is cut with its
    orientations dropped.  R1 and MC(N^boxtimes n) both come from one
    :func:`~entcap.tnrank.estimate_r1` call (3 trials from ``seed``).
    MC(N_l) is asked for right after :func:`round_networks` cut N_l, so
    :func:`~entcap.netmodel.min_cut` returns its kept cut, and no network
    is cut twice.  All comparisons are exact integer comparisons; the
    2^-c1 bound is checked as MC(N^boxtimes n) <= R1 * 2^c1.
    """
    est = estimate_r1(tensor_power(net, n), trials=3, seed=seed)
    pair = round_networks(drop_orientations(net), n)
    r1, mc_power = est.r1_lower, est.mc_upper
    mc_lower = min_cut(pair.lower).value
    mc_upper = min_cut(pair.upper).value
    ok = (
        mc_lower <= r1 <= mc_upper
        and mc_power <= r1 * 2**pair.c1
        and r1 <= mc_power * 2**pair.c2
    )
    return SandwichReport(
        mc_lower=mc_lower,
        r1_estimate=r1,
        mc_upper=mc_upper,
        mc_power=mc_power,
        ok=ok,
    )

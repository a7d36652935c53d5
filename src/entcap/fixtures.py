"""Named fixture networks shipped as JSON data files.

The catalog covers the diamond (4-vertex) family, its split/oriented and
scaled variants, and small paths.  The files are the interchange unit:
alternate implementations can consume them verbatim, and every fixture
round-trips byte-identically through the canonical serializer.

Dimension labels on the diamond follow the protocol text: the dim-3 edge
out of the relay that emits the escape symbol runs to the sink, so
d1: s-n1, d2: s-n2, d3: n1-t, d4: n2-t, d5: n1-n2.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .netmodel import Edge, Network, load_network, network
from .tnrank import PrimeField, TensorAssignment

FIXTURE_NAMES = (
    "fig2_counterexample",
    "n_d5_2",
    "n_d5_3",
    "n_d5_4",
    "n4_split_2x2",
    "n2_up",
    "path_2_3",
    "path_3_3",
    "fig1_scaled_k2",
    "fig1_scaled_k3",
)

R1_WITNESS_NAME = "n_d5_2_r1_witness"


def diamond_network(d1: int, d2: int, d3: int, d4: int, d5: int) -> Network:
    """The 4-vertex diamond: source, sink, two relays, five edges."""
    return network(
        ["s", "n1", "n2", "t"],
        [
            Edge("d1", "s", "n1", d1),
            Edge("d2", "s", "n2", d2),
            Edge("d3", "n1", "t", d3),
            Edge("d4", "n2", "t", d4),
            Edge("d5", "n1", "n2", d5),
        ],
        ["s"],
        ["t"],
    )


def path_network(*dims: int) -> Network:
    """A series chain s - n1 - ... - t with the given edge dimensions."""
    inner = [f"n{i}" for i in range(1, len(dims))]
    vertices = ["s", *inner, "t"]
    edges = [
        Edge(f"e{i}", u, v, dim)
        for i, (u, v, dim) in enumerate(zip(vertices, vertices[1:], dims))
    ]
    return network(vertices, edges, ["s"], ["t"])


def fixture_text(name: str) -> str:
    return (resources.files("entcap") / "data" / f"{name}.json").read_text()


def fixture(name: str) -> Network:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}")
    return load_network(fixture_text(name))


def r1_witness_n2() -> tuple[Network, TensorAssignment]:
    """The stored max-rank tensor assignment certifying rank 6 on n_d5_2."""
    obj = json.loads(fixture_text(R1_WITNESS_NAME))
    net = fixture(obj["network"])
    field = PrimeField(obj["prime"])
    tensors = {
        v: np.array(entries, dtype=np.int64) for v, entries in obj["tensors"].items()
    }
    return net, TensorAssignment(field=field, tensors=tensors)

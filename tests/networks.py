"""Networks that more than one test module builds."""

from entcap.fixtures import path_network
from entcap.netmodel import Edge, network, orient


def oriented_path(*dims):
    """The path s -> n1 -> ... -> t with the given edge dims, every edge u -> v."""
    net = path_network(*dims)
    return orient(net, {e.id: "uv" for e in net.edges})


def grid(rows, cols, dims):
    """The undirected rows x cols grid g00 .. g{rows-1}{cols-1} between s and t.

    s is joined to each g{i}0 and each g{i}{cols-1} to t; neighbours are
    joined across and down.  Edges e0, e1, ... take ``dims`` in order: row
    by row, s-g{i}0, g{i}{cols-1}-t and that row's edges across, then the
    edges down, row by row.
    """
    g = [[f"g{i}{j}" for j in range(cols)] for i in range(rows)]
    ends = []
    for row in g:
        ends += [("s", row[0]), (row[-1], "t"), *zip(row, row[1:])]
    for upper, lower in zip(g, g[1:]):
        ends += zip(upper, lower)
    assert len(dims) == len(ends)
    edges = [Edge(f"e{k}", u, v, dim) for k, ((u, v), dim) in enumerate(zip(ends, dims))]
    return network(["s", *(v for row in g for v in row), "t"], edges, ["s"], ["t"])


#: The 2 x 2 and 2 x 3 grids: all ten fixtures are diamonds, split
#: diamonds or paths, and these give `bounds` rows the search leaves open.
GRID_2X2 = grid(2, 2, [3, 4, 6, 5, 6, 4, 3, 3])
GRID_2X3 = grid(2, 3, [3, 4, 6, 5, 6, 4, 3, 3, 4, 4, 3])

"""Networks that more than one test module builds."""

from entcap.fixtures import path_network
from entcap.netmodel import orient


def oriented_path(*dims):
    """The path s -> n1 -> ... -> t with the given edge dims, every edge u -> v."""
    net = path_network(*dims)
    return orient(net, {e.id: "uv" for e in net.edges})

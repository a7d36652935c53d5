#!/usr/bin/env python3
"""Tabulate one-shot coding values over every acyclic orientation of a diamond.

For each single-direction orientation of the five-edge diamond this prints
the directed min-cut and the exact one-shot coding value, making the gap
between the best orientation and the split (staged) network visible.
Each scan stops at the directed min-cut, which bounds c1.

Usage: scan_orientations.py [d1 d2 d3 d4 d5] [--split a b]
"""

import argparse
import itertools

from entcap.codingsearch import SearchConfig, c1_exact
from entcap.fixtures import diamond_network
from entcap.netmodel import is_acyclic, min_cut, orient
from entcap.transforms import SplitSpec, split_cycle_edge


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dims", nargs="*", type=int, default=[2, 3, 3, 2, 4])
    parser.add_argument("--split", nargs=2, type=int, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if len(args.dims) != 5:
        parser.error("need exactly five dimensions")

    net = diamond_network(*args.dims)
    print(f"diamond d={tuple(args.dims)}  undirected MC = {min_cut(net).value}")
    print(f"{'orientation':<28} {'acyclic':<8} {'dir MC':<7} c1")

    eids = [e.id for e in net.edges]
    best = 0
    for dirs in itertools.product(("uv", "vu"), repeat=5):
        oriented = orient(net, dict(zip(eids, dirs)))
        label = ",".join(f"{e}:{d}" for e, d in zip(eids, dirs))
        if not is_acyclic(oriented):
            print(f"{label:<28} {'no':<8} {'-':<7} -")
            continue
        directed_mc = min_cut(oriented).value
        c1 = c1_exact(oriented, directed_mc, SearchConfig(1, fix_source_bijection=True))
        best = max(best, c1)
        print(f"{label:<28} {'yes':<8} {directed_mc:<7} {c1}")
    print(f"best single-direction c1 = {best}")

    if args.split:
        a, b = args.split
        staged = split_cycle_edge(net, SplitSpec("d5", a, b))
        directed_mc = min_cut(staged).value
        c1 = c1_exact(staged, directed_mc, SearchConfig(1, fix_source_bijection=True))
        print(f"split d5 = {a}x{b}: directed MC = {directed_mc}, c1 = {c1}")


if __name__ == "__main__":
    main()

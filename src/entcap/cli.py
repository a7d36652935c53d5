"""Command-line front end: batch computations on network JSON files.

Exit codes: 0 success, 1 invariant or claim failure, 2 bad input,
3 search budget exceeded.  All randomness flows from ``--seed``; given
identical invocations the JSON output is byte-identical across machines.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .capreport import ReportOptions, bounds_report, report_to_obj
from .codingsearch import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    SearchConfig,
    c1_exact,
    exhaustive_achievable,
    protocol_to_obj,
)
from .netmodel import (
    NetworkError,
    load_network,
    min_cut,
    network_to_obj,
    scale,
    tensor_power,
)
from .reproduce import CLAIMS, run_claim
from .tnrank import MAX_TRIALS, PrimeField, estimate_r1
from .transforms import SplitSpec, round_networks, split_cycle_edge

EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT, EXIT_BUDGET = 0, 1, 2, 3


def _emit(obj):
    try:
        text = json.dumps(obj, indent=2)
    except ValueError as exc:  # an integer too long to convert to decimal
        raise _fail(EXIT_BAD_INPUT, f"error: cannot print the result: {exc}")
    print(text)


def _read_network(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return load_network(fh.read())
    except (OSError, UnicodeDecodeError, NetworkError) as exc:
        raise _fail(EXIT_BAD_INPUT, f"error: {exc}")


def _fail(code, message):
    print(message, file=sys.stderr)
    return SystemExit(code)


def _int_in(low, high=math.inf):
    """argparse ``type=``: an integer from ``low`` to ``high``."""
    wanted = f">= {low}" if high == math.inf else f"from {low} to {high}"

    def parse(text):
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer {wanted}, got {text!r}")

    return parse


_positive, _non_negative = _int_in(1), _int_in(0)
_trials = _int_in(1, MAX_TRIALS)


def _prime_field(text) -> PrimeField:
    try:
        return PrimeField(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _split_spec(text) -> SplitSpec:
    try:
        eid, a, b = text.split(":")
        return SplitSpec(eid, int(a), int(b))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected EDGE:a:b, got {text!r}") from exc


def _op(text) -> tuple:
    """argparse ``type=`` for ``--op``: (kind, n) or ("split", SplitSpec)."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "split":
            return kind, _split_spec(arg)
        if kind in ("power", "scale", "round"):
            return kind, int(arg)
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected split:EDGE:a:b, power:n, scale:k or round:n, got {text!r}"
    )


def cmd_mincut(args) -> int:
    net = _read_network(args.file)
    cut = min_cut(net)
    _emit({"min_cut": cut.value, "witness": sorted(cut.s_side)})
    return EXIT_OK


def cmd_rank(args) -> int:
    net = _read_network(args.file)
    est = estimate_r1(net, args.prime, trials=args.trials, seed=args.seed)
    _emit(
        {
            "r1_lower": est.r1_lower,
            "mc_upper": est.mc_upper,
            "failure_bound": str(est.failure_bound),
            "trials": est.trials,
            "witness_seed": est.witness_seed,
        }
    )
    return EXIT_OK


def cmd_c1(args) -> int:
    net = _read_network(args.file)
    cfg = SearchConfig(alphabet_size=1 if args.l is None else args.l, budget=args.budget)
    if args.exact_up_to is not None:
        value = c1_exact(net, args.exact_up_to, cfg)
        _emit({"c1": value, "l_max": args.exact_up_to})
        return EXIT_OK
    result = exhaustive_achievable(net, cfg)
    if result.status == "budget_exceeded":
        raise _fail(EXIT_BUDGET, "error: search budget exceeded")
    out = {
        "l": cfg.alphabet_size,
        "status": result.status,
        "assignments": result.assignments,
    }
    if result.witness is not None:
        out["witness"] = protocol_to_obj(result.witness)
    _emit(out)
    return EXIT_OK


def _check_power_digits(net, kind: str, n: int):
    """Refuse a power whose dimensions ``dim**n`` would have more digits
    than Python prints, before building them (they could fill memory)."""
    limit = sys.get_int_max_str_digits()
    dim = max((e.dim for e in net.edges), default=1)
    # Compares the int n with a float, which is exact and cannot overflow.
    if limit and dim > 1 and n > limit / math.log10(dim):
        raise _fail(
            EXIT_BAD_INPUT,
            f"error: {kind}:{n} gives dimensions of more than {limit} digits, "
            f"above the print limit",
        )


def cmd_transform(args) -> int:
    net = _read_network(args.file)
    kind, arg = args.op
    if kind in ("power", "round"):
        _check_power_digits(net, kind, arg)
    if kind == "split":
        _emit(network_to_obj(split_cycle_edge(net, arg)))
    elif kind == "power":
        _emit(network_to_obj(tensor_power(net, arg)))
    elif kind == "scale":
        _emit(network_to_obj(scale(net, arg)))
    else:
        pair = round_networks(net, arg)
        _emit(
            {
                "lower": network_to_obj(pair.lower),
                "upper": network_to_obj(pair.upper),
                "c1": pair.c1,
                "c2": pair.c2,
            }
        )
    return EXIT_OK


def cmd_bounds(args) -> int:
    net = _read_network(args.file)
    options = ReportOptions(
        splits=tuple(args.split or ()),
        rank_trials=args.trials,
        seed=args.seed,
        coding_budget=args.budget,
    )
    _emit(report_to_obj(bounds_report(net, options)))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    names = [args.claim] if args.claim else CLAIMS
    results = [run_claim(name, seed=args.seed) for name in names]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.computed}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


_BUDGET_HELP = f"coding search assignment budget (default: {DEFAULT_BUDGET})"


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with EXIT_BAD_INPUT and one ``error:`` line."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entcap",
        description="Exact capacities and bounds for entanglement networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mincut", help="exact multiplicative min-cut of a network file")
    p.add_argument("file")
    p.set_defaults(func=cmd_mincut)

    p = sub.add_parser("rank", help="randomized one-shot tensor-network capacity")
    p.add_argument("file")
    p.add_argument("--prime", type=_prime_field, default=PrimeField(), help="a prime below 2^31")
    p.add_argument("--trials", type=_trials, default=3)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("c1", help="one-shot coding search on a directed acyclic network")
    p.add_argument("file")
    # Default None, not 1: the group only sees a flag whose value is not
    # the default object, and a parsed 1 is the same object as a default 1.
    scan = p.add_mutually_exclusive_group()
    scan.add_argument("--l", type=_positive, default=None, help="alphabet size to test (default: 1)")
    scan.add_argument("--exact-up-to", type=_positive, default=None, help="scan for the largest achievable l")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    p.set_defaults(func=cmd_c1)

    p = sub.add_parser("transform", help="apply split/power/scale/round to a network")
    p.add_argument("file")
    p.add_argument(
        "--op", type=_op, required=True, help="split:EDGE:a:b | power:n | scale:k | round:n"
    )
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("bounds", help="full capacity report with bound orderings")
    p.add_argument("file")
    p.add_argument(
        "--split", type=_split_spec, action="append", help="EDGE:a:b split variant (repeatable)"
    )
    p.add_argument("--trials", type=_trials, default=3)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce", help="re-derive the headline numbers")
    p.add_argument("--claim", choices=CLAIMS, default=None)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

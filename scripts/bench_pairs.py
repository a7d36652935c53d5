#!/usr/bin/env python3
"""Compare two entcap checkouts with perfbench in alternating pairs; write a BENCH_*.json.

Usage, with each checkout made by ``git archive REV | tar -x -C DIR``:

    python3 scripts/bench_pairs.py --parent DIR_A --change DIR_B \\
        --claim diamond-bounds:solve_s --claim-seeds 71-80 --other-seeds 81-83 \\
        --trace-workloads diamond-bounds reproduce \\
        --note "what changed" --out BENCH_name.json

Every run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from the root of a checkout, with T the ``run_seconds`` of
BENCHMARK.json, and its last stdout line is the source of each number.
Both checkouts must hold the same perfbench/ and BENCHMARK.json.  Pair i
runs both sides on seed i, the parent first in even pairs and the change
first in odd ones, so that a drift of the host over the session falls on
both sides alike.  The claimed workload
runs on the claim seeds, every other workload on the other seeds.  With
``--trace-workloads``, two ``--trace 1`` runs per side and workload, on
seed 1 and in the order parent, change, change, parent, add each side's
mean of the per-layer metrics that either side reports as non-zero.

Each metric is summarised by its runs, median and quartiles (inclusive
method); the claim adds how many pairs the change wins, the ratio and
difference of the medians and the parent's interquartile range.

A run that exits non-zero drops its pair, or its workload's traced rows,
from the summaries and is listed under ``failed_runs``.  The file is
still written, and the script then exits 1 with one line naming the
first failed run.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SEED = 1
ORDER = "pairs alternate which side runs first, parent first in pair 0"


def seed_range(text: str) -> list[int]:
    """``71-80`` or ``5`` as a list of seeds."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def seed_text(seeds: list[int]) -> str:
    return f"{seeds[0]}-{seeds[-1]}" if len(seeds) > 1 else str(seeds[0])


class RunFailed(Exception):
    """A perfbench run exited non-zero; ``run`` is its entry for ``failed_runs``."""

    def __init__(self, run: dict):
        super().__init__(run)
        self.run = run


def run_bench(checkouts: dict, side: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``side``'s checkout: the JSON object of its last stdout line.

    A run that exits non-zero raises :class:`RunFailed` with its side,
    workload, seed, trace flag, exit code and last stderr line.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkouts[side], capture_output=True, text=True,
    )
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        print(f"{workload} seed {seed} {side}: exited {proc.returncode}: {last[0]}", file=sys.stderr)
        raise RunFailed({"side": side, "workload": workload, "seed": seed, "trace": trace,
                         "exit_code": proc.returncode, "stderr": last[0]})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def paired_runs(checkouts: dict, workload: str, seeds: list[int], seconds: float,
                failed: list) -> tuple[list[dict], list[int]]:
    """One result per side and seed, ``[{side: result}, ...]`` in seed
    order, and the seeds of those pairs.  A pair with a failed run is left
    out, and each failed run is appended to ``failed``."""
    pairs, kept = [], []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            try:
                pair[side] = run_bench(checkouts, side, workload, seed, seconds, 0)
            except RunFailed as exc:
                failed.append(exc.run)
                continue
            value = pair[side]["metrics"]
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{k} {m['value']:.4g}" for k, m in value.items()), file=sys.stderr)
        if len(pair) == len(SIDES):
            pairs.append(pair)
            kept.append(seed)
    return pairs, kept


def workload_rows(pairs: list[dict], seeds: list[int]) -> dict:
    """Each end-to-end metric of a workload's pairs, per side, plus failed calls."""
    metrics = pairs[0]["parent"]["metrics"]
    rows = {"seeds": seeds, "order": ORDER}
    for name in metrics:
        rows[name] = {side: summary([p[side]["metrics"][name]["value"] for p in pairs]) for side in SIDES}
    rows["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    return rows


def claim_rows(pairs: list[dict], seeds: list[int], workload: str, metric: str, better: str) -> dict:
    rows = workload_rows(pairs, seeds)
    claimed = rows.pop(metric)
    parent, change = claimed["parent"], claimed["change"]
    sign = 1 if better == "lower" else -1
    wins = sum(
        sign * (p["parent"]["metrics"][metric]["value"] - p["change"]["metrics"][metric]["value"]) > 0
        for p in pairs
    )
    return {
        "workload": workload,
        "metric": metric,
        "seeds": seeds,
        "order": ORDER,
        "parent": parent,
        "change": change,
        "change_wins": f"{wins}/{len(pairs)}",
        "median_ratio": round(parent["median"] / change["median"], 3),
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
        "median_difference": round(sign * (parent["median"] - change["median"]), 4),
        "other_metrics": {k: v for k, v in rows.items() if k not in ("seeds", "order", "failed")},
        "failed": rows["failed"],
    }


def mean2(a: float, b: float) -> float:
    """The mean of two runs' values; equal values are kept as they are, so counts stay integers."""
    return a if a == b else (a + b) / 2


def traced_rows(checkouts: dict, workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics of two traced runs per side, those non-zero on either side.

    The runs go parent, change, change, parent, so that a steady drift
    of the host falls on both sides alike, and each side reports the
    mean of its two runs.
    """
    runs = {side: [] for side in SIDES}
    for side in (*SIDES, *SIDES[::-1]):
        runs[side].append(run_bench(checkouts, side, workload, seed, seconds, 1)["metrics"])
    values = {side: {k: mean2(a[k]["value"], b[k]["value"]) for k in a} for side, (a, b) in runs.items()}
    names = [k for k in values["parent"] if any(values[s][k] for s in SIDES)]
    return {side: {k: round(values[side][k], 4) for k in names} for side in SIDES}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "os": platform.system()}


def same_harness(a: Path, b: Path) -> bool:
    """True iff both checkouts have byte-identical BENCHMARK.json and perfbench/*.py."""
    names = {"BENCHMARK.json"}
    for root in (a, b):
        names.update(str(p.relative_to(root)) for p in (root / "perfbench").glob("*.py"))
    _, mismatch, errors = filecmp.cmpfiles(a, b, sorted(names), shallow=False)
    return not mismatch and not errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--claim", required=True, help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--claim-seeds", type=seed_range, required=True, help="e.g. 71-80: one pair per seed")
    parser.add_argument("--other-seeds", type=seed_range, default=[], help="seeds for every other workload")
    parser.add_argument("--trace-workloads", nargs="*", default=[])
    parser.add_argument("--note", default="", help="what the two sides differ in")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    claim_workload, _, claim_metric = args.claim.partition(":")
    if claim_workload not in workloads or claim_metric not in better:
        parser.error(f"unknown claim {args.claim!r}")

    if not same_harness(checkouts["parent"], checkouts["change"]):
        parser.error("perfbench/ or BENCHMARK.json differ between the checkouts")
    command = f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0`"
    note = (
        f"{args.note} Every run is {command} from the root of each checkout; its last stdout line "
        f"is the source of each number. perfbench/ and BENCHMARK.json are the same on both sides. "
        f"Times are probe-normalized by "
        f"run.py. The claim runs use seeds {seed_text(args.claim_seeds)}"
        + (f", the other workloads seeds {seed_text(args.other_seeds)}." if args.other_seeds else ".")
        + " Written by scripts/bench_pairs.py."
    ).strip()
    out = {"note": note, "machine": machine()}
    failed = []
    pairs, kept = paired_runs(checkouts, claim_workload, args.claim_seeds, seconds, failed)
    if pairs:
        out["claim"] = claim_rows(pairs, kept, claim_workload, claim_metric, better[claim_metric])
    if args.other_seeds:
        out["workloads"] = {}
        for w in workloads:
            if w != claim_workload:
                pairs_w, kept_w = paired_runs(checkouts, w, args.other_seeds, seconds, failed)
                if pairs_w:
                    out["workloads"][w] = workload_rows(pairs_w, kept_w)
    if args.trace_workloads:
        out["per_layer_trace1"] = {
            "note": f"two --trace 1 runs per side and workload, seed {TRACE_SEED}, in the order "
                    "parent, change, change, parent; each value is the mean of a side's two runs "
                    "(a metric equal in both keeps its value); self times are raw seconds of one "
                    "traced pass (median over traced passes); metrics that read 0 on both sides "
                    "are left out",
        }
        for w in args.trace_workloads:
            try:
                out["per_layer_trace1"][w] = traced_rows(checkouts, w, TRACE_SEED, seconds)
            except RunFailed as exc:
                failed.append(exc.run)
    if failed:
        out["failed_runs"] = failed
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    if "claim" in out:
        claim = out["claim"]
        print(f"{claim_workload} {claim_metric}: parent {claim['parent']['median']} -> change "
              f"{claim['change']['median']}, change wins {claim['change_wins']}, "
              f"parent IQR {claim['parent_iqr']}, median difference {claim['median_difference']}")
    if failed:
        first = failed[0]
        sys.exit(f"error: {first['side']} run of {first['workload']} seed {first['seed']} "
                 f"exited {first['exit_code']}: {first['stderr']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

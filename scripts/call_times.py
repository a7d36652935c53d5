#!/usr/bin/env python3
"""Raw per-call times of two entcap checkouts' benchmark calls, side by side.

Usage, with each checkout made by ``git archive REV | tar -x -C DIR``:

    python3 scripts/call_times.py PARENT CHANGE [--workload W ...]

Each of ``ROUNDS`` rounds starts one fresh interpreter per checkout, the
parent first in even rounds and the change first in odd ones.  An
interpreter builds the calls of each workload (all of them by default)
from its checkout's ``perfbench/workloads.py`` ``BUILDERS`` at seed
``SEED``, runs one warm-up pass and one timed pass, and checks every
answer against the call's ``expected`` (and its ``verify``, if any)
outside the timing.  A wrong answer or a crash exits 1 with one line
naming it.

One line per call follows: the minimum and median milliseconds over the
rounds on each side, the change's median over the parent's, and
``<probe`` when the change's median is under the ``PROBE_INTERVAL_S`` of
the change's ``perfbench/run.py``, i.e. when a perfbench run may take
no probe sample inside that call.  After the table, one line flags each
workload and side whose calls all have medians under that side's
``PROBE_INTERVAL_S``: a perfbench run of it samples the probe only when
the host stalls a call, and a run with no sample exits 1.  The times are
raw: no probe normalizes them, so compare sides only within one run of
this script.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 7
SEED = 1
SIDES = ("parent", "change")


def child(root: Path, names: list[str]) -> int:
    """Time ``root``'s calls of ``names``; print ``{workload: [[label, s], ...]}``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    entcap = sys.modules.get("entcap")
    if entcap is not None and Path(entcap.__file__).resolve().parent != root / "src" / "entcap":
        print(f"imported entcap from {entcap.__file__}, not {root}", file=sys.stderr)
        return 1
    out = {}
    for name in names or list(workloads.BUILDERS):
        if name not in workloads.BUILDERS:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        calls = workloads.BUILDERS[name](root, SEED)
        for _ in range(2):  # a warm-up pass, then the timed one
            times = []
            for call in calls:
                start = time.perf_counter()
                result = call.run()
                times.append(time.perf_counter() - start)
                got = call.observe(result)
                if got != call.expected:
                    print(f"{name} {call.label}: got {got!r}, expected {call.expected!r}",
                          file=sys.stderr)
                    return 1
                if call.verify is not None and not call.verify(result):
                    print(f"{name} {call.label}: witness does not re-check", file=sys.stderr)
                    return 1
        out[name] = [[call.label, t] for call, t in zip(calls, times)]
    print(json.dumps(out))
    return 0


def probe_interval(root: Path) -> float:
    """``PROBE_INTERVAL_S`` as assigned in ``root``'s ``perfbench/run.py``."""
    tree = ast.parse((root / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROBE_INTERVAL_S" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"no PROBE_INTERVAL_S in {root / 'perfbench' / 'run.py'}")


def run_side(root: Path, side: str, names: list[str]) -> dict:
    # One BLAS thread, as perfbench/run.py sets for its runs.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(root), *names],
        cwd=root, capture_output=True, text=True, env=env,
    )
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        sys.exit(f"error: {side} exited {proc.returncode}: {last[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(Path(argv[1]).resolve(), argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", default=[], help="repeat for several; default all")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {side: {} for side in SIDES}  # side -> (workload, index, label) -> seconds per round
    for i in range(ROUNDS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            for name, calls in run_side(roots[side], side, args.workload).items():
                for j, (label, seconds) in enumerate(calls):
                    times[side].setdefault((name, j, label), []).append(seconds)
    intervals = {side: probe_interval(roots[side]) for side in SIDES}
    print(f"{'workload':<16} {'call':<34} {'parent min':>10} {'median':>8} "
          f"{'change min':>10} {'median':>8} {'ratio':>6}  (ms, {ROUNDS} rounds)")
    for key, parent in times["parent"].items():
        change = times["change"].get(key)
        if change is None:
            sys.exit(f"error: the change has no call {key[2]!r} in {key[0]}")
        p_med, c_med = statistics.median(parent), statistics.median(change)
        mark = "  <probe" if c_med < intervals["change"] else ""
        print(f"{key[0]:<16} {key[2]:<34} {min(parent) * 1e3:10.2f} {p_med * 1e3:8.2f} "
              f"{min(change) * 1e3:10.2f} {c_med * 1e3:8.2f} {c_med / p_med:6.3f}{mark}")
    for side in SIDES:
        slowest = {}  # workload -> its slowest call's median
        for (name, _, _), seconds in times[side].items():
            slowest[name] = max(slowest.get(name, 0.0), statistics.median(seconds))
        for name, median in slowest.items():
            if median < intervals[side]:
                print(f"{side} {name}: every call's median is under the "
                      f"{intervals[side] * 1e3:g} ms probe interval; a perfbench/run.py run "
                      f"samples the probe only when the host stalls a call, and a run with "
                      f"no sample exits 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())

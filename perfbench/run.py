"""entcap benchmark: time a workload's calls into entcap, check every answer, print metrics.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload diamond-bounds --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --self-test

A run repeats passes over the workload's calls until their timed calls
would exceed ``--seconds`` (at least three passes), checking each answer
outside the timed region.  The first pass warms up and is not measured.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of traced passes with ``--trace 1``.
A human-readable summary goes to stderr.

On a shared host a busy neighbour slows pure-Python work by up to 2x,
for stretches of seconds to whole runs, so raw times follow the
neighbour's load more than the code.  While a call runs, a timer
therefore interrupts it every 50 ms to time a fixed probe that does not
touch entcap (:class:`Probe`); the probe's time is taken out of the
call's.  The run's slowdown is the probe's mean time over
``PROBE_REFERENCE_S``, its time on a host running at full speed.
``solve_s`` is the mean time of a pass divided by that slowdown, and
``slowest_call_s`` the largest mean time of one call, divided likewise:
both are the times the calls take on the reference host at full speed.
``setup_s`` is the median of seven set-ups, this process's own and six in
fresh interpreters, each divided by the slowdown the probe shows right
after it; ``peak_rss_mb`` is this process's peak resident memory.  Traces are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("diamond-bounds", "rank-powers", "repeater-mincut", "reproduce")
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
PROBE_INTERVAL_S = 0.05  # how often the probe interrupts a running call
#: The probe's time at full speed: its fastest time (1.48 ms), rounded, on
#: the 2-core x86_64 host (Python 3.11.7, numpy 2.4.6) of perfbench/baseline.json.
PROBE_REFERENCE_S = 1.5e-3
PROBE_SETUP_RUNS = 30  # probe runs that gauge the host right after a set-up

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def setup(workload: str, seed: int):
    """Import entcap (numpy included), load fixtures and build the inputs.

    Returns the workload's calls and the seconds this took.
    """
    start = time.perf_counter()
    import workloads  # imports entcap and numpy

    calls = workloads.BUILDERS[workload](ROOT, seed)
    elapsed = time.perf_counter() - start
    import entcap

    if Path(entcap.__file__).resolve().parent != ROOT / "src" / "entcap":
        raise SystemExit(f"error: imported entcap from {entcap.__file__}, not this checkout")
    return calls, elapsed


def host_slowdown_now() -> float:
    """The host's slowdown just now: the probe's mean time over a few runs,
    over its time at full speed."""
    probe = Probe()
    times = []
    for _ in range(PROBE_SETUP_RUNS):
        start = time.perf_counter()
        probe.work()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times) / PROBE_REFERENCE_S


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def perturb(value):
    """The same answer with one entry changed, for the self-test."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return (perturb(value[0]), *value[1:])
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: perturb(value[key])}
    raise TypeError(f"cannot perturb {value!r}")


def check(call, result, expected) -> str | None:
    """None if the answer is right, else a one-line reason."""
    got = call.observe(result)
    if got != expected:
        return f"{call.label}: got {got!r}, expected {expected!r}"
    if call.verify is not None and not call.verify(result):
        return f"{call.label}: witness does not re-check"
    return None


class Probe:
    """Times a fixed piece of work from a SIGALRM handler while :meth:`sampling`.

    The work is one to two milliseconds of what entcap's loops do, without
    calling entcap: integer arithmetic, tuple packing and dict stores, then
    scalar reads from a small numpy array.  ``spent`` adds up the seconds
    spent in the handler, so that they can be taken out of the time of the
    call it interrupted.
    """

    def __init__(self):
        import numpy as np  # here, so that set-up times its import

        self.array = np.random.default_rng(0).integers(0, 2**31 - 1, size=(8, 27, 8))
        self.times: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def work(self) -> int:
        acc, table = 0, {}
        for i in range(5_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = (acc, i)
        for i in range(1_500):
            acc = acc * int(self.array[i & 7, i % 27, (i >> 3) & 7]) % 2_147_483_647
        return acc

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.work()
        self.times.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class Pass:
    """One pass over a workload's calls; traced when ``tracer`` is given."""

    def __init__(self, calls, probe: Probe, tracer=None):
        self.tracer = tracer
        self.times, self.results, self.errors = [], [], []
        first_probe = len(probe.times)
        for call in calls:
            spent = probe.spent
            start = time.perf_counter()
            try:
                with probe.sampling(), tracer.top(call) if tracer else nullcontext():
                    result = call.run()
            except Exception as exc:  # a raising call counts as failed; the run goes on
                result = exc
            self.times.append(time.perf_counter() - start - (probe.spent - spent))
            self.results.append(result)
        self.probes = probe.times[first_probe:]

    def check(self, calls):
        for call, result in zip(calls, self.results):
            if isinstance(result, Exception):
                self.errors.append(f"{call.label}: raised {type(result).__name__}: {result}")
            else:
                reason = check(call, result, call.expected)
                if reason:
                    self.errors.append(reason)

    @property
    def solve_s(self) -> float:
        return sum(self.times)


def slowdown(passes) -> float:
    """The probe's mean time during ``passes`` over its time at full speed."""
    return statistics.fmean(t for p in passes for t in p.probes) / PROBE_REFERENCE_S


def call_seconds(passes) -> list[float]:
    """Each call's mean time over ``passes``, divided by their slowdown."""
    host = slowdown(passes)
    return [statistics.fmean(times) / host for times in zip(*(p.times for p in passes))]


def run_passes(calls, seconds: float, pattern, min_passes: int):
    """Run passes, traced or not as ``pattern`` cycles, for ``seconds`` of timed calls.

    ``min_passes`` always run; more run while another pass is expected to
    fit in ``seconds``.  Answer checks are not timed and do not count.
    """
    from spans import Tracer

    probe = Probe()
    passes = []
    while True:
        if pattern[len(passes) % len(pattern)]:
            with Tracer() as tracer:
                p = Pass(calls, probe, tracer)
        else:
            p = Pass(calls, probe)
        p.check(calls)
        passes.append(p)
        measured = sum(q.solve_s for q in passes)
        if len(passes) >= min_passes and measured + statistics.median(q.solve_s for q in passes) > seconds:
            return passes


def end_to_end(passes, setup_samples, attempted, failed) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seconds = call_seconds(passes[1:])
    values = {
        "solve_s": sum(seconds),
        "slowest_call_s": max(seconds),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kb / 1024,
        "correct_frac": (attempted - failed) / attempted,
    }
    units = _units("end_to_end")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(passes, workload, seed) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced passes, plus count mismatches.

    Self times are raw seconds and include the probe's share (about 2%) in
    whichever span it interrupted.
    """
    import spans
    import workloads

    traced = [p for p in passes[1:] if p.tracer]
    plain = [p for p in passes[1:] if not p.tracer]
    units = _units("per_layer")
    rows = [spans.layer_metrics(p.tracer.spans, workloads.variant_of) for p in traced]
    counts = [{k: v for k, v in r.items() if units[k] == "count"} for r in rows]
    mismatches = [f"work counts differ between traced passes: {c} vs {counts[0]}" for c in counts[1:] if c != counts[0]]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    values.update(counts[0])  # exact integers, equal in every traced pass
    values["trace_overhead_frac"] = sum(call_seconds(traced)) / sum(call_seconds(plain)) - 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-{seed}.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "counts": counts[0],
                "passes": [spans.to_json(p.tracer.spans) for p in traced],
            }
        )
    )
    return {k: {"value": values[k], "unit": units[k]} for k in units}, mismatches


def run_workload(args) -> int:
    calls, first_setup = setup(args.workload, args.seed)
    first_setup /= host_slowdown_now()
    if args.setup_only:
        print(first_setup)
        return 0
    passes = run_passes(calls, args.seconds, *(((True, False), 3) if args.trace else ((False,), 3)))
    errors = [e for p in passes for e in p.errors]
    attempted = sum(len(p.times) for p in passes)
    failed = len(errors)
    if args.trace:
        metrics, mismatches = per_layer(passes, args.workload, args.seed)
        errors += mismatches
    else:
        samples = [first_setup] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(passes, samples, attempted, failed)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {attempted} calls, {failed} failed "
          f"(failed_frac = {failed}/{attempted}), host slowdown {slowdown(passes[1:]):.3f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all_workloads(args) -> int:
    """Each workload in its own process, one after another; a table on stdout."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    for w, r in results.items():
        print(f"{w}  correct={r['correct']}  failed_frac={r['failed']}/{r['attempted']}")
        for name in names:
            m = r["metrics"][name]
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_test() -> int:
    """Each workload's gate passes its first call and fails it with one expected value perturbed."""
    ok = True
    probe = Probe()
    for w in WORKLOADS:
        calls, _ = setup(w, 0)
        fracs = []
        for call in (calls[0], replace(calls[0], expected=perturb(calls[0].expected))):
            p = Pass([call], probe)
            p.check([call])
            fracs.append(len(p.errors) / len(p.times))
        good = fracs == [0, 1]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {w}: failed_frac {fracs[0]:g} with the true answer, "
              f"{fracs[1]:g} with {calls[0].label} perturbed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entcap" / "__init__.py").is_file() or BENCH is None:
        print(f"error: {ROOT} is not an entcap source checkout with BENCHMARK.json", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread; children inherit it
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

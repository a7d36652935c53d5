"""scripts/bench_pairs.py summarises paired perfbench runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("side", ["parent", "change"])
def test_summary_matches_recorded_quartiles(bench_pairs, side):
    recorded = json.loads((ROOT / "BENCH_search_prune.json").read_text())["claim"][side]
    assert bench_pairs.summary(recorded["runs"]) == recorded


def test_claim_counts_pairs_won(bench_pairs):
    def result(solve_s):
        return {"failed": 0, "metrics": {"solve_s": {"value": solve_s}, "setup_s": {"value": 0.1}}}

    pairs = [{"parent": result(p), "change": result(c)} for p, c in [(2, 1), (2, 3), (4, 1)]]
    claim = bench_pairs.claim_rows(pairs, [1, 2, 3], "w", "solve_s", "lower")
    assert claim["change_wins"] == "2/3"
    assert (claim["parent"]["median"], claim["change"]["median"]) == (2, 1)
    assert claim["median_difference"] == 1
    assert list(claim["other_metrics"]) == ["setup_s"]


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("71-74") == [71, 72, 73, 74]
    assert bench_pairs.seed_range("5") == [5]


def test_refuses_checkouts_with_different_harness(bench_pairs, tmp_path):
    bench = {"run_seconds": 26, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "solve_s", "better": "lower"}]}
    for side, seconds in (("parent", 26), ("change", 8)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": seconds}))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--claim", "w:solve_s", "--claim-seeds", "1", "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "out.json").exists()


def test_failed_run_exits_1_with_one_line(bench_pairs, tmp_path):
    bench = {"run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "solve_s", "better": "lower"}]}
    run_py = ("import sys\n"
              "print('Traceback (most recent call last):', file=sys.stderr)\n"
              "print('statistics.StatisticsError: fmean requires at least one data point', file=sys.stderr)\n"
              "sys.exit(1)\n")
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
        (tmp_path / side / "perfbench" / "run.py").write_text(run_py)
    out = tmp_path / "BENCH_out.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--claim", "w:solve_s", "--claim-seeds", "7", "--out", str(out)])
    assert exc.value.code == ("error: parent run of w seed 7 exited 1: "
                              "statistics.StatisticsError: fmean requires at least one data point")
    # The file is still written, with both failed runs and no claim.
    written = json.loads(out.read_text())
    assert "claim" not in written
    assert [(r["side"], r["seed"], r["exit_code"]) for r in written["failed_runs"]] == [
        ("parent", 7, 1), ("change", 7, 1)
    ]


def test_one_failed_seed_keeps_the_other_pairs(bench_pairs, tmp_path):
    bench = {"run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "solve_s", "better": "lower"}]}
    # Seeds listed in a checkout's fail.json crash; any other prints solve_s = seed / 10.
    run_py = ("import json, sys\n"
              "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
              "if seed in json.load(open('fail.json')):\n"
              "    print('statistics.StatisticsError: fmean requires at least one data point', file=sys.stderr)\n"
              "    sys.exit(1)\n"
              "print(json.dumps({'failed': 0, 'metrics': {'solve_s': {'value': seed / 10}}}))\n")
    for side, fail in (("parent", []), ("change", [8])):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
        (tmp_path / side / "perfbench" / "run.py").write_text(run_py)
        (tmp_path / side / "fail.json").write_text(json.dumps(fail))
    out = tmp_path / "BENCH_out.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                          "--claim", "w:solve_s", "--claim-seeds", "7-9", "--out", str(out)])
    assert exc.value.code.startswith("error: change run of w seed 8 exited 1: ")
    written = json.loads(out.read_text())
    claim = written["claim"]
    assert claim["seeds"] == [7, 9]
    assert claim["parent"]["runs"] == claim["change"]["runs"] == [0.7, 0.9]
    assert claim["change_wins"] == "0/2"
    assert [(r["side"], r["workload"], r["seed"]) for r in written["failed_runs"]] == [("change", "w", 8)]


def test_traced_rows_average_runs_taken_parent_change_change_parent(bench_pairs, tmp_path):
    counter = tmp_path / "calls"
    counter.write_text("0")
    # Each run prints a metric equal to the number of runs so far, as a drifting host would.
    run_py = (
        "import json, pathlib\n"
        f"counter = pathlib.Path({str(counter)!r})\n"
        "calls = int(counter.read_text()) + 1\n"
        "counter.write_text(str(calls))\n"
        "print(json.dumps({'metrics': {'m': {'value': calls}, 'exact': {'value': 7}, 'zero': {'value': 0}}}))\n"
    )
    checkouts = {}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(run_py)
        checkouts[side] = tmp_path / side
    rows = bench_pairs.traced_rows(checkouts, "w", 1, 1)
    assert rows == {"parent": {"m": 2.5, "exact": 7}, "change": {"m": 2.5, "exact": 7}}
    assert isinstance(rows["parent"]["exact"], int)
    assert counter.read_text() == "4"

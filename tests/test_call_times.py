"""scripts/call_times.py times two checkouts' benchmark calls in alternating fresh interpreters."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "call_times.py"

# A checkout's workloads: one instant call whose answer is ANSWER, and one
# 10 ms call.  Each import appends the checkout's name to a shared log.
WORKLOADS_PY = """\
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

with open({log!r}, "a") as fh:
    fh.write({side!r} + "\\n")

ANSWER = {answer}


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[], Any]
    observe: Callable[[Any], Any]
    expected: Any
    verify: Callable[[Any], bool] | None = None


def quick(root, seed):
    return [
        Call(f"answer(seed {{seed}})", lambda: ANSWER, lambda got: got, 42),
        Call("sleep", lambda: time.sleep(0.01), lambda got: got, None),
    ]


BUILDERS = {{"quick": quick}}
"""


@pytest.fixture(scope="module")
def call_times():
    spec = importlib.util.spec_from_file_location("call_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path, answers, interval=0.005):
    log = tmp_path / "order.log"
    for side, answer in answers.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "workloads.py").write_text(
            WORKLOADS_PY.format(log=str(log), side=side, answer=answer)
        )
        (tmp_path / side / "perfbench" / "run.py").write_text(f"PROBE_INTERVAL_S = {interval}\n")
    return [str(tmp_path / side) for side in answers], log


def test_one_line_per_call_with_probe_mark(call_times, tmp_path, capsys):
    sides, log = _checkouts(tmp_path, {"parent": 42, "change": 42})
    assert call_times.main(sides) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("workload")
    answer, sleep = lines[1].split(), lines[2].split()
    assert answer[:3] == ["quick", "answer(seed", "1)"] and answer[-1] == "<probe"
    assert sleep[:2] == ["quick", "sleep"] and sleep[-1] != "<probe"
    # Parent min and median, change min and median, in ms; the 10 ms call is timed.
    assert all(float(x) >= 10 for x in sleep[2:6])
    # Rounds alternate which side starts, the parent first in round 0.
    assert log.read_text().split() == ["parent", "change", "change", "parent"] * 3 + ["parent", "change"]


def test_workload_under_the_probe_flagged_per_side(call_times, tmp_path, capsys):
    # Both calls, the instant one and the 10 ms one, end under a 50 ms probe.
    sides, _ = _checkouts(tmp_path, {"parent": 42, "change": 42}, interval=0.05)
    assert call_times.main(sides) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.endswith("<probe") for line in lines[1:3])
    for side, line in zip(("parent", "change"), lines[3:]):
        assert line.startswith(f"{side} quick: every call's median is under the 50 ms probe")
        assert line.endswith("a run with no sample exits 1")


def test_wrong_answer_exits_1_with_one_line(call_times, tmp_path):
    sides, _ = _checkouts(tmp_path, {"parent": 42, "change": 41})
    with pytest.raises(SystemExit) as exc:
        call_times.main(sides)
    assert exc.value.code == "error: change exited 1: quick answer(seed 1): got 41, expected 42"

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from entcap import codingsearch
from entcap.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_FAIL, EXIT_OK, build_parser, main
from entcap.fixtures import FIXTURE_NAMES, diamond_network, fixture, fixture_text, path_network
from entcap.netmodel import Edge, dump_network, network, orient, tensor_power
from entcap.reproduce import CLAIMS
from entcap.transforms import SplitSpec, split_cycle_edge
from networks import GRID_2X2, GRID_2X3, oriented_path


def _n_d5_4_two_sinks() -> str:
    """The n_d5_4 diamond with a second sink t2 joined to t by two dim-1 edges."""
    obj = json.loads(fixture_text("n_d5_4"))
    obj["vertices"].append("t2")
    obj["sinks"].append("t2")
    obj["edges"] += [
        {"id": "x", "u": "t", "v": "t2", "dim": 1},
        {"id": "y", "u": "t2", "v": "t", "dim": 1},
    ]
    return json.dumps(obj)


def _all_uv_diamond() -> str:
    """The (2,3,3,2,4) diamond with every edge u -> v: directed MC 4, rank 6."""
    net = diamond_network(2, 3, 3, 2, 4)
    return dump_network(orient(net, {e.id: "uv" for e in net.edges}))


def _two_way_relays() -> str:
    """s - a, a -> b, b -> a, b - t, all dim 2: every orientation has the
    cycle a -> b -> a, and a split of either edge is refused (parallel edge)."""
    return dump_network(
        network(
            ["s", "a", "b", "t"],
            [
                Edge("sa", "s", "a", 2),
                Edge("ab", "a", "b", 2, "uv"),
                Edge("ba", "b", "a", 2, "uv"),
                Edge("bt", "b", "t", 2),
            ],
            ["s"],
            ["t"],
        )
    )


def _dead_edge(dim) -> str:
    """s -> t of dim 2 plus an edge a -> b of dim ``dim`` that no message
    reaches: the search ignores a and b, but a witness holds a table for
    b of ``dim`` entries."""
    edges = [Edge("ab", "a", "b", dim, "uv"), Edge("st", "s", "t", 2, "uv")]
    return dump_network(network(["s", "a", "b", "t"], edges, ["s"], ["t"]))


#: Network files that are not shipped fixtures.
_EXTRA_FILES = {
    "n_d5_4_two_sinks": _n_d5_4_two_sinks(),
    "all_uv_diamond": _all_uv_diamond(),
    "n_d5_4_split_d5_2_2": dump_network(
        split_cycle_edge(fixture("n_d5_4"), SplitSpec("d5", 2, 2))
    ),
    "two_way_relays": _two_way_relays(),
    "st_dim_1e19": dump_network(oriented_path(10**19)),
    "snt_dim_1e19": dump_network(oriented_path(10**19, 10**19)),
    "dead_edge_1e19": _dead_edge(10**19),
    "st_dim_1000": dump_network(path_network(1000)),
    "snt_dims_500_500": dump_network(path_network(500, 500)),
    "snt_uv_dims_500_500": dump_network(oriented_path(500, 500)),
    "st_uv_dim_1000": dump_network(oriented_path(1000)),
    "path_150_dim_8": dump_network(oriented_path(*[8] * 150)),
    "grid_2x2": dump_network(GRID_2X2),
    "grid_2x3": dump_network(GRID_2X3),
}


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(_EXTRA_FILES.get(name) or fixture_text(name))
        return str(path)

    return write


def _path_2_3(**fields) -> str:
    """The path_2_3 network file with ``fields`` replaced."""
    obj = json.loads(fixture_text("path_2_3"))
    obj.update(fields)
    return json.dumps(obj)


_E0, _E1 = json.loads(fixture_text("path_2_3"))["edges"]


@pytest.fixture
def all_uv_diamond(fixture_file):
    return fixture_file("all_uv_diamond")


#: Network files the loader must refuse, by kind of fault.
MALFORMED_FILES = {
    "edges-5": _path_2_3(edges=5),
    "edges-value1": _path_2_3(edges=[5]),
    "stage_pairs-value2": _path_2_3(stage_pairs=[["a"]]),
    "vertices-st": _path_2_3(vertices="st"),
    "dim-0": _path_2_3(edges=[{**_E0, "dim": 0}, _E1]),
    "duplicate-edge-id": _path_2_3(edges=[_E0, {**_E1, "id": _E0["id"]}]),
    "source-is-sink": _path_2_3(sinks=["t", "s"]),
    "duplicate-source": _path_2_3(sources=["s", "s"]),
    "duplicate-sink": _path_2_3(sinks=["t", "t"]),
    "dim-5001-digits": _path_2_3(edges=[{**_E0, "dim": -1}, _E1]).replace(
        "-1", "9" * 5001
    ),
    "not-utf8": b"\xff\xfe" + fixture_text("path_2_3").encode("utf-16-le"),
    "nested-array-100000": "[" * 100_000,
    "nested-object-100000": '{"a":' * 100_000,
}

#: Every subcommand that reads a network file, with arguments it accepts.
NETWORK_COMMANDS = [
    "mincut",
    "rank",
    "c1 --l 2",
    "bounds",
    "transform --op power:2",
    "transform --op scale:2",
    "transform --op split:d5:2:2",
    "transform --op round:2",
]


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


#: ``entcap mincut`` output on every shipped fixture and two derived
#: networks: the value and the smallest sorted source side among minimizers.
MINCUT_STDOUT = [
    ("fig2_counterexample", 15, ["n1", "n2", "s"]),
    ("n_d5_2", 6, ["n1", "n2", "s"]),
    ("n_d5_3", 6, ["n1", "n2", "s"]),
    ("n_d5_4", 6, ["n1", "n2", "s"]),
    ("n4_split_2x2", 6, ["n1_early", "n1_late", "n2_early", "n2_late", "s"]),
    ("n2_up", 6, ["n1_early", "n1_late", "n2_early", "n2_late", "s"]),
    ("path_2_3", 2, ["s"]),
    ("path_3_3", 3, ["n1", "s"]),
    ("fig1_scaled_k2", 24, ["n1", "n2", "s"]),
    ("fig1_scaled_k3", 54, ["n1", "n2", "s"]),
    ("n_d5_4_split_d5_2_2", 6, ["n1_early", "n1_late", "n2_early", "n2_late", "s"]),
    ("all_uv_diamond", 4, ["n2", "s"]),
]


def _run_under_memory_limit(code, *args):
    """``python -c code args`` in a child process, and only there, under
    an 800 MB address-space limit with one BLAS thread."""
    limit = 800 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120,
    )


def _sweep_networks():
    """(name, dim, file text) of each sweep network from s to t: s -> t,
    s -> n -> t, the diamond, s -> n -> t with a self-loop on n, and s -> t
    of dim 2 beside an edge a -> b that nothing reaches.  Each is written
    all undirected and all u -> v, every other edge of dim 10^12 or 10^19;
    edges are named e0, e1, ... in the order listed."""
    files = []
    for orientation, dim in itertools.product(("undirected", "uv"), (10**12, 10**19)):
        shapes = {
            "st": [("s", "t", dim)],
            "snt": [("s", "n", dim), ("n", "t", dim)],
            "diamond": [("s", "n1", dim), ("s", "n2", dim), ("n1", "t", dim),
                        ("n2", "t", dim), ("n1", "n2", dim)],
            "self_loop": [("s", "n", dim), ("n", "t", dim), ("n", "n", dim)],
            "dead_edge": [("s", "t", 2), ("a", "b", dim)],
        }
        for shape, hops in shapes.items():
            edges = [Edge(f"e{i}", u, v, d, orientation) for i, (u, v, d) in enumerate(hops)]
            vertices = sorted({end for e in edges for end in (e.u, e.v)})
            net = network(vertices, edges, ["s"], ["t"])
            files.append((f"{shape}-{orientation}-{dim}", dim, dump_network(net)))
    return files


#: The sweep's commands; ``{dim}`` is the sweep's dimension.
SWEEP_COMMANDS = [
    "mincut",
    "rank",
    "c1 --l 2",
    "c1 --exact-up-to 3",
    "bounds",
    "transform --op power:2",
    "transform --op round:2",
    "transform --op scale:3",
    "transform --op split:e4:1:{dim}",
]

#: The sweep's child: runs ``cli.main`` in-process on each argv of the JSON
#: list in argv[1] and prints [argv, exit code, stdout, stderr] for each.
_SWEEP_CHILD = """
import contextlib, io, json, sys
from entcap.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # MemoryError included: a finding, not the end
            code = repr(exc)
    results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


class TestMincut:
    def test_fig2(self, capsys, fixture_file):
        code, out, _ = run(capsys, ["mincut", fixture_file("fig2_counterexample")])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["min_cut"] == 15
        assert obj["witness"] == ["n1", "n2", "s"]

    @pytest.mark.parametrize("name, value, witness", MINCUT_STDOUT)
    def test_pinned_stdout(self, capsys, fixture_file, name, value, witness):
        code, out, _ = run(capsys, ["mincut", fixture_file(name)])
        assert code == EXIT_OK
        assert out == json.dumps({"min_cut": value, "witness": witness}, indent=2) + "\n"

    def test_pins_cover_every_fixture(self):
        assert set(FIXTURE_NAMES) <= {name for name, _, _ in MINCUT_STDOUT}

    def test_byte_identical_reruns(self, capsys, fixture_file):
        path = fixture_file("n_d5_3")
        _, out1, _ = run(capsys, ["mincut", path])
        _, out2, _ = run(capsys, ["mincut", path])
        assert out1 == out2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["mincut", "/nonexistent.json"])
        assert code == EXIT_BAD_INPUT
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["mincut", str(path)])
        assert code == EXIT_BAD_INPUT

    def test_unknown_field(self, capsys, tmp_path):
        obj = json.loads(fixture_text("path_2_3"))
        obj["surprise"] = True
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["mincut", str(path)])
        assert code == EXIT_BAD_INPUT
        assert "unknown network fields" in err


class TestRank:
    def test_path(self, capsys, fixture_file):
        code, out, _ = run(capsys, ["rank", fixture_file("path_3_3")])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["r1_lower"] == 3
        assert obj["mc_upper"] == 3

    def test_fig2_with_trials(self, capsys, fixture_file):
        code, out, _ = run(
            capsys,
            ["rank", fixture_file("fig2_counterexample"), "--trials", "5", "--seed", "0"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["r1_lower"] == 14

    def test_seed_determinism(self, capsys, fixture_file):
        path = fixture_file("n_d5_2")
        _, out1, _ = run(capsys, ["rank", path, "--seed", "3"])
        _, out2, _ = run(capsys, ["rank", path, "--seed", "3"])
        assert out1 == out2

    def test_directed_input_mc_upper_ignores_orientation(self, capsys, all_uv_diamond):
        code, out, _ = run(capsys, ["rank", all_uv_diamond])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["r1_lower"], obj["mc_upper"]) == (6, 6)

    def test_composite_prime_rejected(self, capsys, fixture_file):
        code, _, err = run(capsys, ["rank", fixture_file("path_2_3"), "--prime", "100"])
        assert code == EXIT_BAD_INPUT
        assert err.startswith("error:")

    def test_trials_at_the_cap_prints(self, capsys, fixture_file):
        # fig2's R1 of 14 is below its MC of 15, so all 256 trials run.
        code, out, _ = run(capsys, ["rank", fixture_file("fig2_counterexample"), "--trials", "256"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["r1_lower"], obj["trials"]) == (14, 256)
        assert obj["failure_bound"].endswith(f"/{(2**31 - 1) ** 256}")


class TestC1:
    def test_witness(self, capsys, fixture_file):
        code, out, _ = run(
            capsys,
            ["c1", fixture_file("n4_split_2x2"), "--l", "6"],
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["status"] == "witness"
        assert obj["witness"]["l"] == 6

    def test_exact_scan(self, capsys, fixture_file):
        code, out, _ = run(
            capsys,
            ["c1", fixture_file("n2_up"), "--exact-up-to", "8"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["c1"] == 5

    def test_budget_flag(self, capsys, fixture_file):
        code, _, err = run(
            capsys,
            [
                "c1",
                fixture_file("n4_split_2x2"),
                "--l",
                "6",
                "--budget",
                "3",
            ],
        )
        assert code == EXIT_BUDGET

    def test_budget_env_is_not_read(self, capsys, fixture_file, monkeypatch):
        # --budget is the one way to set the budget: an ENTCAP_BUDGET of 3
        # would stop this 42-assignment search.
        monkeypatch.setenv("ENTCAP_BUDGET", "3")
        code, out, _ = run(
            capsys,
            ["c1", fixture_file("n4_split_2x2"), "--l", "6"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["assignments"] == 42

    def test_exhausted_scan_exits_3_with_best_known(self, capsys, fixture_file):
        code, out, err = run(
            capsys, ["c1", fixture_file("n2_up"), "--exact-up-to", "8", "--budget", "10"]
        )
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == "error: budget exhausted at l=3 (best known 2)\n"

    # s -> n1 -> t of dims (500, 500): at l = 500 a search could nest 1001
    # calls, past the recursion limit, but the budget ends it near message
    # 62, so it exits 3 as any exhausted search does.
    @pytest.mark.parametrize(
        "args, err",
        [
            ("--l 500", "error: search budget exceeded\n"),
            ("--exact-up-to 500", "error: budget exhausted at l=62 (best known 61)\n"),
        ],
    )
    def test_budget_ends_a_deep_search(self, capsys, fixture_file, args, err):
        argv = ["c1", fixture_file("snt_uv_dims_500_500"), *args.split(), "--budget", "2000"]
        assert run(capsys, argv) == (EXIT_BUDGET, "", err)

    def test_table_space_past_float_range(self, capsys, tmp_path):
        # Raw table space 200^3 * 200^(200*200), far above 1e308.
        path = tmp_path / "path_200_200.json"
        edges = [{**e, "dim": 200, "orientation": "uv"} for e in (_E0, _E1)]
        path.write_text(_path_2_3(edges=edges))
        code, out, _ = run(capsys, ["c1", str(path), "--l", "3"])
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "witness"

    def test_undirected_input_rejected(self, capsys, fixture_file):
        code, _, err = run(capsys, ["c1", fixture_file("n_d5_2"), "--l", "2"])
        assert code == EXIT_BAD_INPUT
        assert "undirected" in err


class TestRejectedWitness:
    """A witness that fails its ``is_valid`` re-check exits 1 with one line."""

    @pytest.mark.parametrize(
        "command, name, args",
        [
            ("c1", "n2_up", "--l 5"),
            ("c1", "n2_up", "--exact-up-to 8"),
            ("bounds", "path_3_3", ""),
        ],
    )
    def test_exit_1_with_one_error_line(
        self, capsys, fixture_file, monkeypatch, command, name, args
    ):
        monkeypatch.setattr(codingsearch, "is_valid", lambda net, pt: False)
        code, out, err = run(capsys, [command, fixture_file(name), *args.split()])
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "searched witness is not valid" in err


class TestTransform:
    def test_split(self, capsys, fixture_file):
        code, out, _ = run(
            capsys,
            ["transform", fixture_file("n_d5_4"), "--op", "split:d5:2:2"],
        )
        assert code == EXIT_OK
        assert out.strip() == fixture_text("n4_split_2x2").strip()

    def test_power(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, ["transform", fixture_file("n_d5_2"), "--op", "power:2"]
        )
        assert code == EXIT_OK
        dims = [e["dim"] for e in json.loads(out)["edges"]]
        assert dims == [4, 9, 9, 4, 4]

    def test_scale(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, ["transform", fixture_file("n_d5_2"), "--op", "scale:2"]
        )
        assert code == EXIT_OK
        assert out.strip() == fixture_text("fig1_scaled_k2").strip()

    def test_round(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, ["transform", fixture_file("n_d5_2"), "--op", "round:2"]
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert [e["dim"] for e in obj["lower"]["edges"]] == [4, 8, 8, 4, 4]
        assert [e["dim"] for e in obj["upper"]["edges"]] == [4, 16, 16, 4, 4]
        assert obj["c1"] == 2 and obj["c2"] == 2

    def test_bad_op(self, capsys, fixture_file):
        code, _, err = run(
            capsys, ["transform", fixture_file("n_d5_2"), "--op", "frobnicate:1"]
        )
        assert code == EXIT_BAD_INPUT


class TestBounds:
    def test_n4_point(self, capsys, fixture_file):
        code, out, _ = run(
            capsys,
            [
                "bounds",
                fixture_file("n_d5_4"),
                "--split",
                "d5:2:2",
            ],
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["q1"] == {"lower": 6, "upper": 6}
        assert obj["regularized"]["R"] == 6

    def test_n2_interval(self, capsys, fixture_file):
        code, out, _ = run(
            capsys,
            ["bounds", fixture_file("n_d5_2"), "--split", "d5:2:1"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["q1"] == {"lower": 5, "upper": 6}

    @pytest.mark.parametrize("name, c1", [("n2_up", 5), ("n4_split_2x2", 6)])
    def test_staged_fixture_rank_is_trusted(self, capsys, fixture_file, name, c1):
        # A stage pair is ranked as one tensor, so R1 = MC = 6 >= c1.
        code, out, err = run(capsys, ["bounds", fixture_file(name)])
        assert code == EXIT_OK, err
        obj = json.loads(out)
        assert (obj["mc"], obj["r1"]["lower"], obj["c1"][0]["c1"]) == (6, 6, c1)
        assert obj["q1"] == {"lower": c1, "upper": 6}

    def test_directed_input(self, capsys, all_uv_diamond):
        code, out, err = run(capsys, ["bounds", all_uv_diamond])
        assert code == EXIT_OK, err
        obj = json.loads(out)
        assert (obj["mc"], obj["r1"]["lower"]) == (6, 6)
        assert [(r["directed_mc"], r["c1"]) for r in obj["c1"]] == [(4, 4)]
        assert obj["q1"] == {"lower": 4, "upper": 6}

    def test_budget_ends_a_deep_search(self, capsys, fixture_file):
        # s - n1 - t of dims (500, 500): the budget ends the l = 500 search
        # and the scan near message 62, before the recursion limit.
        argv = ["bounds", fixture_file("snt_dims_500_500"), "--budget", "2000"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        obj = json.loads(out)
        variant = {"variant": "orient[e0=uv,e1=uv]", "directed_mc": 500}
        assert obj["c1"] == [{**variant, "c1": 61, "status": "budget_exceeded"}]
        assert obj["q1"] == {"lower": 61, "upper": 500}

    def test_wide_st_edge_is_counted(self, capsys, fixture_file):
        # An s-t edge of dim 1000 has no internal vertex, so its c1 is
        # counted, not searched: the search would nest past the recursion
        # limit at l = 1000 (``c1 --l 1000`` still refuses it).
        code, out, err = run(capsys, ["bounds", fixture_file("st_dim_1000")])
        assert (code, err) == (EXIT_OK, "")
        obj = json.loads(out)
        variant = {"variant": "orient[e0=uv]", "directed_mc": 1000}
        assert obj["c1"] == [{**variant, "c1": 1000, "status": "exact"}]
        assert obj["q1"] == {"lower": 1000, "upper": 1000}


    @pytest.mark.parametrize(
        "name, rows, budget_rows, digest",
        [
            ("grid_2x2", 14, 4, "f4853fb06d3b6b7d5007d16e0de68ad23ff28cfedbe8ba4f3b100aee6ef62674"),
            ("grid_2x3", 98, 6, "be0501142d36ea27b4163466f3c42c3994b11c89f5142798fe00db30240fd3d5"),
        ],
        ids=["grid_2x2", "grid_2x3"],
    )
    def test_grid_pinned(self, capsys, fixture_file, name, rows, budget_rows, digest):
        # Pinned as they are, budget rows included: a change that settles
        # a row changes this pin.
        code, out, err = run(capsys, ["bounds", fixture_file(name), "--budget", "20000"])
        assert (code, err) == (EXIT_OK, "")
        obj = json.loads(out)
        assert (obj["mc"], obj["r1"]["lower"], obj["r1"]["exact"]) == (15, 15, True)
        assert obj["q1"] == {"lower": 12, "upper": 15}
        assert len(obj["c1"]) == rows
        assert sum(r["status"] == "budget_exceeded" for r in obj["c1"]) == budget_rows
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBadArguments:
    @pytest.mark.parametrize(
        "command, name, args",
        [
            ("rank", "path_2_3", "--trials 0"),
            ("rank", "path_2_3", "--prime 9"),
            ("rank", "fig2_counterexample", "--prime 4294967311"),
            ("rank", "fig2_counterexample", "--prime 2305843009213693951"),
            ("rank", "path_2_3", "--seed -1"),
            ("bounds", "n_d5_4", "--split d5:x"),
            ("bounds", "path_2_3", "--trials 0"),
            # Above the trials cap: (D/p)^trials would pass the 4300-digit
            # print limit from 461 trials on fig2.
            ("rank", "fig2_counterexample", "--trials 257"),
            ("bounds", "n_d5_2", "--trials 257"),
            # One orientation rule: terminal edges point with the flow.
            ("bounds", "n_d5_2", "--full-orientations"),
            # Whether R1 is exact is worked out from the network, not set.
            ("bounds", "n_d5_2", "--r1-exact"),
            ("c1", "n2_up", "--l 0"),
            ("c1", "n2_up", "--l -3"),
            ("c1", "n2_up", "--budget 0"),
            # No shard flags: a partial search must never print as the
            # whole answer (a shard gave c1 4 for 5, impossible at l = 5).
            ("c1", "n2_up", "--shard-index 2 --shard-count 2"),
            ("c1", "n2_up", "--exact-up-to 6 --shard-index 2 --shard-count 3"),
            ("c1", "n2_up", "--l 5 --shard-index 2 --shard-count 3"),
            ("c1", "n2_up", "--exact-up-to 0"),
            # --exact-up-to scans its own l: a given --l, even 1, is refused.
            ("c1", "n2_up", "--l 6 --exact-up-to 3"),
            ("c1", "n2_up", "--l 1 --exact-up-to 3"),
            ("reproduce", None, "--budget x"),
            # Knobs with one sound value are gone: the search pins a
            # full-alphabet encoder itself, and claims run at full budget.
            ("c1", "n2_up", "--l 6 --fix-source-bijection"),
            ("reproduce", None, "--budget 5"),
            ("reproduce", None, "--all"),
            # Results with integers past Python's 4300-digit conversion limit.
            ("transform", "n_d5_2", "--op power:10000"),
            ("transform", "n_d5_2", "--op round:20000"),
            # Refused before dim**N is built, which would not finish.
            ("transform", "path_2_3", f"--op power:{10**30}"),
            ("transform", "path_2_3", f"--op round:{10**30}"),
            # Sink-sink edges t-t2 and t2-t both point into a sink: a cycle.
            ("transform", "n_d5_4_two_sinks", "--op split:d5:2:2"),
            # Malformed ops: refused by the parser, naming --op.
            ("transform", "n_d5_2", "--op power:x"),
            ("transform", "n_d5_2", "--op split:d5:x:1"),
            # a -> b -> a in every orientation: no variant to search.
            ("bounds", "two_way_relays", ""),
            # 10^19 source rows, then a 10^19-row table: refused before
            # either is allocated.
            ("c1", "st_dim_1e19", "--l 1"),
            ("c1", "snt_dim_1e19", "--l 1"),
            # A witness would hold a 10^19-row table for the dead vertex b.
            ("c1", "dead_edge_1e19", "--l 2"),
            ("c1", "dead_edge_1e19", "--exact-up-to 3"),
            # Searches that recurse past the recursion limit of 1000: the
            # pinned encoder takes l = dim (500, 1000 and 8) messages, each
            # nesting once more per relaying vertex.
            ("bounds", "snt_dims_500_500", ""),
            ("c1", "st_uv_dim_1000", "--l 1000"),
            ("c1", "path_150_dim_8", "--l 8"),
            # N past the float range.
            pytest.param("transform", "path_2_3", f"--op power:{10**400}", id="power-1e400"),
            pytest.param("transform", "path_2_3", f"--op round:-{10**400}", id="round-minus-1e400"),
        ],
    )
    def test_exit_2_with_one_error_line(self, capsys, fixture_file, command, name, args):
        files = [fixture_file(name)] if name else []
        code, out, err = run(capsys, [command, *files, *args.split()])
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "invalid literal" not in err
        if ":x" in args:  # an x where a number goes: the parser names the flag
            assert f"argument {args.split()[0]}:" in err

    @pytest.mark.parametrize("command", NETWORK_COMMANDS)
    @pytest.mark.parametrize("text", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_malformed_network_file(self, capsys, tmp_path, text, command):
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        name, *args = command.split()
        code, out, err = run(capsys, [name, str(path), *args])
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args", ["--l 2", "--exact-up-to 3"])
    def test_dead_vertex_table_refused_under_memory_limit(self, tmp_path, args):
        # b's witness table would hold 10^12 entries; the child process,
        # and only it, runs under an 800 MB address-space limit, so an
        # allocation that slips past the guard ends in a MemoryError.
        path = tmp_path / "dead_edge_1e12.json"
        path.write_text(_dead_edge(10**12))
        proc = _run_under_memory_limit(
            "import sys; from entcap.cli import main; sys.exit(main())",
            "c1", str(path), *args.split(),
        )
        assert proc.returncode == EXIT_BAD_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_widest_source_edge_under_memory_limit(self, tmp_path):
        # s -> t of dim 2^24, the most source rows the array cap admits.
        # Source rows are unflattened as the search reaches them, so three
        # messages take three rows, and the full alphabet's pinned encoder
        # is never listed whole: its search reaches the recursion limit.
        path = tmp_path / "st_uv_dim_2p24.json"
        path.write_text(dump_network(oriented_path(2**24)))
        code = "import sys; from entcap.cli import main; sys.exit(main())"
        proc = _run_under_memory_limit(code, "c1", str(path), "--l", "3")
        assert proc.returncode == EXIT_OK, proc.stderr
        result = json.loads(proc.stdout)
        assert (result["status"], result["assignments"]) == ("witness", 3)
        assert result["witness"]["source"] == [[0], [1], [2]]
        proc = _run_under_memory_limit(code, "c1", str(path), "--l", str(2**24))
        assert proc.returncode == EXIT_BAD_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_huge_dims_sweep_under_memory_limit(self, tmp_path):
        # Every network command on every sweep network, all in one child
        # process under the memory limit: each case exits 0 with JSON on
        # stdout, or 2 with one error line and nothing on stdout.
        cases = []
        for stem, dim, text in _sweep_networks():
            path = tmp_path / f"{stem}.json"
            path.write_text(text)
            for command in SWEEP_COMMANDS:
                name, *args = command.format(dim=dim).split()
                cases.append([name, str(path), *args])
        proc = _run_under_memory_limit(_SWEEP_CHILD, json.dumps(cases))
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert len(results) == len(cases) == 180
        bad = []
        for argv, code, out, err in results:
            if code == EXIT_OK:
                ok = err == "" and isinstance(json.loads(out), dict)
            else:
                ok = code == EXIT_BAD_INPUT and out == ""
                ok = ok and err.startswith("error:") and err.count("\n") == 1
            if not ok:
                bad.append((argv, code, err[-200:]))
        assert not bad, bad

    def test_rank_refuses_oversize_network(self, capsys, tmp_path):
        # fig2^6: node tensors of ~5.8 GB; refused before any is drawn.
        path = tmp_path / "fig2_pow6.json"
        path.write_text(dump_network(tensor_power(fixture("fig2_counterexample"), 6)))
        code, out, err = run(capsys, ["rank", str(path)])
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


_DATA = resources.files("entcap") / "data"

#: Small counts, with a third of the draws invalid.  (A huge valid count
#: is no fault but may be a long run, as a search under ``--budget``
#: 10^30; ``--trials`` above the cap of 256 is refused.)
_numbers = st.sampled_from([*"123456"] * 2 + ["0", "-1", "x", "", "1.5", "+"])
#: Each flag of any subcommand, with the values to draw for it (None: no value).
_FLAGS = {
    "--prime": st.sampled_from(["2", "3", "7", "2147483647", "9", "4294967311", "p"]),
    "--trials": _numbers,
    "--seed": _numbers,
    "--l": _numbers,
    "--exact-up-to": _numbers,
    "--budget": _numbers,
    "--op": st.one_of(
        st.builds("{}:{}".format, st.sampled_from(["power", "scale", "round"]), _numbers),
        st.builds("split:{}:{}:{}".format, st.sampled_from(["d5", "d1", "e0"]), _numbers, _numbers),
        st.sampled_from(["", "split", "power:", "nope:1"]),
    ),
    "--split": st.builds("{}:{}:{}".format, st.sampled_from(["d5", "d3"]), _numbers, _numbers),
    "--claim": st.sampled_from(["mincut-exactness", "r1-gap", "sandwich", "nope"]),
    "--nope": None,
}
#: The flags each subcommand accepts; "nope" is not a subcommand.
_OWN_FLAGS = {
    "mincut": [],
    "rank": ["--prime", "--trials", "--seed"],
    "c1": ["--l", "--exact-up-to", "--budget"],
    "transform": ["--op"],
    "bounds": ["--split", "--trials", "--seed", "--budget"],
    "reproduce": ["--claim", "--seed"],
    "nope": [],
}
#: Every shipped data file, a directory and a missing file; the two
#: directed fixtures thrice, so that `c1` gets to search.
_PATHS = [str(p) for p in sorted(_DATA.iterdir())] + [str(_DATA), str(_DATA / "missing.json")]
_PATHS += [str(_DATA / "n2_up.json"), str(_DATA / "n4_split_2x2.json")] * 2


@st.composite
def _argv(draw):
    """Mostly well-formed: a file where one is taken, the subcommand's own
    flags, ``--op`` for transform; now and then a stray file, a missing
    ``--op`` or another subcommand's flag."""
    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    argv = [command]
    if (draw(st.integers(0, 5)) > 0) == (command != "reproduce"):
        argv.append(draw(st.sampled_from(_PATHS)))
    flags = draw(st.lists(st.sampled_from(_OWN_FLAGS[command] or ["--nope"]), max_size=3))
    if command == "transform" and draw(st.integers(0, 5)):
        flags.insert(0, "--op")
    if not draw(st.integers(0, 5)):
        flags.append(draw(st.sampled_from(sorted(_FLAGS))))
    for flag in flags:
        argv.append(flag)
        if _FLAGS[flag] is not None:
            argv.append(draw(_FLAGS[flag]))
    if "--budget" in _OWN_FLAGS[command]:  # searches stay small: a later --budget wins
        argv += ["--budget", str(draw(st.integers(min_value=1, max_value=2_000)))]
    return argv


def test_fuzzed_flags_match_the_parser():
    """Each subcommand's fuzzed flags are exactly the options it accepts,
    so an added or removed flag cannot fall out of the fuzz unnoticed."""
    (commands,) = (a for a in build_parser()._actions if a.choices)
    accepted = {
        name: sorted(
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
        for name, parser in commands.choices.items()
    }
    assert accepted == {
        name: sorted(flags) for name, flags in _OWN_FLAGS.items() if name != "nope"
    }
    own = {flag for flags in _OWN_FLAGS.values() for flag in flags}
    assert set(_FLAGS) == own | {"--nope"}


def _readme_commands():
    """The ``entcap`` lines of the README's "Command line" block, as argv lists."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("entcap ")
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    """Each documented command parses, so a removed flag cannot stay in the docs."""
    build_parser().parse_args(argv)


def test_readme_layout_names_every_module():
    """The README's "Layout" block names each module of the package."""
    root = pathlib.Path(__file__).resolve().parent.parent
    block = (root / "README.md").read_text().split("## Layout", 1)[1].split("```", 2)[1]
    modules = {p.name for p in (root / "src" / "entcap").glob("*.py")} - {"__init__.py"}
    assert sorted(m for m in modules if m not in block.split()) == []


@given(_argv())
@settings(max_examples=200, deadline=None)
def test_argv_fuzz_exits_cleanly(argv):
    """Any argv ends with a known exit code and never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BAD_INPUT, EXIT_BUDGET), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


class TestReproduce:
    def test_single_claim(self, capsys):
        code, out, _ = run(capsys, ["reproduce", "--claim", "mincut-exactness"])
        assert code == EXIT_OK
        assert "mincut-exactness" in out and "PASS" in out

    def test_every_claim_prints_its_registered_line(self, capsys):
        code, out, _ = run(capsys, ["reproduce"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == len(CLAIMS)
        for line, (name, (expected, _)) in zip(lines, CLAIMS.items()):
            got_name, status, seconds, computed = line.split(maxsplit=3)
            assert (got_name, status, computed) == (name, "PASS", expected)
            assert re.fullmatch(r"\d+\.\d\ds", seconds)

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, ["reproduce", "--claim", "nope"])
        assert code == EXIT_BAD_INPUT
        assert "invalid choice" in err

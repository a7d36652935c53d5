import pytest

from entcap.capreport import (
    ReportInvariantError,
    ReportOptions,
    bounds_report,
    report_to_obj,
)
from entcap.fixtures import fixture, path_network
from entcap.netmodel import Edge, NetworkError, network
from entcap.transforms import SplitSpec


class TestBoundsReport:
    def test_n4_point_value(self):
        report = bounds_report(
            fixture("n_d5_4"),
            ReportOptions(splits=(SplitSpec("d5", 2, 2),), r1_exact=True),
        )
        assert report.mc == 6
        assert report.r1_lower == 6
        assert (report.q1_lower, report.q1_upper) == (6, 6)

    def test_n2_interval(self):
        report = bounds_report(
            fixture("n_d5_2"),
            ReportOptions(splits=(SplitSpec("d5", 2, 1),), r1_exact=True),
        )
        assert report.mc == 6
        assert (report.q1_lower, report.q1_upper) == (5, 6)

    def test_path_all_collapse(self):
        report = bounds_report(path_network(2, 3))
        assert report.mc == 2
        assert report.r1_lower == 2
        assert (report.q1_lower, report.q1_upper) == (2, 2)
        regularized = report_to_obj(report)["regularized"]
        assert regularized["R"] == regularized["Q"] == 2

    # The counterexample's coding scans are deliberately budget-limited:
    # its alphabet runs to 15 and exhausting that space is out of desk scale.
    def test_fig2_gap_visible(self):
        report = bounds_report(
            fixture("fig2_counterexample"),
            ReportOptions(rank_trials=5, coding_budget=20_000),
        )
        assert report.mc == 15
        assert report.r1_lower == 14
        assert report.q1_upper == 15  # without r1_exact the upper end is MC
        assert report.q1_lower >= 1

    def test_r1_exact_tightens_upper(self):
        report = bounds_report(
            fixture("fig2_counterexample"),
            ReportOptions(rank_trials=5, r1_exact=True, coding_budget=20_000),
        )
        assert report.q1_upper == 14

    def test_orientation_variants_enumerated(self):
        report = bounds_report(fixture("n_d5_2"))
        names = [r.name for r in report.c1_results]
        assert len(names) == 2  # the middle edge tried both ways
        assert all(name.startswith("orient[") for name in names)

    def test_full_orientations_superset(self):
        default = bounds_report(fixture("n_d5_2"))
        full = bounds_report(fixture("n_d5_2"), ReportOptions(full_orientations=True))
        assert len(full.c1_results) >= len(default.c1_results)
        assert full.q1_lower >= default.q1_lower
        assert full.q1_lower <= full.q1_upper

    def test_c1_below_directed_mc(self):
        report = bounds_report(
            fixture("n_d5_4"), ReportOptions(splits=(SplitSpec("d5", 2, 2),))
        )
        for r in report.c1_results:
            assert r.c1 <= r.directed_mc <= report.mc
            assert r.status == "exact"

    def test_scan_stops_at_directed_mc(self):
        # d5=uv reaches its directed MC of 4; l = 5 is never searched.
        report = bounds_report(fixture("n_d5_2"), ReportOptions(coding_budget=200_000))
        assert [r.status for r in report.c1_results] == ["exact", "exact"]
        assert not any("budget" in note for note in report.notes)

    def test_regularized_c_is_best_directed_mc(self):
        report = bounds_report(fixture("n_d5_2"))
        assert report.regularized_c_directed == max(
            r.directed_mc for r in report.c1_results
        )

    def test_invalid_network_rejected(self):
        with pytest.raises(NetworkError):
            bounds_report(network(["s", "t"], [Edge("e", "s", "t", 0)], ["s"], ["t"]))

    def test_seed_independence_of_exact_values(self):
        a = bounds_report(fixture("n_d5_3"), ReportOptions(seed=0))
        b = bounds_report(fixture("n_d5_3"), ReportOptions(seed=99))
        assert (a.mc, a.r1_lower, a.q1_lower, a.q1_upper) == (
            b.mc,
            b.r1_lower,
            b.q1_lower,
            b.q1_upper,
        )


class TestReportObj:
    def test_shape_and_values(self):
        report = bounds_report(
            fixture("n_d5_4"),
            ReportOptions(splits=(SplitSpec("d5", 2, 2),), r1_exact=True),
        )
        obj = report_to_obj(report)
        assert set(obj) == {"mc", "r1", "c1", "q1", "regularized", "notes"}
        assert obj["q1"] == {"lower": 6, "upper": 6}
        assert obj["regularized"]["R"] == obj["regularized"]["Q"] == 6
        split_rows = [r for r in obj["c1"] if r["variant"].startswith("split")]
        assert split_rows and split_rows[0]["c1"] == 6

    def test_failure_bound_serialized_as_string(self):
        obj = report_to_obj(bounds_report(path_network(2, 2)))
        assert isinstance(obj["r1"]["failure_bound"], str)
        assert "/" in obj["r1"]["failure_bound"] or obj["r1"]["failure_bound"] == "0"


class TestOrderings:
    def test_invariant_error_is_assertion(self):
        assert issubclass(ReportInvariantError, AssertionError)

    @pytest.mark.parametrize(
        "name", ["n_d5_2", "n_d5_3", "n_d5_4", "path_2_3", "path_3_3"]
    )
    def test_orderings_hold_on_fixtures(self, name):
        report = bounds_report(fixture(name))
        assert report.q1_lower <= report.q1_upper <= report.mc
        assert report.r1_lower <= report.mc
        assert report_to_obj(report)["regularized"]["R"] == report.mc

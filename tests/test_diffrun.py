"""Tests for run-to-run comparison (`repro.obs.views.diff`)."""

import json

import pytest

from repro.common.errors import MalformedInputError
from repro.obs.report import BUNDLE_SCHEMA, RunBundle, load_bundle
from repro.obs.views import (
    diff,
    flatten_report,
    flatten_series,
    regression_direction,
)
from tests.test_bundle import MINIMAL_REPORT, write_bundle


def diff_of_reports(a, b):
    """The diff of two runs whose reports are ``a`` and ``b``."""
    return diff(RunBundle(a, [], [], 3600.0), RunBundle(b, [], [], 3600.0))


def diff_of_series(a, b):
    """The diff of two runs whose series are ``a`` and ``b``."""
    return diff(RunBundle(MINIMAL_REPORT, [], a, 3600.0),
                RunBundle(MINIMAL_REPORT, [], b, 3600.0))


# ---------------------------------------------------------------- direction
class TestRegressionDirection:
    @pytest.mark.parametrize("metric", [
        "per_region.us-east-1.carbon_g",
        "run.mean_service_time_s.p95",
        "reliability.requests_failed",
        "ledger.cost_usd{region=us-east-1}",
        "executor.request_latency_s.p99",
    ])
    def test_lower_is_better(self, metric):
        assert regression_direction(metric) == 1

    @pytest.mark.parametrize("metric", [
        "reliability.requests_completed",
        "bench.executor_events_per_s",
        "slo.compliance",
    ])
    def test_higher_is_better(self, metric):
        assert regression_direction(metric) == -1

    def test_unknown_metrics_never_flagged(self):
        assert regression_direction("run.n_invocations") == 0

    def test_higher_marker_wins_over_lower(self):
        # "completed" outranks the "p95" substring: a completions
        # quantile regresses downward.
        assert regression_direction("completed.p95") == -1


# --------------------------------------------------------------- flattening
class TestFlatten:
    def test_report_nested_paths_and_bools(self):
        flat = flatten_report(
            {"a": {"b": 1, "met": True}, "c": 2.5, "skip": "text"}
        )
        assert flat == {"a.b": 1.0, "a.met": 1.0, "c": 2.5}

    def test_series_histograms_expand_to_stats(self):
        points = [
            {"metric": "m", "window": 0.0, "type": "counter", "value": 3.0},
            {"metric": "h", "window": 0.0, "type": "histogram", "count": 2,
             "sum": 1.0, "p50": 0.4, "p95": 0.9, "p99": 1.0,
             "buckets": {"1": 2}},
        ]
        flat = flatten_series(points)
        assert flat[(0.0, "m")] == 3.0
        assert flat[(0.0, "h.count")] == 2.0
        assert flat[(0.0, "h.p95")] == 0.9
        assert (0.0, "h.buckets") not in flat


# ------------------------------------------------------------------- diffing
class TestDiffReports:
    def test_identical_reports_show_no_differences(self):
        doc = {"run": {"x": 1}}
        assert "No numeric differences." in diff_of_reports(doc, doc)

    def test_regression_flagged_with_direction(self):
        a = {"carbon_g": 100.0, "requests_completed": 50.0}
        b = {"carbon_g": 150.0, "requests_completed": 40.0}
        text = diff_of_reports(a, b)
        # Carbon up AND completions down: both rows flagged.
        flagged = [ln for ln in text.splitlines() if "**regression**" in ln]
        assert len(flagged) == 2
        assert "2 flagged as regressions" in text

    def test_improvement_not_flagged(self):
        text = diff_of_reports({"carbon_g": 100.0}, {"carbon_g": 50.0})
        assert "**regression**" not in text
        assert "-50.0%" in text

    def test_sub_threshold_change_reported_unflagged(self):
        text = diff_of_reports({"carbon_g": 1000.0}, {"carbon_g": 1001.0})
        assert "carbon_g" in text
        assert "**regression**" not in text

    def test_new_and_gone_metrics(self):
        text = diff_of_reports({"old": 1.0}, {"new": 2.0})
        rows = {
            ln.split("|")[1].strip(): ln
            for ln in text.splitlines() if ln.startswith("|")
        }
        assert "gone" in rows["old"]
        assert "new" in rows["new"]

    def test_unchanged_rows_hidden_by_default(self):
        a = {"same": 5.0, "carbon_g": 1.0}
        b = {"same": 5.0, "carbon_g": 2.0}
        assert "same" not in diff_of_reports(a, b)


class TestDiffSeries:
    A = [
        {"metric": "ledger.carbon_g{region=r1}", "window": 0.0,
         "type": "counter", "value": 10.0},
        {"metric": "ledger.carbon_g{region=r1}", "window": 3600.0,
         "type": "counter", "value": 12.0},
    ]
    B = [
        {"metric": "ledger.carbon_g{region=r1}", "window": 0.0,
         "type": "counter", "value": 10.0},
        {"metric": "ledger.carbon_g{region=r1}", "window": 3600.0,
         "type": "counter", "value": 30.0},
    ]

    def test_per_window_rows_with_window_column(self):
        text = diff_of_series(self.A, self.B)
        assert "| metric | window |" in text
        # Only the changed window appears.
        assert "| 3600 |" in text
        assert "| 0 |" not in text
        assert "**regression**" in text

    def test_row_order_is_window_then_metric(self):
        a = self.A + [{"metric": "aa", "window": 0.0, "type": "counter",
                       "value": 1.0}]
        b = self.B + [{"metric": "aa", "window": 0.0, "type": "counter",
                       "value": 2.0}]
        body = [ln for ln in diff_of_series(a, b).splitlines()
                if ln.startswith("| ")][1:]
        assert body[0].startswith("| aa | 0 |")
        assert body[1].startswith("| ledger.carbon_g{region=r1} | 3600 |")


class TestDiffRuns:
    """``diff``: two loaded runs, one report table then one series
    table; artifacts that are not bundles never reach it."""

    def _bundle(self, tmp_path, name, points, carbon_g):
        doc = {**MINIMAL_REPORT, "run": {"carbon_g": carbon_g}}
        return load_bundle(write_bundle(tmp_path / name, points=points,
                                        doc=doc))

    def test_series_change_under_an_unchanged_report(self, tmp_path):
        a = self._bundle(tmp_path, "a.jsonl", TestDiffSeries.A, 1.0)
        b = self._bundle(tmp_path, "b.jsonl", TestDiffSeries.B, 1.0)
        text = diff(a, b)
        assert "No numeric differences." in text
        series = text[text.index("## Series diff: A vs B"):]
        assert "**regression**" in series

    def test_report_change_over_an_unchanged_series(self, tmp_path):
        a = self._bundle(tmp_path, "a.jsonl", TestDiffSeries.A, 1.0)
        b = self._bundle(tmp_path, "b.jsonl", TestDiffSeries.A, 2.0)
        text = diff(a, b, label_a="a.jsonl", label_b="b.jsonl")
        assert text.startswith("## Report diff: a.jsonl vs b.jsonl")
        assert "| run.carbon_g | 1 | 2 |" in text
        assert text.endswith("No per-window differences.\n")

    def test_old_series_dump_refused(self, tmp_path):
        # A series dump of the old format is not a bundle.
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps({"schema": "caribou.series/v1",
                                    "window_s": 3600.0}) + "\n")
        with pytest.raises(MalformedInputError, match="header schema"):
            load_bundle(str(path))

    def test_non_object_header_refused(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(MalformedInputError, match="header schema"):
            load_bundle(str(bad))

    def test_object_without_the_report_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"schema": BUNDLE_SCHEMA, "window_s": 3600.0}) + "\n"
            + json.dumps({"report": {"carbon_g": 1.0}}) + "\n"
        )
        with pytest.raises(MalformedInputError, match="report schema None"):
            load_bundle(str(bad))

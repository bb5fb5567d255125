"""Tests for run-to-run comparison (`repro.obs.diffrun`)."""

import json

import pytest

from repro.common.errors import MalformedInputError
from repro.obs.diffrun import (
    diff_reports,
    diff_runs,
    diff_series,
    flatten_report,
    flatten_series,
    regression_direction,
)
from repro.obs.report import REPORT_SCHEMA
from repro.obs.timeseries import export_series


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
        assert flat[("m", 0.0)] == 3.0
        assert flat[("h.count", 0.0)] == 2.0
        assert flat[("h.p95", 0.0)] == 0.9
        assert ("h.buckets", 0.0) not in flat


# ------------------------------------------------------------------- diffing
class TestDiffReports:
    def test_identical_reports_show_no_differences(self):
        doc = {"run": {"x": 1}}
        assert "No numeric differences." in diff_reports(doc, doc)

    def test_regression_flagged_with_direction(self):
        a = {"carbon_g": 100.0, "requests_completed": 50.0}
        b = {"carbon_g": 150.0, "requests_completed": 40.0}
        text = diff_reports(a, b)
        # Carbon up AND completions down: both rows flagged.
        flagged = [ln for ln in text.splitlines() if "**regression**" in ln]
        assert len(flagged) == 2
        assert "2 flagged as regressions" in text

    def test_improvement_not_flagged(self):
        text = diff_reports({"carbon_g": 100.0}, {"carbon_g": 50.0})
        assert "**regression**" not in text
        assert "-50.0%" in text

    def test_sub_threshold_change_reported_unflagged(self):
        text = diff_reports({"carbon_g": 1000.0}, {"carbon_g": 1001.0})
        assert "carbon_g" in text
        assert "**regression**" not in text

    def test_new_and_gone_metrics(self):
        text = diff_reports({"old": 1.0}, {"new": 2.0})
        rows = {
            ln.split("|")[1].strip(): ln
            for ln in text.splitlines() if ln.startswith("|")
        }
        assert "gone" in rows["old"]
        assert "new" in rows["new"]

    def test_unchanged_rows_hidden_by_default(self):
        a = {"same": 5.0, "carbon_g": 1.0}
        b = {"same": 5.0, "carbon_g": 2.0}
        assert "same" not in diff_reports(a, b)
        assert "| same |" in diff_reports(a, b, only_changed=False)


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
        text = diff_series(self.A, self.B)
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
        body = [ln for ln in diff_series(a, b).splitlines()
                if ln.startswith("| ")][1:]
        assert body[0].startswith("| aa | 0 |")
        assert body[1].startswith("| ledger.carbon_g{region=r1} | 3600 |")


class TestDiffRuns:
    def _series_file(self, tmp_path, name, points):
        path = tmp_path / name
        export_series(points, str(path))
        return str(path)

    def test_auto_detects_series_dumps(self, tmp_path):
        a = self._series_file(tmp_path, "a.jsonl", TestDiffSeries.A)
        b = self._series_file(tmp_path, "b.jsonl", TestDiffSeries.B)
        text = diff_runs(a, b)
        assert text.startswith("## Series diff:")
        assert "**regression**" in text

    def test_auto_detects_reports(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps({"schema": REPORT_SCHEMA, "carbon_g": 1.0}))
        pb.write_text(json.dumps({"schema": REPORT_SCHEMA, "carbon_g": 2.0}))
        text = diff_runs(str(pa), str(pb))
        assert text.startswith("## Report diff:")
        assert str(pa) in text and str(pb) in text

    def test_mixed_kinds_rejected(self, tmp_path):
        series = self._series_file(tmp_path, "a.jsonl", TestDiffSeries.A)
        report = tmp_path / "b.json"
        report.write_text(json.dumps({"schema": REPORT_SCHEMA, "x": 1.0}))
        with pytest.raises(ValueError, match="cannot diff"):
            diff_runs(series, str(report))

    def test_non_object_artifact_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            diff_runs(str(bad), str(bad))

    def test_object_without_the_report_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"carbon_g": 1.0}))
        with pytest.raises(MalformedInputError, match="not a run report"):
            diff_runs(str(bad), str(bad))

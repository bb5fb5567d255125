"""Tests for the offline sparkline dashboard (`repro.obs.views.dashboard`)."""

from repro.obs.report import RunBundle
from repro.obs.views import SPARK_CHARS, dashboard, sparkline


def dash_of(points, slo_results=None):
    """The dashboard of a one-hour-window run of ``points`` whose report
    carries ``slo_results``."""
    return dashboard(RunBundle({"slo": slo_results}, [], points, 3600.0))


def _ctr(metric, window, value):
    return {"metric": metric, "window": window, "type": "counter",
            "value": value}


# ---------------------------------------------------------------- sparkline
class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_low_blocks(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_CHARS[0] * 3

    def test_scales_to_own_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == SPARK_CHARS[0]
        assert line[-1] == SPARK_CHARS[-1]
        assert len(line) == 4

    def test_monotone_values_monotone_blocks(self):
        line = sparkline(list(range(8)))
        assert [SPARK_CHARS.index(c) for c in line] == sorted(
            SPARK_CHARS.index(c) for c in line
        )

    def test_downsampling_keeps_spikes_visible(self):
        values = [0.0] * 100
        values[37] = 10.0  # single-sample spike
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert SPARK_CHARS[-1] in line  # bucket-maximum: never hidden

    def test_width_zero_means_no_downsampling(self):
        assert len(sparkline([1.0] * 100)) == 100

    def test_short_series_not_padded(self):
        assert len(sparkline([1.0, 2.0], width=48)) == 2


# ---------------------------------------------------------------- dashboard
class TestRenderDashboard:
    POINTS = [
        _ctr("ledger.carbon_g{region=us-east-1,workflow=wf}", 0.0, 5.0),
        _ctr("ledger.carbon_g{region=us-east-1,workflow=wf}", 3600.0, 1.0),
        _ctr("ledger.carbon_g{region=ca-central-1,workflow=wf}", 3600.0, 0.5),
        _ctr("ledger.cost_usd{region=us-east-1,workflow=wf}", 0.0, 0.02),
        _ctr("ledger.requests{workflow=wf}", 0.0, 4.0),
        {"metric": "executor.request_latency_s{workflow=wf}", "window": 0.0,
         "type": "histogram", "count": 4, "sum": 2.0, "p50": 0.4, "p95": 0.9,
         "p99": 1.0, "buckets": {"1": 4}},
        _ctr("executor.requests{workflow=wf}", 0.0, 4.0),
    ]

    def test_sections_present(self):
        text = dash_of(self.POINTS)
        assert text.startswith("# Caribou run dashboard")
        assert "2 window(s) x 3600s virtual time" in text
        assert "### Carbon by region (g)" in text
        assert "### Cost by region (USD)" in text
        assert "### Request latency p95 by workflow (s)" in text
        assert "### Requests by workflow" in text
        # Single-workflow run: the per-workflow carbon view is elided.
        assert "Carbon by workflow" not in text

    def test_carbon_rows_show_sum_and_peak(self):
        text = dash_of(self.POINTS)
        [row] = [ln for ln in text.splitlines() if "us-east-1" in ln
                 and "sum=6g" in ln]
        assert "peak=5g" in row
        assert any(c in row for c in SPARK_CHARS)

    def test_missing_windows_render_as_zero(self):
        text = dash_of(self.POINTS)
        [row] = [ln for ln in text.splitlines() if "ca-central-1" in ln]
        # ca-central-1 only has data in window 2: sparkline still spans
        # both windows, low block first.
        spark = [c for c in row if c in SPARK_CHARS]
        assert len(spark) == 2
        assert spark[0] == SPARK_CHARS[0]

    def test_multi_workflow_carbon_section_appears(self):
        points = self.POINTS + [
            _ctr("ledger.carbon_g{region=us-east-1,workflow=other}", 0.0, 2.0)
        ]
        assert "### Carbon by workflow (g)" in dash_of(points)

    def test_slo_section(self):
        slo = [
            {"name": "p95(lat)<=1.0", "met": True, "budget_spent": 0.2,
             "violations": 0, "windows": 4, "alerts": []},
            {"name": "ratio(c/r)<=0.5", "met": False, "budget_spent": 3.0,
             "violations": 3, "windows": 4, "alerts": [{"type": "slo_burn"}]},
        ]
        text = dash_of(self.POINTS, slo_results=slo)
        assert "### SLO budget" in text
        assert "[OK ] p95(lat)<=1.0" in text
        assert "[MISS] ratio(c/r)<=0.5" in text
        assert "300% spent" in text
        assert "3/4 window(s) violating, 1 alert(s)" in text

    def test_empty_series_still_renders_header(self):
        text = dash_of([])
        assert text.startswith("# Caribou run dashboard")
        assert "0 window(s)" in text

    def test_deterministic(self):
        assert dash_of(self.POINTS) == dash_of(self.POINTS)

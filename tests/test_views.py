"""Views of a run (`repro.obs.views`) beyond the byte-for-byte capture in
``golden/views.json``: the SLO rows of a diff, the sections and limits
the four captured runs never reach, and the formatter family."""

from repro.obs.critical_path import PathSegment, RequestPath
from repro.obs.report import RunBundle
from repro.obs.views import (
    MAX_SEGMENTS,
    _fixed,
    _num,
    _pct,
    dashboard,
    diff,
    report_markdown,
    request_path,
)
from tests.test_bundle import MINIMAL_REPORT


def _slo(violations, windows=4, budget=0.01):
    bad = violations / windows
    return {"name": "p95(executor.request_latency_s)<=1.0", "kind": "quantile",
            "metric": "executor.request_latency_s", "threshold": 1.0,
            "target": 0.99, "windows": windows, "violations": violations,
            "compliance": 1.0 - bad, "budget_spent": bad / budget,
            "met": bad <= budget, "alerts": []}


def _run(slo):
    return RunBundle({**MINIMAL_REPORT, "slo": slo}, [], [], 3600.0)


class TestSloDiff:
    NAME = "slo.p95(executor.request_latency_s)<=1.0"

    def test_each_objective_diffs_under_its_name(self):
        text = diff(_run([_slo(1)]), _run([_slo(2)]))
        rows = {ln.split(" | ")[0][2:]: ln for ln in text.splitlines()
                if ln.startswith("| slo.")}
        assert rows == {
            f"{self.NAME}.budget_spent":
                f"| {self.NAME}.budget_spent | 25 | 50 | 25 (+100.0%) "
                "| **regression** |",
            f"{self.NAME}.compliance":
                f"| {self.NAME}.compliance | 0.75 | 0.5 | -0.25 (-33.3%) "
                "| **regression** |",
            f"{self.NAME}.violations":
                f"| {self.NAME}.violations | 1 | 2 | 1 (+100.0%) "
                "| **regression** |",
        }

    def test_an_improvement_is_not_flagged(self):
        text = diff(_run([_slo(2)]), _run([_slo(1)]))
        assert f"| {self.NAME}.compliance | 0.5 | 0.75 |" in text
        assert "**regression**" not in text

    def test_budget_spent_regresses_upward_whatever_the_objective(self):
        a, b = _slo(1), _slo(2)
        for entry in (a, b):
            entry["name"] = "rate(x/y)<=0.5"
        text = diff(_run([a]), _run([b]))
        [row] = [ln for ln in text.splitlines() if ".budget_spent |" in ln]
        assert row.endswith("| **regression** |")

    def test_an_objective_on_one_side_only(self):
        text = diff(_run(None), _run([_slo(0)]))
        assert f"| {self.NAME}.compliance | — | 1 | — | new |" in text


class TestFormatters:
    def test_fixed_digits_and_width(self):
        assert _fixed(2.0 / 3.0) == "0.667"
        assert _fixed(2.0 / 3.0, "8.4") == "  0.6667"

    def test_percent_digits_width_and_sign(self):
        assert _pct(0.1234) == "12.3%"
        assert _pct(0.1234, "7.0") == "    12%"
        assert _pct(0.1234, "+.1") == "+12.3%"

    def test_not_a_finite_number_is_a_dash(self):
        for junk in (None, "1.0", True, float("nan"), float("inf"), [1]):
            assert _fixed(junk) == "-" and _pct(junk) == "-"

    def test_int_or_significant_digits(self):
        assert _num(3.0) == "3"
        assert _num(-1e14) == "-100000000000000"
        assert _num(1e15) == "1e+15"
        assert _num(2.0 / 3.0) == "0.666667"
        assert _num(2.0 / 3.0, 4) == "0.6667"


class TestLimits:
    """What the captured runs never reach: a non-integral window, more
    than ten nodes, more than :data:`MAX_SEGMENTS` segments, a fleet."""

    def test_dashboard_window_to_four_significant_digits(self):
        text = dashboard(RunBundle(MINIMAL_REPORT, [], [], 2.71828))
        assert "0 window(s) x 2.718s virtual time, 0 series point(s)" in text

    def test_report_ranks_the_ten_slowest_nodes(self):
        nodes = {f"x{i:02d}": {"seconds": float(i), "share": i / 100.0}
                 for i in range(12)}
        doc = {**MINIMAL_REPORT, "critical_path": {
            "n_requests": 1, "by_kind": {}, "by_node": nodes}}
        rows = [ln for ln in report_markdown(doc).splitlines()
                if ln.startswith("| x")]
        assert rows[0] == "| x11 | 11.000 | 11.0% |"
        assert [row.split()[1] for row in rows] == [
            f"x{i:02d}" for i in range(11, 1, -1)]

    def test_request_path_lists_the_first_fifty_segments(self):
        path = RequestPath("r1", "wf", "completed", 0.0, 52.0, segments=[
            PathSegment(float(i), i + 1.0, "invocation", f"s{i}", f"s{i}")
            for i in range(52)])
        lines = request_path(path).splitlines()
        assert MAX_SEGMENTS == 50 and len(lines) == 1 + 50 + 1
        assert lines[50] == (
            "        49.000..      50.000     1.0000s   1.9%  invocation s49 [s49]")
        assert lines[-1] == "  ... 2 more segments"

    def test_report_carries_the_fleet_rollup(self):
        fleet = {"workflows": 1, "per_workflow": {"wf": {
            "checks": 2, "solves": 1, "migrations": 0,
            "invocations_observed": 3, "tokens_g": 0.25}}}
        text = report_markdown({**MINIMAL_REPORT, "fleet": fleet})
        assert text.endswith(
            "\n\n## Fleet\n\n- **workflows**: 1\n\n"
            "| workflow | checks | solves | migrations | invocations | tokens g |\n"
            "|---|---|---|---|---|---|\n"
            "| wf | 2 | 1 | 0 | 3 | 0.250 |\n"
        )

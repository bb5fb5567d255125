"""Golden-report regression tests (mirror of ``test_trace_golden.py``).

A fixed-seed quickstart run must reproduce its committed
:func:`~repro.obs.report.build_run_report` document
(``golden/quickstart_report.json``, :func:`~repro.obs.report.report_json`'s
serialisation) — the report merges the harness means, per-region ledger
pricing, metrics snapshot, reliability counters, solver counters, and
critical-path aggregates, so this single file pins the whole observable
surface of a run.  Any intentional change shows up as a reviewable
diff; ``python -m tests.golden diff quickstart_report`` names the
fields that moved (see ``tests/golden.py``).
"""

from repro.apps import get_app
from repro.experiments.harness import run_caribou
from repro.obs.report import REPORT_KEYS, REPORT_SCHEMA, build_run_report, report_json
from repro.obs.trace import Tracer
from repro.obs.views import report_markdown
from tests import golden

SEED = 1234
REGIONS = ("us-east-1", "ca-central-1")


def quickstart_report() -> dict:
    """The reference scenario: a seeded two-invocation Caribou run of
    the sync-node benchmark over two regions, traced so the report's
    critical-path section is populated.  Returns the report."""
    tracer = Tracer()
    outcome = run_caribou(
        get_app("text2speech_censoring"),
        "small",
        REGIONS,
        seed=SEED,
        n_invocations=2,
        tracer=tracer,
    )
    return build_run_report(outcome, trace=tracer)


class TestGoldenReport:
    def test_report_matches_snapshot(self):
        golden.check("quickstart_report", quickstart_report())

    def test_two_builds_byte_identical(self):
        assert report_json(quickstart_report()) == report_json(quickstart_report())

    def test_snapshot_is_valid_report(self):
        doc = golden.load("quickstart_report")
        assert doc["schema"] == REPORT_SCHEMA
        assert tuple(sorted(doc)) == REPORT_KEYS
        assert doc["run"]["app"] == "text2speech_censoring"
        assert doc["run"]["n_invocations"] == 2
        assert doc["critical_path"]["n_requests"] >= 2
        # Critical-path shares are a partition of end-to-end latency.
        shares = sum(
            entry["share"] for entry in doc["critical_path"]["by_kind"].values()
        )
        assert abs(shares - 1.0) < 1e-9

    def test_snapshot_has_no_wall_clock_values(self):
        """Host-dependent values must never enter the golden document."""
        text = golden.REGISTRY["quickstart_report"].text()
        assert "wall_time" not in text
        doc = golden.load("quickstart_report")
        assert "wall_time_s" not in (doc.get("solver") or {})

    def test_snapshot_renders_as_markdown(self):
        md = report_markdown(golden.load("quickstart_report"))
        assert md.startswith("# Run report")
        for heading in ("## Carbon & cost", "## Critical path", "## Solver"):
            assert heading in md

"""Golden-report regression tests (mirror of ``test_trace_golden.py``).

A fixed-seed quickstart run must reproduce its committed
:class:`~repro.obs.report.RunReport` JSON *byte for byte* — the report
merges the harness means, per-region ledger pricing, metrics snapshot,
reliability counters, solver counters, and critical-path aggregates, so
this single file pins the whole observable surface of a run.  Any
intentional change shows up as a reviewable diff; regenerate with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_report_golden.py
"""

import json
import os
import pathlib

from repro.apps import get_app
from repro.experiments.harness import run_caribou
from repro.obs.report import REPORT_KEYS, REPORT_SCHEMA, RunReport, build_run_report
from repro.obs.trace import Tracer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "quickstart_report.json"
SEED = 1234
REGIONS = ("us-east-1", "ca-central-1")


def quickstart_report() -> RunReport:
    """The reference scenario: a seeded two-invocation Caribou run of
    the sync-node benchmark over two regions, traced so the report's
    critical-path section is populated."""
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
        produced = quickstart_report().to_json()
        if os.environ.get("UPDATE_GOLDEN"):
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(produced, encoding="utf-8")
        assert GOLDEN.exists(), (
            "golden report missing; regenerate with UPDATE_GOLDEN=1"
        )
        expected = GOLDEN.read_text(encoding="utf-8")
        assert produced == expected, (
            "run report drifted from the golden snapshot; if intentional, "
            "regenerate with UPDATE_GOLDEN=1 and review the diff"
        )

    def test_two_builds_byte_identical(self):
        assert quickstart_report().to_json() == quickstart_report().to_json()

    def test_snapshot_is_valid_report(self):
        doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
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
        text = GOLDEN.read_text(encoding="utf-8")
        assert "wall_time" not in text
        doc = json.loads(text)
        assert "wall_time_s" not in (doc.get("solver") or {})

    def test_snapshot_renders_as_markdown(self):
        report = RunReport(json.loads(GOLDEN.read_text(encoding="utf-8")))
        md = report.to_markdown()
        assert md.startswith("# Run report")
        for heading in ("## Carbon & cost", "## Critical path", "## Solver"):
            assert heading in md

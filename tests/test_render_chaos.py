"""Renderer behaviour on deep chaos-run traces.

A chaos run (network partition + region outage + invocation failures)
produces the nastiest traces the repo can generate: retries, dead
requests, home-region fallbacks, and error-annotated spans.  The
renderers behind ``caribou report`` — the trace summary and the
per-request critical path — must render every request and stay
deterministic (same run, same text — the CLI diff-tests depend on it).
"""

from __future__ import annotations

import pytest

from repro.apps import get_app
from repro.cloud.faults import FaultPlan
from repro.common.clock import SECONDS_PER_DAY
from repro.experiments.harness import run_caribou
from repro.obs.critical_path import analyze_trace
from repro.obs.report import load_bundle
from repro.obs.trace import Tracer
from repro.obs.views import request_path, span_summary
from tests.test_bundle import write_bundle

REGIONS = ("us-east-1", "us-west-2", "ca-central-1")
SEED = 29


def _chaos_plan() -> FaultPlan:
    return (
        FaultPlan()
        .with_invocation_failures(0.10)
        .with_region_outage(
            "us-west-2", start_s=0.1 * SECONDS_PER_DAY, end_s=0.6 * SECONDS_PER_DAY
        )
        .with_network_partition(
            ("us-east-1",), ("ca-central-1",),
            start_s=0.2 * SECONDS_PER_DAY, end_s=0.5 * SECONDS_PER_DAY,
        )
        .with_kv_latency(4.0, start_s=0.0, end_s=0.4 * SECONDS_PER_DAY)
    )


def _chaos_trace() -> Tracer:
    tracer = Tracer()
    run_caribou(
        get_app("text2speech_censoring"),
        "small",
        REGIONS,
        seed=SEED,
        n_invocations=8,
        fault_plan=_chaos_plan(),
        tracer=tracer,
    )
    tracer.finalize()
    return tracer


@pytest.fixture(scope="module")
def chaos_spans():
    return list(_chaos_trace().spans)


class TestChaosTraceShape:
    def test_trace_is_deep_and_faulty(self, chaos_spans):
        """Preconditions: the fixture really exercises the chaos paths."""
        assert len(chaos_spans) > 200
        kinds = {s.kind for s in chaos_spans}
        assert {"request", "invocation", "publish", "kv"} <= kinds
        statuses = {
            str(s.attrs.get("status"))
            for s in chaos_spans
            if s.kind == "request"
        }
        # Fault injection must actually bite: some requests die, some
        # survive — both shapes flow through the renderers below.
        assert "completed" in statuses
        assert "failed" in statuses

    def test_every_request_renders(self, chaos_spans):
        paths = analyze_trace(chaos_spans).requests
        assert len(paths) == sum(1 for s in chaos_spans if s.kind == "request")
        for path in paths:
            text = request_path(path)
            assert text.startswith(f"request {path.request_id} [")


class TestDeterminism:
    def test_rerun_renders_identically(self, chaos_spans):
        """Same seed + same fault plan => byte-identical renderings."""
        again = list(_chaos_trace().spans)
        assert span_summary(again) == span_summary(
            chaos_spans
        )

    def test_jsonl_round_trip_renders_identically(self, chaos_spans,
                                                  tmp_path):
        path = write_bundle(tmp_path / "run.jsonl", _chaos_trace().spans)
        reloaded = load_bundle(path).spans
        assert span_summary(reloaded) == span_summary(
            chaos_spans
        )
        assert [
            request_path(p) for p in analyze_trace(reloaded).requests
        ] == [
            request_path(p) for p in analyze_trace(chaos_spans).requests
        ]

    def test_render_does_not_mutate_input(self, chaos_spans):
        before = [(s.span_id, s.t0, s.t1, dict(s.attrs)) for s in chaos_spans]
        span_summary(chaos_spans)
        for path in analyze_trace(chaos_spans).requests:
            request_path(path)
        after = [(s.span_id, s.t0, s.t1, dict(s.attrs)) for s in chaos_spans]
        assert before == after

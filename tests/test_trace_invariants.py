"""Structural invariants every trace must satisfy.

Checked on full harness runs — fault-free and under a chaos plan — so
the guarantees hold exactly where they matter most: when retries,
outages, and dead-letters bend the request lifecycle.

* every non-root span links to a parent that exists and opened first;
* after ``finalize()`` every span's interval nests inside its parent's;
* no span outlives its request root (the root covers all of its
  request's work, including executions that straggle past a timeout);
* request-root terminal states tally exactly with the executor's
  :class:`~repro.cloud.faults.ReliabilityStats` counters.
"""

import pytest

from repro.apps import get_app
from repro.cloud.faults import FaultPlan
from repro.core.solver import SolverSettings
from repro.experiments.harness import run_caribou
from repro.obs.trace import SPAN_KINDS, Tracer

SETTINGS = SolverSettings(batch_size=20, max_samples=40, cov_threshold=0.5)
REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")


def _chaos_plan():
    day = 86_400.0
    return (
        FaultPlan()
        .with_region_outage("us-west-2", start_s=1.0 * day, end_s=1.5 * day)
        .with_invocation_failures(0.05)
        .with_kv_latency(3.0, start_s=2.0 * day, end_s=3.0 * day)
    )


def _traced_run(fault_plan):
    tracer = Tracer()
    outcome = run_caribou(
        get_app("text2speech_censoring"),
        "small",
        REGIONS,
        seed=3,
        n_invocations=10,
        warmup=5,
        solver_settings=SETTINGS,
        fault_plan=fault_plan,
        tracer=tracer,
    )
    tracer.finalize()
    return tracer, outcome


@pytest.fixture(scope="module", params=["fault_free", "chaos"])
def traced_run(request):
    plan = _chaos_plan() if request.param == "chaos" else None
    return _traced_run(plan)


class TestTraceInvariants:
    def test_kinds_are_known(self, traced_run):
        tracer, _ = traced_run
        assert {s.kind for s in tracer.spans} <= set(SPAN_KINDS)

    def test_every_parent_exists_and_opened_first(self, traced_run):
        tracer, _ = traced_run
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            assert parent is not None, f"span {span.span_id} orphaned"
            assert parent.span_id < span.span_id
            assert parent.t0 <= span.t0 + 1e-9

    def test_intervals_nest_within_parent(self, traced_run):
        tracer, _ = traced_run
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            assert span.t1 is not None, "finalize() left a span open"
            assert span.t1 >= span.t0
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.t0 <= span.t0 + 1e-9
            assert span.t1 <= parent.t1 + 1e-9

    def test_no_span_outlives_its_request(self, traced_run):
        tracer, _ = traced_run
        roots = {
            s.request_id: s for s in tracer.spans if s.kind == "request"
        }
        for span in tracer.spans:
            if not span.request_id or span.kind == "request":
                continue
            root = roots.get(span.request_id)
            assert root is not None, (
                f"span {span.span_id} references untracked request "
                f"{span.request_id!r}"
            )
            assert span.t1 <= root.t1 + 1e-9

    def test_every_request_reaches_a_terminal_state(self, traced_run):
        tracer, _ = traced_run
        for span in tracer.spans:
            if span.kind == "request":
                assert span.attrs.get("status") in (
                    "completed",
                    "failed",
                    "timed_out",
                )

    def test_request_outcomes_match_reliability_counters(self, traced_run):
        tracer, outcome = traced_run
        stats = outcome.reliability
        tally = {"completed": 0, "failed": 0, "timed_out": 0}
        for span in tracer.spans:
            if span.kind == "request":
                tally[span.attrs["status"]] += 1
        assert sum(tally.values()) == (
            stats.completed_requests + stats.failed_requests
            + stats.timed_out_requests
        )
        assert tally["completed"] == stats.completed_requests
        assert tally["failed"] == stats.failed_requests
        assert tally["timed_out"] == stats.timed_out_requests

    def test_request_roots_are_roots(self, traced_run):
        tracer, _ = traced_run
        for span in tracer.spans:
            if span.kind == "request":
                assert span.parent_id is None

    def test_solver_spans_carry_no_request(self, traced_run):
        tracer, _ = traced_run
        for span in tracer.spans:
            if span.kind in ("solve", "solver_hour", "solver_iteration"):
                assert span.request_id == ""

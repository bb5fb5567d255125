"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.common.clock import VirtualClock
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
    load_bundle,
    span_summary,
)
from tests.test_bundle import write_bundle


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestTracer:
    def test_unbound_tracer_raises_on_use(self):
        tr = Tracer()
        with pytest.raises(RuntimeError, match="not bound to a clock"):
            tr.record("kv", "get")

    def test_record_defaults_to_point_span(self, tracer, clock):
        clock.advance(5.0)
        span = tracer.record("kv", "get:t")
        assert span.t0 == 5.0
        assert span.t1 == 5.0
        assert span.duration_s == 0.0

    def test_record_with_interval(self, tracer):
        span = tracer.record("transfer", "a->b", t0=1.0, t1=3.5)
        assert span.duration_s == 2.5

    def test_span_ids_sequential(self, tracer):
        ids = [tracer.record("kv", "x").span_id for _ in range(4)]
        assert ids == [0, 1, 2, 3]

    def test_scope_parents_synchronous_children(self, tracer):
        with tracer.span("publish", "p") as scope:
            child = tracer.record("transfer", "a->b")
        assert child.parent_id == scope.span.span_id

    def test_scope_closes_at_now_by_default(self, tracer, clock):
        with tracer.span("solve", "s"):
            clock.advance(2.0)
        assert tracer.spans[0].t1 == 2.0

    def test_scope_end_at_future_time(self, tracer):
        with tracer.span("publish", "p") as scope:
            scope.end_at(42.0)
        assert tracer.spans[0].t1 == 42.0

    def test_scope_tags_error_and_reraises(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("migration", "m"):
                raise ValueError("boom")
        span = tracer.spans[0]
        assert span.attrs["error"] == "ValueError"
        assert span.t1 is not None

    def test_request_root_parents_async_spans(self, tracer):
        root = tracer.open_request("r1", workflow="wf")
        # No scope on the stack: the request id resolves the parent.
        span = tracer.record("invocation", "wf.f", request_id="r1")
        assert span.parent_id == root.span_id

    def test_scope_wins_over_request_root(self, tracer):
        tracer.open_request("r1")
        with tracer.span("publish", "p", request_id="r1") as scope:
            child = tracer.record("transfer", "a->b", request_id="r1")
        assert child.parent_id == scope.span.span_id

    def test_close_request_sets_status(self, tracer, clock):
        root = tracer.open_request("r1")
        clock.advance(3.0)
        tracer.close_request("r1", "completed")
        assert root.attrs["status"] == "completed"
        assert root.t1 == 3.0

    def test_close_request_first_terminal_wins(self, tracer):
        root = tracer.open_request("r1")
        tracer.close_request("r1", "completed")
        tracer.close_request("r1", "failed")
        assert root.attrs["status"] == "completed"

    def test_finalize_closes_open_spans_as_pending(self, tracer, clock):
        root = tracer.open_request("r1")
        clock.advance(1.0)
        tracer.finalize()
        assert root.t1 == 1.0
        assert root.attrs["status"] == "pending"

    def test_finalize_extends_parents_over_children(self, tracer):
        root = tracer.open_request("r1")
        tracer.close_request("r1", "completed")  # t1 = 0.0
        tracer.record("invocation", "wf.f", request_id="r1", t0=0.0, t1=9.0)
        tracer.finalize()
        assert root.t1 == 9.0

    def test_jsonl_round_trip(self, tracer, tmp_path):
        tracer.open_request("r1", workflow="wf")
        tracer.record("kv", "get:t", request_id="r1", op="get")
        tracer.close_request("r1", "completed")
        tracer.finalize()
        spans = load_bundle(write_bundle(tmp_path / "run.jsonl", tracer.spans)).spans
        assert [s.to_dict() for s in spans] == [
            s.to_dict() for s in tracer.spans
        ]

    def test_jsonl_is_compact_and_sorted(self, tracer):
        tracer.record("kv", "get", op="get")
        line = tracer.to_jsonl().strip()
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
        assert ": " not in line and ", " not in line

    def test_export_to_path(self, tracer, tmp_path):
        tracer.record("kv", "get")
        path = tmp_path / "run.jsonl"
        assert load_bundle(write_bundle(path, tracer.spans)).spans[0].kind == "kv"
        # The bundle's span line is the trace line, wrapped.
        assert path.read_text().splitlines()[2] == (
            '{"span":' + tracer.to_jsonl().strip() + "}"
        )

    def test_len_counts_spans(self, tracer):
        assert len(tracer) == 0
        tracer.record("kv", "x")
        assert len(tracer) == 1


class TestTracerSampling:
    """Request sampling: keep every N-th request, drop the rest whole."""

    def test_sample_every_validation(self, clock):
        with pytest.raises(ValueError, match="sample_every"):
            Tracer(clock, sample_every=0)

    def test_default_keeps_everything(self, tracer):
        for i in range(4):
            assert tracer.open_request(f"r{i}") is not None

    def test_keeps_every_nth_request(self, clock):
        tr = Tracer(clock, sample_every=3)
        kept = [tr.open_request(f"r{i}") is not None for i in range(7)]
        assert kept == [True, False, False, True, False, False, True]

    def test_dropped_request_spans_suppressed(self, clock):
        tr = Tracer(clock, sample_every=2)
        tr.open_request("keep")
        tr.open_request("drop")
        assert tr.record("kv", "get", request_id="drop") is None
        assert tr.record("kv", "get", request_id="keep") is not None
        tr.close_request("drop", "completed")  # no-op, no error
        tr.close_request("keep", "completed")
        assert all(s.request_id != "drop" for s in tr.spans)

    def test_dropped_scope_suppresses_synchronous_children(self, clock):
        tr = Tracer(clock, sample_every=2)
        tr.open_request("keep")
        tr.open_request("drop")
        with tr.span("publish", "p", request_id="drop") as scope:
            assert scope.span is None
            # Children carry no request id — the drop scope must still
            # suppress them, and its setters must be inert no-ops.
            assert tr.record("transfer", "a->b") is None
            scope.set(bytes=10)
        assert tr.record("transfer", "a->b") is not None
        assert len(tr) == 2  # keep's root + the post-scope transfer

    def test_sampled_trace_is_deterministic(self, clock):
        def run(tr):
            for i in range(6):
                tr.open_request(f"r{i}")
                tr.record("kv", "get", request_id=f"r{i}")
                tr.close_request(f"r{i}", "completed")
            return tr.to_jsonl()

        a = run(Tracer(VirtualClock(), sample_every=2))
        b = run(Tracer(VirtualClock(), sample_every=2))
        assert a == b
        assert a != run(Tracer(VirtualClock()))  # sampling does drop spans


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.record("kv", "x") is None
        with NULL_TRACER.span("publish", "p") as scope:
            scope.end_at(5.0)
            scope.set(a=1)
        NULL_TRACER.open_request("r")
        NULL_TRACER.close_request("r", "completed")
        NULL_TRACER.finalize()
        assert NULL_TRACER.to_jsonl() == ""
        assert len(NULL_TRACER) == 0

    def test_null_scope_never_swallows(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("kv", "x"):
                raise KeyError("k")


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2.0)
        assert reg.snapshot()["hits"] == 3.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("hits").inc(-1.0)

    def test_labels_key_instruments_sorted(self):
        reg = MetricsRegistry()
        reg.counter("req", b="2", a="1").inc()
        snap = reg.snapshot()
        assert "req{a=1,b=2}" in snap

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4.0)
        g.add(-1.0)
        assert reg.snapshot()["depth"] == 3.0

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        snap = reg.snapshot()["lat"]
        assert snap["count"] == 3
        assert snap["min"] == 0.1
        assert snap["max"] == 0.3
        assert snap["mean"] == pytest.approx(0.2)

    def test_same_instrument_returned(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", a="1") is not reg.counter("x", a="2")

    def test_disabled_registry_is_inert(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(1.0)
        NULL_METRICS.histogram("z").observe(1.0)
        assert NULL_METRICS.snapshot() == {}
        assert len(NULL_METRICS) == 0


class TestRenderers:
    def _sample_spans(self):
        return [
            Span(0, "request", "r1", 0.0, 5.0, None, "wf", "r1",
                 {"status": "completed"}),
            Span(1, "publish", "a->b", 0.0, 1.0, 0, "wf", "r1", {}),
            Span(2, "transfer", "a->b", 0.0, 0.5, 1, "wf", "r1", {}),
        ]

    def test_summary_counts_kinds_and_outcomes(self):
        text = span_summary(self._sample_spans())
        assert "3 spans" in text
        assert "requests: completed=1" in text

    def test_summary_empty(self):
        assert span_summary([]) == "(empty trace)"

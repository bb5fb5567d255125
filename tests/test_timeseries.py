"""Tests for windowed telemetry (`repro.obs.timeseries`).

Covers the sampler's window mechanics on a bare simulation environment
(grid alignment, counter deltas, gauge last-values, histogram bucket
deltas + quantiles, sparse emission, partial close), the simulator's
:class:`RepeatingEvent` liveness contract (never keeps the queue alive
on its own), the ledger-derived per-window carbon series, the series' round trip
through the run bundle, the Prometheus exporter, and the end-to-end determinism contract: a
telemetered ``run_caribou`` produces byte-identical series across
same-seed reruns, and a sampler on the open-loop serving path costs one
event per window and leaves the ledger untouched.
"""

import json

import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.cloud.simulator import RepeatingEvent, SimulationEnvironment
from repro.data.workload import OpenLoopInjector, WorkloadSpec, generate_trace
from repro.core.lifecycle import deploy_benchmark
from repro.experiments.harness import run_caribou
from repro.common.errors import MalformedInputError
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import BUNDLE_SCHEMA, load_bundle
from repro.obs.timeseries import (
    TelemetryConfig,
    WindowedSampler,
    bucket_quantile,
    merge_series,
    render_prometheus,
)
from tests import chaos_capture, golden
from tests.test_bundle import write_bundle

REGIONS = ("us-east-1", "ca-central-1")


# ------------------------------------------------------------- bucket_quantile
class TestBucketQuantile:
    def test_empty_window_is_zero(self):
        assert bucket_quantile((1.0, 2.0), (0, 0, 0), 0.95) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 observations all in (1, 2]: p50 lands mid-bucket.
        assert bucket_quantile((1.0, 2.0), (0, 10, 0), 0.5) == pytest.approx(1.5)

    def test_first_bucket_lower_bound_is_zero(self):
        # All mass in the first bucket: interpolation starts at 0.
        assert bucket_quantile((4.0,), (10, 0), 0.5) == pytest.approx(2.0)

    def test_overflow_clamps_to_last_finite_bound(self):
        assert bucket_quantile((1.0, 2.0), (0, 0, 5), 0.99) == 2.0

    def test_no_bounds_degenerates_to_zero(self):
        assert bucket_quantile((), (3,), 0.5) == 0.0

    def test_monotone_in_q(self):
        bounds = (0.5, 1.0, 2.0, 4.0)
        counts = (3, 7, 5, 2, 1)
        qs = [bucket_quantile(bounds, counts, q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)


# -------------------------------------------------------------- RepeatingEvent
class TestRepeatingEvent:
    def test_fires_on_absolute_grid(self):
        env = SimulationEnvironment()
        boundaries = []
        env.schedule_at(3.0, lambda: None)
        env.schedule_at(25.0, lambda: None)
        rep = env.every(10.0, boundaries.append)
        env.run_until_idle()
        # Grid-aligned to absolute multiples of the interval, not to arm
        # time.  The firing armed while work was still pending (at 20.0,
        # the 25.0 event was queued) runs as one trailing fire at 30.0,
        # then the event parks instead of spinning forever.
        assert boundaries == [10.0, 20.0, 30.0]
        assert rep.fired == 3
        assert not rep.armed

    def test_parks_after_one_trailing_fire(self):
        env = SimulationEnvironment()
        rep = env.every(5.0, lambda b: None)
        env.run_until_idle()
        # No real work scheduled: exactly the already-armed firing runs,
        # then the event parks — run_until_idle terminates.
        assert env.now() == 5.0
        assert rep.fired == 1

    def test_rearm_after_drain(self):
        env = SimulationEnvironment()
        boundaries = []
        env.schedule_at(7.0, lambda: None)
        rep = env.every(10.0, boundaries.append)
        env.run_until_idle()
        assert boundaries == [10.0]
        env.schedule_at(env.now() + 15.0, lambda: None)
        rep.arm()
        env.run_until_idle()
        assert boundaries == [10.0, 20.0, 30.0]

    def test_arm_is_idempotent_while_armed(self):
        env = SimulationEnvironment()
        rep = env.every(10.0, lambda b: None)
        assert rep.armed
        rep.arm()
        env.schedule_at(12.0, lambda: None)
        env.run_until_idle()
        assert rep.fired == 2

    def test_stop_cancels_pending_fire(self):
        env = SimulationEnvironment()
        boundaries = []
        env.schedule_at(50.0, lambda: None)
        rep = env.every(10.0, boundaries.append)
        rep.stop()
        env.run_until_idle()
        assert boundaries == []
        assert not rep.armed

    def test_rejects_bad_interval(self):
        env = SimulationEnvironment()
        with pytest.raises(ValueError):
            RepeatingEvent(env, 0.0, lambda b: None)


# ------------------------------------------------------------- WindowedSampler
class TestWindowedSampler:
    def _env_reg(self):
        return SimulationEnvironment(), MetricsRegistry()

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedSampler(MetricsRegistry(), window_s=0.0)

    def test_counter_deltas_per_window(self):
        env, reg = self._env_reg()
        c = reg.counter("jobs.done")
        env.schedule_at(2.0, lambda: c.inc(3))
        env.schedule_at(12.0, lambda: c.inc(5))
        env.schedule_at(23.0, lambda: c.inc(1))
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)
        env.run_until_idle()
        sampler.close()
        assert [(p["window"], p["value"]) for p in sampler.points] == [
            (0.0, 3.0), (10.0, 5.0), (20.0, 1.0),
        ]
        assert all(p["type"] == "counter" for p in sampler.points)

    def test_quiet_windows_emit_nothing(self):
        env, reg = self._env_reg()
        c = reg.counter("sparse")
        env.schedule_at(1.0, lambda: c.inc())
        env.schedule_at(35.0, lambda: c.inc())
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)
        env.run_until_idle()
        sampler.close()
        # Windows 10 and 20 are silent: no zero-valued filler points.
        assert [p["window"] for p in sampler.points] == [0.0, 30.0]

    def test_pre_attach_activity_is_baselined_out(self):
        env, reg = self._env_reg()
        c = reg.counter("warmup")
        c.inc(100)
        env.schedule_at(3.0, lambda: c.inc(2))
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)
        env.run_until_idle()
        sampler.close()
        assert [p["value"] for p in sampler.points] == [2.0]

    def test_gauge_last_value_and_only_on_change(self):
        env, reg = self._env_reg()
        g = reg.gauge("queue.depth")
        env.schedule_at(1.0, lambda: g.set(4))
        env.schedule_at(8.0, lambda: g.set(7))   # same window: last wins
        env.schedule_at(25.0, lambda: g.set(7))  # unchanged: no point
        env.schedule_at(31.0, lambda: g.set(0))
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)
        env.run_until_idle()
        sampler.close()
        gauges = [p for p in sampler.points if p["type"] == "gauge"]
        assert [(p["window"], p["value"]) for p in gauges] == [
            (0.0, 7.0), (30.0, 0.0),
        ]

    def test_histogram_window_deltas_and_quantiles(self):
        env, reg = self._env_reg()
        h = reg.histogram("latency", bounds=(1.0, 2.0, 4.0))
        for t, v in ((1.0, 0.5), (2.0, 1.5), (3.0, 1.6), (15.0, 3.0)):
            env.schedule_at(t, lambda v=v: h.observe(v))
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)
        env.run_until_idle()
        sampler.close()
        pts = [p for p in sampler.points if p["type"] == "histogram"]
        assert len(pts) == 2
        first, second = pts
        assert first["window"] == 0.0 and first["count"] == 3
        assert first["sum"] == pytest.approx(3.6)
        # Only non-empty delta buckets appear.
        assert first["buckets"] == {"1": 1, "2": 2}
        # Window quantile reflects only the window's own observations.
        assert first["p50"] == pytest.approx(1.25)
        assert second["count"] == 1 and second["buckets"] == {"4": 1}
        # Second window's quantiles ignore the first window's mass: the
        # single observation interpolates inside the (2, 4] bucket.
        assert second["p50"] == pytest.approx(3.0)

    def test_close_flushes_partial_window(self):
        env, reg = self._env_reg()
        c = reg.counter("tail")
        env.schedule_at(43.5, lambda: None)
        env.run_until_idle()  # park the clock mid-window at 43.5
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)   # window grid: last boundary is 40.0
        c.inc(3)
        sampler.close()       # no boundary ever fired: partial flush
        assert [(p["window"], p["value"]) for p in sampler.points] == [
            (40.0, 3.0)
        ]
        sampler.close()  # idempotent
        assert len(sampler.points) == 1

    def test_points_sorted_by_metric_within_window(self):
        env, reg = self._env_reg()
        b = reg.counter("zz.last")
        a = reg.counter("aa.first")
        env.schedule_at(1.0, lambda: (b.inc(), a.inc()))
        sampler = WindowedSampler(reg, window_s=10.0)
        sampler.attach(env)
        env.run_until_idle()
        sampler.close()
        assert [p["metric"] for p in sampler.points] == ["aa.first", "zz.last"]

    def test_to_jsonl_has_header(self, tmp_path):
        # The sampler's window is the bundle header's.
        sampler = WindowedSampler(MetricsRegistry(), window_s=60.0)
        path = write_bundle(tmp_path / "run.jsonl", points=sampler.points,
                            window_s=sampler.window_s)
        header = json.loads(open(path).readline())
        assert header == {"schema": BUNDLE_SCHEMA, "window_s": 60.0}


# ------------------------------------------------------------------ exporters
class TestSeriesJsonl:
    POINTS = [
        {"metric": "a", "window": 0.0, "type": "counter", "value": 1.0},
        {"metric": "b", "window": 3600.0, "type": "gauge", "value": 2.5},
    ]

    def test_round_trip_text(self, tmp_path):
        bundle = load_bundle(
            write_bundle(tmp_path / "run.jsonl", points=self.POINTS,
                         window_s=1800.0)
        )
        assert bundle.points == self.POINTS
        assert bundle.window_s == 1800.0

    def test_round_trip_path_and_file_object(self, tmp_path):
        # Loading and re-writing a bundle reproduces it byte for byte.
        path = write_bundle(tmp_path / "run.jsonl", points=self.POINTS,
                            window_s=60.0)
        text = open(path).read()
        bundle = load_bundle(path)
        assert (bundle.points, bundle.window_s) == (self.POINTS, 60.0)
        assert bundle.to_jsonl() == text

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"schema":"something.else/v9"}\n')
        with pytest.raises(ValueError, match="not a caribou.run/v1 bundle"):
            load_bundle(str(path))

    def test_empty_input(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        with pytest.raises(MalformedInputError, match="empty file"):
            load_bundle(str(path))

    def test_lines_are_compact_and_sorted(self, tmp_path):
        path = write_bundle(tmp_path / "run.jsonl", points=self.POINTS)
        for line in open(path).read().splitlines()[2:]:
            point = json.loads(line)["point"]
            assert list(point) == sorted(point)
            assert ": " not in line and ", " not in line

    def test_merge_series_sorts_by_window_then_metric(self):
        a = [{"metric": "z", "window": 0.0, "type": "counter", "value": 1.0}]
        b = [
            {"metric": "a", "window": 3600.0, "type": "counter", "value": 1.0},
            {"metric": "a", "window": 0.0, "type": "counter", "value": 1.0},
        ]
        merged = merge_series(a, b)
        assert [(p["window"], p["metric"]) for p in merged] == [
            (0.0, "a"), (0.0, "z"), (3600.0, "a"),
        ]


class TestPrometheus:
    def test_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("exec.requests", workflow="wf").inc(3)
        reg.gauge("queue depth").set(1.5)
        h = reg.histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE caribou_exec_requests counter" in lines
        assert 'caribou_exec_requests{workflow="wf"} 3' in lines
        # Non-alphanumeric characters sanitised to underscores.
        assert "caribou_queue_depth 1.5" in lines
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'caribou_lat_bucket{le="1"} 1' in lines
        assert 'caribou_lat_bucket{le="2"} 1' in lines
        assert 'caribou_lat_bucket{le="+Inf"} 2' in lines
        assert "caribou_lat_sum 5.5" in lines
        assert "caribou_lat_count 2" in lines
        # Families sort by name; every family gets exactly one TYPE line.
        types = [ln for ln in lines if ln.startswith("# TYPE")]
        assert types == sorted(types)
        assert render_prometheus(reg) == text  # deterministic

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


# --------------------------------------------------------- registry iteration
class TestRegistryIteration:
    def test_iterators_are_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b.counter")
        reg.counter("a.counter")
        reg.gauge("g")
        reg.histogram("h")
        assert [k for k, _ in reg.iter_counters()] == ["a.counter", "b.counter"]
        assert [k for k, _ in reg.iter_gauges()] == ["g"]
        assert [k for k, _ in reg.iter_histograms()] == ["h"]

    def test_snapshot_histogram_exposes_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(3.0)
        entry = reg.snapshot()["lat"]
        assert entry["buckets"] == {"1": 1, "2": 0, "+Inf": 1}
        assert entry["count"] == 2


# ------------------------------------------------------------ end-to-end runs
@pytest.fixture(scope="module")
def telemetered_outcome():
    return run_caribou(
        get_app("text2speech_censoring"), "small", REGIONS,
        seed=3, n_invocations=4,
        telemetry=TelemetryConfig(window_s=3600.0),
    )


class TestHarnessTelemetry:
    def test_outcome_carries_series_and_prom(self, telemetered_outcome):
        out = telemetered_outcome
        assert out.series and out.series_window_s == 3600.0
        assert out.prom.startswith("# TYPE caribou_")
        metrics = {p["metric"].split("{")[0] for p in out.series}
        assert "executor.requests" in metrics
        assert "executor.request_latency_s" in metrics
        assert "ledger.carbon_g" in metrics
        assert "ledger.requests" in metrics

    def test_ledger_requests_match_invocations(self, telemetered_outcome):
        total = sum(
            p["value"] for p in telemetered_outcome.series
            if p["metric"].startswith("ledger.requests{")
        )
        # Warm-up + measured invocations each start one request.
        assert total >= 4

    def test_series_sorted_and_serialisable(self, telemetered_outcome,
                                           tmp_path):
        pts = telemetered_outcome.series
        keys = [(p["window"], p["metric"]) for p in pts]
        assert keys == sorted(keys)
        assert load_bundle(write_bundle(tmp_path / "run.jsonl",
                                        points=pts)).points == pts

    def test_same_seed_reruns_byte_identical(self, telemetered_outcome):
        again = run_caribou(
            get_app("text2speech_censoring"), "small", REGIONS,
            seed=3, n_invocations=4,
            telemetry=TelemetryConfig(window_s=3600.0),
        )
        assert json.dumps(again.series) == json.dumps(
            telemetered_outcome.series
        )
        assert again.prom == telemetered_outcome.prom

    def test_untelemetered_run_unchanged(self):
        """NullTracer contract, extended: no TelemetryConfig => no series,
        no prom, and the measured means match a telemetered twin."""
        plain = run_caribou(
            get_app("text2speech_censoring"), "small", REGIONS,
            seed=3, n_invocations=4,
        )
        assert plain.series is None and plain.prom is None
        telemetered = run_caribou(
            get_app("text2speech_censoring"), "small", REGIONS,
            seed=3, n_invocations=4,
            telemetry=TelemetryConfig(window_s=3600.0),
        )
        assert plain.mean_service_time_s == telemetered.mean_service_time_s
        assert plain.per_scenario == telemetered.per_scenario


# ------------------------------------------------- sampler on the serving path
def _serving_run(window_s):
    """One minute of open-loop traffic (20 req/s, steady) against
    text2speech, optionally with a live sampler attached."""
    cloud = SimulatedCloud(seed=3)
    _deployed, executor, _ = deploy_benchmark(
        get_app("text2speech_censoring"), cloud
    )
    spec = WorkloadSpec(
        base_rate_per_s=20.0, duration_s=60.0, profile="steady"
    )
    trace = generate_trace(spec, cloud.env.rng.get("bench.workload"))
    sampler = None
    if window_s is not None:
        sampler = WindowedSampler(cloud.metrics, window_s=window_s)
        sampler.attach(cloud.env)
    OpenLoopInjector(executor, trace).start()
    cloud.env.run_until_idle()
    if sampler is not None:
        sampler.close()
    executions = [
        (r.request_id, r.node, r.region, r.start_s, r.duration_s)
        for r in cloud.ledger.executions
    ]
    return cloud.env.events_executed, executions, sampler


class TestServingTelemetry:
    def test_sampler_costs_one_event_per_window_and_changes_nothing(self):
        """What the retired wall-clock "telemetry overhead <= 5 %" gate
        stood for, stated without a clock: sampling happens only at
        window boundaries and never perturbs the run it observes."""
        plain_events, plain_executions, _ = _serving_run(None)
        events, executions, sampler = _serving_run(10.0)
        _, _, again = _serving_run(10.0)

        assert sampler.windows_flushed > 0
        assert json.dumps(sampler.points) == json.dumps(again.points)
        assert events == plain_events + sampler.windows_flushed
        assert len({e[0] for e in executions}) > 1000
        assert executions == plain_executions


class TestChaosSeriesCapture:
    """Every windowed point of a chaos run (outage, invocation failures,
    KV errors and latency, a partition; retries, dead letters and fault
    aborts among the points) serialises byte-equal to the capture taken
    before the per-operation families were folded from the ledger (see
    ``tests/chaos_capture.py::capture_series``)."""

    @pytest.mark.parametrize("app_name", chaos_capture.APPS)
    def test_points_match_the_capture(self, app_name):
        golden.check("chaos_series", chaos_capture.capture_series(app_name), app_name)

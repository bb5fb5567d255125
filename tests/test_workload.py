"""Tests for open-loop arrival-trace generation and injection."""

import numpy as np
import pytest

from repro.common.rng import RngRegistry
from repro.data.workload import (
    PROFILES,
    ArrivalTrace,
    OpenLoopInjector,
    WorkloadSpec,
    generate_arrivals,
    generate_trace,
)


def _rng(seed: int) -> np.random.Generator:
    return RngRegistry(seed).get("workload")


class TestSpecValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="base_rate_per_s"):
            WorkloadSpec(base_rate_per_s=-1.0, duration_s=10.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            WorkloadSpec(base_rate_per_s=1.0, duration_s=0.0)

    def test_bad_bin_rejected(self):
        with pytest.raises(ValueError, match="bin_s"):
            WorkloadSpec(base_rate_per_s=1.0, duration_s=10.0, bin_s=0.0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            WorkloadSpec(base_rate_per_s=1.0, duration_s=10.0, profile="spiky")


class TestGeneration:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_deterministic_per_seed(self, profile):
        spec = WorkloadSpec(base_rate_per_s=5.0, duration_s=3600.0, profile=profile)
        a = generate_arrivals(spec, _rng(42))
        b = generate_arrivals(spec, _rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_different_seeds_differ(self, profile):
        spec = WorkloadSpec(base_rate_per_s=5.0, duration_s=3600.0, profile=profile)
        a = generate_arrivals(spec, _rng(1))
        b = generate_arrivals(spec, _rng(2))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_sorted_and_in_horizon(self, profile):
        spec = WorkloadSpec(
            base_rate_per_s=5.0, duration_s=1800.0, profile=profile, start_s=100.0
        )
        times = generate_arrivals(spec, _rng(7))
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= spec.start_s
        assert times[-1] < spec.start_s + spec.duration_s

    def test_mean_rate_close_to_base_for_steady(self):
        spec = WorkloadSpec(base_rate_per_s=10.0, duration_s=7200.0, profile="steady")
        trace = generate_trace(spec, _rng(3))
        assert trace.mean_rate_per_s == pytest.approx(10.0, rel=0.1)

    def test_zero_rate_yields_empty_trace(self):
        spec = WorkloadSpec(base_rate_per_s=0.0, duration_s=600.0, profile="steady")
        times = generate_arrivals(spec, _rng(0))
        assert len(times) == 0
        assert times.dtype == np.float64

    def test_flash_crowd_has_a_spike(self):
        spec = WorkloadSpec(
            base_rate_per_s=2.0, duration_s=7200.0, profile="flash_crowd"
        )
        times = generate_arrivals(spec, _rng(11))
        # Minute-bin counts: the flash peak must dwarf the baseline.
        counts, _ = np.histogram(times, bins=int(spec.duration_s / 60.0))
        assert counts.max() > 5 * max(np.median(counts), 1.0)

    def test_partial_last_bin_respected(self):
        # duration not a multiple of bin_s: arrivals must not spill past it.
        spec = WorkloadSpec(
            base_rate_per_s=50.0, duration_s=90.0, profile="steady", bin_s=60.0
        )
        times = generate_arrivals(spec, _rng(5))
        assert times[-1] < 90.0

    def test_shifted_trace_preserves_gaps(self):
        spec = WorkloadSpec(base_rate_per_s=5.0, duration_s=600.0, profile="steady")
        trace = generate_trace(spec, _rng(9))
        moved = trace.shifted(1000.0)
        assert isinstance(moved, ArrivalTrace)
        assert moved.spec.start_s == 1000.0
        assert np.allclose(np.diff(moved.times), np.diff(trace.times))
        assert moved.times[0] == pytest.approx(trace.times[0] + 1000.0)


class TestInjection:
    @pytest.fixture
    def deployment(self):
        from repro.apps import get_app
        from repro.cloud.provider import SimulatedCloud
        from repro.core.lifecycle import deploy_benchmark

        cloud = SimulatedCloud(seed=23)
        app = get_app("text2speech_censoring")
        _deployed, executor, _ = deploy_benchmark(app, cloud)
        return cloud, executor

    def test_injects_every_arrival(self, deployment):
        cloud, executor = deployment
        spec = WorkloadSpec(base_rate_per_s=0.5, duration_s=120.0, profile="steady")
        trace = generate_trace(spec, _rng(23))
        injector = OpenLoopInjector(executor, trace)
        injector.start()
        cloud.env.run_until_idle()
        assert injector.injected == len(trace)
        assert injector.remaining == 0

    def test_one_pending_heap_slot(self, deployment):
        """The chain property: N arrivals never put N entries in the heap."""
        cloud, executor = deployment
        spec = WorkloadSpec(base_rate_per_s=5.0, duration_s=600.0, profile="steady")
        trace = generate_trace(spec, _rng(31))
        assert len(trace) > 100
        base = cloud.env.pending_events
        injector = OpenLoopInjector(executor, trace)
        injector.start()
        assert cloud.env.pending_events == base + 1

    def test_start_is_idempotent(self, deployment):
        cloud, executor = deployment
        spec = WorkloadSpec(base_rate_per_s=0.5, duration_s=60.0, profile="steady")
        trace = generate_trace(spec, _rng(5))
        injector = OpenLoopInjector(executor, trace)
        injector.start()
        injector.start()  # no double chain
        cloud.env.run_until_idle()
        assert injector.injected == len(trace)

    def test_past_arrivals_skipped_not_replayed(self, deployment):
        cloud, executor = deployment
        spec = WorkloadSpec(base_rate_per_s=1.0, duration_s=300.0, profile="steady")
        trace = generate_trace(spec, _rng(13))
        # Advance the clock into the middle of the trace before arming.
        cutoff = float(trace.times[len(trace) // 2])
        cloud.env.schedule(cutoff, lambda: None)
        cloud.env.run_until_idle()
        injector = OpenLoopInjector(executor, trace)
        injector.start()
        expected = int(np.sum(trace.times >= cutoff))
        assert injector.remaining == expected
        cloud.env.run_until_idle()
        assert injector.injected == expected

    def test_payload_factory_receives_indices(self, deployment):
        cloud, executor = deployment
        spec = WorkloadSpec(base_rate_per_s=0.5, duration_s=60.0, profile="steady")
        trace = generate_trace(spec, _rng(17))
        seen = []

        def factory(i):
            from repro.core.api import Payload

            seen.append(i)
            return Payload()

        injector = OpenLoopInjector(executor, trace, payload_factory=factory)
        injector.start()
        cloud.env.run_until_idle()
        assert seen == list(range(len(trace)))

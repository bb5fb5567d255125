"""Edge-case backfill for the forecaster and the temporal shifter.

Covers the corners the mainline suites skip: hour wraparound across the
(DST-less) virtual midnight, degenerate forecast inputs, single-hour
plan sets, and zero-delay passthrough.
"""

import numpy as np
import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_HOUR
from repro.core.temporal import TemporalPolicy, TemporalShifter
from repro.core.lifecycle import deploy_benchmark
from repro.metrics.forecast import (
    HoltWintersForecaster,
    HoltWintersParams,
    mape,
)
from repro.model.plan import DeploymentPlan, HourlyPlanSet


def daily_series(days: int, amplitude: float = 50.0, base: float = 300.0):
    hours = np.arange(days * 24)
    return base + amplitude * np.sin(2 * np.pi * (hours % 24) / 24.0)


class TestForecastEdges:
    def test_horizon_zero_rejected(self):
        fc = HoltWintersForecaster().fit(daily_series(7))
        with pytest.raises(ValueError, match="horizon must be positive"):
            fc.forecast(0)

    def test_horizon_negative_rejected(self):
        fc = HoltWintersForecaster().fit(daily_series(7))
        with pytest.raises(ValueError, match="horizon must be positive"):
            fc.forecast(-3)

    def test_unfitted_forecast_rejected(self):
        with pytest.raises(RuntimeError, match="must be fitted"):
            HoltWintersForecaster().forecast(24)

    def test_fewer_than_two_seasons_rejected(self):
        with pytest.raises(ValueError, match="at least 48 observations"):
            HoltWintersForecaster().fit(daily_series(7)[:47])

    def test_exactly_two_seasons_accepted(self):
        fc = HoltWintersForecaster(
            params=HoltWintersParams(0.3, 0.05, 0.3)
        ).fit(daily_series(2))
        assert fc.is_fitted
        assert len(fc.forecast(24)) == 24

    def test_non_finite_series_rejected(self):
        bad = daily_series(7)
        bad[10] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            HoltWintersForecaster().fit(bad)

    def test_forecast_never_negative(self):
        # A steeply decreasing trend would extrapolate below zero.
        y = np.linspace(100.0, 1.0, 24 * 7)
        fc = HoltWintersForecaster(
            params=HoltWintersParams(0.5, 0.5, 0.1)
        ).fit(y)
        assert (fc.forecast(24 * 14) >= 0.0).all()

    def test_forecast_seasonal_phase_continues_history(self):
        # History ends at hour 167 (= 23 mod 24): the first forecast
        # step is the *next* hour of day (0), wrapping without DST.
        y = daily_series(7)
        fc = HoltWintersForecaster(
            params=HoltWintersParams(0.3, 0.05, 0.3)
        ).fit(y)
        out = fc.forecast(48)
        # Same phase one season apart.
        assert out[:24] == pytest.approx(out[24:48], rel=0.2)
        # Peak hour of the forecast matches the history's diurnal peak.
        assert int(np.argmax(out[:24])) == int(np.argmax(y[:24]))

    def test_params_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                HoltWintersParams(bad, 0.1, 0.1)

    def test_mape_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mape([], [])

    def test_mape_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mape([1.0, 2.0], [1.0])


@pytest.fixture
def shifted_deployment():
    cloud = SimulatedCloud(seed=19)
    app = get_app("dna_visualization")
    deployed, executor, _ = deploy_benchmark(app, cloud)
    return cloud, app, deployed, executor


class TestTemporalEdges:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_delay_s"):
            TemporalPolicy(max_delay_s=-1.0)
        with pytest.raises(ValueError, match="slot_s"):
            TemporalPolicy(max_delay_s=10.0, slot_s=0.0)

    def test_no_policy_passes_straight_through(self, shifted_deployment):
        cloud, app, _, executor = shifted_deployment
        shifter = TemporalShifter(executor)
        decision = shifter.submit(app.make_input("small"))
        assert decision.scheduled_at_s == decision.submitted_at_s
        cloud.run_until_idle()
        assert executor.reliability().completed_requests == 1

    def test_zero_max_delay_passes_straight_through(self, shifted_deployment):
        cloud, app, _, executor = shifted_deployment
        shifter = TemporalShifter(executor)
        decision = shifter.submit(
            app.make_input("small"), TemporalPolicy(max_delay_s=0.0)
        )
        assert decision.scheduled_at_s == decision.submitted_at_s
        assert len(decision.slot_intensities) == 1

    def test_single_hour_plan_set_used_for_every_slot(self, shifted_deployment):
        cloud, _, deployed, executor = shifted_deployment
        # An HourlyPlanSet with a single entry covers all 24 hours.
        plan_set = HourlyPlanSet.daily(
            DeploymentPlan.single_region(deployed.dag, "us-east-1")
        )
        executor.stage_plan_set(plan_set)
        cloud.run_until_idle()
        shifter = TemporalShifter(executor)
        for hour in (0, 12, 23):
            value = shifter.slot_intensity(hour * SECONDS_PER_HOUR)
            expected = cloud.carbon_source.intensity_at_hour("us-east-1", hour)
            assert value == pytest.approx(expected)

    def test_tie_breaks_to_earliest_slot(self, shifted_deployment):
        cloud, _, _, executor = shifted_deployment
        shifter = TemporalShifter(executor, intensity_fn=lambda r, h: 100.0)
        start, intensities = shifter.choose_start(
            TemporalPolicy(max_delay_s=4 * SECONDS_PER_HOUR)
        )
        assert start == cloud.now()  # all equal: take "now"
        assert len(intensities) == 5

    def test_midnight_slot_wraparound(self, shifted_deployment):
        cloud, _, _, executor = shifted_deployment
        # Sit at 23:30; a 2-hour tolerance spans slots 23, 0, and 1 of
        # the next day.  Make hour 0 (the wrapped one) the cheapest.
        cloud.env.schedule(23 * SECONDS_PER_HOUR + 1800.0, lambda: None)
        cloud.run_until_idle()
        cheap_hour = 24  # absolute hour index: next day's 00:00

        shifter = TemporalShifter(
            executor,
            intensity_fn=lambda r, h: 1.0 if h == cheap_hour else 100.0,
        )
        start, intensities = shifter.choose_start(
            TemporalPolicy(max_delay_s=2 * SECONDS_PER_HOUR)
        )
        assert start == cheap_hour * SECONDS_PER_HOUR
        assert min(intensities.values()) == 1.0

    def test_never_delays_past_deadline(self, shifted_deployment):
        cloud, app, _, executor = shifted_deployment
        # Every later slot looks better, but the deadline caps the wait.
        shifter = TemporalShifter(
            executor, intensity_fn=lambda r, h: 1000.0 - h
        )
        policy = TemporalPolicy(max_delay_s=3 * SECONDS_PER_HOUR)
        decision = shifter.submit(app.make_input("small"), policy)
        assert decision.scheduled_at_s - decision.submitted_at_s <= policy.max_delay_s
        cloud.run_until_idle()
        assert executor.reliability().completed_requests == 1

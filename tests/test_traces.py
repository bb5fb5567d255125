"""Tests for the synthetic invocation-trace generator."""

import numpy as np
import pytest

from repro.common.clock import SECONDS_PER_DAY
from repro.data.traces import azure_like_trace


class TestAzureLikeTrace:
    def test_mean_daily_rate(self):
        trace = azure_like_trace(days=7, mean_daily_invocations=1600, seed=0)
        daily, _ = np.histogram(list(trace), bins=7, range=(0.0, 7 * SECONDS_PER_DAY))
        assert len(daily) == 7
        # Mean within 15 % of target (§9.7 uses ~1.6K/day).
        assert 1600 * 0.85 < np.mean(daily) < 1600 * 1.15

    def test_timestamps_sorted(self):
        trace = azure_like_trace(days=2, mean_daily_invocations=500, seed=1)
        ts = list(trace)
        assert ts == sorted(ts)

    def test_diurnal_pattern(self):
        trace = azure_like_trace(
            days=14, mean_daily_invocations=5000, diurnal_amplitude=0.8,
            peak_hour=14.0, burstiness=1.0, seed=2,
        )
        counts, _ = np.histogram(list(trace), bins=14 * 24,
                                 range=(0.0, 14 * SECONDS_PER_DAY))
        hourly = counts.reshape(14, 24).mean(axis=0)
        peak = int(np.argmax(hourly))
        trough = int(np.argmin(hourly))
        assert abs(peak - 14) <= 3
        assert hourly[peak] > 2 * hourly[trough]

    def test_burstiness_increases_variance(self):
        smooth = azure_like_trace(days=7, mean_daily_invocations=2000,
                                  burstiness=1.0, diurnal_amplitude=0.0, seed=3)
        bursty = azure_like_trace(days=7, mean_daily_invocations=2000,
                                  burstiness=8.0, diurnal_amplitude=0.0, seed=3)
        cv = lambda t: np.std(np.diff(list(t))) / np.mean(np.diff(list(t)))
        assert cv(bursty) > cv(smooth)

    def test_deterministic(self):
        a = azure_like_trace(days=1, mean_daily_invocations=100, seed=4)
        b = azure_like_trace(days=1, mean_daily_invocations=100, seed=4)
        assert list(a) == list(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            azure_like_trace(days=0)
        with pytest.raises(ValueError):
            azure_like_trace(days=1, mean_daily_invocations=-5)
        with pytest.raises(ValueError):
            azure_like_trace(days=1, diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            azure_like_trace(days=1, burstiness=0)


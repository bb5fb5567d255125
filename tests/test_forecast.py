"""Tests for Holt-Winters carbon forecasting (§7.2).

CI's ``numpy-floor`` job runs this file: the grid search's vector
recurrence promises each candidate the scalar run's doubles
(``TestGridSearchDifferential``), on the oldest numpy too.
"""

import sys

import numpy as np
import pytest

from repro.data.carbon import CarbonIntensitySource, generate_carbon_trace
from repro.data.regions import all_regions
from repro.metrics.forecast import (
    _GRID,
    HoltWintersForecaster,
    HoltWintersParams,
    mape,
)
from tests.forecast_oracle import ScanGridForecaster


class TestParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            HoltWintersParams(alpha=0.0, beta=0.1, gamma=0.1)
        with pytest.raises(ValueError):
            HoltWintersParams(alpha=0.5, beta=1.0, gamma=0.1)
        HoltWintersParams(alpha=0.5, beta=0.1, gamma=0.3)  # valid


class TestForecaster:
    def test_requires_two_seasons(self):
        with pytest.raises(ValueError, match="at least"):
            HoltWintersForecaster().fit([1.0] * 47)

    def test_rejects_nan(self):
        series = [1.0] * 48
        series[10] = float("nan")
        with pytest.raises(ValueError):
            HoltWintersForecaster().fit(series)

    def test_forecast_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HoltWintersForecaster().forecast(5)

    def test_invalid_horizon(self):
        f = HoltWintersForecaster().fit(list(range(48)))
        with pytest.raises(ValueError):
            f.forecast(0)

    def test_constant_series_forecast_constant(self):
        f = HoltWintersForecaster().fit([100.0] * (24 * 7))
        pred = f.forecast(24)
        assert np.allclose(pred, 100.0, atol=1.0)

    def test_learns_pure_sinusoid(self):
        t = np.arange(24 * 7)
        series = 300 + 50 * np.sin(2 * np.pi * t / 24)
        f = HoltWintersForecaster().fit(series)
        future = 300 + 50 * np.sin(2 * np.pi * np.arange(24 * 7, 24 * 8) / 24)
        pred = f.forecast(24)
        assert mape(future, pred) < 0.05

    def test_learns_trend(self):
        t = np.arange(24 * 7)
        series = 100 + 0.5 * t + 10 * np.sin(2 * np.pi * t / 24)
        f = HoltWintersForecaster().fit(series)
        pred = f.forecast(24)
        future_mean = 100 + 0.5 * (24 * 7 + 12)
        assert abs(pred.mean() - future_mean) < 15

    def test_non_negative_forecasts(self):
        # A falling trend must not forecast negative carbon intensity.
        t = np.arange(24 * 7)
        series = np.maximum(5.0, 100 - 0.5 * t)
        pred = HoltWintersForecaster().fit(series).forecast(24 * 3)
        assert np.all(pred >= 0)

    def test_reasonable_on_synthetic_carbon(self):
        # The §9.5/§9.7 use case: week of hourly data -> next day.
        trace = generate_carbon_trace("US-CAISO", 24 * 8, seed=5)
        f = HoltWintersForecaster().fit(trace[: 24 * 7])
        pred = f.forecast(24)
        assert mape(trace[24 * 7 :], pred) < 0.25

    def test_explicit_params_skip_grid_search(self, monkeypatch):
        def no_search(self, y):
            raise AssertionError("grid search ran despite explicit params")

        params = HoltWintersParams(alpha=0.3, beta=0.05, gamma=0.3)
        monkeypatch.setattr(HoltWintersForecaster, "_grid_search", no_search)
        f = HoltWintersForecaster(params=params).fit([float(i % 24) + 10 for i in range(96)])
        assert f.is_fitted

    def test_grid_search_selects_params(self):
        y = np.asarray(generate_carbon_trace("US-PJM", 24 * 7))
        chosen = HoltWintersForecaster()._grid_search(y)
        assert chosen in [HoltWintersParams(*p) for p in _GRID]


def _random_series(seed):
    """A series the provider could plausibly fit, or a harder one: two
    seasons to a week, level, trend, daily cycle and noise of random
    size and sign, sometimes heavy-tailed, sometimes rounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(48, 169))
    t = np.arange(n, dtype=float)
    series = (
        rng.uniform(-50.0, 800.0)
        + rng.normal(0.0, 2.0) * t
        + rng.uniform(0.0, 300.0) * np.sin(2 * np.pi * (t - rng.uniform(0, 24)) / 24)
    )
    if seed % 3 == 0:
        series = series + rng.standard_cauchy(n)
    else:
        series = series + rng.normal(0.0, rng.uniform(0.0, 60.0), n)
    if seed % 5 == 0:
        series = np.round(series)
    return series


class RecordingScan(ScanGridForecaster):
    """The scan, keeping every candidate's SSE as it goes."""

    def _one_step_sse(self, y, params):
        sse = super()._one_step_sse(y, params)
        self.scanned.append((params, sse))
        return sse


def _assert_search_equals_the_scan(series):
    y = np.asarray(series, dtype=float)
    got = HoltWintersForecaster()._grid_sse(y)
    reference = RecordingScan()
    reference.scanned = []
    reference.fit(y)
    assert [p for p, _ in reference.scanned] == [
        HoltWintersParams(*p) for p in _GRID
    ]
    # Bit-equal, candidate for candidate (``==`` on doubles).
    assert got.tolist() == [float(sse) for _, sse in reference.scanned]
    fitted = HoltWintersForecaster().fit(y)
    assert fitted._grid_search(y) == ScanGridForecaster()._grid_search(y)
    assert np.array_equal(fitted.forecast(24), reference.forecast(24))
    return got


class TestGridSearchDifferential:
    """The vector grid search against the scalar scan kept in
    ``tests/forecast_oracle.py``: every candidate's SSE is the same
    double and the same candidate wins."""

    def test_random_series(self):
        for seed in range(200):
            _assert_search_equals_the_scan(_random_series(seed))

    def test_constant_series_ties_and_the_first_candidate_wins(self):
        for value in (0.0, 64.0, 300.0):
            sse = _assert_search_equals_the_scan([value] * (24 * 7))
            assert np.all(sse == sse[0])
            y = np.full(24 * 7, value)
            assert HoltWintersForecaster()._grid_search(y) == HoltWintersParams(*_GRID[0])

    def test_trending_series(self):
        t = np.arange(24 * 7)
        _assert_search_equals_the_scan(
            100 + 0.5 * t + 10 * np.sin(2 * np.pi * t / 24)
        )
        _assert_search_equals_the_scan(np.maximum(5.0, 100 - 0.5 * t))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_regions_carbon_trace(self, seed):
        # The provider's input: a week of history, refit daily.
        source = CarbonIntensitySource(hours=24 * 9, seed=seed)
        for region in all_regions():
            trace = source.trace(region)
            for end in (24 * 7, 24 * 8, 24 * 9):
                _assert_search_equals_the_scan(trace[end - 24 * 7:end])


def _params_built_by(fit):
    """How many ``HoltWintersParams`` ``fit()`` constructs, counted with
    ``sys.setprofile``."""
    init = HoltWintersParams.__init__.__code__
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is init:
            built += 1

    sys.setprofile(profile)
    try:
        fit()
    finally:
        sys.setprofile(None)
    return built


class TestFitWorkCounts:
    def test_grid_search_builds_only_the_winner(self):
        series = generate_carbon_trace("US-BPA", 24 * 7, seed=2)
        assert _params_built_by(lambda: HoltWintersForecaster().fit(series)) == 1
        params = HoltWintersParams(alpha=0.3, beta=0.05, gamma=0.3)
        assert _params_built_by(
            lambda: HoltWintersForecaster(params=params).fit(series)
        ) == 0

    def test_the_oracle_is_what_was_counted(self):
        series = generate_carbon_trace("US-BPA", 24 * 7, seed=2)
        assert _params_built_by(lambda: ScanGridForecaster().fit(series)) == len(_GRID)


class TestMape:
    def test_zero_for_perfect(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_value(self):
        assert mape([100.0], [110.0]) == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mape([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            mape([], [])

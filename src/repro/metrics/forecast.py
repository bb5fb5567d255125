"""Carbon-intensity forecasting (paper §7.2).

"MM accomplishes this by using Holt-Winters Forecasting Exponential
Smoothing once every day using the hourly carbon intensities of the
previous week as input."  Implemented from scratch: additive
triple-exponential smoothing with a 24-hour season, fit either with
supplied smoothing parameters or by a small grid search minimising
one-step-ahead squared error.

The grid search runs the one-step recurrence for all 75 (alpha, beta,
gamma) candidates at once, as length-75 vectors: candidate ``i`` gets
the same IEEE operations in the same order as a scalar run with its
parameters, so each sum of squared errors is the scalar run's double,
and ``np.argmin`` keeps the first of equal minima, as a strict ``<``
scan over the candidates in grid order does.  The scalar search it
replaced is kept as the tests' oracle (``tests/forecast_oracle.py``);
``tests/test_forecast.py::TestGridSearchDifferential`` holds the two
equal, candidate for candidate — on CI's ``numpy-floor`` job too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

SEASON_LENGTH = 24

_SMOOTHING_GRID = (0.05, 0.15, 0.3, 0.5, 0.8)
_TREND_GRID = (0.01, 0.05, 0.15)
#: The (alpha, beta, gamma) candidates of the grid search, in the order
#: ties are broken (first wins).
_GRID = tuple(itertools.product(_SMOOTHING_GRID, _TREND_GRID, _SMOOTHING_GRID))
_ALPHA, _BETA, _GAMMA = (np.array(column) for column in zip(*_GRID))


@dataclass(frozen=True)
class HoltWintersParams:
    """Smoothing parameters: level, trend, season — all in (0, 1)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")


class HoltWintersForecaster:
    """Additive Holt-Winters with a daily (24-hour) season."""

    def __init__(
        self,
        season_length: int = SEASON_LENGTH,
        params: Optional[HoltWintersParams] = None,
    ):
        if season_length < 2:
            raise ValueError(f"season_length must be >= 2, got {season_length}")
        self._m = season_length
        self._params = params
        # Fitted state.
        self._level: Optional[float] = None
        self._trend: Optional[float] = None
        self._season: Optional[np.ndarray] = None
        self._fitted_params: Optional[HoltWintersParams] = None
        self._n_observed = 0

    @property
    def is_fitted(self) -> bool:
        return self._level is not None

    @property
    def fitted_params(self) -> Optional[HoltWintersParams]:
        return self._fitted_params

    def fit(self, series: Sequence[float]) -> "HoltWintersForecaster":
        """Fit on a history of at least two full seasons.

        The paper feeds in the previous week of hourly data (168 points,
        7 seasons), refit daily.
        """
        y = np.asarray(series, dtype=float)
        if len(y) < 2 * self._m:
            raise ValueError(
                f"need at least {2 * self._m} observations, got {len(y)}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("series contains non-finite values")

        if self._params is not None:
            params = self._params
        else:
            params = self._grid_search(y)

        level, trend, season = self._run_smoothing(y, params)
        self._level, self._trend, self._season = level, trend, season
        self._fitted_params = params
        self._n_observed = len(y)
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Point forecasts for the next ``horizon`` steps."""
        if not self.is_fitted:
            raise RuntimeError("forecaster must be fitted before forecasting")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        assert self._level is not None and self._trend is not None
        assert self._season is not None
        h = np.arange(1, horizon + 1, dtype=float)
        seasonal = np.array(
            [self._season[(self._n_observed + i) % self._m] for i in range(horizon)]
        )
        out = self._level + h * self._trend + seasonal
        return np.clip(out, 0.0, None)  # carbon intensity is non-negative

    # -- internals ---------------------------------------------------------
    def _initial_state(
        self, y: np.ndarray
    ) -> Tuple[float, float, np.ndarray]:
        m = self._m
        season_means = y[: 2 * m].reshape(2, m).mean(axis=1)
        level = float(y[:m].mean())
        trend = float((season_means[1] - season_means[0]) / m)
        season = y[:m] - level
        return level, trend, season.copy()

    def _run_smoothing(
        self, y: np.ndarray, params: HoltWintersParams
    ) -> Tuple[float, float, np.ndarray]:
        level, trend, season = self._initial_state(y)
        a, b, g = params.alpha, params.beta, params.gamma
        m = self._m
        for t in range(len(y)):
            s = season[t % m]
            prev_level = level
            level = a * (y[t] - s) + (1 - a) * (level + trend)
            trend = b * (level - prev_level) + (1 - b) * trend
            season[t % m] = g * (y[t] - level) + (1 - g) * s
        return level, trend, season

    def _grid_sse(self, y: np.ndarray) -> np.ndarray:
        """One-step-ahead SSE of every ``_GRID`` candidate, as a vector.

        The scalar recurrence with each parameter a vector over the
        candidates: level, trend and each season slot start as the
        shared scalars of :meth:`_initial_state` and become vectors once
        updated, and every step evaluates the scalar run's expressions
        in the scalar run's order (``level + trend`` is computed once
        and used twice, as the same double)."""
        level, trend, season = self._initial_state(y)
        slots = season.tolist()
        a, b, g = _ALPHA, _BETA, _GAMMA
        keep_a, keep_b, keep_g = 1 - a, 1 - b, 1 - g
        m = self._m
        sse = 0.0
        for t, y_t in enumerate(y.tolist()):
            s = slots[t % m]
            level_trend = level + trend
            err = y_t - (level_trend + s)
            sse += err * err
            prev_level = level
            level = a * (y_t - s) + keep_a * level_trend
            trend = b * (level - prev_level) + keep_b * trend
            slots[t % m] = g * (y_t - level) + keep_g * s
        return sse

    def _grid_search(self, y: np.ndarray) -> HoltWintersParams:
        return HoltWintersParams(*_GRID[int(np.argmin(self._grid_sse(y)))])


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error (Fig. 13b's forecast-quality axis)."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {p.shape}")
    if len(a) == 0:
        raise ValueError("empty series")
    denom = np.where(np.abs(a) < 1e-9, 1e-9, np.abs(a))
    return float(np.mean(np.abs(a - p) / denom))

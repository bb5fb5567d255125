"""Test oracle: the Holt-Winters grid search as a scalar scan.

``HoltWintersForecaster._grid_search`` runs the one-step-ahead SSE
recurrence for all 75 candidates at once, as vectors.  This is the
search it replaced: one scalar run of the recurrence per candidate, in
grid order, keeping the first strictly smaller SSE.
``tests/test_forecast.py::TestGridSearchDifferential`` requires the two
to agree on every candidate's SSE, bit for bit, and on the choice.

:class:`ScanGridForecaster` is a :class:`HoltWintersForecaster` whose
``_grid_search`` is the scan; ``_one_step_sse`` and ``_grid_search``
are kept verbatim.  Not shipped: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from repro.metrics.forecast import HoltWintersForecaster, HoltWintersParams


class ScanGridForecaster(HoltWintersForecaster):
    """A :class:`HoltWintersForecaster` fitting by the scalar scan."""

    def _one_step_sse(self, y: np.ndarray, params: HoltWintersParams) -> float:
        level, trend, season = self._initial_state(y)
        a, b, g = params.alpha, params.beta, params.gamma
        m = self._m
        sse = 0.0
        for t in range(len(y)):
            s = season[t % m]
            pred = level + trend + s
            err = y[t] - pred
            sse += err * err
            prev_level = level
            level = a * (y[t] - s) + (1 - a) * (level + trend)
            trend = b * (level - prev_level) + (1 - b) * trend
            season[t % m] = g * (y[t] - level) + (1 - g) * s
        return sse

    def _grid_search(self, y: np.ndarray) -> HoltWintersParams:
        grid = (0.05, 0.15, 0.3, 0.5, 0.8)
        trend_grid = (0.01, 0.05, 0.15)
        best: Optional[HoltWintersParams] = None
        best_sse = math.inf
        for a, b, g in itertools.product(grid, trend_grid, grid):
            params = HoltWintersParams(a, b, g)
            sse = self._one_step_sse(y, params)
            if sse < best_sse:
                best_sse = sse
                best = params
        assert best is not None
        return best

"""Synthetic invocation traces (Azure Functions 2021 trace substitute).

The paper drives its continuous evaluations (§9.5, §9.7) with the 2021
Azure Functions invocation trace and picks the 5th-percentile DAG from
the Azure characterisation (~1.6 K average daily invocations, §9.7).  The
real trace is not redistributable here, so we synthesise traces with the
properties those experiments depend on: a configurable mean daily rate, a
diurnal load curve, and bursty (over-dispersed) interarrivals, the
well-documented shape of production serverless traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.common.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.common.rng import RngRegistry


@dataclass(frozen=True)
class InvocationTrace:
    """An immutable sequence of invocation timestamps (seconds)."""

    timestamps: Sequence[float]
    duration_s: float

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[float]:
        return iter(self.timestamps)


def azure_like_trace(
    days: float = 7.0,
    mean_daily_invocations: float = 1600.0,
    diurnal_amplitude: float = 0.5,
    peak_hour: float = 14.0,
    burstiness: float = 2.0,
    seed: int = 0,
    stream: str = "trace",
) -> InvocationTrace:
    """Generate a bursty, diurnal invocation trace.

    Args:
        days: Trace length in days.
        mean_daily_invocations: Average invocations per day (§9.7 uses
            ~1.6 K for the 5th-percentile Azure DAG).
        diurnal_amplitude: Relative amplitude of the daily load cycle
            (0 == uniform; 0.5 == rate swings ±50 % around the mean).
        peak_hour: Hour of day at which load peaks.
        burstiness: Squared coefficient of variation of interarrivals;
            1.0 is Poisson, larger values are burstier (gamma renewal
            process, the standard over-dispersed traffic model).
        seed: Experiment seed.
        stream: RNG stream name, so multiple traces from one seed differ.

    Returns:
        An :class:`InvocationTrace` with timestamps sorted ascending.
    """
    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    if mean_daily_invocations <= 0:
        raise ValueError("mean_daily_invocations must be positive")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    if burstiness <= 0:
        raise ValueError("burstiness must be positive")

    rng = RngRegistry(seed).get(f"trace:{stream}")
    duration = days * SECONDS_PER_DAY
    base_rate = mean_daily_invocations / SECONDS_PER_DAY  # events/sec

    # Gamma renewal process with time-varying rate via thinning-free
    # rescaling: draw interarrivals in "unit-rate operational time" and
    # invert the cumulative rate function numerically on an hourly grid.
    shape = 1.0 / burstiness
    # Hourly rate curve.
    n_hours = int(math.ceil(days * 24))
    hours = np.arange(n_hours + 1, dtype=float)
    rate = base_rate * (
        1.0
        + diurnal_amplitude * np.cos(2.0 * math.pi * (hours - peak_hour) / 24.0)
    )
    cum = np.concatenate([[0.0], np.cumsum(rate[:-1] * SECONDS_PER_HOUR)])
    total_mass = cum[-1] + rate[-1] * 0.0  # mass up to the last grid point

    # Draw enough unit-rate gamma interarrivals to cover the total mass.
    expected = int(total_mass) + 1
    draws = rng.gamma(shape, scale=burstiness, size=max(expected * 2, 64))
    arrival_mass = np.cumsum(draws)
    while arrival_mass[-1] < total_mass:
        extra = rng.gamma(shape, scale=burstiness, size=len(draws))
        arrival_mass = np.concatenate([arrival_mass, arrival_mass[-1] + np.cumsum(extra)])
    arrival_mass = arrival_mass[arrival_mass < total_mass]

    # Invert the cumulative-rate function: mass -> wall-clock seconds.
    grid_times = hours * SECONDS_PER_HOUR
    timestamps = np.interp(arrival_mass, cum, grid_times[: len(cum)])
    timestamps = timestamps[timestamps < duration]
    return InvocationTrace(tuple(float(t) for t in timestamps), duration)

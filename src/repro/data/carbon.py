"""Synthetic grid carbon-intensity traces (Electricity Maps substitute).

The paper uses hourly average carbon intensity (ACI, §7.1) per grid zone
from Electricity Maps for 2023-10-15..21 (§9.1) and shows July '23 to
January '24 in Fig. 2.  Offline, we synthesise traces per grid zone that
reproduce the properties the evaluation leans on:

* ``CA-QC`` (ca-central-1) is hydro-dominated and consistently low — the
  paper reports a 91.5 % lower average than us-east-1 over the
  experiment window.
* ``US-CAISO`` (us-west-1) has a solar-heavy grid: a pronounced diurnal
  swing with low intensity during the day and high at night, with a
  6.1 % lower average than us-east-1.
* ``US-PJM`` (us-east-1/us-east-2) has the highest average intensity
  with a mild diurnal pattern.
* ``US-BPA`` (us-west-2) has an average comparable to us-east-1 but a
  different (hydro/wind driven) short-term pattern.

Each trace is ``baseline × (1 + diurnal + seasonal) + AR(1) noise``,
generated deterministically from the grid-zone name, so every component
of the system sees the same "world" without sharing state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.common.clock import SECONDS_PER_HOUR
from repro.common.rng import RngRegistry
from repro.data.regions import Region, get_region


@dataclass(frozen=True)
class GridProfile:
    """Shape parameters for one grid zone's synthetic trace.

    Attributes:
        mean: Average intensity over the window, gCO2eq/kWh.
        diurnal_amplitude: Relative amplitude of the daily cycle
            (0.1 == ±10 % swing around the mean).
        diurnal_phase_hours: Hour of day at which intensity peaks.
        seasonal_amplitude: Relative amplitude of the slow (multi-week)
            component, visible in Fig. 2's six-month view.
        noise_std: Std-dev of the AR(1) noise, gCO2eq/kWh.
        noise_rho: AR(1) autocorrelation of the noise.
    """

    mean: float
    diurnal_amplitude: float
    diurnal_phase_hours: float
    seasonal_amplitude: float = 0.08
    noise_std: float = 8.0
    noise_rho: float = 0.85


# Calibrated so us-west-1 is ~6.1 % and ca-central-1 ~91.5 % below
# us-east-1 on average, us-west-2 comparable to us-east-1 (§9.2 I1), and
# the solar grid peaks at night (§2.1).
GRID_PROFILES: Dict[str, GridProfile] = {
    "US-PJM": GridProfile(mean=400.0, diurnal_amplitude=0.10, diurnal_phase_hours=19.0),
    "US-CAISO": GridProfile(
        mean=375.6, diurnal_amplitude=0.45, diurnal_phase_hours=23.0, noise_std=12.0
    ),
    "US-BPA": GridProfile(
        mean=392.0, diurnal_amplitude=0.18, diurnal_phase_hours=20.0, noise_std=15.0
    ),
    "CA-QC": GridProfile(
        mean=34.0, diurnal_amplitude=0.06, diurnal_phase_hours=18.0, noise_std=1.5
    ),
    "CA-AB": GridProfile(
        mean=520.0, diurnal_amplitude=0.08, diurnal_phase_hours=19.0, noise_std=10.0
    ),
}


def generate_carbon_trace(
    grid_zone: str,
    hours: int,
    seed: int = 0,
    start_hour_of_day: int = 0,
) -> np.ndarray:
    """Generate an hourly carbon-intensity series for ``grid_zone``.

    Args:
        grid_zone: Key into :data:`GRID_PROFILES`.
        hours: Length of the series.
        seed: Experiment seed; traces for different zones are independent
            streams derived from it.
        start_hour_of_day: Hour of day of sample 0 (UTC-ish; the paper's
            window starts at midnight).

    Returns:
        Array of ``hours`` values in gCO2eq/kWh, strictly positive.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    try:
        profile = GRID_PROFILES[grid_zone]
    except KeyError:
        known = ", ".join(sorted(GRID_PROFILES))
        raise KeyError(
            f"unknown grid zone {grid_zone!r}; known zones: {known}"
        ) from None

    rng = RngRegistry(seed).get(f"carbon:{grid_zone}")
    t = np.arange(hours, dtype=float) + start_hour_of_day

    diurnal = profile.diurnal_amplitude * np.cos(
        2.0 * math.pi * (t - profile.diurnal_phase_hours) / 24.0
    )
    # Slow multi-week drift standing in for the seasonal trend in Fig. 2.
    seasonal = profile.seasonal_amplitude * np.sin(2.0 * math.pi * t / (24.0 * 45.0))

    noise = np.empty(hours)
    eps = rng.normal(0.0, profile.noise_std, size=hours)
    noise[0] = eps[0]
    for i in range(1, hours):
        noise[i] = profile.noise_rho * noise[i - 1] + eps[i]

    series = profile.mean * (1.0 + diurnal + seasonal) + noise
    # Grid intensity is physically positive; hydro grids can approach but
    # not cross zero.
    return np.clip(series, 1.0, None)


class CarbonIntensitySource:
    """Queryable carbon-intensity "world" shared by all components.

    Mirrors the Electricity Maps API surface that Caribou's Metrics
    Manager consumes: point-in-time ACI per region, window averages, and
    transmission-route intensity (§7.1 Eq. 7.5 uses the average carbon
    intensity of the route between source and destination; we follow the
    simplified methodology of averaging the two endpoint grids).
    """

    def __init__(
        self,
        hours: int = 24 * 7,
        seed: int = 0,
        overrides: Optional[Mapping[str, Sequence[float]]] = None,
    ):
        """Build the source.

        Args:
            hours: Length of the hourly horizon to materialise.
            seed: Experiment seed used for trace synthesis.
            overrides: Optional explicit hourly series per grid zone
                (used by tests and what-if studies); zones not listed
                fall back to the synthetic generator.
        """
        self._hours = hours
        self._seed = seed
        self._traces: Dict[str, np.ndarray] = {}
        overrides = dict(overrides or {})
        for zone in GRID_PROFILES:
            if zone in overrides:
                arr = np.asarray(overrides.pop(zone), dtype=float)
                if len(arr) < hours:
                    raise ValueError(
                        f"override for {zone} has {len(arr)} hours, need {hours}"
                    )
                self._traces[zone] = arr[:hours]
            else:
                self._traces[zone] = generate_carbon_trace(zone, hours, seed=seed)
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise KeyError(f"overrides for unknown grid zones: {unknown}")

    @property
    def horizon_hours(self) -> int:
        return self._hours

    def _zone_of(self, region: "Region | str") -> str:
        if isinstance(region, str):
            region = get_region(region)
        return region.grid_zone

    def trace(self, region: "Region | str") -> np.ndarray:
        """Full hourly series for the region's grid zone (read-only view)."""
        arr = self._traces[self._zone_of(region)]
        view = arr.view()
        view.flags.writeable = False
        return view

    def intensity_at(self, region: "Region | str", time_s: float) -> float:
        """ACI (gCO2eq/kWh) for ``region`` at simulated time ``time_s``.

        Times past the horizon wrap around, which keeps long-running
        experiments well-defined (the last week repeats).
        """
        hour = int(time_s // SECONDS_PER_HOUR) % self._hours
        return float(self._traces[self._zone_of(region)][hour])

    def intensity_at_hour(self, region: "Region | str", hour: int) -> float:
        """ACI at an integral hour index (wraps past the horizon)."""
        return float(self._traces[self._zone_of(region)][hour % self._hours])

    def average(
        self, region: "Region | str", start_hour: int = 0, end_hour: Optional[int] = None
    ) -> float:
        """Mean ACI over ``[start_hour, end_hour)``."""
        end = self._hours if end_hour is None else end_hour
        trace = self._traces[self._zone_of(region)]
        idx = np.arange(start_hour, end) % self._hours
        return float(trace[idx].mean())

    def route_intensity_at(
        self, src: "Region | str", dst: "Region | str", time_s: float
    ) -> float:
        """Average route intensity for a transfer from ``src`` to ``dst``.

        Simplified per §7.1: the mean of the endpoint grids' ACI.  An
        intra-region transfer therefore just sees its own grid.
        """
        a = self.intensity_at(src, time_s)
        b = self.intensity_at(dst, time_s)
        return (a + b) / 2.0

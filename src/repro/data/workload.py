"""Open-loop arrival-trace generation for fleet-scale serving.

The paper's client population is open-loop: users fire requests at a
workflow independently of whether earlier requests finished (§2.1's
image-processing pipeline sees whatever its front-end sends).  This
module synthesises such traffic as an inhomogeneous Poisson process —
a base rate modulated by a deterministic-given-seed intensity profile —
and injects it into a :class:`~repro.core.executor.CaribouExecutor`
without materialising millions of heap entries.

Generation is vectorised: the horizon is cut into fixed bins, each bin
gets a Poisson event count at its modulated rate, and events are placed
uniformly within their bin (exact for piecewise-constant intensity).
All randomness flows through a single numpy ``Generator`` obtained from
the shared :class:`~repro.common.rng.RngRegistry`, so a trace is a pure
function of ``(seed, stream name, spec)`` — same inputs, byte-identical
arrival times, on any machine.

Injection is a self-rescheduling chain (:class:`OpenLoopInjector`): one
pending event per workflow at any instant, each injection scheduling
the next, so the simulator heap stays O(workflows) rather than
O(requests) no matter how long the trace is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.core.api import Payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.executor import CaribouExecutor

__all__ = [
    "WorkloadSpec",
    "ArrivalTrace",
    "OpenLoopInjector",
    "generate_arrivals",
    "generate_trace",
    "PROFILES",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one open-loop arrival trace.

    Args:
        base_rate_per_s: Long-run mean request rate before modulation.
        duration_s: Horizon length in (virtual) seconds.
        profile: Intensity profile name; see :data:`PROFILES`.
        bin_s: Width of the piecewise-constant intensity bins.  One
            minute resolves every preset profile's fastest feature
            (flash-crowd ramps) while keeping generation vectorised.
        start_s: Virtual time of the trace origin (arrivals are emitted
            in ``[start_s, start_s + duration_s)``).
    """

    base_rate_per_s: float
    duration_s: float
    profile: str = "diurnal"
    bin_s: float = 60.0
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate_per_s < 0:
            raise ValueError(f"base_rate_per_s must be >= 0, got {self.base_rate_per_s}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.bin_s <= 0:
            raise ValueError(f"bin_s must be > 0, got {self.bin_s}")
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; choose from {sorted(PROFILES)}"
            )


# ---------------------------------------------------------------- profiles
# A profile maps bin midpoints (seconds since trace start) to a rate
# multiplier, drawing any shape randomness (burst times, flash onset)
# from the caller's Generator so the whole trace stays seed-determined.

def _steady(mid_s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.ones_like(mid_s)


def _diurnal(mid_s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Sinusoidal day shape peaking mid-afternoon (hour 15), floored so
    # the overnight trough keeps a trickle of traffic (§7.1's diurnal
    # invocation profile has the same property).
    hour = (mid_s / 3600.0) % 24.0
    return np.maximum(1.0 + 0.8 * np.sin(2.0 * np.pi * (hour - 9.0) / 24.0), 0.1)


def _bursty(mid_s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Diurnal baseline plus short random surges: on average one burst
    # per half hour, each 1-5 minutes long at 3-8x the baseline.
    mult = _diurnal(mid_s, rng)
    duration = float(mid_s[-1]) if len(mid_s) else 0.0
    n_bursts = int(rng.poisson(max(duration / 1800.0, 1.0)))
    for _ in range(n_bursts):
        onset = rng.uniform(0.0, duration)
        length = rng.uniform(60.0, 300.0)
        height = rng.uniform(3.0, 8.0)
        window = (mid_s >= onset) & (mid_s < onset + length)
        mult = np.where(window, mult * height, mult)
    return mult


def _flash_crowd(mid_s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Steady baseline with one flash event: a 2-minute linear ramp to
    # ~20x, a 5-minute plateau, then exponential decay (tau = 10 min).
    mult = np.ones_like(mid_s)
    duration = float(mid_s[-1]) if len(mid_s) else 0.0
    onset = rng.uniform(0.1 * duration, 0.7 * duration)
    peak = rng.uniform(15.0, 25.0)
    ramp_s, hold_s, tau_s = 120.0, 300.0, 600.0
    since = mid_s - onset
    ramp = 1.0 + (peak - 1.0) * np.clip(since / ramp_s, 0.0, 1.0)
    decay = 1.0 + (peak - 1.0) * np.exp(-(since - ramp_s - hold_s) / tau_s)
    mult = np.where(since >= 0, np.where(since <= ramp_s + hold_s, ramp, decay), mult)
    return mult


#: Intensity profiles by name.  Each maps (bin midpoints, rng) -> rate
#: multipliers; add entries here to extend the generator.
PROFILES: Dict[str, Callable[[np.ndarray, np.random.Generator], np.ndarray]] = {
    "steady": _steady,
    "diurnal": _diurnal,
    "bursty": _bursty,
    "flash_crowd": _flash_crowd,
}


def generate_arrivals(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one arrival trace: sorted float64 timestamps in seconds.

    Inhomogeneous Poisson via per-bin thinning-free sampling: each bin's
    count is Poisson(rate * bin_s) at the profile-modulated rate, and
    events land uniformly inside their bin.  Fully vectorised — a
    day-long trace at thousands of requests/s generates in milliseconds.
    """
    n_bins = int(np.ceil(spec.duration_s / spec.bin_s))
    edges = np.arange(n_bins, dtype=np.float64) * spec.bin_s
    widths = np.minimum(spec.bin_s, spec.duration_s - edges)
    mids = edges + widths / 2.0
    mult = PROFILES[spec.profile](mids, rng)
    counts = rng.poisson(spec.base_rate_per_s * mult * widths)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.float64)
    # Place every event uniformly within its bin, then one global sort.
    bin_of_event = np.repeat(np.arange(n_bins), counts)
    offsets = rng.random(total) * widths[bin_of_event]
    times = spec.start_s + edges[bin_of_event] + offsets
    times.sort(kind="stable")
    return times


class ArrivalTrace:
    """A generated arrival trace plus its provenance."""

    __slots__ = ("spec", "times")

    def __init__(self, spec: WorkloadSpec, times: np.ndarray):
        self.spec = spec
        self.times = times

    def __len__(self) -> int:
        return len(self.times)

    def shifted(self, start_s: float) -> "ArrivalTrace":
        """The same arrivals re-anchored at a new virtual start time."""
        delta = start_s - self.spec.start_s
        return ArrivalTrace(replace(self.spec, start_s=start_s), self.times + delta)


def generate_trace(
    spec: WorkloadSpec, rng: np.random.Generator
) -> ArrivalTrace:
    """Generate a trace for ``spec`` using ``rng`` (pass a named stream
    from the environment's :class:`~repro.common.rng.RngRegistry`, e.g.
    ``env.rng.get("workload:my-app")``, for reproducibility)."""
    return ArrivalTrace(spec, generate_arrivals(spec, rng))


class OpenLoopInjector:
    """Feeds an arrival trace into an executor, one pending event at a time.

    Scheduling all N arrivals up front would put N entries in the
    simulator heap; instead each injection schedules its successor, so
    the injector holds exactly one heap slot regardless of trace length
    (the property that lets a fleet of hundreds of workflows serve
    millions of requests through one event loop).
    """

    def __init__(
        self,
        executor: "CaribouExecutor",
        trace: ArrivalTrace,
        payload_factory: Optional[Callable[[int], Payload]] = None,
        force_home: bool = False,
    ):
        self._executor = executor
        self._env = executor.deployed.cloud.env
        self._times = trace.times
        self._payload_factory = payload_factory or (lambda i: Payload())
        self._force_home = force_home
        self._next = 0
        self.injected = 0
        self._started = False

    @property
    def remaining(self) -> int:
        """Arrivals not yet injected."""
        return len(self._times) - self._next

    def start(self) -> None:
        """Arm the chain (idempotent).  Arrivals already in the past
        relative to the virtual clock are skipped, not replayed."""
        if self._started:
            return
        self._started = True
        now = self._env.now()
        # searchsorted: first arrival at or after the current clock.
        self._next = int(np.searchsorted(self._times, now, side="left"))
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._next >= len(self._times):
            return
        self._env.schedule_at(float(self._times[self._next]), self._fire)

    def _fire(self) -> None:
        i = self._next
        self._next = i + 1
        # Schedule the successor before invoking so a re-entrant drain
        # inside invoke() cannot stall the chain.
        self._schedule_next()
        self._executor.invoke(
            self._payload_factory(i), force_home=self._force_home
        )
        self.injected += 1

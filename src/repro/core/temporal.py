"""Temporal shifting extension (paper §2.2, future-work direction).

The paper contrasts *geospatial* shifting (its contribution) with
*temporal* shifting — "delaying the execution of latency-tolerant
workloads to periods with lower carbon intensity" — and positions the
two as orthogonal levers.  Caribou's conclusion calls for "expanding the
benefits to broader workloads"; this module provides that combination
for delay-tolerant invocations:

Given a developer-declared deadline tolerance, the
:class:`TemporalShifter` holds an invocation and releases it at the
lowest-carbon *feasible* time slot, where the carbon of a slot is
evaluated under the deployment plan that will be in force then — i.e.
the decision is jointly temporal and geospatial: waiting two hours may
be worthwhile precisely because the 14:00 plan runs the heavy stages in
the solar region.

This is deliberately conservative infrastructure: invocations without a
declared tolerance pass straight through, and the shifter never delays
past the deadline even if every slot looks bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.common.clock import SECONDS_PER_HOUR
from repro.common.errors import KeyValueStoreError, RegionUnavailableError
from repro.core.api import Payload
from repro.core.executor import CaribouExecutor


@dataclass(frozen=True)
class TemporalPolicy:
    """Delay tolerance for a class of invocations.

    Attributes:
        max_delay_s: Hard deadline: the invocation starts no later than
            submission time + this.
        slot_s: Granularity of candidate start times.  Hourly slots
            match the hourly carbon data and plan granularity.
    """

    max_delay_s: float
    slot_s: float = SECONDS_PER_HOUR

    def __post_init__(self) -> None:
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if self.slot_s <= 0:
            raise ValueError("slot_s must be positive")


@dataclass
class ShiftDecision:
    """Why an invocation was scheduled when it was (observability)."""

    submitted_at_s: float
    scheduled_at_s: float
    slot_intensities: Dict[float, float]

    @property
    def delay_s(self) -> float:
        return self.scheduled_at_s - self.submitted_at_s

    @property
    def chosen_intensity(self) -> float:
        return self.slot_intensities[self.scheduled_at_s]


class TemporalShifter:
    """Queues delay-tolerant invocations to low-carbon slots."""

    def __init__(
        self,
        executor: CaribouExecutor,
        intensity_fn: Optional[Callable[[str, int], float]] = None,
    ):
        """Args:
        executor: The workflow's Caribou executor (provides the cloud,
            the active plan lookup, and the invocation entry point).
        intensity_fn: ``(region, absolute hour) -> gCO2eq/kWh``.
            Defaults to the actual carbon source; pass the Metrics
            Manager's forecast accessor for forecast-driven shifting.
        """
        self._executor = executor
        self._cloud = executor.deployed.cloud
        self._dag = executor.deployed.dag
        if intensity_fn is None:
            source = self._cloud.carbon_source
            intensity_fn = lambda region, hour: source.intensity_at_hour(
                region, hour
            )
        self._intensity_fn = intensity_fn

    # -- slot evaluation -------------------------------------------------------
    def slot_intensity(self, start_s: float) -> float:
        """Workflow-weighted grid intensity of starting at ``start_s``.

        Uses the plan in force at that hour: each node contributes its
        region's intensity, so a slot whose plan offloads heavy stages
        to a clean region scores well even if the home grid is dirty.
        When the plan set cannot be read (KV outage or injected KV
        error) the slot is priced with every node at home — the same
        fallback the executor's ``fetch_active_plan`` takes.
        """
        hour = int(start_s // SECONDS_PER_HOUR)
        home = self._executor.deployed.config.home_region
        try:
            plan_set = self._executor.staged_plan_set(home)
        except (KeyValueStoreError, RegionUnavailableError):
            plan_set = None
        if plan_set is None or plan_set.is_expired(start_s):
            regions = [home] * len(self._dag)
        else:
            plan = plan_set.plan_for_hour(hour % 24)
            regions = [plan.region_of(n) for n in self._dag.node_names]
        intensities = [self._intensity_fn(r, hour) for r in regions]
        return sum(intensities) / len(intensities)

    def choose_start(self, policy: TemporalPolicy) -> Tuple[float, Dict[float, float]]:
        """Pick the lowest-intensity feasible start time.

        Candidates are "now" plus each slot boundary up to the deadline.
        Ties break towards the earliest slot (less queueing risk).
        """
        now = self._cloud.now()
        deadline = now + policy.max_delay_s
        candidates = [now]
        next_slot = (int(now // policy.slot_s) + 1) * policy.slot_s
        while next_slot <= deadline:
            candidates.append(next_slot)
            next_slot += policy.slot_s
        intensities = {t: self.slot_intensity(t) for t in candidates}
        best = min(candidates, key=lambda t: (intensities[t], t))
        return best, intensities

    # -- submission ----------------------------------------------------------------
    def submit(
        self,
        payload: Payload,
        policy: Optional[TemporalPolicy] = None,
    ) -> ShiftDecision:
        """Submit an invocation, possibly deferring it.

        Returns the :class:`ShiftDecision`; the actual request id is
        produced when the deferred invocation fires (invocations are
        fire-and-forget through the executor, matching §6.2 semantics).
        """
        now = self._cloud.now()
        if policy is None or policy.max_delay_s == 0:
            self._executor.invoke(payload)
            return ShiftDecision(
                submitted_at_s=now, scheduled_at_s=now,
                slot_intensities={now: self.slot_intensity(now)},
            )

        start, intensities = self.choose_start(policy)
        if start <= now:
            self._executor.invoke(payload)
        else:
            self._cloud.env.schedule_at(
                start, lambda: self._executor.invoke(payload)
            )
        return ShiftDecision(
            submitted_at_s=now, scheduled_at_s=start,
            slot_intensities=intensities,
        )

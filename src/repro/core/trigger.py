"""Token-bucket self-regulation of plan generation (paper §5.2, Fig. 6).

Caribou only re-solves when the *carbon budget* earned by a workflow
covers the carbon the solve itself would emit.  Tokens are denominated
in gCO2eq:

* **Earning** — "Functions with higher invocation counts and longer
  runtimes accumulate more tokens.  Each token represents the carbon
  intensity differential between target regions": each invocation in the
  past period earns the carbon that offloading its compute to the
  cleanest permitted region *could* have saved, assuming the next period
  resembles the last (sliding window).  Realised savings from an active
  plan add on top.
* **Spending** — "the cost of a DP generation is estimated by the
  complexity of the application": solve time scales with |N| x |R| per
  hourly plan, priced at the framework region's carbon intensity.
* **Granularity** — the budget decides between 24 hourly plans and a
  single daily plan (§5.2).
* **Check cadence** — the next token check "is determined by the
  difference between the token generation rate and current bucket
  content, smoothed by a sigmoid function".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.metrics.carbon import P_MAX_KW, P_MEM_KW_PER_GB, PUE

#: Measured solve throughput anchor: §9.7 reports ~534 s for 24 hourly
#: solves of Text2Speech Censoring (|N|=7 stages, |R|=4) in Python,
#: i.e. ~22 s per hourly solve -> ~0.8 s per node-region pair.
SOLVE_SECONDS_PER_NODE_REGION = 0.8
#: The solver runs as a 1769 MB (1 vCPU) Lambda at full utilisation.
SOLVER_POWER_KW = P_MAX_KW + P_MEM_KW_PER_GB * (1769.0 / 1024.0)


@dataclass(frozen=True)
class TriggerSettings:
    """Knobs of the self-adaptive trigger."""

    solve_seconds_per_node_region: float = SOLVE_SECONDS_PER_NODE_REGION
    solver_power_kw: float = SOLVER_POWER_KW
    #: Bucket capacity as a multiple of the 24-hour solve cost, bounding
    #: how far ahead a bursty workflow can "save up".
    capacity_solves: float = 4.0
    #: Bounds on the time between token checks, seconds.
    min_check_period_s: float = 3600.0
    max_check_period_s: float = 24 * 3600.0

    def __post_init__(self) -> None:
        if not 0.0 < self.min_check_period_s <= self.max_check_period_s:
            raise ValueError(
                "check periods must satisfy 0 < min <= max, got "
                f"min={self.min_check_period_s}, max={self.max_check_period_s}"
            )


@dataclass
class EarnReport:
    """Result of one earning step (for observability/tests)."""

    invocations: int
    potential_saving_g: float
    realized_saving_g: float
    earned_g: float
    tokens_after_g: float


class TokenBucket:
    """The §5.2 carbon-budget bucket for one workflow."""

    def __init__(
        self,
        n_nodes: int,
        n_regions: int,
        settings: TriggerSettings = TriggerSettings(),
    ):
        if n_nodes <= 0 or n_regions <= 0:
            raise ValueError("node and region counts must be positive")
        self._n_nodes = n_nodes
        self._n_regions = n_regions
        self.settings = settings
        self.tokens_g = 0.0
        self._last_earn_rate_g_per_s: float = 0.0

    # -- spending side -----------------------------------------------------------
    def solve_cost_g(
        self, framework_intensity: float, granularity_hours: int = 24
    ) -> float:
        """Carbon cost of generating a plan set at the given granularity."""
        if granularity_hours <= 0:
            raise ValueError("granularity_hours must be positive")
        seconds = (
            self.settings.solve_seconds_per_node_region
            * self._n_nodes
            * self._n_regions
            * granularity_hours
        )
        energy_kwh = seconds / 3600.0 * self.settings.solver_power_kw
        return energy_kwh * framework_intensity * PUE

    @property
    def capacity_g(self) -> float:
        # Capacity is defined against a nominal 400 gCO2eq/kWh grid so it
        # does not fluctuate with the framework region's hourly intensity.
        return self.settings.capacity_solves * self.solve_cost_g(400.0, 24)

    # -- earning side ---------------------------------------------------------------
    def earn(
        self,
        invocations: int,
        avg_runtime_s: float,
        avg_memory_mb: float,
        home_intensity: float,
        best_intensity: float,
        period_s: float,
        realized_saving_g: float = 0.0,
    ) -> EarnReport:
        """Accrue tokens for the past period (sliding window, §5.2).

        Args:
            invocations: Workflow invocations observed in the period.
            avg_runtime_s: Mean total execution seconds per invocation.
            avg_memory_mb: Mean configured memory across stages.
            home_intensity: Current home-region ACI, gCO2eq/kWh.
            best_intensity: Lowest ACI among permitted target regions.
            period_s: Length of the period (sets the earn *rate* used
                for check scheduling).
            realized_saving_g: Measured carbon saved by the currently
                active plan over the period, if any.
        """
        if invocations < 0 or period_s <= 0:
            raise ValueError("invocations must be >= 0 and period positive")
        differential = max(0.0, home_intensity - best_intensity)
        # Potential per-invocation saving: compute energy re-priced at
        # the differential (Eq. 7.1 with full-utilisation power).
        power_kw = P_MAX_KW + P_MEM_KW_PER_GB * (avg_memory_mb / 1024.0)
        per_invocation = avg_runtime_s / 3600.0 * power_kw * differential * PUE
        potential = invocations * per_invocation
        earned = potential + max(0.0, realized_saving_g)
        self.tokens_g = min(self.capacity_g, self.tokens_g + earned)
        self._last_earn_rate_g_per_s = earned / period_s
        return EarnReport(
            invocations=invocations,
            potential_saving_g=potential,
            realized_saving_g=realized_saving_g,
            earned_g=earned,
            tokens_after_g=self.tokens_g,
        )

    # -- decisions ------------------------------------------------------------------
    def affordable_granularity(self, framework_intensity: float) -> Optional[int]:
        """Highest affordable plan granularity: 24 (hourly), 1 (daily),
        or ``None`` when even a daily solve is out of budget (§5.2)."""
        if self.tokens_g >= self.solve_cost_g(framework_intensity, 24):
            return 24
        if self.tokens_g >= self.solve_cost_g(framework_intensity, 1):
            return 1
        return None

    def consume(self, framework_intensity: float, granularity_hours: int) -> float:
        """Spend the solve cost; returns the amount consumed."""
        cost = self.solve_cost_g(framework_intensity, granularity_hours)
        if self.tokens_g < cost:
            raise ValueError(
                f"insufficient tokens: have {self.tokens_g:.4g} g, "
                f"need {cost:.4g} g"
            )
        self.tokens_g -= cost
        return cost

    def next_check_delay_s(self, framework_intensity: float) -> float:
        """Sigmoid-smoothed time until the next token check (§5.2).

        The raw signal is the time needed to fill the remaining deficit
        at the last observed earn rate; the sigmoid maps it smoothly
        into [min_check_period, max_check_period] so check frequency
        tracks the invocation rate of the past period without reacting
        violently to single-period noise.
        """
        s = self.settings
        band = s.max_check_period_s - s.min_check_period_s
        cost = self.solve_cost_g(framework_intensity, 24)
        deficit = max(0.0, cost - self.tokens_g)
        if deficit == 0.0 or band == 0.0:
            return s.min_check_period_s
        if self._last_earn_rate_g_per_s <= 0.0:
            return s.max_check_period_s
        time_to_fill = deficit / self._last_earn_rate_g_per_s
        midpoint = (s.min_check_period_s + s.max_check_period_s) / 2.0
        # A narrow band makes z hugely negative; exp overflows past ~709.
        # Scale the numerator, not the band: band / 8.0 underflows to
        # zero on a subnormal band.  On a normal band both scalings are
        # exact, so the two orders give the same z (or both saturate).
        z = max(-700.0, (time_to_fill - midpoint) * 8.0 / band)
        sigmoid = 1.0 / (1.0 + math.exp(-z))
        return s.min_check_period_s + sigmoid * band

"""The Deployment Manager (DM) — the self-adaptive control loop of
Fig. 6 (paper §5.2).

On every *token check* the DM: collects workflow metrics, refreshes the
daily carbon forecast, earns tokens from the past period's invocations
(and realised savings), expires stale plans, and — when the bucket
covers the solve cost — generates a new plan set at the affordable
granularity (24 hourly plans, degrading to a single daily plan on a
tight budget), migrates it, and finally schedules the next check via the
sigmoid-smoothed cadence rule.

A *fixed-frequency* mode disables the token bucket (used by the §9.7
sensitivity study, Fig. 13) and solves unconditionally at every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.simulator import EventHandle
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.core.deployer import DeploymentUtility
from repro.core.lifecycle import hbss_solver, plan_evaluator, workflow_metrics
from repro.core.migrator import DeploymentMigrator, MigrationReport
from repro.core.solver import (
    EvaluationCache,
    PlanEvaluator,
    SolverSettings,
    SolverStats,
)
from repro.core.trigger import TokenBucket, TriggerSettings
from repro.common.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.manager import CarbonForecastProvider
from repro.model.plan import HourlyPlanSet

#: How long a generated plan set stays valid before traffic falls back
#: to the home region (§5.2 "DPs expire to account for the dynamic
#: factors influencing optimality").
PLAN_LIFETIME_S = 3 * SECONDS_PER_DAY


@dataclass
class CheckReport:
    """What one DM token check did (Fig. 6's decision trace).

    ``solve_cost_g`` is the cost actually *charged* to the bucket this
    check — zero when no token-funded solve happened, and the
    granularity-1 price when the budget only covered a daily solve.
    ``solve_cost_quote_g`` is the full 24-hour quote at the current
    framework intensity — the deficit reference the cadence rule
    compares the bucket against.
    """

    time_s: float
    new_records: int
    invocations_in_period: int
    tokens_g: float
    solve_cost_g: float
    solved: bool
    granularity: Optional[int]
    migration: Optional[MigrationReport]
    next_check_delay_s: float
    solve_cost_quote_g: float = 0.0


class DeploymentManager:
    """Drives metric collection, solving, and migration for one workflow."""

    def __init__(
        self,
        deployed: DeployedWorkflow,
        executor: CaribouExecutor,
        utility: DeploymentUtility,
        scenario: TransmissionScenario,
        solver_settings: SolverSettings = SolverSettings(),
        trigger_settings: TriggerSettings = TriggerSettings(),
        use_token_bucket: bool = True,
        use_forecast: bool = True,
        fixed_granularity: int = 24,
        forecasts: Optional[CarbonForecastProvider] = None,
    ):
        self._d = deployed
        self._executor = executor
        self._cloud = deployed.cloud
        self._scenario = scenario
        self._solver_settings = solver_settings
        self._use_token_bucket = use_token_bucket
        self._use_forecast = use_forecast
        if not 1 <= fixed_granularity <= 24:
            raise ValueError(
                f"fixed_granularity must be in [1, 24], got {fixed_granularity}"
            )
        #: Plans per day solved in fixed-frequency mode (Fig. 13's
        #: sensitivity axis; also lets a fleet bench bound per-check
        #: solver work without the token bucket in the way).
        self._fixed_granularity = fixed_granularity

        self.metrics = workflow_metrics(deployed, forecasts)

        self.bucket = TokenBucket(
            n_nodes=len(deployed.dag),
            n_regions=len(self._cloud.regions),
            settings=trigger_settings,
        )
        self.migrator = DeploymentMigrator(utility, deployed, executor)
        self._accountant = CarbonAccountant(
            self._cloud.carbon_source,
            CarbonModel(scenario),
            CostModel(self._cloud.pricing_source),
        )
        # Earn window opens at registration, not at t=0: a workflow
        # brought under management late earns from then on.
        self._last_check_s: float = self._cloud.now()
        self._last_forecast_day: int = -1
        #: Pending self-rescheduled check (run_for's chain), retained so
        #: stop()/unregister can cancel it.
        self._pending_check: Optional["EventHandle"] = None
        self.reports: List[CheckReport] = []
        self.plan_history: List[Tuple[float, HourlyPlanSet]] = []
        #: Profile cache surviving across check() cycles;
        #: make_evaluator() drops its entries exactly when metrics or
        #: forecasts changed (§5.2 checks often re-solve a barely-moved
        #: problem).  One per workflow, never shared: digests hash plan
        #: content, not learned metrics.
        self.evaluation_cache = EvaluationCache()
        #: Cumulative solver counters across this manager's lifetime.
        self.solver_stats = SolverStats()
        # §5.2: a token is "the carbon intensity differential between
        # target regions" — the cleanest *permitted* region, not the
        # cleanest region in the provider.  Intersect per-node
        # compliance so restricted workflows cannot earn against a
        # region none of their functions may run in.
        per_node = [
            set(
                deployed.config.permitted_regions_for_function(
                    deployed.dag.node(node).function, self._cloud.regions
                )
            )
            for node in deployed.dag.node_names
        ]
        earn_regions = set.intersection(*per_node) if per_node else set()
        if not earn_regions:
            # No region runs the whole workflow: fall back to regions
            # that can host at least one node (partial offloading still
            # saves carbon); the evaluator rejects truly empty domains.
            earn_regions = set.union(*per_node) if per_node else set()
        self._earn_regions: Tuple[str, ...] = (
            tuple(sorted(earn_regions)) or tuple(self._cloud.regions)
        )

    # -- components on demand -----------------------------------------------------
    def make_evaluator(self) -> PlanEvaluator:
        """An evaluator over the *current* learned metrics, backed by
        the persistent evaluation cache (invalidated here iff the
        metrics or forecasts changed since the last solve)."""
        self.evaluation_cache.sync(
            self.metrics.version,
            # Forecast refits only stale the cache when forecasts
            # actually feed the intensity function.
            self.metrics.forecasts.version if self._use_forecast else None,
        )
        return plan_evaluator(
            self._d,
            self.metrics,
            lambda region, hour: self.metrics.carbon_for_hour(
                region, hour, use_forecast=self._use_forecast
            ),
            self._scenario,
            self._solver_settings,
            self.solver_stats,
            cache=self.evaluation_cache,
        )

    # -- the Fig. 6 loop ----------------------------------------------------------
    def check(self) -> CheckReport:
        """Run one token check cycle (Fig. 6)."""
        now = self._cloud.now()
        new_records = self.metrics.collect(now)
        self._maybe_refit_forecasts(now)
        framework_intensity = self._cloud.carbon_source.intensity_at(
            self._d.kv_region, now
        )

        # Expire a stale plan: traffic reverts to the home region (§5.2).
        staged = self._executor.staged_plan_set(self._d.kv_region)
        if staged is not None and staged.is_expired(now):
            self._executor.clear_plan()

        # Earn tokens from the past period (sliding window), starting
        # at registration time for the first check.
        period_start = self._last_check_s
        period = max(1.0, now - period_start)
        invocations = self.metrics.invocations_since(period_start)
        avg_runtime = self.metrics.average_runtime_s(period_start)
        avg_memory = float(
            np.mean([n.memory_mb for n in self._d.dag.nodes])
        )
        home_i = self._cloud.carbon_source.intensity_at(
            self._d.config.home_region, now
        )
        # Cleanest *permitted* region (§5.2): earning against a region
        # the workflow may not run in would overfill the bucket and
        # trigger solves that cannot realise the promised differential.
        best_i = min(
            self._cloud.carbon_source.intensity_at(r, now)
            for r in self._earn_regions
        )
        realized = self._realized_savings(period_start, now)
        self.bucket.earn(
            invocations=invocations,
            avg_runtime_s=avg_runtime,
            avg_memory_mb=avg_memory,
            home_intensity=home_i,
            best_intensity=best_i,
            period_s=period,
            realized_saving_g=realized,
        )

        # Decide whether (and at what granularity) to solve.
        solved = False
        granularity: Optional[int] = None
        migration: Optional[MigrationReport] = None
        charged_g = 0.0
        can_model = invocations > 0 or self.metrics.invocation_count > 0
        if can_model:
            if self._use_token_bucket:
                granularity = self.bucket.affordable_granularity(framework_intensity)
                if granularity is not None:
                    charged_g = self.bucket.consume(
                        framework_intensity, granularity
                    )
                    migration = self._solve_and_migrate(granularity, now)
                    solved = True
            else:
                granularity = self._fixed_granularity
                migration = self._solve_and_migrate(granularity, now)
                solved = True
        if not solved:
            # Keep retrying any parked rollout (§6.1).
            migration = self.migrator.retry_pending()

        delay = self.bucket.next_check_delay_s(framework_intensity)
        report = CheckReport(
            time_s=now,
            new_records=new_records,
            invocations_in_period=invocations,
            tokens_g=self.bucket.tokens_g,
            solve_cost_g=charged_g,
            solved=solved,
            granularity=granularity,
            migration=migration,
            next_check_delay_s=delay,
            solve_cost_quote_g=self.bucket.solve_cost_g(
                framework_intensity, 24
            ),
        )
        self.reports.append(report)
        self._last_check_s = now
        return report

    def solve_now(self, granularity_hours: int = 24) -> MigrationReport:
        """Force one solve+migrate regardless of tokens (Fig. 13 mode)."""
        now = self._cloud.now()
        self.metrics.collect(now)
        self._maybe_refit_forecasts(now)
        return self._solve_and_migrate(granularity_hours, now)

    def run_for(self, duration_s: float, first_check_delay_s: float = 0.0) -> None:
        """Schedule self-rescheduling checks over ``duration_s`` of
        virtual time.  The caller advances the simulation.

        The pending link of the chain is retained in
        ``self._pending_check`` so :meth:`stop` (and through it
        ``FleetManager.unregister``) can cancel the loop.
        """
        horizon = self._cloud.now() + duration_s

        def do_check() -> None:
            report = self.check()
            next_time = self._cloud.now() + report.next_check_delay_s
            if next_time < horizon:
                self._pending_check = self._cloud.env.schedule_at(
                    next_time, do_check
                )
            else:
                self._pending_check = None

        self._pending_check = self._cloud.env.schedule(
            first_check_delay_s, do_check
        )

    def stop(self) -> bool:
        """Cancel the pending :meth:`run_for` check chain, if any.

        Returns True when a pending check was actually cancelled.
        Idempotent; safe to call on a manager that never ran."""
        handle = self._pending_check
        self._pending_check = None
        if handle is None:
            return False
        return handle.cancel()

    # -- internals ---------------------------------------------------------------
    def _solve_and_migrate(
        self, granularity_hours: int, now: float
    ) -> MigrationReport:
        solver = hbss_solver(self._d, self.make_evaluator())
        if granularity_hours >= 24:
            hours: Sequence[int] = range(24)
        else:
            current_hour = int(now // SECONDS_PER_HOUR) % 24
            step = 24 // granularity_hours
            hours = [(current_hour + i * step) % 24 for i in range(granularity_hours)]
        warm_start = self.plan_history[-1][1] if self.plan_history else None
        plan_set, _results = solver.solve_day(hours, warm_start=warm_start)
        plan_set.created_at_s = now
        plan_set.expires_at_s = now + PLAN_LIFETIME_S
        self.plan_history.append((now, plan_set))
        return self.migrator.migrate(plan_set)

    def _maybe_refit_forecasts(self, now: float) -> None:
        """Daily Holt-Winters refit over the past week (§7.2)."""
        if not self._use_forecast:
            return
        day = int(now // SECONDS_PER_DAY)
        if day == self._last_forecast_day:
            return
        now_hour = int(now // SECONDS_PER_HOUR)
        for region in self._cloud.regions:
            # maybe_refit dedups same-day fits, so when the provider is
            # shared across a fleet only the first manager to check each
            # day pays for the Holt-Winters grid search per region.
            self.metrics.forecasts.maybe_refit(region, now_hour)
        self._last_forecast_day = day

    def _realized_savings(self, since_s: float, until_s: float) -> float:
        """Measured carbon saved vs the home baseline over a period.

        Uses the 10 % benchmarking traffic (§6.2) as the home baseline:
        mean per-invocation carbon of home-routed requests minus that of
        plan-routed requests, scaled to the period's plan-routed volume.
        """
        ledger = self._cloud.ledger
        home_region = self._d.config.home_region
        footprints = self._accountant.price_by_request(
            ledger, self._d.name, since_s=since_s, until_s=until_s
        )
        if not footprints:
            return 0.0
        # Classify each invocation by where its executions ran: the
        # same window grouped the same way, so the ledger's index keeps
        # this O(window) too.
        by_rid = ledger.group("request_id", self._d.name, since_s, until_s)
        home_carbons: List[float] = []
        routed_carbons: List[float] = []
        for rid, fp in footprints.items():
            regions = set(by_rid[rid].executions.values("region"))
            if not regions:
                continue
            if regions == {home_region}:
                home_carbons.append(fp.carbon_g)
            else:
                routed_carbons.append(fp.carbon_g)
        if not home_carbons or not routed_carbons:
            return 0.0
        saving_per_inv = float(np.mean(home_carbons) - np.mean(routed_carbons))
        return max(0.0, saving_per_inv * len(routed_carbons))

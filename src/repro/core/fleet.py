"""Fleet management: the DM loop over *all* deployed workflows.

Fig. 6's Deployment Manager "regularly iterates over all deployed
workflows", each with its own token bucket, metrics, and check cadence.
:class:`FleetManager` is that outer loop: it registers per-workflow
:class:`~repro.core.manager.DeploymentManager` instances and runs one
self-rescheduling check chain per workflow, so a busy workflow is
checked hourly while an idle one backs off to the daily cadence —
independently, exactly as the sigmoid rule dictates per bucket.

At fleet scale the managers stop being islands.  Two resources are
shared across every registered workflow:

* **Carbon forecasts** — one
  :class:`~repro.metrics.manager.CarbonForecastProvider`; forecasts are
  per grid region, so the first manager to check each day pays for the
  Holt-Winters refit and the other N-1 reuse it.
* **Metrics registry** — the cloud's
  :class:`~repro.obs.metrics.MetricsRegistry` already spans workflows;
  :meth:`fleet_report` snapshots it alongside the cache and forecast
  counters so one document describes the whole sweep.

The evaluation cache is deliberately *not* shared: each
:class:`~repro.core.manager.DeploymentManager` keeps its own
:class:`~repro.core.solver.EvaluationCache`, and :meth:`fleet_report`
rolls their counters up.  Plan digests hash plan *content* only, so two
workflows with identical DAG shapes can collide on a digest while their
learned metrics — and therefore the correct profiles — differ; one
flat cache across the fleet would serve workflow A's Monte-Carlo
results to workflow B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cloud.provider import SimulatedCloud
from repro.core.deployer import DeploymentUtility
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.core.manager import CheckReport, DeploymentManager
from repro.core.solver import SolverSettings
from repro.core.trigger import TriggerSettings
from repro.metrics.carbon import TransmissionScenario
from repro.metrics.manager import CarbonForecastProvider


@dataclass
class FleetEntry:
    """One managed workflow and its control loop."""

    deployed: DeployedWorkflow
    executor: CaribouExecutor
    manager: DeploymentManager


class FleetManager:
    """Runs the Fig. 6 loop for every registered workflow."""

    def __init__(
        self,
        cloud: SimulatedCloud,
        utility: DeploymentUtility,
        scenario: TransmissionScenario,
        solver_settings: SolverSettings = SolverSettings(),
        trigger_settings: TriggerSettings = TriggerSettings(),
        use_forecast: bool = True,
        use_token_bucket: bool = True,
        fixed_granularity: int = 24,
    ):
        self._cloud = cloud
        self._utility = utility
        self._scenario = scenario
        self._solver_settings = solver_settings
        self._trigger_settings = trigger_settings
        self._use_forecast = use_forecast
        self._use_token_bucket = use_token_bucket
        self._fixed_granularity = fixed_granularity
        self._entries: Dict[str, FleetEntry] = {}
        #: Fleet-shared daily forecasts (per grid region, fit once).
        self.forecasts = CarbonForecastProvider(cloud.carbon_source)

    # -- registry ---------------------------------------------------------------
    def register(
        self, deployed: DeployedWorkflow, executor: CaribouExecutor
    ) -> DeploymentManager:
        """Bring a deployed workflow under fleet management."""
        if deployed.name in self._entries:
            raise ValueError(f"workflow {deployed.name!r} is already managed")
        manager = DeploymentManager(
            deployed,
            executor,
            self._utility,
            scenario=self._scenario,
            solver_settings=self._solver_settings,
            trigger_settings=self._trigger_settings,
            use_forecast=self._use_forecast,
            use_token_bucket=self._use_token_bucket,
            fixed_granularity=self._fixed_granularity,
            forecasts=self.forecasts,
        )
        self._entries[deployed.name] = FleetEntry(
            deployed=deployed, executor=executor, manager=manager
        )
        return manager

    def unregister(self, workflow_name: str) -> None:
        """Remove a workflow from fleet management.

        Stops the manager's pending check chain *before* dropping it and
        its evaluation cache (an armed ``run_for`` chain would otherwise
        keep solving for an unmanaged workflow), and raises :class:`KeyError`
        for unknown workflows — matching :meth:`manager_for` — so
        service-layer cancel paths cannot mask typo'd names.
        """
        try:
            entry = self._entries.pop(workflow_name)
        except KeyError:
            raise KeyError(
                f"workflow {workflow_name!r} is not fleet-managed"
            ) from None
        entry.manager.stop()

    @property
    def workflows(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def manager_for(self, workflow_name: str) -> DeploymentManager:
        try:
            return self._entries[workflow_name].manager
        except KeyError:
            raise KeyError(
                f"workflow {workflow_name!r} is not fleet-managed"
            ) from None

    # -- operation ----------------------------------------------------------------
    def check_all(self) -> Dict[str, CheckReport]:
        """One immediate check pass over every workflow (Fig. 6's
        "iterates over all deployed workflows")."""
        return {
            name: entry.manager.check() for name, entry in self._entries.items()
        }

    def run_for(
        self, duration_s: float, stagger_s: float = 60.0
    ) -> None:
        """Schedule each workflow's self-rescheduling check chain.

        ``stagger_s`` offsets the first checks so simultaneous solves do
        not pile up at t=0 — the same reason the real framework spreads
        workflow processing across its periodic sweep.  Offsets wrap
        within the horizon: with hundreds of workflows a raw
        ``index * stagger_s`` would push tail workflows' first check
        past ``duration_s`` and they would never be checked at all.
        """
        if duration_s <= 0:
            return
        for index, entry in enumerate(self._entries.values()):
            entry.manager.run_for(
                duration_s, first_check_delay_s=(index * stagger_s) % duration_s
            )

    # -- reporting ------------------------------------------------------------------
    def summary(self) -> List[Tuple[str, int, int, float]]:
        """(workflow, checks, solves, tokens) per managed workflow."""
        out = []
        for name, entry in self._entries.items():
            manager = entry.manager
            out.append(
                (
                    name,
                    len(manager.reports),
                    len(manager.plan_history),
                    manager.bucket.tokens_g,
                )
            )
        return out

    def fleet_report(self) -> Dict[str, Any]:
        """Fleet-level rollup for the run report's ``fleet`` section.

        Deterministic (no wall-clock values): counters here derive from
        virtual-time control activity only, so reports embedding this
        stay byte-stable across machines.  Alongside the fleet totals,
        ``per_workflow`` breaks the control-loop activity down by
        workflow name (sorted), giving telemetry and the ``caribou
        fleet-report`` CLI a per-workflow label dimension.
        """
        checks = solves = migrations = 0
        invocations = 0
        per_workflow: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._entries):
            manager = self._entries[name].manager
            wf_checks = len(manager.reports)
            wf_solves = sum(1 for r in manager.reports if r.solved)
            wf_migrations = sum(
                1
                for r in manager.reports
                if r.migration is not None and r.migration.activated
            )
            wf_invocations = sum(
                r.invocations_in_period for r in manager.reports
            )
            checks += wf_checks
            solves += wf_solves
            migrations += wf_migrations
            invocations += wf_invocations
            per_workflow[name] = {
                "checks": wf_checks,
                "invocations_observed": wf_invocations,
                "migrations": wf_migrations,
                "solves": wf_solves,
                "tokens_g": manager.bucket.tokens_g,
            }
        caches = [e.manager.evaluation_cache for e in self._entries.values()]
        return {
            "cache_estimates": sum(c.estimates_cached for c in caches),
            "cache_invalidations": sum(c.invalidations for c in caches),
            "cache_profiles": sum(c.profiles_cached for c in caches),
            "cache_scopes": len(caches),
            "checks": checks,
            "forecast_version": self.forecasts.version,
            "invocations_observed": invocations,
            "migrations": migrations,
            "per_workflow": per_workflow,
            "solves": solves,
            "workflows": len(self._entries),
        }

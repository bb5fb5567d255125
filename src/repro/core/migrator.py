"""Deployment Migrator (paper §6.1, "Re-Deployment").

Given a freshly solved plan set, the migrator determines which
(function, region) deployments are missing, replays deployment steps
2-3 for each — copying images between registries with crane rather than
rebuilding — and *activates* the plan set by updating the key-value
store only once every function is in place.  "If any function
re-deployment fails, the framework defaults to the home region
deployment", and the migrator "periodically retries the rollout of any
non-activated DP until it is replaced by a new one".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.common.errors import CaribouError
from repro.core.deployer import DeploymentUtility
from repro.core.executor import META_PLAN_KEY, CaribouExecutor, DeployedWorkflow
from repro.model.plan import HourlyPlanSet
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER


@dataclass
class MigrationReport:
    """Outcome of one migration attempt."""

    activated: bool
    deployed: Tuple[Tuple[str, str], ...]  # (function, region) newly created
    failed: Optional[Tuple[str, str]] = None
    error: str = ""
    #: Partially created deployments removed again after a failure.
    rolled_back: Tuple[Tuple[str, str], ...] = ()


class DeploymentMigrator:
    """Materialises plan sets across regions for one workflow."""

    def __init__(
        self,
        utility: DeploymentUtility,
        deployed: DeployedWorkflow,
        executor: CaribouExecutor,
    ):
        self._utility = utility
        self._d = deployed
        self._executor = executor
        self._tracer = getattr(deployed.cloud, "tracer", NULL_TRACER)
        self._metrics = getattr(deployed.cloud, "metrics", NULL_METRICS)
        self._pending: Optional[HourlyPlanSet] = None
        self.migrations_performed = 0
        self.activations = 0

    # -- queries ---------------------------------------------------------------
    def required_deployments(self, plan_set: HourlyPlanSet) -> Set[Tuple[str, str]]:
        """(function, region) pairs any hour of the plan set routes to."""
        needed: Set[Tuple[str, str]] = set()
        for plan in plan_set.distinct_plans():
            for node, region in plan.assignments.items():
                needed.add((self._d.dag.node(node).function, region))
        return needed

    def missing_deployments(self, plan_set: HourlyPlanSet) -> List[Tuple[str, str]]:
        functions = self._d.cloud.functions
        return sorted(
            (fn, region)
            for fn, region in self.required_deployments(plan_set)
            if not functions.is_deployed(self._d.name, fn, region)
        )

    @property
    def pending(self) -> Optional[HourlyPlanSet]:
        """A solved-but-not-yet-activated plan set awaiting retry."""
        return self._pending

    # -- migration ----------------------------------------------------------------
    def migrate(self, plan_set: HourlyPlanSet) -> MigrationReport:
        """Deploy whatever the plan set needs, then activate it.

        On any failure the plan is *not* activated: partially created
        deployments are rolled back (no leaked functions/topics/roles in
        regions no active plan routes to), the still-valid active plan —
        if it is a *different* plan set — is left in place, and the
        failed plan set is parked for :meth:`retry_pending`.
        """
        self._metrics.counter(
            "migration.attempts", workflow=self._d.name
        ).inc()
        with self._tracer.span(
            "migration", self._d.name, workflow=self._d.name
        ) as scope:
            report = self._do_migrate(plan_set)
            scope.set(
                activated=report.activated,
                n_deployed=len(report.deployed),
                n_rolled_back=len(report.rolled_back),
            )
            if report.failed is not None:
                scope.set(failed=f"{report.failed[0]}@{report.failed[1]}")
        if report.activated:
            self._metrics.counter(
                "migration.activations", workflow=self._d.name
            ).inc()
        else:
            self._metrics.counter(
                "migration.failures", workflow=self._d.name
            ).inc()
        return report

    def _do_migrate(self, plan_set: HourlyPlanSet) -> MigrationReport:
        home = self._d.config.home_region
        created: List[Tuple[str, str]] = []
        for function, region in self.missing_deployments(plan_set):
            spec = self._d.workflow.function(function)
            try:
                with self._tracer.span(
                    "deploy",
                    f"{function}@{region}",
                    workflow=self._d.name,
                    function=function,
                    region=region,
                ):
                    self._utility.deploy_function(
                        self._d,
                        self._executor,
                        spec,
                        region,
                        copy_image_from=home,
                    )
            except CaribouError as exc:
                self._pending = plan_set
                rolled_back = self._rollback(created)
                self._metrics.counter(
                    "migration.rollbacks", workflow=self._d.name
                ).inc(len(rolled_back))
                # Only default back to home (§6.1) when the *failing*
                # plan set is the one currently active: clearing an
                # unrelated, fully materialised plan set would discard
                # valid routing for no reason.
                if self._is_active(plan_set):
                    self._executor.clear_plan()
                return MigrationReport(
                    activated=False,
                    deployed=tuple(created),
                    failed=(function, region),
                    error=str(exc),
                    rolled_back=rolled_back,
                )
            created.append((function, region))
            self.migrations_performed += 1
            self._metrics.counter(
                "migration.deploys", workflow=self._d.name
            ).inc()

        try:
            self._executor.stage_plan_set(plan_set)
        except CaribouError as exc:
            # Activation itself failed (KV store unreachable): keep the
            # materialised deployments — they are what the parked plan
            # needs — and retry activation later.
            self._pending = plan_set
            return MigrationReport(
                activated=False,
                deployed=tuple(created),
                error=str(exc),
            )
        self._pending = None
        self.activations += 1
        return MigrationReport(activated=True, deployed=tuple(created))

    def _rollback(self, created: List[Tuple[str, str]]) -> Tuple[Tuple[str, str], ...]:
        """Remove partially created deployments, newest first.  Removal
        failures (e.g. the region went dark mid-rollback) are tolerated:
        the remaining entries are still attempted."""
        rolled_back: List[Tuple[str, str]] = []
        for function, region in reversed(created):
            spec = self._d.workflow.function(function)
            try:
                self._utility.remove_function(self._d, spec, region)
            except CaribouError:
                continue
            rolled_back.append((function, region))
        return tuple(rolled_back)

    def _is_active(self, plan_set: HourlyPlanSet) -> bool:
        """Whether ``plan_set`` is the currently activated one."""
        try:
            raw, _lat = self._d.kv().get(
                self._d.meta_table,
                META_PLAN_KEY,
                caller_region=self._d.config.home_region,
                workflow=self._d.name,
            )
        except CaribouError:
            return False
        return raw is not None and raw == plan_set.to_dict()

    def retry_pending(self) -> Optional[MigrationReport]:
        """Retry a parked rollout (§6.1).  No-op when nothing is pending."""
        if self._pending is None:
            return None
        return self.migrate(self._pending)

"""Coarse-grained single-region solver (paper §5.1's "simple approach").

"A simple approach to tame the search space is to limit the deployment
of all DAG nodes to the same region, reducing the solver complexity to
O(|R|)."  The paper shows this is globally suboptimal — it can neither
offload off-critical-path nodes nor respect per-function compliance
while shifting the rest (§5.1) — which is exactly what Fig. 7's
"Coarse" bars demonstrate.  This solver is that baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.common.errors import SolverError
from repro.core.solver.evaluation import PlanEvaluator
from repro.metrics.montecarlo import WorkflowEstimate
from repro.model.plan import DeploymentPlan, HourlyPlanSet


class CoarseSolver:
    """Evaluates every compliant single-region plan, picks the best."""

    def __init__(self, evaluator: PlanEvaluator):
        self._ev = evaluator
        self._candidates: Optional[Tuple[str, ...]] = None

    def candidate_regions(self) -> Tuple[str, ...]:
        """Regions in which *every* node may legally run.

        Computed once per solver — compliance constraints are static,
        so the per-node scan must not be repeated for each of the 24
        hourly solves.
        """
        if self._candidates is None:
            ev = self._ev
            self._candidates = tuple(
                region
                for region in ev.regions
                if all(
                    region in ev.permitted_regions(node)
                    for node in ev.dag.node_names
                )
            )
        return self._candidates

    def solve_hour(
        self, hour: int, enforce_tolerances: bool = True
    ) -> Tuple[DeploymentPlan, WorkflowEstimate]:
        """Best single-region plan for one hour.

        Raises :class:`SolverError` when compliance leaves no region at
        all; falls back to the home region when every alternative
        violates the QoS tolerances.
        """
        plan = self._best_plan_for_hour(hour, enforce_tolerances)
        return plan, self._ev.estimate(plan, hour)

    def _best_plan_for_hour(
        self, hour: int, enforce_tolerances: bool
    ) -> DeploymentPlan:
        """The winning plan only — no estimate forced on the caller
        (``solve_day`` discards per-hour estimates, and the winner's
        mean metric was already computed while ranking)."""
        ev = self._ev
        regions = self.candidate_regions()
        if not regions:
            raise SolverError(
                "no region satisfies all function-level compliance "
                "constraints simultaneously; a coarse single-region plan "
                "is impossible"
            )
        plans = [
            DeploymentPlan.single_region(ev.dag, region) for region in regions
        ]
        best_plan: Optional[DeploymentPlan] = None
        best_metric = float("inf")
        for plan in plans:
            if enforce_tolerances and ev.tolerance_violated(plan, hour):
                continue
            metric = ev.metric(plan, hour)
            if metric < best_metric:
                best_plan, best_metric = plan, metric
        if best_plan is None:
            best_plan = ev.home_plan()
        return best_plan

    def solve_day(
        self,
        hours: Optional[Sequence[int]] = None,
        enforce_tolerances: bool = True,
    ) -> HourlyPlanSet:
        """Per-hour winners over the day."""
        hour_list = list(hours) if hours is not None else list(range(24))
        if not hour_list:
            raise ValueError("need at least one hour to solve for")
        plans = [
            self._best_plan_for_hour(h, enforce_tolerances) for h in hour_list
        ]
        return HourlyPlanSet(dict(zip(hour_list, plans)))

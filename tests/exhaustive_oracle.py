"""Test oracle: exhaustive deployment search (the intractable baseline,
§5.1).

The paper reports that a breadth-first/exhaustive strategy "proved
intractable and resource-inefficient" for realistic workflows.  For
*small* DAGs it is still the gold standard: it enumerates the full
``prod_n |permitted(n)|`` space and returns the true optimum.
``tests/test_exact_differential.py`` holds
:class:`~repro.core.solver.exact.ExactSolver` to it bit for bit, and the
solver-quality ablation bench measures how close HBSS gets at a fraction
of the evaluations.  Not shipped: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import SolverError
from repro.core.solver.evaluation import PlanEvaluator
from repro.core.solver.exact import BOUND_SAFETY, LowerBoundTables
from repro.metrics.montecarlo import WorkflowEstimate
from repro.model.plan import DeploymentPlan, HourlyPlanSet

#: Refuse to enumerate spaces larger than this (the whole point of HBSS).
DEFAULT_MAX_PLANS = 100_000


def plan_lower_bounds(
    bounds: LowerBoundTables, plan: DeploymentPlan, hour: int
) -> Tuple[float, float, float]:
    """``(carbon_g, cost_usd, latency_s)`` floors for a full plan.

    Every Monte-Carlo sample of the plan — hence every mean and every
    p95 tail — is at least these values, which is what lets full
    enumeration discard provably tolerance-dead plans without
    simulating them.  Built from the same per-node terms
    :class:`~repro.core.solver.exact.ExactSolver` prunes with.
    """
    layer = bounds.hour_layer(hour)
    assigned: List[str] = []
    finishes: List[float] = []
    carbon_g = 0.0
    cost_usd = 0.0
    latency_s = 0.0
    for i, name in enumerate(bounds.order):
        region = plan.region_of(name)
        carbon_g += bounds.carbon_term(layer, i, region, assigned)
        cost_usd += bounds.cost_term(i, region, assigned)
        finish = bounds.finish_bound(i, region, assigned, finishes)
        latency_s = max(latency_s, finish)
        assigned.append(region)
        finishes.append(finish)
    return carbon_g, cost_usd, latency_s


class ExhaustiveSolver:
    """Enumerates every compliant plan; exact but exponential."""

    def __init__(self, evaluator: PlanEvaluator, max_plans: int = DEFAULT_MAX_PLANS):
        self._ev = evaluator
        self._max_plans = max_plans
        self._bounds: Optional[LowerBoundTables] = None

    def solve_hour(
        self, hour: int, enforce_tolerances: bool = True
    ) -> Tuple[DeploymentPlan, WorkflowEstimate]:
        ev = self._ev
        space = ev.search_space_size()
        if space > self._max_plans:
            raise SolverError(
                f"search space has {space} plans, exceeding the exhaustive "
                f"limit of {self._max_plans}; use HBSSSolver instead"
            )
        nodes = ev.dag.node_names
        domains = [ev.permitted_regions(n) for n in nodes]
        all_plans = [
            DeploymentPlan(dict(zip(nodes, combo)))
            for combo in itertools.product(*domains)
        ]
        # When tolerances are enforced, cheap admissible lower bounds
        # (see :class:`~repro.core.solver.exact.LowerBoundTables`) cut
        # plans that *provably* violate a §9.4 threshold before any
        # Monte-Carlo work: every sample — hence every p95 tail — of
        # such a plan is at least its bound, so skipping it can never
        # change the winner.  Without the filter, every dead plan was
        # fully simulated just to be discarded by ``tolerance_violated``.
        tol = ev.config.tolerances
        if enforce_tolerances and tol is not None and not (
            tol.latency is None and tol.carbon is None and tol.cost is None
        ):
            if self._bounds is None:
                self._bounds = LowerBoundTables(ev)
            base = ev.baseline(hour)
            thr_latency = (
                base.tail_latency_s * (1.0 + tol.latency)
                if tol.latency is not None
                else float("inf")
            )
            thr_carbon = (
                base.tail_carbon_g * (1.0 + tol.carbon)
                if tol.carbon is not None
                else float("inf")
            )
            thr_cost = (
                base.tail_cost_usd * (1.0 + tol.cost)
                if tol.cost is not None
                else float("inf")
            )
            candidates = []
            for plan in all_plans:
                carbon_lb, cost_lb, lat_lb = plan_lower_bounds(
                    self._bounds, plan, hour
                )
                if (
                    carbon_lb * BOUND_SAFETY > thr_carbon
                    or cost_lb * BOUND_SAFETY > thr_cost
                    or lat_lb * BOUND_SAFETY > thr_latency
                ):
                    continue
                candidates.append(plan)
        else:
            candidates = all_plans
        best_plan: Optional[DeploymentPlan] = None
        best_metric = float("inf")
        for plan in candidates:
            if enforce_tolerances and ev.tolerance_violated(plan, hour):
                continue
            metric = ev.metric(plan, hour)
            if metric < best_metric:
                best_plan, best_metric = plan, metric
        if best_plan is None:
            # Every plan violates tolerances: fall back to home (§6.1).
            best_plan = ev.home_plan()
        return best_plan, ev.estimate(best_plan, hour)

    def solve_day(
        self,
        hours: Optional[Sequence[int]] = None,
        enforce_tolerances: bool = True,
    ) -> HourlyPlanSet:
        """Exact per-hour optima over the day."""
        hour_list = list(hours) if hours is not None else list(range(24))
        if not hour_list:
            raise ValueError("need at least one hour to solve for")
        plans = [self.solve_hour(h, enforce_tolerances)[0] for h in hour_list]
        return HourlyPlanSet(dict(zip(hour_list, plans)))

"""Test oracles: the HBSS day solved one hour after another, and the
walk exactly as it was before an iteration was made cheap.

:class:`SequentialHBSSSolver` is :class:`~repro.core.solver.hbss.HBSSSolver`
with ``solve_hour``, ``solve_day`` and ``_solve_hour`` as they were
before the hours were walked in lockstep: ``solve_day`` runs one hour's
walk to the end, tracing it as it goes, before it starts the next.
``tests/test_solvers.py::TestLockstepDifferential`` requires the
production day to return the same plan set, every :class:`SolveResult`
field, the same ``SolverStats`` and the same spans, byte for byte.

:class:`LegacyHBSSSolver` is that sequential solver with the former walk
restored verbatim:

* ``_solve_hour`` — the memo of examined deployments is keyed by
  :class:`DeploymentPlan`, so every iteration builds, hashes and
  compares a plan just to look it up;
* ``_gen_new_deployment_with_bias`` — copies the assignments dict, picks
  the mutated nodes with ``rng.choice(n, size, replace=False)`` and
  builds and normalises a weight ``np.array`` on every biased draw;
* :func:`_weighted_index` — the biased draw over those weights.

``tests/test_solvers.py::TestWalkDifferential`` requires production to
return the same :class:`SolveResult` (every field), leave every hour's
generator in the same state and write the same ``solver_iteration``
spans.  Not shipped: nothing under ``src/`` imports it.
"""

import math
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.solver.evaluation import LazyTable
from repro.core.solver.hbss import (
    HBSSSolver,
    SolveResult,
    _bias_cdf,
    _choose_nodes,
)
from repro.model.plan import DeploymentPlan, HourlyPlanSet


def _weighted_index(rng: np.random.Generator, p: "np.ndarray") -> int:
    """``int(rng.choice(len(p), p=p))`` for a 1-D ``p`` summing to 1 —
    the same index from the same single ``rng.random()`` draw (what
    ``Generator.choice`` does after validating ``p``; equality pinned
    by ``tests/test_solvers.py::TestWeightedIndexDifferential``)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class SequentialHBSSSolver(HBSSSolver):
    """HBSS solving a day one hour after another (the former driver)."""

    def solve_hour(
        self, hour: int, warm_start_plan: Optional[DeploymentPlan] = None
    ) -> SolveResult:
        """Find the best deployment plan for one hour of the day."""
        self._solves += 1
        return self._solve_hour(hour, warm_start_plan)

    def solve_day(
        self,
        hours: Optional[Sequence[int]] = None,
        warm_start: Optional[HourlyPlanSet] = None,
    ) -> Tuple[HourlyPlanSet, List[SolveResult]]:
        """Generate plans for each requested hour (§5.1: "24 plans are
        generated per solve — one for each hour, given sufficient carbon
        budget").  Pass fewer hours (e.g. ``[0]``) for the degraded
        daily granularity of §5.2.

        Args:
            hours: Hours of the day to solve for (default: all 24).
            warm_start: Previous plan set to seed each hour's walk from
                (§5.2's checks re-solve a barely-moved problem) — each
                hour starts at ``warm_start.plan_for_hour(h)`` when that
                plan is still compliant, falling back to home.
        """
        hour_list = list(hours) if hours is not None else list(range(24))
        if not hour_list:
            raise ValueError("need at least one hour to solve for")
        self._solves += 1
        with self._tracer.span(
            "solve", f"hours={len(hour_list)}", n_hours=len(hour_list)
        ) as scope:
            results = [
                self._solve_hour(
                    h,
                    warm_start.plan_for_hour(h % 24)
                    if warm_start is not None
                    else None,
                )
                for h in hour_list
            ]
            scope.set(
                iterations=sum(r.iterations for r in results),
                accepted=sum(r.accepted for r in results),
            )
        self._metrics.counter("solver.solves").inc()
        plans = {res.hour: res.best_plan for res in results}
        return HourlyPlanSet(plans), results

    def _solve_hour(
        self, hour: int, warm_start_plan: Optional[DeploymentPlan] = None
    ) -> SolveResult:
        """One hour's HBSS walk on the hour's own RNG substream, traced
        as a ``solver_hour`` span over its ``solver_iteration`` spans."""
        rng = self._rng_for_hour(hour)
        with self._tracer.span(
            "solver_hour", f"hour={hour}", hour=hour
        ) as scope:
            ev = self._ev
            dag = ev.dag
            settings = ev.settings
            nodes = dag.node_names
            n_nodes = len(nodes)
            options = [ev.permitted_regions(node) for node in nodes]
            n_regions = len(ev.regions)
            alpha = n_nodes * n_regions * settings.alpha_per_node_region
            space = ev.search_space_size()
            beta = settings.beta

            home = ev.home_plan()
            # The walk's deployment: its regions in ``nodes`` order.
            current = [home.assignments[node] for node in nodes]
            current_metric = ev.metric(home, hour)
            gamma = settings.gamma

            accepted_regions: Dict[str, int] = {r: 0 for r in ev.regions}
            # The carbon half of the region bias, per region for this
            # hour (looked up on first use, like the intensity itself).
            bias_denominators = LazyTable(
                lambda region: max(1.0, ev.intensity(region, hour))
            )
            # Biased-draw CDFs by permitted-region tuple (nodes with the
            # same options share one): built on first use, dropped on
            # every accept — the only time the weights change.
            cdfs: Dict[Tuple[str, ...], List[float]] = {}
            # Memo of *every* distinct deployment examined — accepted or
            # not — so complete exploration (Alg. 1 line 9) can actually
            # fire.  Tolerance violators are memoized as +inf: evaluated,
            # never a candidate for "best".
            deployments: Dict[Tuple[str, ...], float] = {
                tuple(current): current_metric
            }
            best_plan, best_metric = home, current_metric

            # Warm start (§5.2 re-solves a barely-moved problem): begin
            # the walk at the previous plan set's plan for this hour when
            # it is still usable; home remains the evaluated QoS anchor.
            if (
                warm_start_plan is not None
                and warm_start_plan != home
                and warm_start_plan.covers(dag)
                and ev.is_plan_compliant(warm_start_plan)
            ):
                warm = [warm_start_plan.assignments[node] for node in nodes]
                if ev.tolerance_violated(warm_start_plan, hour):
                    deployments[tuple(warm)] = math.inf
                else:
                    warm_metric = ev.metric(warm_start_plan, hour)
                    deployments[tuple(warm)] = warm_metric
                    current, current_metric = warm, warm_metric
                    if warm_metric < best_metric:
                        best_plan, best_metric = warm_start_plan, warm_metric

            iterations = 0
            accepted = 0
            while iterations < alpha and len(deployments) < space:
                # GenNewDeplWBias: re-draw 1-2 nodes' regions with a
                # carbon-and-history-biased draw.
                regions = current.copy()
                k = 1 if rng.random() < 0.7 else min(2, n_nodes)
                for idx in _choose_nodes(rng, n_nodes, k):
                    node_options = options[idx]
                    if len(node_options) == 1:
                        regions[idx] = node_options[0]
                    elif rng.random() < beta:
                        regions[idx] = node_options[
                            int(rng.integers(len(node_options)))
                        ]
                    else:
                        cdf = cdfs.get(node_options)
                        if cdf is None:
                            cdf = cdfs[node_options] = _bias_cdf(
                                [
                                    (1.0 + accepted_regions.get(r, 0))
                                    / bias_denominators[r]
                                    for r in node_options
                                ]
                            )
                        regions[idx] = node_options[
                            bisect_right(cdf, rng.random())
                        ]
                iterations += 1
                key = tuple(regions)
                if key in deployments:
                    continue
                candidate = DeploymentPlan(dict(zip(nodes, regions)))
                if ev.tolerance_violated(candidate, hour):
                    deployments[key] = math.inf
                    continue
                metric = ev.metric(candidate, hour)
                deployments[key] = metric
                took = metric < current_metric or self._mut(
                    gamma, current_metric, metric, rng
                )
                if self._tracer.enabled:
                    self._tracer.record(
                        "solver_iteration",
                        f"hour={hour}#{iterations}",
                        hour=hour,
                        iteration=iterations,
                        metric=metric,
                        accepted=took,
                    )
                if took:
                    current, current_metric = regions, metric
                    gamma *= settings.gamma_decay
                    accepted += 1
                    for region in set(regions):
                        accepted_regions[region] = (
                            accepted_regions.get(region, 0) + 1
                        )
                    cdfs.clear()
                    if metric < best_metric:
                        best_plan, best_metric = candidate, metric

            result = SolveResult(
                hour=hour,
                best_plan=best_plan,
                best_estimate=ev.estimate(best_plan, hour),
                iterations=iterations,
                accepted=accepted,
                plans_evaluated=len(deployments),
            )
            scope.set(
                iterations=result.iterations,
                accepted=result.accepted,
                plans_evaluated=result.plans_evaluated,
            )
        self._metrics.counter("solver.hours_solved").inc()
        self._metrics.counter("solver.iterations").inc(result.iterations)
        self._metrics.counter("solver.accepted").inc(result.accepted)
        self._metrics.counter("solver.plans_evaluated").inc(
            result.plans_evaluated
        )
        return result


class LegacyHBSSSolver(SequentialHBSSSolver):
    """Alg. 1 over a ``DeploymentPlan``-keyed memo (the former walk)."""

    def _solve_hour(
        self, hour: int, warm_start_plan: Optional[DeploymentPlan] = None
    ) -> SolveResult:
        """One hour's HBSS walk on the hour's own RNG substream, traced
        as a ``solver_hour`` span over its ``solver_iteration`` spans."""
        rng = self._rng_for_hour(hour)
        with self._tracer.span(
            "solver_hour", f"hour={hour}", hour=hour
        ) as scope:
            ev = self._ev
            dag = ev.dag
            settings = ev.settings
            nodes = dag.node_names
            n_regions = len(ev.regions)
            alpha = len(nodes) * n_regions * settings.alpha_per_node_region
            space = ev.search_space_size()

            home = ev.home_plan()
            current = home
            current_metric = ev.metric(current, hour)
            gamma = settings.gamma

            accepted_regions: Dict[str, int] = {r: 0 for r in ev.regions}
            # The carbon half of the region bias, per region for this
            # hour (looked up on first use, like the intensity itself).
            bias_denominators = LazyTable(
                lambda region: max(1.0, ev.intensity(region, hour))
            )
            # Memo of *every* distinct deployment examined — accepted or
            # not — so complete exploration (Alg. 1 line 9) can actually
            # fire.  Tolerance violators are memoized as +inf: evaluated,
            # never a candidate for "best".
            deployments: Dict[DeploymentPlan, float] = {home: current_metric}
            best_plan, best_metric = current, current_metric

            # Warm start (§5.2 re-solves a barely-moved problem): begin
            # the walk at the previous plan set's plan for this hour when
            # it is still usable; home remains the evaluated QoS anchor.
            if (
                warm_start_plan is not None
                and warm_start_plan != home
                and warm_start_plan.covers(dag)
                and ev.is_plan_compliant(warm_start_plan)
            ):
                if ev.tolerance_violated(warm_start_plan, hour):
                    deployments[warm_start_plan] = math.inf
                else:
                    warm_metric = ev.metric(warm_start_plan, hour)
                    deployments[warm_start_plan] = warm_metric
                    current, current_metric = warm_start_plan, warm_metric
                    if warm_metric < best_metric:
                        best_plan, best_metric = warm_start_plan, warm_metric

            iterations = 0
            accepted = 0
            while iterations < alpha and len(deployments) < space:
                candidate = self._gen_new_deployment_with_bias(
                    current, bias_denominators, accepted_regions, rng
                )
                iterations += 1
                if candidate in deployments:
                    continue
                if ev.tolerance_violated(candidate, hour):
                    deployments[candidate] = math.inf
                    continue
                metric = ev.metric(candidate, hour)
                deployments[candidate] = metric
                took = metric < current_metric or self._mut(
                    gamma, current_metric, metric, rng
                )
                if self._tracer.enabled:
                    self._tracer.record(
                        "solver_iteration",
                        f"hour={hour}#{iterations}",
                        hour=hour,
                        iteration=iterations,
                        metric=metric,
                        accepted=took,
                    )
                if took:
                    current, current_metric = candidate, metric
                    gamma *= ev.settings.gamma_decay
                    accepted += 1
                    for region in set(candidate.assignments.values()):
                        accepted_regions[region] = (
                            accepted_regions.get(region, 0) + 1
                        )
                    if metric < best_metric:
                        best_plan, best_metric = candidate, metric

            result = SolveResult(
                hour=hour,
                best_plan=best_plan,
                best_estimate=ev.estimate(best_plan, hour),
                iterations=iterations,
                accepted=accepted,
                plans_evaluated=len(deployments),
            )
            scope.set(
                iterations=result.iterations,
                accepted=result.accepted,
                plans_evaluated=result.plans_evaluated,
            )
        self._metrics.counter("solver.hours_solved").inc()
        self._metrics.counter("solver.iterations").inc(result.iterations)
        self._metrics.counter("solver.accepted").inc(result.accepted)
        self._metrics.counter("solver.plans_evaluated").inc(
            result.plans_evaluated
        )
        return result

    # -- Alg. 1 internals ---------------------------------------------------------
    def _gen_new_deployment_with_bias(
        self,
        current: DeploymentPlan,
        bias_denominators: Mapping[str, float],
        accepted_regions: Dict[str, int],
        rng: np.random.Generator,
    ) -> DeploymentPlan:
        """``GenNewDeplWBias``: mutate 1-2 node assignments with a
        carbon-and-history-biased region draw.

        ``bias_denominators`` maps a region to ``max(1, intensity)`` at
        the hour being solved.
        """
        ev = self._ev
        assignments = dict(current.assignments)
        nodes = ev.dag.node_names
        n_mutations = 1 if rng.random() < 0.7 else min(2, len(nodes))
        chosen = rng.choice(len(nodes), size=n_mutations, replace=False)
        for idx in np.atleast_1d(chosen):
            node = nodes[int(idx)]
            options = ev.permitted_regions(node)
            if len(options) == 1:
                assignments[node] = options[0]
                continue
            if rng.random() < ev.settings.beta:
                assignments[node] = options[int(rng.integers(len(options)))]
            else:
                weights = np.array(
                    [
                        (1.0 + accepted_regions.get(r, 0)) / bias_denominators[r]
                        for r in options
                    ]
                )
                weights /= weights.sum()
                assignments[node] = options[_weighted_index(rng, weights)]
        return DeploymentPlan(assignments)

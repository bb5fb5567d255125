"""Heuristic-Biased Stochastic Sampling solver (paper Alg. 1).

HBSS explores the ``|R|^|N|`` deployment space by mutating the current
deployment with a *biased* region choice and accepting candidates that
improve the target metric — or, stochastically, ones that do not
(``Mut``), with a temperature ``gamma`` decayed by 0.99 per accepted
move.  The iteration budget is ``alpha = |N| x |R| x 6``, and the search
also terminates on complete exploration of the space (Alg. 1 line 9).

Two departures from the paper's terse pseudo-code are documented here:

* ``Mut`` computes ``delta = gamma * |CD.metric - ND.metric|``; we
  normalise the difference by ``CD.metric`` so acceptance probability is
  scale-free (the raw metric is in grams/USD/seconds whose magnitude
  varies by orders of magnitude between workflows).
* The region bias ("leveraging the information obtained as a region
  bias") is made concrete: candidate regions are drawn with weight
  ``(1 + accepted_count[r]) / intensity(r)`` — greener regions and
  regions that previously produced accepted deployments are preferred —
  with probability ``beta`` of an unbiased uniform draw.

Independent hours
-----------------
``solve_day`` runs the per-hour walks one after another, and an hour's
result depends on nothing but that hour:

1. **Per-hour RNG substreams.** Each hour's walk draws from its own
   generator — either ``rng_factory(hour)`` (the Deployment Manager
   passes the registry stream ``solver:{workflow}:hour={h}``) or a
   substream derived from a constructor-drawn salt and a per-solve
   epoch.  No hour's draws depend on which other hours were solved.
2. **Order-independent evaluation.** The Monte-Carlo estimator
   simulates every plan from a substream keyed by the plan's digest, so
   cache warm-up order cannot perturb any cached value.

One iteration, draw for draw
----------------------------
Inside the walk a deployment is its regions in ``dag.node_names``
order, and the memo is keyed by that tuple; a :class:`DeploymentPlan`
is built only on a memo miss, for the plans that get a tolerance check
and a price.  An iteration makes exactly the generator calls that
drawing with ``Generator.choice`` makes, in the same order, and gets
the same indices:

* the mutated nodes are ``rng.choice(n, k, replace=False)`` for
  ``k in (1, 2)`` rebuilt from ``rng.integers`` — numpy's Floyd sample
  followed by its one-step shuffle (:func:`_choose_nodes`);
* the biased region is ``rng.choice(len(options), p=weights)``: one
  ``rng.random()`` bisected into a CDF over the node's permitted
  regions, which :func:`_bias_cdf` computes with choice's numpy
  operations and which is kept — shared by nodes with the same permitted
  regions — until the next accept, the only time the weights change.

Neither ``Generator.choice`` nor a weight array appears on the
per-iteration path.  ``tests/test_solvers.py`` pins both draws against
``Generator.choice`` and the whole walk against the former
implementation kept in ``tests/hbss_walk_oracle.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.rng import derive_seed
from repro.core.solver.evaluation import LazyTable, PlanEvaluator
from repro.metrics.montecarlo import WorkflowEstimate
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class SolveResult:
    """Outcome of one per-hour HBSS run.

    ``plans_evaluated`` counts *distinct* deployments the run examined —
    accepted, rejected, and tolerance-violating alike — i.e. the size of
    Alg. 1's ``Deployments`` memo, which is also what the
    complete-exploration termination (line 9) compares against the
    search-space size.
    """

    hour: int
    best_plan: DeploymentPlan
    best_estimate: WorkflowEstimate
    iterations: int
    accepted: int
    plans_evaluated: int

    @property
    def offloaded_nodes(self) -> Tuple[str, ...]:
        """Nodes the best plan places away from the plan's modal region
        — a quick signal of fine-grained behaviour.  Modal-count ties
        break lexicographically: iterating a set would make the winner
        (and thus reports) depend on PYTHONHASHSEED."""
        regions = list(self.best_plan.assignments.values())
        modal = min(set(regions), key=lambda r: (-regions.count(r), r))
        return tuple(
            sorted(
                n
                for n, r in self.best_plan.assignments.items()
                if r != modal
            )
        )


def _choose_nodes(rng: np.random.Generator, n: int, k: int) -> Tuple[int, ...]:
    """``tuple(rng.choice(n, size=k, replace=False))`` for ``k in (1, 2)``
    — the same indices from the same generator calls (equality pinned by
    ``tests/test_solvers.py::TestChoiceReproductionDifferential``).

    For ``n`` up to 10 000 numpy samples with Floyd's algorithm — the
    j-th pick is uniform on ``[0, n-k+j]``, replaced by ``n-k+j``
    itself when already taken — then shuffles the ``k`` picks; for two
    picks the shuffle is one ``integers(2)`` draw that swaps on 0.
    """
    if k == 1:
        return (int(rng.integers(n)),)
    first = int(rng.integers(n - 1))
    second = int(rng.integers(n))
    if second == first:
        second = n - 1
    return (second, first) if rng.integers(2) == 0 else (first, second)


def _bias_cdf(weights: Sequence[float]) -> List[float]:
    """The CDF ``Generator.choice(len(weights), p=w)`` draws from, for
    ``w`` the normalised ``weights``: the same numpy operations, so
    ``bisect_right(cdf, rng.random())`` returns choice's index from the
    same single draw (pinned by
    ``tests/test_solvers.py::TestWeightedIndexDifferential``)."""
    p = np.array(weights)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class HBSSSolver:
    """Alg. 1, parameterised by a :class:`PlanEvaluator`."""

    def __init__(
        self,
        evaluator: PlanEvaluator,
        rng: np.random.Generator,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        rng_factory: Optional[Callable[[int], np.random.Generator]] = None,
    ):
        """Args:
        evaluator: Plan evaluator (may be shared with other solvers).
        rng: Solver-owned stream.  One salt is drawn from it up front;
            when ``rng_factory`` is omitted, each hour's walk runs on a
            substream derived from that salt, the solve epoch, and the
            hour, so repeated solves still explore differently while
            hours stay independent of scheduling order.
        tracer / metrics: Observability sinks (no-ops by default).
        rng_factory: ``hour -> Generator`` override for callers that
            manage named streams themselves — the Deployment Manager
            passes ``lambda h: registry.get(f"solver:{wf}:hour={h}")``
            so per-hour streams persist (and keep advancing) across
            token checks.
        """
        self._ev = evaluator
        self._rng = rng
        self._hour_salt = int(rng.integers(0, 2**63 - 1))
        self._rng_factory = rng_factory
        self._solves = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS

    # -- public API ------------------------------------------------------------
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

    # -- per-hour plumbing ------------------------------------------------------
    def _rng_for_hour(self, hour: int) -> np.random.Generator:
        if self._rng_factory is not None:
            return self._rng_factory(hour)
        return np.random.default_rng(
            derive_seed(self._hour_salt, f"solve={self._solves}:hour={hour}")
        )

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

    # -- Alg. 1 internals ---------------------------------------------------------
    def _mut(
        self,
        gamma: float,
        current_metric: float,
        new_metric: float,
        rng: np.random.Generator,
    ) -> bool:
        """``Mut``: stochastic acceptance of a non-improving move.

        The 0.5 factor caps acceptance of equal-metric moves at 50 % —
        with the paper's bare ``Random < e^(-delta)`` a tiny delta would
        accept nearly every regression and the walk would never settle.
        """
        scale = abs(current_metric) if current_metric != 0 else 1.0
        delta = gamma * abs(current_metric - new_metric) / scale
        return bool(rng.random() < math.exp(-delta) * 0.5)

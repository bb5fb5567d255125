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

Independent hours, walked in lockstep
-------------------------------------
An hour's result depends on nothing but that hour:

1. **Per-hour RNG substreams.** Each hour's walk draws from its own
   generator — either ``rng_factory(hour)`` (the Deployment Manager
   passes the registry stream ``solver:{workflow}:hour={h}``) or a
   substream derived from a constructor-drawn salt and a per-solve
   epoch.  No hour's draws depend on which other hours were solved, or
   in what order; so ``solve_day`` refuses an hour named twice, whose
   two walks would share one stream.
2. **Order-independent evaluation.** The Monte-Carlo estimator
   simulates every plan from a substream keyed by the plan's digest, so
   neither cache warm-up order nor the company a plan is profiled in
   can perturb any cached value.

``solve_day`` therefore runs the requested hours' walks in lockstep.
Each walk is a generator that yields a plan just before it first prices
one whose profile is not built yet; each step resumes every unfinished
walk up to its next such plan and hands the step's plans to
:meth:`PlanEvaluator.prefetch_profiles`, which builds them as one
Monte-Carlo cohort.  The walks, their results and ``SolverStats`` (which
count per request) are exactly what walking the hours one after another
gives; so are the spans, because a walk only notes its iterations and
the ``solver_hour`` spans with their ``solver_iteration`` children are
emitted in hour order once every walk has ended
(``tests/test_solvers.py::TestLockstepDifferential`` holds the day to
the former one-hour-after-another driver kept in
``tests/hbss_walk_oracle.py``).  ``solve_hour`` is the one-walk case.

One iteration, draw for draw
----------------------------
Inside the walk a deployment is its regions in ``dag.node_names``
order.  That tuple keys the walk's memo and the evaluation cache alike
(:meth:`PlanEvaluator.plan_key`): a memo miss is priced by key
(:meth:`PlanEvaluator.checked_metric`, the metric itself, or ``None``
for a tolerance violator), and a :class:`DeploymentPlan` is built only
for a key whose profile is not built yet — the plan the walk yields —
and for the hour's result.  Its SHA-256 digest is taken only where the
estimator seeds the plan's substream from it.  An iteration makes
exactly the draws that drawing with ``Generator.choice`` makes, in the
same order, and gets the same indices — each through the bit
generator's own C function (:class:`_Draws`), not a ``Generator``
method call:

* the mutated nodes are ``rng.choice(n, k, replace=False)`` for
  ``k in (1, 2)`` rebuilt from bounded integer draws — numpy's Floyd
  sample followed by its one-step shuffle (:func:`_choose_nodes`);
* the biased region is ``rng.choice(len(options), p=weights)``: one
  ``rng.random()`` bisected into a CDF over the node's permitted
  regions, which :func:`_bias_cdf` computes with choice's numpy
  operations and which is kept — shared by nodes with the same permitted
  regions — until the next accept, the only time the weights change.

Neither ``Generator.choice`` nor a weight array appears on the
per-iteration path.  ``tests/test_solvers.py`` pins both draws against
``Generator.choice``, :class:`_Draws` against ``Generator.random`` and
``Generator.integers``, and the whole walk against the former
implementation kept in ``tests/hbss_walk_oracle.py``.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.rng import derive_seed
from repro.core.solver.evaluation import (
    LazyTable,
    PlanEvaluator,
    requested_hours,
)
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


class _Draws:
    """The two draws the walk makes on its generator — ``rng.random()``
    and ``rng.integers(n)`` — through the bit generator's own C
    functions (numpy's ``BitGenerator.ctypes``), minus the Python-level
    argument handling that made up most of each ``Generator`` call.

    They are the functions ``Generator`` calls: ``random()`` is the bit
    generator's ``next_double``, and ``integers(n)`` for ``1 <= n <
    2**32`` is numpy's bounded draw for such a range — no draw at all
    for ``n == 1``, else Lemire's multiply-and-reject on
    ``next_uint32``.  So a walk leaves its generator exactly where
    ``Generator`` calls would, whatever its bit generator (pinned by
    ``tests/test_solvers.py::TestDrawsDifferential`` on numpy's five,
    on the numpy floor too).  The generator stays usable alongside:
    both advance the one bit-generator state.
    """

    __slots__ = ("random", "_next_uint32", "_state", "_rng")

    def __init__(self, rng: np.random.Generator):
        bits = rng.bit_generator.ctypes
        # The state pointer lives in the generator's bit generator: keep
        # it alive for as long as the draws can be made.
        self._rng = rng
        self._state = bits.state
        self._next_uint32 = bits.next_uint32
        #: ``rng.random()``: one double in ``[0, 1)``.
        self.random: Callable[[], float] = functools.partial(
            bits.next_double, bits.state
        )

    def integers(self, n: int) -> int:
        """``int(rng.integers(n))`` for ``1 <= n < 2**32``."""
        if n == 1:
            return 0
        next_uint32, state = self._next_uint32, self._state
        m = next_uint32(state) * n
        leftover = m & 0xFFFFFFFF
        if leftover < n:
            threshold = (0x100000000 - n) % n
            while leftover < threshold:
                m = next_uint32(state) * n
                leftover = m & 0xFFFFFFFF
        return m >> 32


def _choose_nodes(
    rng: "np.random.Generator | _Draws", n: int, k: int
) -> Tuple[int, ...]:
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
        """Find the best deployment plan for one hour of the day: the
        one-walk case of :meth:`solve_day`'s driver."""
        self._solves += 1
        (result,) = self._solve_hours([hour], [warm_start_plan])
        return result

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
            hours: Distinct hours of the day to solve for (default: all
                24); an empty list or a repeated hour is a ``ValueError``.
            warm_start: Previous plan set to seed each hour's walk from
                (§5.2's checks re-solve a barely-moved problem) — each
                hour starts at ``warm_start.plan_for_hour(h)`` when that
                plan is still compliant, falling back to home.
        """
        hour_list = requested_hours(hours)
        self._solves += 1
        with self._tracer.span(
            "solve", f"hours={len(hour_list)}", n_hours=len(hour_list)
        ) as scope:
            results = self._solve_hours(
                hour_list,
                [
                    warm_start.plan_for_hour(h % 24)
                    if warm_start is not None
                    else None
                    for h in hour_list
                ],
            )
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

    def _solve_hours(
        self,
        hours: Sequence[int],
        warm_start_plans: Sequence[Optional[DeploymentPlan]],
    ) -> List[SolveResult]:
        """Walk the hours in lockstep, then trace them in hour order.

        Each step resumes every unfinished walk until it stops at a plan
        whose profile is not built yet (or finishes), then builds all
        the plans the step stopped at as one Monte-Carlo cohort.  Each
        hour's ``solver_hour`` span, its ``solver_iteration`` children
        and its counters are emitted after all walks end, one hour after
        another.
        """
        walks = [
            self._walk(hour, self._rng_for_hour(hour), warm)
            for hour, warm in zip(hours, warm_start_plans)
        ]
        ends: Dict[int, Tuple[SolveResult, List[Tuple[int, float, bool]]]] = {}
        running = list(enumerate(walks))
        while running:
            asked: List[DeploymentPlan] = []
            resumed = []
            for i, walk in running:
                try:
                    asked.append(next(walk))
                except StopIteration as end:
                    ends[i] = end.value
                else:
                    resumed.append((i, walk))
            if asked:
                self._ev.prefetch_profiles(asked)
            running = resumed

        results = []
        for i, hour in enumerate(hours):
            result, steps = ends[i]
            with self._tracer.span(
                "solver_hour", f"hour={hour}", hour=hour
            ) as scope:
                for iteration, metric, took in steps:
                    self._tracer.record(
                        "solver_iteration",
                        f"hour={hour}#{iteration}",
                        hour=hour,
                        iteration=iteration,
                        metric=metric,
                        accepted=took,
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
            results.append(result)
        return results

    def _walk(
        self,
        hour: int,
        rng: np.random.Generator,
        warm_start_plan: Optional[DeploymentPlan],
    ) -> Generator[
        DeploymentPlan, None, Tuple[SolveResult, List[Tuple[int, float, bool]]]
    ]:
        """One hour's HBSS walk on the hour's own RNG substream.

        A generator: before it prices a plan whose profile is not built
        yet, it yields the plan (the driver builds it, with the other
        walks' plans, before resuming).  It returns the result and, when
        tracing, each priced iteration's ``(iteration, metric,
        accepted)``.
        """
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
        traced = self._tracer.enabled
        steps: List[Tuple[int, float, bool]] = []

        home = ev.home_plan()
        # The walk's deployment: its regions in ``nodes`` order, which is
        # also its evaluation-cache key.
        home_key = ev.plan_key(home)
        if not ev.profiled(home_key):
            yield home
        current = list(home_key)
        current_metric = ev.metric_of(home_key, hour)
        gamma = settings.gamma

        accepted_regions: Dict[str, int] = {r: 0 for r in ev.regions}
        # The carbon half of the region bias, per region for this
        # hour (looked up on first use, like the intensity itself).
        draws = _Draws(rng)
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
        deployments: Dict[Tuple[str, ...], float] = {home_key: current_metric}
        # The best key, and its plan when the walk did not make it (home
        # or the warm start, returned as the very objects it was given).
        best_key, best_metric = home_key, current_metric
        best_plan: Optional[DeploymentPlan] = home

        # Warm start (§5.2 re-solves a barely-moved problem): begin
        # the walk at the previous plan set's plan for this hour when
        # it is still usable; home remains the evaluated QoS anchor.
        if (
            warm_start_plan is not None
            and warm_start_plan != home
            and warm_start_plan.covers(dag)
            and ev.is_plan_compliant(warm_start_plan)
        ):
            warm_key = ev.plan_key(warm_start_plan)
            if not ev.profiled(warm_key):
                yield warm_start_plan
            warm_metric = ev.checked_metric(warm_key, hour)
            if warm_metric is None:
                deployments[warm_key] = math.inf
            else:
                deployments[warm_key] = warm_metric
                current, current_metric = list(warm_key), warm_metric
                if warm_metric < best_metric:
                    best_key, best_metric = warm_key, warm_metric
                    best_plan = warm_start_plan

        iterations = 0
        accepted = 0
        while iterations < alpha and len(deployments) < space:
            # GenNewDeplWBias: re-draw 1-2 nodes' regions with a
            # carbon-and-history-biased draw.
            regions = current.copy()
            k = 1 if draws.random() < 0.7 else min(2, n_nodes)
            for idx in _choose_nodes(draws, n_nodes, k):
                node_options = options[idx]
                if len(node_options) == 1:
                    regions[idx] = node_options[0]
                elif draws.random() < beta:
                    regions[idx] = node_options[draws.integers(len(node_options))]
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
                        bisect_right(cdf, draws.random())
                    ]
            iterations += 1
            key = tuple(regions)
            if key in deployments:
                continue
            if not ev.profiled(key):
                yield DeploymentPlan(dict(zip(nodes, regions)))
            metric = ev.checked_metric(key, hour)
            if metric is None:
                deployments[key] = math.inf
                continue
            deployments[key] = metric
            took = metric < current_metric or self._mut(
                gamma, current_metric, metric, draws
            )
            if traced:
                steps.append((iterations, metric, took))
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
                    best_key, best_metric, best_plan = key, metric, None

        if best_plan is None:
            best_plan = DeploymentPlan(dict(zip(nodes, best_key)))
        result = SolveResult(
            hour=hour,
            best_plan=best_plan,
            best_estimate=ev.estimate(best_plan, hour),
            iterations=iterations,
            accepted=accepted,
            plans_evaluated=len(deployments),
        )
        return result, steps

    # -- Alg. 1 internals ---------------------------------------------------------
    def _mut(
        self,
        gamma: float,
        current_metric: float,
        new_metric: float,
        rng: "np.random.Generator | _Draws",
    ) -> bool:
        """``Mut``: stochastic acceptance of a non-improving move.

        The 0.5 factor caps acceptance of equal-metric moves at 50 % —
        with the paper's bare ``Random < e^(-delta)`` a tiny delta would
        accept nearly every regression and the walk would never settle.
        """
        scale = abs(current_metric) if current_metric != 0 else 1.0
        delta = gamma * abs(current_metric - new_metric) / scale
        return bool(rng.random() < math.exp(-delta) * 0.5)

"""Tests for the solver stack: evaluation, HBSS, coarse, and the
exhaustive oracle."""

import bisect
import collections
import functools
import sys

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import VirtualClock
from repro.common.errors import SolverError
from repro.core.solver import (
    CoarseSolver,
    HBSSSolver,
    PlanEvaluator,
    SolverSettings,
    SolverStats,
)
from repro.core.solver import hbss
from repro.core.solver.hbss import _bias_cdf, _choose_nodes
from repro.experiments.harness import (
    build_plan_evaluator,
    deploy_benchmark,
    warm_up,
)
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.data.latency import LatencySource
from repro.data.pricing import PricingSource
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.latency import TransferLatencyModel
from repro.model.config import FunctionConstraints, Tolerances, WorkflowConfig
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.trace import Tracer

from tests.exhaustive_oracle import ExhaustiveSolver
from tests.hbss_walk_oracle import LegacyHBSSSolver

REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")

#: Flat intensities: ca-central-1 overwhelmingly cleanest.
INTENSITY = {
    "us-east-1": 400.0,
    "us-west-1": 375.0,
    "us-west-2": 392.0,
    "ca-central-1": 34.0,
}


class FixtureData:
    def __init__(self, exec_seconds=1.0, edge_bytes=1e5):
        self.exec_seconds = exec_seconds
        self.edge_bytes = edge_bytes

    def execution_time_dist(self, node, region):
        return EmpiricalDistribution(
            [self.exec_seconds * f for f in (0.9, 1.0, 1.1)]
        )

    def edge_probability(self, src, dst):
        return 1.0

    def edge_size_dist(self, src, dst):
        return EmpiricalDistribution([self.edge_bytes])

    def node_memory_mb(self, node):
        return 1769

    def node_vcpu(self, node):
        return 1.0

    def node_cpu_utilization(self, node):
        return 0.7

    def node_external_bytes(self, node):
        return None, 0.0

    def input_size_dist(self):
        return EmpiricalDistribution([0.0])


def intensity_fn(region, hour):
    return INTENSITY[region]


def make_evaluator(dag, config=None, data=None, settings=None,
                   scenario=None, seed=0, regions=REGIONS,
                   intensity_fn=intensity_fn):
    return PlanEvaluator(
        dag=dag,
        config=config or WorkflowConfig(home_region="us-east-1"),
        data=data or FixtureData(),
        regions=regions,
        intensity_fn=intensity_fn,
        carbon_model=CarbonModel(scenario or TransmissionScenario.best_case()),
        cost_model=CostModel(PricingSource()),
        latency_model=TransferLatencyModel(LatencySource()),
        rng=np.random.default_rng(seed),
        settings=settings or SolverSettings(batch_size=40, max_samples=120,
                                            cov_threshold=0.1),
    )


def tiny_dag() -> WorkflowDAG:
    """a -> b: a 2-node space HBSS can exhaust within its alpha budget."""
    dag = WorkflowDAG("tiny")
    for name in ("a", "b"):
        dag.add_node(Node(name=name, function=name))
    dag.add_edge(Edge("a", "b"))
    dag.validate()
    return dag


class TestPlanEvaluator:
    def test_permitted_regions_filter_compliance(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "b": FunctionConstraints(
                    allowed_regions=frozenset({"us-east-1", "us-west-2"})
                )
            },
        )
        ev = make_evaluator(chain_dag, config=config)
        assert set(ev.permitted_regions("b")) == {"us-east-1", "us-west-2"}
        assert set(ev.permitted_regions("a")) == set(REGIONS)

    def test_search_space_size(self, chain_dag):
        ev = make_evaluator(chain_dag)
        assert ev.search_space_size() == 4**3

    def test_no_permitted_region_raises(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "b": FunctionConstraints(allowed_regions=frozenset({"ca-west-1"}))
            },
        )
        with pytest.raises(ValueError, match="no region"):
            make_evaluator(chain_dag, config=config)

    def test_profile_cached(self, chain_dag):
        ev = make_evaluator(chain_dag)
        plan = ev.home_plan()
        p1 = ev.profile(plan)
        p2 = ev.profile(DeploymentPlan(dict(plan.assignments)))
        assert p1 is p2
        assert ev.plans_profiled == 1

    def test_intensity_is_looked_up_lazily_and_once(self, chain_dag):
        calls = []

        def only_hour_3(region, hour):
            calls.append((region, hour))
            if hour != 3:
                raise KeyError(hour)
            return INTENSITY[region]

        ev = make_evaluator(chain_dag, intensity_fn=only_hour_3)
        plan = ev.home_plan()
        first = ev.estimate(plan, 3)
        assert ev.intensity("us-east-1", 3) == INTENSITY["us-east-1"]
        assert ev.estimate(DeploymentPlan.single_region(
            chain_dag, "us-west-2"), 3) != first
        # One call per region asked about, none for other hours.
        assert sorted(calls) == [("us-east-1", 3), ("us-west-2", 3)]
        # A failing lookup is not remembered as a value.
        for _ in range(2):
            with pytest.raises(KeyError):
                ev.intensity("us-east-1", 4)

    def test_tolerance_violated_latency(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            tolerances=Tolerances(latency=0.0),
        )
        ev = make_evaluator(chain_dag, config=config,
                            data=FixtureData(exec_seconds=0.2))
        # Spreading a short chain across the continent blows the
        # zero-tolerance latency budget.
        remote = DeploymentPlan(
            {"a": "us-east-1", "b": "us-west-1", "c": "us-east-1"}
        )
        assert ev.tolerance_violated(remote, hour=0)
        assert not ev.tolerance_violated(ev.home_plan(), hour=0)

    def test_no_tolerances_never_violates(self, chain_dag):
        ev = make_evaluator(chain_dag)
        remote = DeploymentPlan.single_region(chain_dag, "ca-central-1")
        assert not ev.tolerance_violated(remote, hour=0)

    def test_compliance_check(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "a": FunctionConstraints(allowed_regions=frozenset({"us-east-1"}))
            },
        )
        ev = make_evaluator(chain_dag, config=config)
        assert ev.is_plan_compliant(ev.home_plan())
        assert not ev.is_plan_compliant(
            DeploymentPlan.single_region(chain_dag, "ca-central-1")
        )


class TestHBSS:
    def test_finds_low_carbon_region(self, chain_dag):
        ev = make_evaluator(chain_dag)
        solver = HBSSSolver(ev, np.random.default_rng(1))
        result = solver.solve_hour(0)
        # With a ~12x intensity gap and tiny payloads, everything should
        # land in ca-central-1.
        assert set(result.best_plan.assignments.values()) == {"ca-central-1"}
        assert result.iterations > 0

    def test_iteration_budget_alpha(self, chain_dag):
        ev = make_evaluator(chain_dag)
        solver = HBSSSolver(ev, np.random.default_rng(1))
        result = solver.solve_hour(0)
        alpha = len(chain_dag) * len(REGIONS) * ev.settings.alpha_per_node_region
        assert result.iterations <= alpha

    def test_respects_compliance(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "a": FunctionConstraints(allowed_regions=frozenset({"us-east-1"}))
            },
        )
        ev = make_evaluator(chain_dag, config=config)
        solver = HBSSSolver(ev, np.random.default_rng(2))
        result = solver.solve_hour(0)
        assert result.best_plan.region_of("a") == "us-east-1"
        # The unconstrained nodes still escape to the clean region.
        assert result.best_plan.region_of("b") == "ca-central-1"

    def test_never_worse_than_home(self, diamond_dag):
        ev = make_evaluator(diamond_dag)
        solver = HBSSSolver(ev, np.random.default_rng(3))
        result = solver.solve_hour(0)
        home_metric = ev.metric(ev.home_plan(), 0)
        assert ev.metric(result.best_plan, 0) <= home_metric

    def test_tolerance_keeps_plans_feasible(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            tolerances=Tolerances(latency=0.0),
        )
        ev = make_evaluator(chain_dag, config=config,
                            data=FixtureData(exec_seconds=0.2))
        solver = HBSSSolver(ev, np.random.default_rng(4))
        result = solver.solve_hour(0)
        assert not ev.tolerance_violated(result.best_plan, 0)

    def test_solve_day_produces_hourly_set(self, chain_dag):
        ev = make_evaluator(chain_dag)
        solver = HBSSSolver(ev, np.random.default_rng(5))
        plan_set, results = solver.solve_day(hours=[0, 6, 12])
        assert plan_set.hours == (0, 6, 12)
        assert len(results) == 3

    def test_solve_day_empty_hours_rejected(self, chain_dag):
        ev = make_evaluator(chain_dag)
        solver = HBSSSolver(ev, np.random.default_rng(5))
        with pytest.raises(ValueError):
            solver.solve_day(hours=[])

    def test_complete_exploration_terminates(self):
        # 2 nodes x 2 regions = 4 plans: the run must stop via complete
        # exploration (Alg. 1 line 9) with every distinct plan memoized,
        # well before the alpha = 2*2*6 = 24 iteration budget.
        ev = make_evaluator(tiny_dag(), regions=("us-east-1", "us-west-1"))
        solver = HBSSSolver(ev, np.random.default_rng(0))
        result = solver.solve_hour(0)
        assert ev.search_space_size() == 4
        assert result.plans_evaluated == 4
        assert result.iterations < 24

    def test_complete_exploration_counts_tolerance_violators(self):
        # Plans that violate QoS tolerances are still *evaluated* and
        # must count toward complete exploration — previously they were
        # never memoized, so line 9 could not fire on a space where any
        # plan violates.
        config = WorkflowConfig(
            home_region="us-east-1", tolerances=Tolerances(latency=0.0)
        )
        ev = make_evaluator(
            tiny_dag(), config=config, data=FixtureData(exec_seconds=0.2),
            regions=("us-east-1", "us-west-1"),
        )
        # Seed pinned to a stream whose walk covers the space within the
        # budget (the walk is stochastic; most seeds do).
        solver = HBSSSolver(ev, np.random.default_rng(1))
        result = solver.solve_hour(0)
        assert result.plans_evaluated == ev.search_space_size() == 4
        # Cross-continent plans violate the 0% latency budget, yet the
        # run still terminates by exhaustion, not the iteration budget.
        assert result.iterations < 24

    def test_offloaded_nodes_signal(self, chain_dag):
        from repro.core.solver.hbss import SolveResult
        from repro.metrics.montecarlo import WorkflowEstimate

        est = WorkflowEstimate(1, 1, 1, 1, 1, 1, 1, 0, 10)
        res = SolveResult(
            hour=0,
            best_plan=DeploymentPlan(
                {"a": "us-east-1", "b": "us-east-1", "c": "ca-central-1"}
            ),
            best_estimate=est, iterations=1, accepted=1, plans_evaluated=1,
        )
        assert res.offloaded_nodes == ("c",)


class TestCoarseSolver:
    def test_picks_cleanest_region(self, chain_dag):
        ev = make_evaluator(chain_dag)
        plan, _est = CoarseSolver(ev).solve_hour(0)
        assert plan.regions_used == ("ca-central-1",)

    def test_candidate_regions_respect_all_functions(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "a": FunctionConstraints(allowed_regions=frozenset({"us-east-1"})),
                "b": FunctionConstraints(
                    allowed_regions=frozenset({"us-east-1", "ca-central-1"})
                ),
            },
        )
        ev = make_evaluator(chain_dag, config=config)
        solver = CoarseSolver(ev)
        assert solver.candidate_regions() == ("us-east-1",)

    def test_impossible_coarse_raises(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "a": FunctionConstraints(allowed_regions=frozenset({"us-east-1"})),
                "b": FunctionConstraints(
                    allowed_regions=frozenset({"ca-central-1"})
                ),
            },
        )
        ev = make_evaluator(chain_dag, config=config)
        with pytest.raises(SolverError):
            CoarseSolver(ev).solve_hour(0)

    def test_falls_back_home_when_all_violate(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1", tolerances=Tolerances(latency=0.0)
        )
        ev = make_evaluator(chain_dag, config=config,
                            data=FixtureData(exec_seconds=0.05))
        plan, _ = CoarseSolver(ev).solve_hour(0)
        # Every non-home region may violate a 0 % tolerance (region speed
        # spread); home must always be reachable.
        assert plan.covers(chain_dag)

    def test_solve_day(self, chain_dag):
        ev = make_evaluator(chain_dag)
        plan_set = CoarseSolver(ev).solve_day(hours=[0, 12])
        assert plan_set.hours == (0, 12)


class TestExhaustiveSolver:
    def test_matches_or_beats_hbss(self, chain_dag):
        ev = make_evaluator(chain_dag)
        exhaustive_plan, exhaustive_est = ExhaustiveSolver(ev).solve_hour(0)
        solver = HBSSSolver(ev, np.random.default_rng(6))
        hbss_result = solver.solve_hour(0)
        assert exhaustive_est.mean_carbon_g <= ev.estimate(
            hbss_result.best_plan, 0
        ).mean_carbon_g * 1.001

    def test_refuses_large_spaces(self, chain_dag):
        ev = make_evaluator(chain_dag)
        with pytest.raises(SolverError, match="exceeding"):
            ExhaustiveSolver(ev, max_plans=3).solve_hour(0)


class TestSolverSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(batch_size=0)
        with pytest.raises(ValueError):
            SolverSettings(beta=1.5)
        with pytest.raises(ValueError):
            SolverSettings(alpha_per_node_region=0)

    def test_monte_carlo_knob_validation(self):
        with pytest.raises(ValueError, match="cov_threshold"):
            SolverSettings(cov_threshold=0.0)
        with pytest.raises(ValueError, match="cov_threshold"):
            SolverSettings(cov_threshold=-0.1)

    def test_hbss_knob_validation(self):
        with pytest.raises(ValueError, match="gamma "):
            SolverSettings(gamma=-0.5)
        with pytest.raises(ValueError, match="gamma_decay"):
            SolverSettings(gamma_decay=0.0)
        with pytest.raises(ValueError, match="gamma_decay"):
            SolverSettings(gamma_decay=1.01)
        SolverSettings(gamma=0.0, gamma_decay=1.0)  # boundary values OK


class TestSolverStats:
    def test_profile_and_estimate_counters(self, chain_dag):
        ev = make_evaluator(chain_dag)
        plan = ev.home_plan()
        ev.estimate(plan, 0)
        assert ev.stats.profiles_built == 1
        assert ev.stats.simulations_run == 1
        assert ev.stats.samples_drawn > 0
        assert ev.stats.estimates_computed == 1
        ev.estimate(plan, 0)  # estimate cache hit
        assert ev.stats.estimate_cache_hits == 1
        ev.estimate(plan, 5)  # new hour: profile cache hit, new estimate
        assert ev.stats.profile_cache_hits >= 1
        assert ev.stats.estimates_computed == 2
        assert ev.stats.simulations_run == 1  # no re-simulation

    def test_shared_stats_object(self, chain_dag):
        stats = SolverStats()
        ev = PlanEvaluator(
            dag=chain_dag,
            config=WorkflowConfig(home_region="us-east-1"),
            data=FixtureData(),
            regions=REGIONS,
            intensity_fn=intensity_fn,
            carbon_model=CarbonModel(TransmissionScenario.best_case()),
            cost_model=CostModel(PricingSource()),
            latency_model=TransferLatencyModel(LatencySource()),
            rng=np.random.default_rng(0),
            settings=SolverSettings(batch_size=40, max_samples=120,
                                    cov_threshold=0.1),
            stats=stats,
        )
        ev.estimate(ev.home_plan(), 0)
        assert stats is ev.stats
        assert stats.simulations_run == 1
        assert "simulations" in stats.summary()


_COUNTER_FIELDS = (
    "simulations_run", "samples_drawn", "profiles_built",
    "profile_cache_hits", "estimates_computed", "estimate_cache_hits",
)


def _counters(stats):
    """Scheduling-invariant counter totals."""
    return {name: getattr(stats, name) for name in _COUNTER_FIELDS}


class TestParallelSolveDay:
    """The contract of the one way a day is solved (the class and test
    names predate the removal of the worker-pool backends): two fresh
    same-seed solvers return identical plan sets, per-hour results,
    counters and solver spans."""

    def _hbss(self, dag, seed=5, tracer=None):
        settings = SolverSettings(batch_size=40, max_samples=120,
                                  cov_threshold=0.1)
        ev = make_evaluator(dag, settings=settings, seed=seed)
        return ev, HBSSSolver(ev, np.random.default_rng(seed), tracer=tracer)

    def test_hbss_parallel_identical_to_serial(self, chain_dag):
        hours = list(range(6))
        tracers = [Tracer(VirtualClock()), Tracer(VirtualClock())]
        _, first = self._hbss(chain_dag, tracer=tracers[0])
        _, second = self._hbss(chain_dag, tracer=tracers[1])
        ps_first, res_first = first.solve_day(hours)
        ps_second, res_second = second.solve_day(hours)
        assert ps_second.to_dict() == ps_first.to_dict()
        for a, b in zip(res_first, res_second):
            assert (a.hour, a.iterations, a.accepted, a.plans_evaluated) == (
                b.hour, b.iterations, b.accepted, b.plans_evaluated
            )
            assert a.best_plan == b.best_plan
            assert a.best_estimate.mean_carbon_g == b.best_estimate.mean_carbon_g
        # Iteration spans are recorded as the walk goes, inside their
        # hour's span: one solver_hour per hour, each iteration its
        # child, and the whole trace byte-equal across the two runs.
        spans = tracers[0].spans
        hour_spans = [s for s in spans if s.kind == "solver_hour"]
        assert [s.attrs["hour"] for s in hour_spans] == hours
        iteration_spans = [s for s in spans if s.kind == "solver_iteration"]
        assert iteration_spans
        by_id = {s.span_id: s for s in spans}
        for span in iteration_spans:
            parent = by_id[span.parent_id]
            assert parent.kind == "solver_hour"
            assert parent.attrs["hour"] == span.attrs["hour"]
        assert tracers[0].to_jsonl() == tracers[1].to_jsonl()

    def test_hbss_parallel_stats_match_serial(self, chain_dag):
        hours = list(range(4))
        ev_first, first = self._hbss(chain_dag)
        ev_second, second = self._hbss(chain_dag)
        first.solve_day(hours)
        second.solve_day(hours)
        assert _counters(ev_second.stats) == _counters(ev_first.stats)

    def test_coarse_parallel_identical(self, chain_dag):
        first, second = make_evaluator(chain_dag), make_evaluator(chain_dag)
        ps_first = CoarseSolver(first).solve_day()
        ps_second = CoarseSolver(second).solve_day()
        assert ps_second.to_dict() == ps_first.to_dict()
        assert _counters(second.stats) == _counters(first.stats)

    def test_exhaustive_parallel_identical(self):
        first, second = make_evaluator(tiny_dag()), make_evaluator(tiny_dag())
        ps_first = ExhaustiveSolver(first).solve_day(hours=[0, 6, 12])
        ps_second = ExhaustiveSolver(second).solve_day(hours=[0, 6, 12])
        assert ps_second.to_dict() == ps_first.to_dict()
        assert _counters(second.stats) == _counters(first.stats)


class TestWarmStart:
    def test_warm_start_never_worse_than_seed_plan(self, chain_dag):
        ev = make_evaluator(chain_dag)
        solver = HBSSSolver(ev, np.random.default_rng(2))
        warm = DeploymentPlan.single_region(chain_dag, "ca-central-1")
        result = solver.solve_hour(0, warm_start_plan=warm)
        assert result.best_estimate.metric(ev.config.priority) <= ev.metric(
            warm, 0
        )

    def test_non_compliant_warm_start_ignored(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "b": FunctionConstraints(
                    allowed_regions=frozenset({"us-east-1", "us-west-2"})
                )
            },
        )
        ev_plain = make_evaluator(chain_dag, config=config)
        ev_warm = make_evaluator(chain_dag, config=config)
        warm = DeploymentPlan.single_region(chain_dag, "ca-central-1")
        assert not ev_warm.is_plan_compliant(warm)
        plain = HBSSSolver(ev_plain, np.random.default_rng(3)).solve_hour(0)
        warmed = HBSSSolver(ev_warm, np.random.default_rng(3)).solve_hour(
            0, warm_start_plan=warm
        )
        # The non-compliant seed is discarded entirely: identical run.
        assert warmed.best_plan == plain.best_plan
        assert warmed.plans_evaluated == plain.plans_evaluated
        assert ev_warm.is_plan_compliant(warmed.best_plan)

    def test_solve_day_accepts_warm_start_set(self, chain_dag):
        from repro.model.plan import HourlyPlanSet

        ev = make_evaluator(chain_dag)
        solver = HBSSSolver(ev, np.random.default_rng(4))
        warm = HourlyPlanSet.daily(
            DeploymentPlan.single_region(chain_dag, "ca-central-1")
        )
        plan_set, results = solver.solve_day([0, 1], warm_start=warm)
        assert set(plan_set.hours) == {0, 1}
        for result in results:
            assert result.best_estimate.metric(
                ev.config.priority
            ) <= ev.metric(warm.plan_for_hour(result.hour), result.hour)


class TestEvaluationCache:
    def _evaluator_with(self, dag, cache, seed=0):
        return PlanEvaluator(
            dag=dag,
            config=WorkflowConfig(home_region="us-east-1"),
            data=FixtureData(),
            regions=REGIONS,
            intensity_fn=intensity_fn,
            carbon_model=CarbonModel(TransmissionScenario.best_case()),
            cost_model=CostModel(PricingSource()),
            latency_model=TransferLatencyModel(LatencySource()),
            rng=np.random.default_rng(seed),
            settings=SolverSettings(batch_size=40, max_samples=120,
                                    cov_threshold=0.1),
            cache=cache,
        )

    def test_cache_survives_evaluator_reconstruction(self, chain_dag):
        from repro.core.solver import EvaluationCache

        cache = EvaluationCache()
        cache.sync(metrics_version=1, forecast_version=None)
        ev1 = self._evaluator_with(chain_dag, cache)
        ev1.estimate(ev1.home_plan(), 0)
        assert ev1.stats.profiles_built == 1
        assert cache.profiles_cached == 1
        # A fresh evaluator over the same cache re-uses the profile.
        ev2 = self._evaluator_with(chain_dag, cache, seed=9)
        ev2.estimate(ev2.home_plan(), 0)
        assert ev2.stats.profiles_built == 0
        assert ev2.stats.simulations_run == 0
        assert ev2.stats.estimate_cache_hits == 1

    def test_sync_invalidates_on_version_change(self, chain_dag):
        from repro.core.solver import EvaluationCache

        cache = EvaluationCache()
        assert cache.sync(1, None) is False  # empty: nothing dropped
        ev = self._evaluator_with(chain_dag, cache)
        ev.estimate(ev.home_plan(), 0)
        assert cache.sync(1, None) is False  # unchanged version
        assert cache.profiles_cached == 1
        assert cache.sync(2, None) is True   # new metrics: drop all
        assert cache.profiles_cached == 0
        assert cache.estimates_cached == 0
        assert cache.invalidations == 1

    def test_plan_digest_keyed(self, chain_dag):
        plan_a = DeploymentPlan.single_region(chain_dag, "us-east-1")
        plan_b = DeploymentPlan.single_region(chain_dag, "us-east-1")
        plan_c = DeploymentPlan.single_region(chain_dag, "ca-central-1")
        assert plan_a.digest() == plan_b.digest()
        assert plan_a.digest() != plan_c.digest()


class TestCoarseCandidateCaching:
    def test_candidate_regions_memoized(self, chain_dag):
        ev = make_evaluator(chain_dag)
        solver = CoarseSolver(ev)
        first = solver.candidate_regions()
        assert solver.candidate_regions() is first


class TestWeightedIndexDifferential:
    """HBSS's biased region draw is ``Generator.choice(k, p=w)`` without
    calling it: one ``random()`` bisected into a CDF that is computed
    once and reused — same index, same generator position."""

    def test_equals_generator_choice_and_consumes_the_same_draws(self):
        shapes = np.random.default_rng(99)
        for seed in range(1500):
            k = int(shapes.integers(2, 9))
            weights = shapes.random(k) ** int(shapes.integers(1, 6))
            if seed % 7 == 0:  # near-degenerate biases
                weights[int(shapes.integers(k))] *= 1e9
            cdf = _bias_cdf(weights.tolist())
            p = weights / weights.sum()
            # Bit-equal to the CDF Generator.choice builds from p, so
            # the draws below agree at every boundary, not just these.
            choice_cdf = p.cumsum()
            choice_cdf /= choice_cdf[-1]
            assert cdf == choice_cdf.tolist()
            reference = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            for _ in range(5):  # the cached CDF serves every draw
                assert bisect.bisect_right(cdf, twin.random()) == int(
                    reference.choice(k, p=p)
                )
            assert twin.random() == reference.random()


class TestChoiceReproductionDifferential:
    """HBSS picks the nodes to mutate as ``Generator.choice(n, k,
    replace=False)`` would, without calling it: same indices in the same
    order, same generator position."""

    def test_equals_generator_choice_and_consumes_the_same_draws(self):
        for seed in range(1500):
            reference = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            for n in range(1, 14):
                for k in (1, 2)[:n]:
                    want = tuple(
                        int(i) for i in reference.choice(n, k, replace=False)
                    )
                    assert _choose_nodes(twin, n, k) == want, (seed, n, k)
                    assert twin.random() == reference.random()


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``choice`` calls (numpy's methods are
    compiled, so ``sys.setprofile`` does not see them)."""

    choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return super().choice(*args, **kwargs)


def _walk(solver_cls, ev, hours, seed, warm_start=None):
    """One ``solve_day`` with a tracer and a generator per hour; returns
    everything the run leaves behind that two walks must agree on."""
    gens = {h: CountingGenerator(np.random.PCG64([seed, h])) for h in hours}
    tracer = Tracer(VirtualClock())
    solver = solver_cls(
        ev, np.random.default_rng(seed), tracer=tracer,
        rng_factory=gens.__getitem__,
    )
    plan_set, results = solver.solve_day(hours, warm_start=warm_start)
    return {
        "plan_set": plan_set.to_dict(),  # plans with key order and metadata
        "results": results,
        "rng_states": [gens[h].bit_generator.state for h in hours],
        "counters": _counters(ev.stats),
        "trace": tracer.to_jsonl(),
    }


def _assert_walks_equal(make_ev, hours, seed, warm_start=None):
    """Production and the oracle on twin same-seed evaluators."""
    got = _walk(HBSSSolver, make_ev(), hours, seed, warm_start)
    want = _walk(LegacyHBSSSolver, make_ev(), hours, seed, warm_start)
    assert got == want
    return got


#: Walk-differential fidelity: the walk does not depend on it, so keep
#: the Monte-Carlo work per memo miss small.
WALK_SETTINGS = SolverSettings(batch_size=20, max_samples=40,
                               cov_threshold=0.2)


@pytest.fixture(scope="module")
def app_twins():
    """``app_name -> (seed -> fresh evaluator)`` over one warmed-up
    deployment per app: every call builds an evaluator with its own
    cache and stats over the same learned inputs."""

    @functools.cache
    def build(app_name):
        cloud = SimulatedCloud(seed=11)
        app = ALL_APPS[app_name]
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=6)
        base = build_plan_evaluator(
            deployed, TransmissionScenario.best_case(),
            solver_settings=WALK_SETTINGS,
        )

        def make(seed):
            return PlanEvaluator(
                dag=base.dag, config=base.config, data=base.data,
                regions=base.regions, intensity_fn=base._intensity_fn,
                carbon_model=base.carbon_model, cost_model=base.cost_model,
                latency_model=base.latency_model,
                rng=np.random.default_rng(seed), kv_region=base.kv_region,
                client_region=base.client_region, settings=base.settings,
            )

        return make

    return build


class TestWalkDifferential:
    """The walk against the former implementation
    (``tests/hbss_walk_oracle.py``): every ``SolveResult`` field, every
    hour's generator end state, the evaluator's counters and the
    ``solver_iteration`` spans, byte for byte."""

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    def test_apps_cold_and_warm_started(self, app_twins, app_name):
        make = app_twins(app_name)
        for seed in (1, 2):
            cold = _assert_walks_equal(
                functools.partial(make, seed), [3, 15], seed
            )
            assert '"solver_iteration"' in cold["trace"]
            warm = HourlyPlanSet.from_dict(cold["plan_set"])
            _assert_walks_equal(
                functools.partial(make, seed), [3, 9, 15], seed + 10, warm
            )

    def test_fixture_dags_many_seeds(self, chain_dag, diamond_dag):
        for dag in (chain_dag, diamond_dag, tiny_dag()):
            for seed in range(4):
                _assert_walks_equal(
                    functools.partial(make_evaluator, dag, seed=seed),
                    [0, 7], seed,
                )

    def test_tolerance_violating_warm_start(self, chain_dag):
        config = WorkflowConfig(
            home_region="us-east-1", tolerances=Tolerances(latency=0.0)
        )
        make = functools.partial(
            make_evaluator, chain_dag, config=config,
            data=FixtureData(exec_seconds=0.2),
        )
        warm = DeploymentPlan(
            {"a": "us-east-1", "b": "us-west-1", "c": "us-east-1"}
        )
        assert make().tolerance_violated(warm, 0)
        for seed in range(3):
            _assert_walks_equal(make, [0], seed, HourlyPlanSet.daily(warm))

    def test_warm_start_equal_to_home(self, chain_dag):
        make = functools.partial(make_evaluator, chain_dag)
        warm = HourlyPlanSet.daily(
            DeploymentPlan.single_region(chain_dag, "us-east-1")
        )
        for seed in range(3):
            _assert_walks_equal(make, [0, 12], seed, warm)

    def test_one_node_dag(self):
        dag = WorkflowDAG("solo")
        dag.add_node(Node(name="only", function="only"))
        dag.validate()
        for seed in range(3):
            _assert_walks_equal(
                functools.partial(make_evaluator, dag), [0, 5], seed
            )

    def test_node_with_one_permitted_region(self, diamond_dag):
        config = WorkflowConfig(
            home_region="us-east-1",
            function_constraints={
                "b": FunctionConstraints(
                    allowed_regions=frozenset({"us-east-1"})
                )
            },
        )
        make = functools.partial(make_evaluator, diamond_dag, config=config)
        assert make().permitted_regions("b") == ("us-east-1",)
        for seed in range(3):
            _assert_walks_equal(make, [0, 18], seed)


def _count_walk_work(solver, hour, warm_start_plan=None):
    """``solver.solve_hour`` under ``sys.setprofile``: returns the result
    and, for hbss.py, ``DeploymentPlan.__init__`` runs, ``numpy.array``
    calls per calling function, and one ``(node index, accepts so far)``
    pair per bias-CDF build."""
    counts = collections.Counter()
    cdf_builds = []
    plan_init = DeploymentPlan.__init__.__code__
    bias_cdf = _bias_cdf.__code__

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is plan_init:
                counts["DeploymentPlan.__init__"] += 1
            elif frame.f_code is bias_cdf:
                walk = frame.f_back.f_locals
                cdf_builds.append((walk["idx"], walk["accepted"]))
        elif (
            event == "c_call"
            and arg is np.array
            and frame.f_code.co_filename == hbss.__file__
        ):
            counts[f"np.array in {frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        result = solver.solve_hour(hour, warm_start_plan)
    finally:
        sys.setprofile(None)
    return result, counts, cdf_builds


class TestWalkWorkCounts:
    """What one iteration costs, counted rather than timed: no
    ``Generator.choice``, no ``numpy.array`` outside a bias-CDF rebuild,
    a ``DeploymentPlan`` only for a newly memoised candidate, and a
    node's CDF rebuilt only after an accept."""

    def _check(self, ev, hour, seed, warm_start_plan=None):
        rng = CountingGenerator(np.random.PCG64(seed))
        solver = HBSSSolver(ev, np.random.default_rng(seed),
                            rng_factory=lambda h: rng)
        result, counts, cdf_builds = _count_walk_work(
            solver, hour, warm_start_plan
        )
        assert result.iterations > result.plans_evaluated > 1
        assert rng.choices == 0
        assert counts["np.array in _solve_hour"] == 0
        assert counts["np.array in _bias_cdf"] == len(cdf_builds) > 0
        assert set(counts) <= {
            "DeploymentPlan.__init__", "np.array in _bias_cdf"
        }
        # Home (and a priced warm start) were built before the walk.
        seeded = 1 + (warm_start_plan is not None)
        assert counts["DeploymentPlan.__init__"] == (
            result.plans_evaluated - seeded
        )
        # At most one build per node between two accepts.
        assert len(set(cdf_builds)) == len(cdf_builds)
        assert len(cdf_builds) <= len(ev.dag) * (result.accepted + 1)
        return result

    def test_app_walk(self, app_twins):
        make = app_twins("text2speech_censoring")
        for seed in (1, 2):
            self._check(make(seed), 3, seed)

    def test_warm_started_walk(self, diamond_dag):
        ev = make_evaluator(diamond_dag)
        warm = DeploymentPlan.single_region(diamond_dag, "us-west-1")
        self._check(ev, 0, 4, warm)

    def test_the_oracle_is_what_was_counted(self, diamond_dag):
        """The counters see what the former walk did: one ``choice``
        and one ``DeploymentPlan`` per iteration."""
        ev = make_evaluator(diamond_dag)
        rng = CountingGenerator(np.random.PCG64(4))
        solver = LegacyHBSSSolver(ev, np.random.default_rng(4),
                                  rng_factory=lambda h: rng)
        result, counts, _ = _count_walk_work(solver, 0)
        assert rng.choices == result.iterations
        assert counts["DeploymentPlan.__init__"] == result.iterations

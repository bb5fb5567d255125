"""Differential tests: ExactSolver vs the ExhaustiveSolver oracle
(``tests/exhaustive_oracle.py``).

The branch-and-bound solver claims the same optimum as full enumeration
at a fraction of the Monte-Carlo work.  These tests hold it to that
claim everywhere both solvers can run — fixture DAGs and every example
application, with and without tolerance enforcement, across all three
``solve_day`` execution backends — and then prove the part enumeration
cannot check: a certified optimum on a search space beyond the
exhaustive limit.
"""

import functools
import math

import pytest

from repro.apps import ALL_APPS
from repro.common.errors import SolverError
from repro.core.solver import ExactSolver
from repro.experiments.harness import (
    build_plan_evaluator,
    deploy_benchmark,
    warm_up,
)
from repro.metrics.carbon import TransmissionScenario
from repro.model.config import Tolerances, WorkflowConfig
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.model.plan import DeploymentPlan
from repro.cloud.provider import SimulatedCloud

from tests.exhaustive_oracle import ExhaustiveSolver
from tests.test_solvers import FixtureData, make_evaluator, tiny_dag


def chain(n: int) -> WorkflowDAG:
    dag = WorkflowDAG(f"chain{n}")
    names = [f"n{i}" for i in range(n)]
    for name in names:
        dag.add_node(Node(name=name, function=name))
    for a, b in zip(names, names[1:]):
        dag.add_edge(Edge(a, b))
    dag.validate()
    return dag


def assert_same_optimum(ev, hour=0, enforce=True):
    """Both solvers, one shared evaluator: identical winning metric."""
    exact_plan, exact_est = ExactSolver(ev).solve_hour(hour, enforce)
    exh_plan, exh_est = ExhaustiveSolver(ev).solve_hour(hour, enforce)
    # Shared evaluator -> shared Monte-Carlo draws, so the comparison is
    # bit-exact, not approximate.
    assert ev.metric(exact_plan, hour) == ev.metric(exh_plan, hour)
    assert exact_est.mean_carbon_g == exh_est.mean_carbon_g
    if enforce:
        assert not ev.tolerance_violated(exact_plan, hour) or (
            exact_plan == ev.home_plan()
        )
    return exact_plan


class TestFixtureDifferential:
    @pytest.mark.parametrize("enforce", [True, False])
    def test_tiny_dag(self, enforce):
        ev = make_evaluator(tiny_dag())
        assert_same_optimum(ev, enforce=enforce)

    @pytest.mark.parametrize("enforce", [True, False])
    def test_chain(self, chain_dag, enforce):
        ev = make_evaluator(chain_dag)
        assert_same_optimum(ev, enforce=enforce)

    @pytest.mark.parametrize("enforce", [True, False])
    def test_diamond(self, diamond_dag, enforce):
        ev = make_evaluator(diamond_dag)
        assert_same_optimum(ev, enforce=enforce)

    @pytest.mark.parametrize(
        "tolerances",
        [
            Tolerances(latency=0.1),
            Tolerances(cost=0.1),
            Tolerances(latency=0.0, cost=0.05),
            Tolerances(latency=0.2, carbon=0.5, cost=0.2),
        ],
    )
    def test_diamond_under_tolerances(self, diamond_dag, tolerances):
        config = WorkflowConfig(
            home_region="us-east-1", tolerances=tolerances
        )
        ev = make_evaluator(
            diamond_dag, config=config, data=FixtureData(edge_bytes=5e8)
        )
        assert_same_optimum(ev, enforce=True)

    def test_several_hours(self, diamond_dag):
        ev = make_evaluator(diamond_dag)
        for hour in (0, 7, 23):
            assert_same_optimum(ev, hour=hour)


@pytest.fixture(scope="module")
def app_evaluator():
    """``app_name -> evaluator``, built once per app for the module: the
    ``enforce`` parametrisations share one :class:`EvaluationCache`, so
    the exhaustive oracle simulates each plan space once."""

    @functools.cache
    def build(app_name):
        cloud = SimulatedCloud(seed=7)
        app = ALL_APPS[app_name]
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=6)
        return build_plan_evaluator(deployed, TransmissionScenario.best_case())

    return build


class TestAppDifferential:
    """Every example application, solved by both strategies."""

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    @pytest.mark.parametrize("enforce", [True, False])
    def test_app_optimum_matches(self, app_evaluator, app_name, enforce):
        ev = app_evaluator(app_name)
        assert ev.search_space_size() <= 100_000
        assert_same_optimum(ev, enforce=enforce)

    def test_app_with_tolerances(self):
        cloud = SimulatedCloud(seed=7)
        app = ALL_APPS["text2speech_censoring"]
        deployed, executor, _ = deploy_benchmark(
            app, cloud, tolerances=Tolerances(latency=0.05, cost=0.1)
        )
        warm_up(executor, app, "small", n=6)
        ev = build_plan_evaluator(deployed, TransmissionScenario.best_case())
        assert_same_optimum(ev, enforce=True)


class TestSolveDayParity:
    """Two fresh same-seed exact solves: identical plan sets."""

    def test_repeat_solve_matches(self):
        def solve():
            ev = make_evaluator(chain(3))
            return ExactSolver(ev).solve_day(hours=[0, 6, 12, 18]).to_dict()

        assert solve() == solve()

    def test_solve_day_accumulates_stats(self):
        ev = make_evaluator(chain(3))
        ExactSolver(ev).solve_day(hours=[0, 6])
        assert ev.stats.bnb_hours_solved == 2
        assert ev.stats.bnb_nodes_expanded > 0


class TestBeyondExhaustiveLimit:
    """The acceptance bar: a certified optimum where enumeration refuses."""

    def _big_evaluator(self):
        # 9 nodes x 4 regions = 262,144 plans -- past the 100k cap.
        # Tiny payloads make execution carbon dominate, so the all-
        # ca-central-1 plan (intensity 34 vs 375-400) is the optimum.
        return make_evaluator(chain(9), data=FixtureData(edge_bytes=1e3))

    def test_exhaustive_refuses(self):
        with pytest.raises(SolverError, match="exceeding"):
            ExhaustiveSolver(self._big_evaluator()).solve_hour(0)

    def test_exact_certifies_optimum(self):
        ev = self._big_evaluator()
        space = ev.search_space_size()
        assert space == 4**9 > 100_000
        plan, est = ExactSolver(ev).solve_hour(0)
        assert plan == DeploymentPlan.single_region(ev.dag, "ca-central-1")
        assert math.isfinite(est.mean_carbon_g)
        # The bound must have done the heavy lifting: the proof closes
        # after expanding a vanishing fraction of the space.
        assert 0 < ev.stats.bnb_nodes_expanded < space / 100
        assert ev.stats.bnb_hours_solved == 1
        assert 0 < ev.stats.bnb_bound_tightness_pct <= 100.0

    def test_expansion_budget_enforced(self):
        ev = self._big_evaluator()
        with pytest.raises(SolverError, match="expansion"):
            ExactSolver(ev, max_expansions=2).solve_hour(0)


class TestExhaustiveBoundFilter:
    """Regression: enumeration must not profile provably-dead plans."""

    def _evaluator(self, tolerances):
        config = WorkflowConfig(
            home_region="us-east-1",
            tolerances=tolerances if tolerances is not None else Tolerances(),
        )
        # Continent-wide 500 MB hops make remote plans blow the cost /
        # latency budget by orders of magnitude -- detectable from the
        # admissible lower bounds alone, without any simulation.
        return make_evaluator(
            chain(3), config=config, data=FixtureData(edge_bytes=5e8)
        )

    @pytest.mark.parametrize(
        "tolerances", [Tolerances(cost=0.1), Tolerances(latency=0.2)]
    )
    def test_dead_plans_not_profiled(self, tolerances):
        filtered = self._evaluator(tolerances)
        plan_f, _ = ExhaustiveSolver(filtered).solve_hour(0)
        space = filtered.search_space_size()
        # The filter prunes most of the space before Monte-Carlo...
        assert 0 < filtered.stats.profiles_built < space / 2
        # ...while the winner is the same constrained optimum the
        # branch-and-bound certifies on an identical evaluator.
        reference = self._evaluator(tolerances)
        plan_x, _ = ExactSolver(reference).solve_hour(0)
        assert plan_f == plan_x
        assert filtered.metric(plan_f, 0) == reference.metric(plan_x, 0)

    def test_no_tolerances_no_filter(self):
        ev = self._evaluator(None)
        ExhaustiveSolver(ev).solve_hour(0, enforce_tolerances=True)
        assert ev.stats.profiles_built == ev.search_space_size()

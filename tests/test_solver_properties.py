"""Property-based tests (hypothesis) for the exact solver's guarantees.

Three invariants define ``ExactSolver``'s contract and are checked here
over randomly drawn workloads rather than hand-picked fixtures:

* **Dominance** — the certified optimum is never worse than any
  heuristic (coarse, HBSS) evaluated on the same shared evaluator.
* **Feasibility** — whatever it returns is tolerance-compliant, or is
  exactly the §6.1 home fallback when nothing compliant exists.
* **Stability** — the winning plan is a function of the problem, not of
  incidental iteration order: permuting the evaluator's region tuple
  (the moral equivalent of a PYTHONHASHSEED reshuffle) must not change
  the answer.

Plus the property the optimality proof rests on: the admissible lower
bounds never exceed the Monte-Carlo metrics they bound.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.solver import CoarseSolver, ExactSolver, HBSSSolver
from repro.core.solver.exact import BOUND_SAFETY, LowerBoundTables
from repro.model.config import Tolerances, WorkflowConfig
from repro.model.dag import Edge, Node, WorkflowDAG

from tests.exhaustive_oracle import plan_lower_bounds
from tests.test_solvers import REGIONS, FixtureData, make_evaluator

SOLVER_SUPPRESS = (HealthCheck.too_slow, HealthCheck.data_too_large)


def _chain(n):
    dag = WorkflowDAG(f"chain{n}")
    names = [f"n{i}" for i in range(n)]
    for name in names:
        dag.add_node(Node(name=name, function=name))
    for a, b in zip(names, names[1:]):
        dag.add_edge(Edge(a, b))
    dag.validate()
    return dag


def _diamond():
    dag = WorkflowDAG("diamond")
    for name in ("a", "b", "c", "d"):
        dag.add_node(Node(name=name, function=name))
    dag.add_edge(Edge("a", "b"))
    dag.add_edge(Edge("a", "c", conditional=True))
    dag.add_edge(Edge("b", "d"))
    dag.add_edge(Edge("c", "d"))
    dag.validate()
    return dag


dags = st.sampled_from([_chain(1), _chain(2), _chain(3), _diamond()])

workloads = st.builds(
    FixtureData,
    exec_seconds=st.floats(min_value=0.05, max_value=3.0),
    edge_bytes=st.floats(min_value=1e3, max_value=1e9),
)

tolerance_options = st.sampled_from(
    [
        Tolerances(),
        Tolerances(latency=0.5),
        Tolerances(latency=0.1),
        Tolerances(cost=0.2),
        Tolerances(latency=0.2, cost=0.2, carbon=1.0),
        Tolerances(latency=0.0, cost=0.0),
    ]
)


def _evaluator(dag, data, tolerances=None, regions=REGIONS, seed=0):
    config = WorkflowConfig(
        home_region="us-east-1",
        tolerances=tolerances if tolerances is not None else Tolerances(),
    )
    return make_evaluator(
        dag, config=config, data=data, regions=regions, seed=seed
    )


class TestExactDominance:
    @settings(max_examples=15, suppress_health_check=SOLVER_SUPPRESS)
    @given(dag=dags, data=workloads, tolerances=tolerance_options)
    def test_exact_never_worse_than_coarse(self, dag, data, tolerances):
        ev = _evaluator(dag, data, tolerances)
        exact_plan, _ = ExactSolver(ev).solve_hour(0)
        coarse_plan, _ = CoarseSolver(ev).solve_hour(0)
        assert ev.metric(exact_plan, 0) <= ev.metric(coarse_plan, 0)

    @settings(max_examples=15, suppress_health_check=SOLVER_SUPPRESS)
    @given(
        dag=dags,
        data=workloads,
        tolerances=tolerance_options,
        hbss_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_exact_never_worse_than_hbss(
        self, dag, data, tolerances, hbss_seed
    ):
        ev = _evaluator(dag, data, tolerances)
        exact_plan, _ = ExactSolver(ev).solve_hour(0)
        hbss = HBSSSolver(ev, np.random.default_rng(hbss_seed))
        result = hbss.solve_hour(0)
        assert ev.metric(exact_plan, 0) <= ev.metric(result.best_plan, 0)


class TestExactFeasibility:
    @settings(max_examples=20, suppress_health_check=SOLVER_SUPPRESS)
    @given(dag=dags, data=workloads, tolerances=tolerance_options)
    def test_compliant_or_exact_home_fallback(self, dag, data, tolerances):
        ev = _evaluator(dag, data, tolerances)
        plan, _ = ExactSolver(ev).solve_hour(0, enforce_tolerances=True)
        assert ev.is_plan_compliant(plan)
        if ev.tolerance_violated(plan, 0):
            assert plan == ev.home_plan()


class TestExactStability:
    @settings(max_examples=12, suppress_health_check=SOLVER_SUPPRESS)
    @given(
        dag=dags,
        data=workloads,
        tolerances=tolerance_options,
        permuted=st.permutations(REGIONS),
    )
    def test_plan_invariant_to_region_order(
        self, dag, data, tolerances, permuted
    ):
        ev_sorted = _evaluator(dag, data, tolerances)
        ev_permuted = _evaluator(
            dag, data, tolerances, regions=tuple(permuted)
        )
        plan_a, est_a = ExactSolver(ev_sorted).solve_hour(0)
        plan_b, est_b = ExactSolver(ev_permuted).solve_hour(0)
        assert plan_a == plan_b
        assert est_a.mean_carbon_g == est_b.mean_carbon_g


class TestBoundAdmissibility:
    @settings(max_examples=20, suppress_health_check=SOLVER_SUPPRESS)
    @given(
        dag=dags,
        data=workloads,
        hour=st.integers(min_value=0, max_value=23),
        region=st.sampled_from(REGIONS),
    )
    def test_lower_bounds_below_monte_carlo_means(
        self, dag, data, hour, region
    ):
        # Each bound holds per sample, so it must sit at or below the
        # sample mean of the matching metric for every plan it prices.
        ev = _evaluator(dag, data)
        bounds = LowerBoundTables(ev)
        from repro.model.plan import DeploymentPlan

        for plan in (
            ev.home_plan(),
            DeploymentPlan.single_region(ev.dag, region),
        ):
            carbon_lb, cost_lb, lat_lb = plan_lower_bounds(bounds, plan, hour)
            est = ev.estimate(plan, hour)
            assert carbon_lb * BOUND_SAFETY <= est.mean_carbon_g
            assert cost_lb * BOUND_SAFETY <= est.mean_cost_usd
            assert lat_lb * BOUND_SAFETY <= est.mean_latency_s

"""Ablation — solver quality/cost trade (DESIGN.md §5).

§5.1 motivates HBSS against two alternatives: the coarse single-region
solver (O(|R|) but "globally suboptimal") and exhaustive search
("intractable").  On a DAG small enough to enumerate, this bench
measures all three on the same evaluator: solution quality (carbon of
the chosen plan vs the true optimum) and plans evaluated.
"""

import numpy as np
import pytest

from conftest import print_header
from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.solver import (
    CoarseSolver,
    HBSSSolver,
    PlanEvaluator,
    SolverSettings,
)
from repro.experiments.harness import deploy_benchmark, warm_up
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.manager import MetricsManager
from tests.exhaustive_oracle import ExhaustiveSolver

SETTINGS = SolverSettings(batch_size=40, max_samples=120, cov_threshold=0.12)


@pytest.fixture(scope="module")
def evaluator():
    cloud = SimulatedCloud(seed=800)
    app = get_app("text2speech_censoring")  # 5 nodes, 4^5 = 1024 plans
    deployed, executor, _ = deploy_benchmark(app, cloud)
    warm_up(executor, app, "small", n=10)
    mm = MetricsManager(deployed.dag, deployed.config, cloud.ledger,
                        cloud.carbon_source)
    mm.collect(cloud.now())
    return PlanEvaluator(
        dag=deployed.dag, config=deployed.config, data=mm,
        regions=cloud.regions,
        intensity_fn=lambda r, h: cloud.carbon_source.intensity_at_hour(r, h),
        carbon_model=CarbonModel(TransmissionScenario.best_case()),
        cost_model=CostModel(cloud.pricing_source),
        latency_model=TransferLatencyModel(cloud.latency_source),
        rng=np.random.default_rng(800),
        settings=SETTINGS,
    )


def test_ablation_solver_quality(evaluator, benchmark):
    print_header("Ablation — HBSS vs coarse vs exhaustive (Text2Speech)")

    optimal_plan, optimal_est = ExhaustiveSolver(
        evaluator, max_plans=5000
    ).solve_hour(0)
    exhaustive_evals = evaluator.plans_profiled

    hbss = HBSSSolver(evaluator, np.random.default_rng(801))
    hbss_result = hbss.solve_hour(0)
    hbss_metric = evaluator.estimate(hbss_result.best_plan, 0).mean_carbon_g

    coarse_plan, coarse_est = CoarseSolver(evaluator).solve_hour(0)

    print(f"{'solver':12s} {'carbon (mg)':>12s} {'vs optimal':>11s} "
          f"{'plans evaluated':>16s}")
    rows = (
        ("exhaustive", optimal_est.mean_carbon_g, exhaustive_evals),
        ("hbss", hbss_metric, hbss_result.iterations),
        ("coarse", coarse_est.mean_carbon_g, 4),
    )
    for name, carbon, evals in rows:
        print(f"{name:12s} {carbon * 1000:12.4f} "
              f"{carbon / optimal_est.mean_carbon_g - 1:10.1%} "
              f"{evals:16d}")

    # HBSS lands within a few percent of the optimum with a fraction of
    # the evaluations.
    assert hbss_metric <= optimal_est.mean_carbon_g * 1.08
    assert hbss_result.iterations < exhaustive_evals

    # The coarse solver is feasible but cannot satisfy the upload
    # compliance constraint AND reach the clean region for other nodes,
    # so it is at least as carbon-expensive as the fine-grained optimum.
    assert coarse_est.mean_carbon_g >= optimal_est.mean_carbon_g * 0.999
    # And the compliance constraint really binds: the optimal plan is
    # NOT single region.
    assert not optimal_plan.is_single_region()

    benchmark.pedantic(
        lambda: HBSSSolver(evaluator, np.random.default_rng(802)).solve_hour(1),
        rounds=1, iterations=1,
    )

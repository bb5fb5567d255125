"""Ablation — Monte-Carlo stopping rule (DESIGN.md §5).

§7.1 runs simulations in batches of 200 until the estimator's
coefficient of variation drops below 0.05, capped at 2,000 samples.
This bench compares that adaptive rule against fixed sample counts:
estimate error (vs a 20,000-sample reference) and samples spent.
"""

import numpy as np

from conftest import print_header
from repro.data.latency import LatencySource
from repro.data.pricing import PricingSource
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.montecarlo import MonteCarloEstimator
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.model.plan import DeploymentPlan


class NoisyData:
    """High-variance behaviour: wide durations, bimodal conditional."""

    def execution_time_dist(self, node, region):
        return EmpiricalDistribution([0.2, 0.5, 1.0, 2.0, 6.0])

    def edge_probability(self, src, dst):
        return 0.4

    def edge_size_dist(self, src, dst):
        return EmpiricalDistribution([1e4, 1e6, 2e7])

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


def make_dag():
    dag = WorkflowDAG("mc")
    for n in ("a", "b", "c", "d", "e"):
        dag.add_node(Node(n, n))
    dag.add_edge(Edge("a", "b"))
    dag.add_edge(Edge("a", "c", conditional=True))
    dag.add_edge(Edge("b", "d"))
    dag.add_edge(Edge("c", "d"))
    dag.add_edge(Edge("d", "e"))
    dag.validate()
    return dag


def make_estimator(dag, batch, max_samples, cov, seed=0):
    return MonteCarloEstimator(
        dag, NoisyData(),
        CarbonModel(TransmissionScenario.best_case()),
        CostModel(PricingSource()),
        TransferLatencyModel(LatencySource()),
        np.random.default_rng(seed), home_region="us-east-1",
        batch_size=batch, max_samples=max_samples, cov_threshold=cov,
    )


def test_ablation_mc_stopping_rule(benchmark):
    print_header("Ablation — Monte-Carlo stopping rule")
    dag = make_dag()
    plan = DeploymentPlan.single_region(dag, "us-east-1")
    carbon_at = lambda r: 400.0

    reference = make_estimator(dag, 1000, 20000, 1e-12, seed=99).estimate(
        plan, carbon_at
    )
    print(f"reference (n={reference.n_samples}): "
          f"latency {reference.mean_latency_s:.3f}s, "
          f"carbon {reference.mean_carbon_g * 1000:.4f} mg")

    configs = (
        ("paper adaptive (200/0.05/2000)", 200, 2000, 0.05),
        ("fixed 100", 100, 100, 1e-12),
        ("fixed 500", 500, 500, 1e-12),
        ("fixed 2000", 2000, 2000, 1e-12),
    )
    print(f"\n{'config':32s} {'samples':>8s} {'lat err':>8s} {'carb err':>9s}")
    errors = {}
    for name, batch, max_s, cov in configs:
        # Average error across independent seeds for a stable comparison.
        lat_errs, carb_errs, samples = [], [], []
        for seed in range(5):
            est = make_estimator(dag, batch, max_s, cov, seed=seed).estimate(
                plan, carbon_at
            )
            lat_errs.append(
                abs(est.mean_latency_s - reference.mean_latency_s)
                / reference.mean_latency_s
            )
            carb_errs.append(
                abs(est.mean_carbon_g - reference.mean_carbon_g)
                / reference.mean_carbon_g
            )
            samples.append(est.n_samples)
        errors[name] = (np.mean(samples), np.mean(lat_errs), np.mean(carb_errs))
        print(f"{name:32s} {np.mean(samples):8.0f} {np.mean(lat_errs):7.1%} "
              f"{np.mean(carb_errs):8.1%}")

    adaptive = errors["paper adaptive (200/0.05/2000)"]
    fixed100 = errors["fixed 100"]
    fixed2000 = errors["fixed 2000"]
    # The adaptive rule is accurate enough for plan ranking...
    assert adaptive[1] < 0.10 and adaptive[2] < 0.10
    # ...cheaper than always paying the cap...
    assert adaptive[0] <= 2000
    # ...and no less accurate than a blunt small fixed budget.
    assert adaptive[1] <= fixed100[1] * 1.5 + 0.02

    benchmark(
        lambda: make_estimator(dag, 200, 2000, 0.05).estimate(plan, carbon_at)
    )

"""Throughput — vectorized vs scalar Monte-Carlo kernel.

The solver's inner loop is the Monte-Carlo kernel
(``MonteCarloEstimator.estimate_profiles``, one cohort per HBSS lockstep
step; ``estimate_profile`` is the cohort of one); vectorizing it
(batched draws + array pricing) is what makes the 24-hour HBSS solve
cheap.  This bench measures samples/second of the kernel, one plan at a
time, against the scalar reference path (``tests/montecarlo_oracle.py``)
on the Text2Speech benchmark (5 stages, conditional edge, sync node,
pinned external data — every pricing path exercised) and asserts the
>=5x target.

The two kernels consume the same RNG stream and perform the same
arithmetic per element, so before timing we also cross-check that they
agree bit-for-bit on this real workflow.
"""

import time

import numpy as np
import pytest

from conftest import print_header
from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.lifecycle import deploy_benchmark, warm_up
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.manager import MetricsManager
from repro.metrics.montecarlo import MonteCarloEstimator
from repro.model.plan import DeploymentPlan
from tests.montecarlo_oracle import ScalarReferenceEstimator

SPEEDUP_TARGET = 5.0


def _text2speech_metrics():
    """Deploy Text2Speech, warm it up, and return learned metrics."""
    app = get_app("text2speech_censoring")
    cloud = SimulatedCloud(seed=7)
    deployed, executor, _utility = deploy_benchmark(app, cloud)
    warm_up(executor, app, "small", n=12)
    metrics = MetricsManager(
        deployed.dag, deployed.config, cloud.ledger, cloud.carbon_source
    )
    metrics.declare_function_external_data(deployed.workflow.functions)
    metrics.collect(cloud.now())
    return cloud, deployed, metrics


def _make_estimator(cloud, deployed, metrics, vectorized, seed=0):
    estimator = MonteCarloEstimator if vectorized else ScalarReferenceEstimator
    return estimator(
        deployed.dag,
        metrics,
        CarbonModel(TransmissionScenario.best_case()),
        CostModel(cloud.pricing_source),
        TransferLatencyModel(cloud.latency_source),
        np.random.default_rng(seed),
        deployed.config.home_region,
        batch_size=200,
        max_samples=2000,
        cov_threshold=1e-9,  # force the full 2000 samples every run
    )


def _spread_plan(dag, regions):
    """A multi-region plan so cross-region pricing paths are timed too."""
    return DeploymentPlan(
        {
            node: regions[i % len(regions)]
            for i, node in enumerate(dag.node_names)
        }
    )


def _samples_per_second(est, plan, n_runs):
    total = 0
    t0 = time.perf_counter()
    for _ in range(n_runs):
        total += est.estimate_profile(plan).n_samples
    return total / (time.perf_counter() - t0)


@pytest.mark.throughput
def test_estimator_throughput():
    print_header("Throughput — vectorized vs scalar Monte-Carlo kernel")
    cloud, deployed, metrics = _text2speech_metrics()
    plan = _spread_plan(deployed.dag, cloud.regions)

    # Cross-check first: same seed -> bit-identical estimates.
    carbon_at = lambda r: 400.0  # noqa: E731
    vec_est = _make_estimator(cloud, deployed, metrics, vectorized=True)
    ref_est = _make_estimator(cloud, deployed, metrics, vectorized=False)
    assert vec_est.estimate(plan, carbon_at) == ref_est.estimate(plan, carbon_at)

    vec_rate = _samples_per_second(
        _make_estimator(cloud, deployed, metrics, vectorized=True), plan,
        n_runs=5,
    )
    ref_rate = _samples_per_second(
        _make_estimator(cloud, deployed, metrics, vectorized=False), plan,
        n_runs=1,
    )
    speedup = vec_rate / ref_rate
    print(f"{'kernel':12s} {'samples/s':>12s}")
    print(f"{'scalar':12s} {ref_rate:12.0f}")
    print(f"{'vectorized':12s} {vec_rate:12.0f}")
    print(f"speedup: {speedup:.1f}x (target >= {SPEEDUP_TARGET:.0f}x)")
    assert speedup >= SPEEDUP_TARGET


@pytest.mark.throughput
def test_estimator_throughput_smoke():
    """Fast correctness-only smoke (used by CI's -k throughput pass):
    one small profile on each kernel, no timing assertions."""
    cloud, deployed, metrics = _text2speech_metrics()
    plan = DeploymentPlan.single_region(
        deployed.dag, deployed.config.home_region
    )
    for estimator in (MonteCarloEstimator, ScalarReferenceEstimator):
        est = estimator(
            deployed.dag,
            metrics,
            CarbonModel(TransmissionScenario.best_case()),
            CostModel(cloud.pricing_source),
            TransferLatencyModel(cloud.latency_source),
            np.random.default_rng(1),
            deployed.config.home_region,
            batch_size=50,
            max_samples=100,
            cov_threshold=1e-9,
        )
        assert est.estimate_profile(plan).n_samples == 100

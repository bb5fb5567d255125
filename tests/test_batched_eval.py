"""Tests for the bulk profile conveniences and the PR 6 bugfixes.

The contracts under test:

* ``MonteCarloEstimator.estimate_profiles`` is *bit-identical* to the
  per-plan ``estimate_profile`` loop (and to the scalar reference in
  ``tests/montecarlo_oracle.py``) — same doubles, same key order, same
  sample counts — even when plans converge at different sample counts;
  duplicate plans share one profile object.
* ``PlanEvaluator.prefetch_profiles`` returns how many profiles it built.
* The PR 6 bugfix regressions: estimator knob guards and the
  ``client_region`` warning.
"""

import warnings

import numpy as np
import pytest

from repro.core.solver import PlanEvaluator, SolverSettings
from repro.data.latency import LatencySource
from repro.data.pricing import PricingSource
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.montecarlo import MonteCarloEstimator
from repro.model.config import WorkflowConfig
from repro.model.plan import DeploymentPlan
from tests.montecarlo_oracle import ScalarReferenceEstimator

REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")

INTENSITY = {
    "us-east-1": 400.0,
    "us-west-1": 375.0,
    "us-west-2": 392.0,
    "ca-central-1": 34.0,
}


class FixtureData:
    """Controllable workflow model data (same shape as the suite's)."""

    def __init__(self, exec_seconds=1.0, edge_bytes=1e6, cond_prob=0.5,
                 spread=(0.9, 1.0, 1.1)):
        self.exec_seconds = exec_seconds
        self.edge_bytes = edge_bytes
        self.cond_prob = cond_prob
        self.spread = spread

    def execution_time_dist(self, node, region):
        return EmpiricalDistribution(
            [self.exec_seconds * f for f in self.spread]
        )

    def edge_probability(self, src, dst):
        return self.cond_prob

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
        return EmpiricalDistribution([1e5])


def intensity_fn(region, hour):
    return INTENSITY[region]


def make_estimator(dag, data=None, seed=0, client_region="us-east-1",
                   estimator=MonteCarloEstimator, **kwargs):
    return estimator(
        dag,
        data or FixtureData(),
        CarbonModel(TransmissionScenario.best_case()),
        CostModel(PricingSource()),
        TransferLatencyModel(LatencySource()),
        np.random.default_rng(seed),
        client_region=client_region,
        **kwargs,
    )


def make_evaluator(dag, settings=None, seed=0):
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
        settings=settings or SolverSettings(batch_size=40, max_samples=120,
                                            cov_threshold=0.1),
    )


def some_plans(dag, n=6):
    """A deterministic mix of single-region and mixed plans."""
    nodes = dag.node_names
    plans = [DeploymentPlan.single_region(dag, r) for r in REGIONS[:3]]
    for k in range(n - len(plans)):
        assignments = {
            node: REGIONS[(i + k) % len(REGIONS)]
            for i, node in enumerate(nodes)
        }
        plans.append(DeploymentPlan(assignments))
    return plans[:n]


def assert_profiles_identical(a, b):
    """Bit-identity, including dict key order (iteration determinism)."""
    assert a.n_samples == b.n_samples
    np.testing.assert_array_equal(a.latencies, b.latencies)
    np.testing.assert_array_equal(a.costs, b.costs)
    assert list(a.energy_by_region) == list(b.energy_by_region)
    for region in a.energy_by_region:
        np.testing.assert_array_equal(
            a.energy_by_region[region], b.energy_by_region[region]
        )
    assert list(a.bytes_by_route) == list(b.bytes_by_route)
    for route in a.bytes_by_route:
        np.testing.assert_array_equal(
            a.bytes_by_route[route], b.bytes_by_route[route]
        )


class TestEstimateProfilesBitIdentity:
    """``estimate_profiles`` is a loop over the one kernel: the same
    doubles as solo ``estimate_profile`` calls."""

    @pytest.mark.parametrize("dag_name", ["chain_dag", "diamond_dag"])
    def test_batched_matches_solo(self, dag_name, request):
        dag = request.getfixturevalue(dag_name)
        plans = some_plans(dag)
        batched = make_estimator(dag).estimate_profiles(plans)
        solo_est = make_estimator(dag)
        for plan, profile in zip(plans, batched):
            assert_profiles_identical(
                profile, solo_est.estimate_profile(plan)
            )

    def test_batched_matches_scalar_reference(self, diamond_dag):
        plans = some_plans(diamond_dag)
        batched = make_estimator(diamond_dag).estimate_profiles(plans)
        scalar_est = make_estimator(
            diamond_dag, estimator=ScalarReferenceEstimator
        )
        scalar = scalar_est.estimate_profiles(plans)
        for a, b in zip(batched, scalar):
            assert_profiles_identical(a, b)

    def test_staggered_convergence_stays_identical(self, diamond_dag):
        # A bimodal conditional makes convergence plan-dependent: plans
        # stop at different sample counts, and a plan's draws must not
        # depend on which plans were profiled before it.
        data = FixtureData(cond_prob=0.5, exec_seconds=5.0)
        kwargs = dict(batch_size=20, max_samples=400, cov_threshold=0.05)
        plans = some_plans(diamond_dag, n=8)
        batched = make_estimator(diamond_dag, data, **kwargs)
        profiles = batched.estimate_profiles(plans)
        counts = {p.n_samples for p in profiles}
        assert len(counts) > 1, "fixture no longer staggers convergence"
        solo = make_estimator(diamond_dag, data, **kwargs)
        for plan, profile in zip(plans, profiles):
            assert_profiles_identical(profile, solo.estimate_profile(plan))

    def test_duplicate_plans_share_one_profile(self, chain_dag):
        plan = DeploymentPlan.single_region(chain_dag, "us-west-2")
        other = DeploymentPlan.single_region(chain_dag, "us-east-1")
        profiles = make_estimator(chain_dag).estimate_profiles(
            [plan, other, DeploymentPlan(dict(plan.assignments))]
        )
        assert profiles[0] is profiles[2]
        assert profiles[0] is not profiles[1]

    def test_empty_and_single(self, chain_dag):
        est = make_estimator(chain_dag)
        assert est.estimate_profiles([]) == []
        plan = DeploymentPlan.single_region(chain_dag, "us-east-1")
        (profile,) = est.estimate_profiles([plan])
        assert_profiles_identical(
            profile, make_estimator(chain_dag).estimate_profile(plan)
        )


class TestEstimatorGuards:
    """PR 6 bugfix: the stopping-rule knobs validate their domain."""

    def test_max_samples_nonpositive_raises(self, chain_dag):
        with pytest.raises(ValueError, match="max_samples"):
            make_estimator(chain_dag, max_samples=0)
        with pytest.raises(ValueError, match="max_samples"):
            make_estimator(chain_dag, max_samples=-5)

    def test_batch_size_nonpositive_raises(self, chain_dag):
        with pytest.raises(ValueError, match="batch_size"):
            make_estimator(chain_dag, batch_size=0)

    def test_batch_larger_than_max_caps_exactly(self, chain_dag):
        # Pre-fix, a batch overshooting max_samples drew the full batch;
        # the cap must now be exact, not "first batch past the post".
        est = make_estimator(chain_dag, batch_size=64, max_samples=10,
                             cov_threshold=1e-12)
        plan = DeploymentPlan.single_region(chain_dag, "us-east-1")
        assert est.estimate_profile(plan).n_samples == 10

    def test_non_divisible_batch_caps_exactly(self, chain_dag):
        est = make_estimator(chain_dag, batch_size=30, max_samples=70,
                             cov_threshold=1e-12)
        plan = DeploymentPlan.single_region(chain_dag, "us-east-1")
        assert est.estimate_profile(plan).n_samples == 70


class TestClientRegionWarning:
    """PR 6 bugfix: a missing client region silently priced the
    shifted-start input transfer as free; now it warns."""

    def test_warns_without_client_region(self, chain_dag):
        with pytest.warns(UserWarning, match="client_region"):
            make_estimator(chain_dag, client_region=None)

    def test_no_warning_with_client_region(self, chain_dag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_estimator(chain_dag, client_region="us-east-1")

    def test_evaluator_always_threads_home_region(self, chain_dag):
        # PlanEvaluator must never build the silent-fallback estimator:
        # when no client region is given it uses the workflow's home.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_evaluator(chain_dag)


class TestBatchedSolverEquivalence:
    """``prefetch_profiles`` builds through the same per-plan path the
    solvers' lazy ``profile`` lookups use."""

    def test_prefetch_counts_as_built_profiles(self, chain_dag):
        ev = make_evaluator(chain_dag)
        plans = some_plans(chain_dag, n=4)
        built = ev.prefetch_profiles(plans)
        assert built == len({p.digest() for p in plans})
        assert ev.prefetch_profiles(plans) == 0  # all cached now

"""Tests for the bulk profile conveniences and the PR 6 bugfixes.

The contracts under test:

* ``MonteCarloEstimator.estimate_profiles`` is *bit-identical* to the
  per-plan ``estimate_profile`` loop (and to the scalar reference in
  ``tests/montecarlo_oracle.py``) — same doubles, same key order, same
  sample counts — even when plans converge at different sample counts,
  on hand-built DAGs and on random cohorts of the five Table-1 apps;
  duplicate plans share one profile object.
* ``PlanEvaluator.prefetch_profiles`` returns how many profiles it built.
* The estimator's stopping-rule knobs validate their domain.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS
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
from tests.test_montecarlo_kernel import (
    HOME,
    learned_app,
    make_estimator as make_app_estimator,
)

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


def make_estimator(dag, data=None, seed=0, estimator=MonteCarloEstimator,
                   **kwargs):
    return estimator(
        dag,
        data or FixtureData(),
        CarbonModel(TransmissionScenario.best_case()),
        CostModel(PricingSource()),
        TransferLatencyModel(LatencySource()),
        np.random.default_rng(seed),
        "us-east-1",
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


class TestEstimateProfilesDifferential:
    """``estimate_profiles`` gives every plan of a cohort the same
    doubles as a solo ``estimate_profile`` call and as the scalar
    reference."""

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


    #: A stopping rule per app under which its plans stop at different
    #: batches within 100 samples.
    COHORT_COV = {
        "dna_visualization": 0.01,
        "image_processing": 0.005,
        "rag_ingestion": 0.01,
        "text2speech_censoring": 0.01,
        "video_analytics": 0.01,
    }

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    # ``None``: the deployment's own home region, ``HOME``.
    @pytest.mark.parametrize("home_region", ["us-west-2", None])
    def test_random_cohorts_on_the_apps(self, app_name, home_region):
        # Cohorts of 1-24 plans with duplicates, their start nodes in
        # several regions; a tight stopping rule staggers convergence.
        cloud, dag, metrics = learned_app(app_name)
        kwargs = dict(cloud=cloud, home_region=home_region or HOME,
                      batch_size=20, max_samples=100,
                      cov_threshold=self.COHORT_COV[app_name])
        cohort_est = make_app_estimator(dag, metrics, seed=9, **kwargs)
        solo_est = make_app_estimator(dag, metrics, seed=9, **kwargs)
        reference = make_app_estimator(dag, metrics, vectorized=False,
                                       seed=9, **kwargs)
        rng = np.random.default_rng(sorted(ALL_APPS).index(app_name))
        sample_counts, starts = set(), set()
        for size in (1, 24, int(rng.integers(2, 24))):
            distinct = [
                DeploymentPlan({
                    node: REGIONS[int(rng.integers(len(REGIONS)))]
                    for node in dag.node_names
                })
                for _ in range(max(1, size - size // 4))
            ]
            cohort = [distinct[int(i)]
                      for i in rng.integers(len(distinct), size=size)]
            if size > 1:  # a duplicate as its own object
                cohort[-1] = DeploymentPlan(dict(cohort[0].assignments))
            profiles = cohort_est.estimate_profiles(cohort)
            assert len(profiles) == size
            first = {}
            for plan, profile in zip(cohort, profiles):
                digest = plan.digest()
                if digest in first:
                    assert profile is first[digest]
                    continue
                first[digest] = profile
                starts.add(plan.region_of(dag.start_node))
                assert_profiles_identical(
                    profile, solo_est.estimate_profile(plan)
                )
                assert_profiles_identical(
                    profile, reference.estimate_profile(plan)
                )
                sample_counts.add(profile.n_samples)
        assert len(starts) > 1
        assert len(sample_counts) > 1, "fixture no longer staggers convergence"


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


class TestBatchedSolverEquivalence:
    """``prefetch_profiles`` builds one cohort with the profiles the
    solvers' lazy ``profile`` lookups would build, and the profile
    counters still count requests."""

    def test_prefetch_counts_as_built_profiles(self, chain_dag):
        ev = make_evaluator(chain_dag)
        plans = some_plans(chain_dag, n=4)
        built = ev.prefetch_profiles(plans)
        assert built == len({p.digest() for p in plans})
        assert ev.prefetch_profiles(plans) == 0  # all cached now

    def test_prefetched_profiles_and_counters_equal_lazy_ones(self, diamond_dag):
        plans = some_plans(diamond_dag, n=6)
        plans.append(DeploymentPlan(dict(plans[2].assignments)))
        lazy, eager = make_evaluator(diamond_dag), make_evaluator(diamond_dag)
        assert eager.prefetch_profiles(plans[:4]) == 4
        assert eager.stats.profiles_built == 0
        assert eager.stats.simulations_run == 4
        assert all(eager.profiled(eager.plan_key(p)) for p in plans[:4])
        assert not eager.profiled(eager.plan_key(plans[4]))
        for plan in plans:
            assert_profiles_identical(eager.profile(plan), lazy.profile(plan))
        assert eager.stats == lazy.stats
        assert eager.plans_profiled == lazy.plans_profiled == 6

"""Tests for the Monte-Carlo end-to-end estimator (§7.1)."""

import collections
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.cloud.provider import SimulatedCloud
from repro.data.latency import LatencySource
from repro.data.pricing import PricingSource
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.latency import TransferLatencyModel
from repro.core.lifecycle import build_plan_evaluator, deploy_benchmark, warm_up
from repro.metrics import montecarlo
from repro.metrics.montecarlo import (
    MonteCarloEstimator,
    PlanProfile,
    _mean_and_std,
    _p95,
)
from repro.model.dag import Node, WorkflowDAG
from repro.model.plan import DeploymentPlan
from tests import reprice_oracle
from tests.montecarlo_oracle import ScalarReferenceEstimator


class FixtureData:
    """Hand-built WorkflowModelData with controllable behaviour."""

    def __init__(self, exec_seconds=1.0, edge_bytes=1e6, cond_prob=0.5,
                 slow_region=None):
        self.exec_seconds = exec_seconds
        self.edge_bytes = edge_bytes
        self.cond_prob = cond_prob
        self.slow_region = slow_region

    def execution_time_dist(self, node, region):
        base = self.exec_seconds
        if region == self.slow_region:
            base *= 3.0
        return EmpiricalDistribution([base, base * 1.1, base * 0.9])

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
        return EmpiricalDistribution([0.0])


def make_estimator(dag, data=None, scenario=None, seed=0,
                   home_region="us-east-1", estimator=MonteCarloEstimator,
                   **kwargs):
    return estimator(
        dag,
        data or FixtureData(),
        CarbonModel(scenario or TransmissionScenario.best_case()),
        CostModel(PricingSource()),
        TransferLatencyModel(LatencySource()),
        np.random.default_rng(seed),
        home_region,
        **kwargs,
    )


class TestStoppingRule:
    def test_batch_multiple_samples(self, chain_dag):
        est = make_estimator(chain_dag, batch_size=50, max_samples=500)
        result = est.estimate(DeploymentPlan.single_region(chain_dag, "us-east-1"),
                              lambda r: 400.0)
        assert result.n_samples % 50 == 0
        assert result.n_samples <= 500

    def test_max_samples_cap(self, diamond_dag):
        # A wildly bimodal conditional keeps the estimator uncertain.
        est = make_estimator(
            diamond_dag, FixtureData(cond_prob=0.5, exec_seconds=10.0),
            batch_size=200, max_samples=600, cov_threshold=1e-9,
        )
        result = est.estimate(
            DeploymentPlan.single_region(diamond_dag, "us-east-1"),
            lambda r: 400.0,
        )
        assert result.n_samples == 600

    def test_plan_must_cover_dag(self, chain_dag):
        est = make_estimator(chain_dag)
        with pytest.raises(ValueError, match="cover"):
            est.estimate(DeploymentPlan({"a": "us-east-1"}), lambda r: 1.0)


class TestEstimates:
    def test_chain_latency_is_sum_plus_transfers(self, chain_dag):
        est = make_estimator(chain_dag, FixtureData(exec_seconds=1.0,
                                                    edge_bytes=0.0))
        plan = DeploymentPlan.single_region(chain_dag, "us-east-1")
        result = est.estimate(plan, lambda r: 400.0)
        # Three 1 s stages + two tiny intra-region hops.
        assert 2.8 < result.mean_latency_s < 3.6

    def test_cross_region_raises_latency(self, chain_dag):
        est = make_estimator(chain_dag)
        same = est.estimate(
            DeploymentPlan.single_region(chain_dag, "us-east-1"), lambda r: 400.0
        )
        est2 = make_estimator(chain_dag)
        spread = est2.estimate(
            DeploymentPlan({"a": "us-east-1", "b": "us-west-1", "c": "us-east-1"}),
            lambda r: 400.0,
        )
        assert spread.mean_latency_s > same.mean_latency_s

    def test_carbon_scales_with_intensity(self, chain_dag):
        est = make_estimator(chain_dag)
        plan = DeploymentPlan.single_region(chain_dag, "us-east-1")
        profile = est.estimate_profile(plan)
        high = profile.estimate_at(lambda r: 400.0)
        low = profile.estimate_at(lambda r: 40.0)
        assert high.mean_carbon_g == pytest.approx(10 * low.mean_carbon_g, rel=1e-6)

    def test_low_carbon_region_wins_execution_carbon(self, chain_dag):
        est = make_estimator(chain_dag, FixtureData(edge_bytes=1e3))
        intensities = {"us-east-1": 400.0, "ca-central-1": 34.0}
        home = est.estimate(
            DeploymentPlan.single_region(chain_dag, "us-east-1"),
            lambda r: intensities[r],
        )
        est2 = make_estimator(chain_dag, FixtureData(edge_bytes=1e3))
        remote = est2.estimate(
            DeploymentPlan.single_region(chain_dag, "ca-central-1"),
            lambda r: intensities[r],
        )
        assert remote.mean_carbon_g < 0.2 * home.mean_carbon_g

    def test_transmission_heavy_offload_not_worth_it_worst_case(self, chain_dag):
        # Worst-case scenario: intra free, inter expensive -> moving a
        # data-heavy chain across regions adds transmission carbon.
        data = FixtureData(exec_seconds=0.05, edge_bytes=50e6)
        est = make_estimator(chain_dag, data,
                             scenario=TransmissionScenario.worst_case())
        intensities = {"us-east-1": 400.0, "us-west-1": 380.0}
        home = est.estimate(
            DeploymentPlan.single_region(chain_dag, "us-east-1"),
            lambda r: intensities[r],
        )
        est2 = make_estimator(chain_dag, data,
                              scenario=TransmissionScenario.worst_case())
        split = est2.estimate(
            DeploymentPlan({"a": "us-east-1", "b": "us-west-1", "c": "us-east-1"}),
            lambda r: intensities[r],
        )
        assert split.mean_carbon_g > home.mean_carbon_g

    def test_conditional_edges_reduce_work(self, diamond_dag):
        never = make_estimator(diamond_dag, FixtureData(cond_prob=0.0))
        always = make_estimator(diamond_dag, FixtureData(cond_prob=1.0))
        plan = DeploymentPlan.single_region(diamond_dag, "us-east-1")
        e_never = never.estimate(plan, lambda r: 400.0)
        e_always = always.estimate(plan, lambda r: 400.0)
        # Skipping node c removes its execution carbon.
        assert e_never.mean_carbon_g < e_always.mean_carbon_g

    def test_external_data_follows_node(self, chain_dag):
        class ExtData(FixtureData):
            def node_external_bytes(self, node):
                if node == "b":
                    return "us-east-1", 10e6
                return None, 0.0

        # Worst-case accounting: intra-region transfers are free, so the
        # pinned-data penalty only appears once the node moves away.
        worst = TransmissionScenario.worst_case()
        est = make_estimator(chain_dag, ExtData(edge_bytes=1e3), scenario=worst)
        home = est.estimate(
            DeploymentPlan.single_region(chain_dag, "us-east-1"), lambda r: 400.0
        )
        est2 = make_estimator(chain_dag, ExtData(edge_bytes=1e3), scenario=worst)
        moved = est2.estimate(
            DeploymentPlan({"a": "us-east-1", "b": "ca-central-1", "c": "us-east-1"}),
            lambda r: 400.0,
        )
        # Node b moved away from its pinned data: more transmission carbon.
        assert moved.mean_trans_carbon_g > home.mean_trans_carbon_g

    def test_metric_selector(self, chain_dag):
        est = make_estimator(chain_dag)
        result = est.estimate(
            DeploymentPlan.single_region(chain_dag, "us-east-1"), lambda r: 400.0
        )
        assert result.metric("carbon") == result.mean_carbon_g
        assert result.metric("cost") == result.mean_cost_usd
        assert result.metric("latency") == result.mean_latency_s
        with pytest.raises(ValueError):
            result.metric("vibes")

    def test_sync_node_data_relays_through_kv_region(self, diamond_dag):
        est = make_estimator(
            diamond_dag, FixtureData(cond_prob=1.0, edge_bytes=20e6),
            home_region="us-east-1",
        )
        plan = DeploymentPlan(
            {"a": "us-east-1", "b": "us-west-1", "c": "us-east-1", "d": "us-west-1"}
        )
        profile = est.estimate_profile(plan)
        # Fan-in data from b (us-west-1) must hop through the KV region.
        routes = {
            route
            for route, sizes in profile.bytes_by_route.items()
            if sizes.any()
        }
        assert ("us-west-1", "us-east-1") in routes  # b -> KV
        assert ("us-east-1", "us-west-1") in routes  # KV -> d


class RichData(FixtureData):
    """Wider distributions + external data: exercises every code path
    (bootstrap variety, conditional edges, sync relay, pinned data,
    non-trivial input sizes) for the differential test."""

    def execution_time_dist(self, node, region):
        base = self.exec_seconds * (1.0 + 0.1 * (ord(node[0]) % 5))
        if region == self.slow_region:
            base *= 3.0
        return EmpiricalDistribution([base * f for f in (0.7, 0.9, 1.0, 1.3, 2.1)])

    def edge_size_dist(self, src, dst):
        return EmpiricalDistribution(
            [self.edge_bytes * f for f in (0.5, 1.0, 1.5, 4.0)]
        )

    def node_external_bytes(self, node):
        if node == "b":
            return "us-east-1", 25e6
        return None, 0.0

    def input_size_dist(self):
        return EmpiricalDistribution([1e6, 5e6, 20e6])


class TestDifferential:
    """The production kernel and the scalar reference path
    (``tests/montecarlo_oracle.py``) must be bit-identical from
    identical seeds (same RNG stream, same arithmetic order per
    element)."""

    def _profile(self, dag, plan, vectorized, **kwargs):
        est = make_estimator(
            dag,
            RichData(cond_prob=0.5, edge_bytes=2e6),
            seed=123,
            estimator=(
                MonteCarloEstimator if vectorized else ScalarReferenceEstimator
            ),
            batch_size=50,
            max_samples=200,
            cov_threshold=1e-9,  # force the full 200 samples in both
            **kwargs,
        )
        return est.estimate_profile(plan)

    def test_profiles_bit_identical(self, diamond_dag):
        plan = DeploymentPlan(
            {"a": "us-west-1", "b": "us-east-1", "c": "ca-central-1",
             "d": "us-west-2"}
        )
        vec = self._profile(diamond_dag, plan, vectorized=True)
        ref = self._profile(diamond_dag, plan, vectorized=False)
        assert vec.n_samples == ref.n_samples == 200
        assert np.array_equal(vec.latencies, ref.latencies)
        assert np.array_equal(vec.costs, ref.costs)
        assert list(vec.energy_by_region) == list(ref.energy_by_region)
        for region in vec.energy_by_region:
            assert np.array_equal(
                vec.energy_by_region[region], ref.energy_by_region[region]
            )
        assert list(vec.bytes_by_route) == list(ref.bytes_by_route)
        for route in vec.bytes_by_route:
            assert np.array_equal(
                vec.bytes_by_route[route], ref.bytes_by_route[route]
            )

    def test_estimates_bit_identical(self, diamond_dag):
        plan = DeploymentPlan(
            {"a": "us-east-1", "b": "us-west-1", "c": "us-east-1",
             "d": "ca-central-1"}
        )
        intensities = {"us-east-1": 400.0, "us-west-1": 375.0,
                       "us-west-2": 392.0, "ca-central-1": 34.0}
        vec = self._profile(diamond_dag, plan, vectorized=True)
        ref = self._profile(diamond_dag, plan, vectorized=False)
        # Frozen-dataclass equality compares every float field exactly.
        assert vec.estimate_at(lambda r: intensities[r]) == ref.estimate_at(
            lambda r: intensities[r]
        )

    def test_chain_profiles_bit_identical(self, chain_dag):
        plan = DeploymentPlan(
            {"a": "us-west-2", "b": "ca-central-1", "c": "us-east-1"}
        )
        vec = self._profile(chain_dag, plan, vectorized=True)
        ref = self._profile(chain_dag, plan, vectorized=False)
        assert np.array_equal(vec.latencies, ref.latencies)
        assert np.array_equal(vec.costs, ref.costs)


class TestClientRegion:
    """The invocation client sits at the home region: shifting the start
    node must not make the end-user input transfer free."""

    class InputHeavy(FixtureData):
        def input_size_dist(self):
            return EmpiricalDistribution([50e6])

    def test_shifted_start_node_pays_input_transfer(self, chain_dag):
        est = make_estimator(
            chain_dag, self.InputHeavy(edge_bytes=1e3),
            scenario=TransmissionScenario.worst_case(),
            home_region="us-east-1",
        )
        shifted = DeploymentPlan.single_region(chain_dag, "us-west-1")
        profile = est.estimate_profile(shifted)
        # Input bytes cross from the client to the shifted start node.
        assert ("us-east-1", "us-west-1") in profile.bytes_by_route
        assert np.all(
            profile.bytes_by_route[("us-east-1", "us-west-1")] == 50e6
        )

    def test_input_transfer_raises_carbon_when_shifted(self, chain_dag):
        # Worst case: intra free, inter expensive.  The shifted plan
        # shows input-transfer carbon; the home plan does not.
        worst = TransmissionScenario.worst_case()
        est = make_estimator(
            chain_dag, self.InputHeavy(edge_bytes=1e3), scenario=worst,
        )
        home = est.estimate(
            DeploymentPlan.single_region(chain_dag, "us-east-1"),
            lambda r: 400.0,
        )
        est2 = make_estimator(
            chain_dag, self.InputHeavy(edge_bytes=1e3), scenario=worst,
        )
        shifted = est2.estimate(
            DeploymentPlan.single_region(chain_dag, "us-west-1"),
            lambda r: 400.0,
        )
        assert shifted.mean_trans_carbon_g > home.mean_trans_carbon_g


class TestConvergence:
    """Degenerate-series behaviour of the stopping rule."""

    def test_single_sample_never_converges(self, chain_dag):
        est = make_estimator(chain_dag)
        assert not est._converged(np.array([1.0]))

    def test_zero_variance_converges(self, chain_dag):
        est = make_estimator(chain_dag)
        assert est._converged(np.full(5, 3.7))

    def test_zero_variance_zero_mean_converges(self, chain_dag):
        # A deterministic all-zero series (e.g. cost under free pricing)
        # is fully known — it must not stall sampling, nor (the old bug)
        # count as converged merely because mean <= 0.
        est = make_estimator(chain_dag)
        assert est._converged(np.zeros(5))

    def test_nonpositive_mean_with_spread_not_converged(self, chain_dag):
        est = make_estimator(chain_dag)
        assert not est._converged(np.array([-1.0, 1.0] * 50))
        assert not est._converged(np.array([-3.0, -1.0] * 50))

    def test_wide_series_not_converged(self, chain_dag):
        est = make_estimator(chain_dag)
        assert not est._converged(np.array([0.1, 100.0, 0.2, 90.0]))


class TestPlanProfile:
    def test_profile_repricing_matches_direct_estimate(self, diamond_dag):
        plan = DeploymentPlan.single_region(diamond_dag, "us-east-1")
        est = make_estimator(diamond_dag, seed=7)
        profile = est.estimate_profile(plan)
        at_400 = profile.estimate_at(lambda r: 400.0)
        at_34 = profile.estimate_at(lambda r: 34.0)
        # Latency/cost are hour-independent; carbon scales exactly.
        assert at_400.mean_latency_s == at_34.mean_latency_s
        assert at_400.mean_cost_usd == at_34.mean_cost_usd
        assert at_400.mean_exec_carbon_g == pytest.approx(
            at_34.mean_exec_carbon_g * 400 / 34, rel=1e-9
        )

    def test_carbon_samples_shape(self, chain_dag):
        est = make_estimator(chain_dag)
        profile = est.estimate_profile(
            DeploymentPlan.single_region(chain_dag, "us-east-1")
        )
        samples = profile.carbon_samples(lambda r: 100.0)
        assert len(samples) == profile.n_samples
        assert np.all(samples > 0)


class TestProfileArraysAreFrozen:
    """Statistics computed once per profile stay valid only because the
    arrays cannot change afterwards."""

    def test_estimator_profiles_are_read_only(self, diamond_dag):
        plan = DeploymentPlan(
            {"a": "us-west-1", "b": "us-east-1", "c": "ca-central-1",
             "d": "us-west-2"}
        )
        profile = make_estimator(diamond_dag).estimate_profile(plan)
        arrays = [profile.latencies, profile.costs]
        arrays += list(profile.energy_by_region.values())
        arrays += list(profile.bytes_by_route.values())
        assert len(arrays) > 4
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("price", ["estimate_at", "carbon_samples"])
    def test_hand_built_negative_bytes_rejected_on_first_pricing(self, price):
        profile = PlanProfile(
            latencies=np.array([1.0, 2.0]),
            costs=np.array([0.1, 0.2]),
            energy_by_region={"us-east-1": np.array([1e-6, 2e-6])},
            bytes_by_route={("us-east-1", "us-west-2"): np.array([5.0, -1.0])},
            carbon_model=CarbonModel(TransmissionScenario.best_case()),
        )
        with pytest.raises(ValueError, match="size_bytes must be non-negative"):
            getattr(profile, price)(lambda r: 100.0)


class TestRepricingDifferential:
    """``PlanProfile.estimate_at`` / ``carbon_samples`` against the
    pre-hoisting arithmetic kept in ``tests/reprice_oracle.py``, on real
    application profiles: the latency and cost means and all three tails
    ``==``, the three carbon means to 1e-12 relative."""

    N_RANDOM_PLANS = 20
    LINEAR_MEANS = ("mean_carbon_g", "mean_exec_carbon_g", "mean_trans_carbon_g")

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    def test_every_hour_of_every_plan_equals_the_oracle(self, app_name):
        app = ALL_APPS[app_name]
        cloud = SimulatedCloud(seed=5)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=8)
        rng = np.random.default_rng(11)
        compared = 0
        for scenario in (
            TransmissionScenario.best_case(),
            TransmissionScenario.worst_case(),
        ):
            ev = build_plan_evaluator(deployed, scenario)
            nodes = ev.dag.node_names
            plans = [ev.home_plan()]
            # An all-intra-region plan away from home, where compliance
            # allows one (every route src == dst except the client's).
            for region in ev.regions:
                plan = DeploymentPlan.single_region(ev.dag, region)
                if region != ev.config.home_region and ev.is_plan_compliant(plan):
                    plans.append(plan)
                    break
            for _ in range(self.N_RANDOM_PLANS):
                plans.append(DeploymentPlan({
                    n: str(rng.choice(ev.permitted_regions(n))) for n in nodes
                }))
            for plan in plans:
                profile = ev.profile(plan)
                for hour in range(24):
                    def carbon_at(region, hour=hour):
                        return ev.intensity(region, hour)

                    got = reprice_oracle.fields(profile.estimate_at(carbon_at))
                    want = reprice_oracle.fields(
                        reprice_oracle.estimate_at(profile, carbon_at)
                    )
                    # The carbon means are priced by linearity, from the
                    # per-region and per-route means: the same value to a
                    # few ulps.  Everything else is the same double.
                    for name in self.LINEAR_MEANS:
                        assert got.pop(name) == pytest.approx(
                            want.pop(name), rel=1e-12, abs=0.0
                        )
                    assert got == want
                    assert profile.estimate_at(carbon_at) == ev.estimate(plan, hour)
                    assert np.array_equal(
                        profile.carbon_samples(carbon_at),
                        reprice_oracle.carbon_samples(profile, carbon_at),
                    )
                    compared += 1
        assert compared >= 2 * (self.N_RANDOM_PLANS + 1) * 24


class TestTailsOnRead:
    """An estimate's three p95s are computed when first read, kept, and
    are the oracle's eagerly computed doubles."""

    @pytest.fixture(scope="class")
    def evaluator(self):
        app = ALL_APPS["text2speech_censoring"]
        cloud = SimulatedCloud(seed=5)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=8)
        return lambda: build_plan_evaluator(
            deployed, TransmissionScenario.worst_case()
        )

    def test_every_tail_equals_the_eager_oracle(self, evaluator):
        ev = evaluator()
        rng = np.random.default_rng(3)
        plans = [ev.home_plan()] + [
            DeploymentPlan({
                n: str(rng.choice(ev.permitted_regions(n)))
                for n in ev.dag.node_names
            })
            for _ in range(8)
        ]
        tails = ("tail_latency_s", "tail_cost_usd", "tail_carbon_g")
        for k, plan in enumerate(plans):
            for hour in (0, 7, 13, 22):
                estimate = ev.estimate(plan, hour)
                want = reprice_oracle.estimate_at(
                    ev.profile(plan), lambda r, h=hour: ev.intensity(r, h)
                )
                # Read in a different order per plan: no tail may depend
                # on another having been read first.
                order = tails[k % 3:] + tails[:k % 3]
                for name in order + order:
                    assert getattr(estimate, name) == getattr(want, name)

    def test_a_tail_read_twice_is_computed_once(self, evaluator, monkeypatch):
        ev = evaluator()
        plan = ev.home_plan()
        calls = []
        p95 = montecarlo._p95
        monkeypatch.setattr(
            montecarlo, "_p95", lambda values: calls.append(1) or p95(values)
        )
        first = ev.estimate(plan, 3)
        assert not calls  # pricing computes no tail
        carbon = first.tail_carbon_g
        assert first.tail_carbon_g == carbon and len(calls) == 1
        latency, cost = first.tail_latency_s, first.tail_cost_usd
        assert len(calls) == 3  # latency and cost together, once
        assert (first.tail_latency_s, first.tail_cost_usd) == (latency, cost)
        # Another hour of the same profile: its latency and cost tails
        # are the profile's, its carbon tail is its own.
        other = ev.estimate(plan, 9)
        assert (other.tail_latency_s, other.tail_cost_usd) == (latency, cost)
        assert len(calls) == 3
        other.tail_carbon_g
        other.tail_carbon_g
        assert len(calls) == 4

    def test_an_estimate_holds_the_hour_table_not_a_copy(self, evaluator):
        ev = evaluator()
        estimate = ev.estimate(ev.home_plan(), 5)
        assert estimate._carbon_at is ev._intensities_at(5)
        assert estimate._profile is ev.profile(ev.home_plan())


def _numpy_wrapper_calls(fn):
    """Calls ``fn`` under ``sys.setprofile``, counting entries into the
    ``np.partition`` wrapper and ``ndarray.mean`` (the C method and the
    Python ``_mean`` it ends in)."""
    wrappers = {("fromnumeric.py", "partition"), ("_methods.py", "_mean")}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            where = (os.path.basename(code.co_filename), code.co_name)
            if where in wrappers:
                calls[where[1]] += 1
        elif event == "c_call" and getattr(arg, "__qualname__", "") == (
            "ndarray.mean"
        ):
            calls["ndarray.mean"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestRepricingWorkCounts:
    """Re-pricing a profile calls neither the ``np.partition`` wrapper nor
    ``ndarray.mean`` — not on the first pricing, not after."""

    def _profile(self, diamond_dag):
        est = make_estimator(diamond_dag, RichData(cond_prob=0.5))
        return est.estimate_profile(DeploymentPlan(
            {"a": "us-west-1", "b": "us-east-1", "c": "ca-central-1",
             "d": "us-west-2"}
        ))

    def test_no_numpy_wrappers(self, diamond_dag):
        profile = self._profile(diamond_dag)
        intensities = {"us-east-1": 400.0, "us-west-1": 375.0,
                       "us-west-2": 392.0, "ca-central-1": 34.0}

        def reprice():
            for scale in (1.0, 0.5, 2.0):  # the first pricing, then two
                profile.estimate_at(lambda r: intensities[r] * scale)
                profile.carbon_samples(lambda r: intensities[r] * scale)

        assert _numpy_wrapper_calls(reprice) == {}

    def test_the_counter_sees_what_it_forbids(self, diamond_dag):
        profile = self._profile(diamond_dag)
        calls = _numpy_wrapper_calls(
            lambda: reprice_oracle.estimate_at(profile, lambda r: 100.0)
        )
        assert calls["ndarray.mean"] == calls["_mean"] == 5
        assert _numpy_wrapper_calls(
            lambda: np.partition(profile.latencies, 3)
        ) == {"partition": 1}


def _finite_arrays():
    """Float arrays of size 1..2000 spanning 1e-12..1e9 in magnitude,
    with constants and heavy ties: drawn by numpy from a hypothesis
    seed (a 2000-element ``st.lists`` is too slow to explore)."""

    def build(seed, n, exponent, shape, signed):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 1.5, size=n)
        if signed:
            values = values - np.median(values)
        if shape == "constant":
            values = np.full(n, values[0])
        elif shape == "ties":
            values = rng.choice(values[: max(1, n // 50)], size=n)
        elif shape == "rounded":
            values = np.round(values, 1)
        return values * 10.0**exponent

    return st.builds(
        build,
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(1, 4), st.integers(1, 2000)),
        exponent=st.integers(-12, 9),
        shape=st.sampled_from(["plain", "constant", "ties", "rounded"]),
        signed=st.booleans(),
    )


class TestP95Differential:
    """The selection-based p95 is ``np.percentile``'s double, exactly —
    on the newest numpy and (CI's ``numpy-floor`` job) the oldest one
    ``pyproject.toml`` admits."""

    @settings(max_examples=400)
    @given(_finite_arrays())
    def test_equals_np_percentile(self, values):
        assert _p95(values) == float(np.percentile(values, 95))

    @settings(max_examples=200)
    @given(st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64),
        min_size=1, max_size=40,
    ))
    def test_equals_np_percentile_on_arbitrary_small_arrays(self, values):
        arr = np.array(values, dtype=float)
        assert _p95(arr) == float(np.percentile(arr, 95))

    @pytest.mark.parametrize("values", [
        [3.5], [1.0, 2.0], [2.0, 1.0], [0.0, 0.0, 0.0], [1e-12, 1e9],
        list(range(20)), list(range(21)), [5.0] * 19 + [7.0],
    ])
    def test_edge_sizes(self, values):
        arr = np.array(values, dtype=float)
        assert _p95(arr) == float(np.percentile(arr, 95))

    def test_input_left_untouched_and_read_only_accepted(self):
        arr = np.random.default_rng(0).random(100)
        before = arr.copy()
        arr.setflags(write=False)
        _p95(arr)
        assert np.array_equal(arr, before)


def _converged_oracle(cov, *series):
    """The stopping rule as it was spelt with numpy's own methods."""
    for arr in series:
        if arr.size < 2:
            return False
        std = arr.std(ddof=1)
        if std == 0.0:
            continue
        mean = arr.mean()
        if mean <= 0:
            return False
        if std / np.sqrt(arr.size) / mean >= cov:
            return False
    return True


class TestConvergedDifferential:
    """The stopping rule's mean and sample standard deviation are
    ``arr.mean()`` / ``arr.std(ddof=1)``'s doubles, exactly, and so is
    every decision taken from them — on the numpy floor too."""

    @settings(max_examples=400)
    @given(_finite_arrays().filter(lambda a: a.size >= 2))
    def test_mean_and_std_equal_the_numpy_methods(self, values):
        mean, std = _mean_and_std(values)
        assert mean == float(values.mean())
        assert std == float(values.std(ddof=1))

    @settings(max_examples=200)
    @given(st.lists(_finite_arrays(), min_size=2, max_size=16),
           st.integers(2, 2000))
    def test_cohort_rows_equal_their_own_series(self, arrays, n):
        # One (plans, n) cohort, each row a plan's series at the same
        # sample count: axis-1 reductions give every row the doubles
        # numpy's 1-D methods give it, gathered rows and prefix views
        # alike (what the kernel reads).
        n = min([n] + [a.size for a in arrays])
        full = np.stack([a[:n] for a in arrays] + [arrays[0][:n]])
        for cohort in (full[:-1], full[::-1][:, :n], full[[0, -1]]):
            if cohort.shape[1] < 2:
                continue
            means, stds = _mean_and_std(cohort)
            for row, mean, std in zip(cohort, means, stds):
                assert mean == float(row.mean())
                assert std == float(row.std(ddof=1))

    @settings(max_examples=200)
    @given(st.lists(_finite_arrays(), min_size=2, max_size=16),
           st.sampled_from([1e-9, 0.01, 0.05, 0.08, 0.2, 1.0]))
    def test_cohort_decisions_equal_the_oracle(self, arrays, cov):
        dag = WorkflowDAG("one")
        dag.add_node(Node(name="a", function="a"))
        est = make_estimator(dag, cov_threshold=cov)
        n = min(a.size for a in arrays)
        rows = np.stack([a[:n] for a in arrays])
        latencies, costs = rows[: len(rows) // 2], rows[-(len(rows) // 2):]
        got = est._converged(latencies, costs)
        assert got.tolist() == [
            _converged_oracle(cov, lat, cost)
            for lat, cost in zip(latencies, costs)
        ]

    @settings(max_examples=200)
    @given(_finite_arrays(), _finite_arrays(),
           st.sampled_from([1e-9, 0.01, 0.05, 0.08, 0.2, 1.0]))
    def test_decisions_equal_the_oracle(self, latencies, costs, cov):
        dag = WorkflowDAG("one")
        dag.add_node(Node(name="a", function="a"))
        est = make_estimator(dag, cov_threshold=cov)
        # Every prefix a profile run would check, as views like its own.
        for n in {1, 2, 3, latencies.size // 2, latencies.size}:
            if 1 <= n <= min(latencies.size, costs.size):
                assert est._converged(latencies[:n], costs[:n]) == (
                    _converged_oracle(cov, latencies[:n], costs[:n])
                )

    @pytest.mark.parametrize("values, expected", [
        ([1.0], False),                    # n < 2
        ([3.7] * 5, True),                 # zero variance
        ([0.0] * 5, True),                 # ... whatever the mean
        ([-2.0] * 5, True),
        ([-1.0, 1.0] * 50, False),         # zero mean with spread
        ([-3.0, -1.0] * 50, False),        # negative mean with spread
        ([0.1, 100.0, 0.2, 90.0], False),  # wide
        ([1.0, 1.0001] * 50, True),        # tight
    ])
    def test_degenerate_series(self, chain_dag, values, expected):
        est = make_estimator(chain_dag)
        arr = np.array(values)
        assert bool(est._converged(arr)) is expected
        assert bool(est._converged(arr[None, :])[0]) is expected
        assert _converged_oracle(0.05, arr) is expected

    def test_input_left_untouched_and_read_only_accepted(self):
        arr = np.random.default_rng(0).random(100)
        before = arr.copy()
        arr.setflags(write=False)
        _mean_and_std(arr)
        assert np.array_equal(arr, before)


class TestPlanStreamDifferential:
    """``plan_rng`` builds ``Generator(PCG64(seed))``: the generator
    ``np.random.default_rng(seed)`` returns for an int seed, so every
    plan's draws are the ones the dispatching constructor gave."""

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_same_draws_and_state(self, seed):
        ours = np.random.Generator(np.random.PCG64(seed))
        theirs = np.random.default_rng(seed)
        highs = np.array([[5], [1], [40], [7]], dtype=np.int64)
        assert np.array_equal(ours.random((3, 2)), theirs.random((3, 2)))
        assert np.array_equal(
            ours.integers(0, highs, size=(4, 9)),
            theirs.integers(0, highs, size=(4, 9)),
        )
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_plan_rng_is_the_digest_seeded_default_rng(self, diamond_dag):
        from repro.common.rng import derive_seed

        est = make_estimator(diamond_dag, seed=3)
        plan = DeploymentPlan(
            {"a": "us-west-1", "b": "us-east-1", "c": "ca-central-1",
             "d": "us-west-2"}
        )
        want = np.random.default_rng(derive_seed(est._plan_salt, plan.digest()))
        got = est.plan_rng(plan)
        assert np.array_equal(got.random(50), want.random(50))
        assert got.bit_generator.state == want.bit_generator.state


class TestBufferMeansDifferential:
    """A profile's first pricing reduces the estimator's read-only
    buffer, whose rows are the profile's vectors: each row's mean is the
    double the former stacked copy of those rows gave, and the direct
    ``metric_at`` is ``estimate_at(...).metric`` to the bit."""

    PLANS = (
        {"a": "us-west-1", "b": "us-east-1", "c": "ca-central-1", "d": "us-west-2"},
        {"a": "us-east-1", "b": "us-east-1", "c": "us-west-1", "d": "us-east-1"},
        {"a": "ca-central-1", "b": "us-west-2", "c": "us-west-2", "d": "ca-central-1"},
    )

    def test_buffer_rows_are_the_profile_vectors(self, diamond_dag):
        est = make_estimator(diamond_dag, RichData(cond_prob=0.5))
        for profile in est.estimate_profiles([DeploymentPlan(p) for p in self.PLANS]):
            vectors = [profile.latencies, profile.costs,
                       *profile.energy_by_region.values(),
                       *profile.bytes_by_route.values()]
            assert profile.rows.flags.c_contiguous
            assert not profile.rows.flags.writeable
            assert len(vectors) == len(profile.rows)
            for vector, row in zip(vectors, profile.rows):
                assert np.shares_memory(vector, profile.rows)
                assert np.array_equal(vector, row)

    def test_means_equal_the_stacked_copy(self, diamond_dag):
        est = make_estimator(diamond_dag, RichData(cond_prob=0.5))
        intensities = {"us-east-1": 400.0, "us-west-1": 375.0,
                       "us-west-2": 392.0, "ca-central-1": 34.0}
        for profile in est.estimate_profiles([DeploymentPlan(p) for p in self.PLANS]):
            stacked = np.array([profile.latencies, profile.costs,
                                *profile.energy_by_region.values(),
                                *profile.bytes_by_route.values()])
            n = profile.n_samples
            assert (np.add.reduce(profile.rows, axis=1) / n).tolist() == (
                np.add.reduce(stacked, axis=1) / n
            ).tolist()
            # A hand-built twin stacks its own copy: the same pricing.
            twin = PlanProfile(
                latencies=profile.latencies.copy(),
                costs=profile.costs.copy(),
                energy_by_region={r: v.copy() for r, v in profile.energy_by_region.items()},
                bytes_by_route={k: v.copy() for k, v in profile.bytes_by_route.items()},
                carbon_model=profile.carbon_model,
            )
            assert twin._first_pricing() == profile._first_pricing()
            at = intensities.__getitem__
            est_at = profile.estimate_at(at)
            assert est_at == twin.estimate_at(at)
            for priority in ("carbon", "cost", "latency"):
                assert profile.metric_at(priority, at) == est_at.metric(priority)
            with pytest.raises(ValueError, match="unknown priority"):
                profile.metric_at("speed", at)

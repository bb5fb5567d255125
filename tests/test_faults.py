"""Tests for the fault-injection layer and resilient execution paths."""

import math

import pytest

from repro.apps import get_app
from repro.cloud.faults import FAULT_KINDS, FaultPlan, FaultRule
from repro.cloud.provider import SimulatedCloud
from repro.cloud.pubsub import MAX_DELIVERY_ATTEMPTS, Message
from repro.common.errors import (
    FunctionInvocationError,
    FunctionTimeoutError,
    KeyValueStoreError,
    NetworkPartitionError,
    RegionUnavailableError,
)
from repro.core.solver import SolverSettings
from repro.core.lifecycle import deploy_benchmark
from repro.experiments.harness import run_caribou
from repro.model.config import WorkflowConfig


@pytest.fixture
def make_cloud():
    """Factory for chaos clouds that cannot leak RNG state.

    Each created cloud's RNG registry is snapshotted at birth and
    restored in teardown — even when the test body fails mid-run — so a
    half-consumed chaos stream can never bleed into a later test that
    happens to reuse the same cloud object through a cached reference.
    """
    created = []

    def factory(plan, seed=42):
        cloud = SimulatedCloud(seed=seed, fault_plan=plan)
        created.append((cloud, cloud.env.rng.snapshot()))
        return cloud

    try:
        yield factory
    finally:
        for cloud, state in created:
            cloud.env.rng.restore(state)


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="meteor_strike")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="kv_error", probability=1.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty fault window"):
            FaultRule(kind="region_outage", region="us-east-1",
                      start_s=10.0, end_s=10.0)

    def test_partition_needs_both_endpoints(self):
        with pytest.raises(ValueError, match="src_region and dst_region"):
            FaultRule(kind="network_partition", src_region="us-east-1")

    def test_window_is_half_open(self):
        rule = FaultRule(kind="region_outage", region="r", start_s=1.0, end_s=2.0)
        assert not rule.active(0.999)
        assert rule.active(1.0)
        assert rule.active(1.999)
        assert not rule.active(2.0)

    def test_none_scope_matches_anything(self):
        rule = FaultRule(kind="invocation_failure")
        assert rule.matches("wf", "fn", "anywhere")
        scoped = FaultRule(kind="invocation_failure", workflow="wf", region="r1")
        assert scoped.matches("wf", "fn", "r1")
        assert not scoped.matches("other", "fn", "r1")
        assert not scoped.matches("wf", "fn", "r2")


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().with_kv_errors(0.5)

    def test_builders_accumulate_rules(self):
        plan = (
            FaultPlan()
            .with_invocation_failures(0.1)
            .with_invocation_timeouts(0.1)
            .with_cold_start_spike(4.0)
            .with_region_outage("us-west-2")
            .with_kv_errors(0.1)
            .with_kv_latency(2.0)
            .with_network_partition("us-east-1", "us-west-2")
        )
        assert len(plan.rules) == len(FAULT_KINDS)
        for kind in FAULT_KINDS:
            assert len(plan.of_kind(kind)) == 1

    def test_builders_do_not_mutate_original(self):
        base = FaultPlan()
        base.with_region_outage("us-east-1")
        assert not base


class TestFaultInjector:
    def test_empty_plan_never_touches_rng(self, cloud):
        injector = cloud.faults
        assert not injector.enabled
        assert injector._rng is None  # no RNG stream ever created
        assert not injector.region_down("us-east-1")
        assert injector.invocation_fault("wf", "fn", "us-east-1") is None
        assert injector.cold_start_multiplier("wf", "fn", "us-east-1") == 1.0
        assert injector.kv_latency_factor("us-east-1") == 1.0
        assert not injector.partitioned("us-east-1", "us-west-2")
        assert injector.snapshot() == {}

    def test_outage_follows_window(self, make_cloud):
        plan = FaultPlan().with_region_outage("us-west-2", start_s=10.0, end_s=20.0)
        cloud = make_cloud(plan)
        assert not cloud.faults.region_down("us-west-2")
        cloud.env.schedule(15.0, lambda: None)
        cloud.run_until_idle()
        assert cloud.faults.region_down("us-west-2")
        assert not cloud.faults.region_down("us-east-1")
        cloud.env.schedule(10.0, lambda: None)  # now 25 s
        cloud.run_until_idle()
        assert not cloud.faults.region_down("us-west-2")

    def test_certain_rules_consume_no_randomness(self, make_cloud):
        plan = FaultPlan().with_invocation_failures(1.0)
        cloud = make_cloud(plan)
        before = cloud.env.rng.get("faults").bit_generator.state
        assert cloud.faults.invocation_fault("wf", "fn", "us-east-1") == "failure"
        after = cloud.env.rng.get("faults").bit_generator.state
        assert before == after

    def test_partition_is_symmetric(self, make_cloud):
        plan = FaultPlan().with_network_partition("us-east-1", "us-west-2")
        cloud = make_cloud(plan)
        assert cloud.faults.partitioned("us-east-1", "us-west-2")
        assert cloud.faults.partitioned("us-west-2", "us-east-1")
        assert not cloud.faults.partitioned("us-east-1", "ca-central-1")
        assert not cloud.faults.partitioned("us-east-1", "us-east-1")


class TestServiceWiring:
    def _deploy(self, cloud):
        app = get_app("rag_ingestion")
        return deploy_benchmark(app, cloud)

    def test_invocation_failure_raised(self, make_cloud):
        plan = FaultPlan().with_invocation_failures(1.0)
        cloud = make_cloud(plan)
        deployed, _, _ = self._deploy(cloud)
        spec = deployed.workflow.functions[0]
        with pytest.raises(FunctionInvocationError):
            cloud.functions.invoke(
                deployed.name, spec.name, "us-east-1", None, 0.0
            )
        assert cloud.faults.snapshot() == {"invocation_failure": 1}

    def test_invocation_timeout_raised(self, make_cloud):
        plan = FaultPlan().with_invocation_timeouts(1.0)
        cloud = make_cloud(plan)
        deployed, _, _ = self._deploy(cloud)
        spec = deployed.workflow.functions[0]
        with pytest.raises(FunctionTimeoutError):
            cloud.functions.invoke(
                deployed.name, spec.name, "us-east-1", None, 0.0
            )

    def test_region_outage_blocks_invocations_and_deploys(self, make_cloud):
        plan = FaultPlan().with_region_outage("us-east-1")
        cloud = make_cloud(plan)
        with pytest.raises(RegionUnavailableError):
            self._deploy(cloud)

    def test_cold_start_spike_multiplies_delay(self, make_cloud):
        factor = 50.0
        plain = SimulatedCloud(seed=7)
        spiked = make_cloud(FaultPlan().with_cold_start_spike(factor), seed=7)
        d_plain, _, _ = self._deploy(plain)
        d_spiked, _, _ = self._deploy(spiked)
        spec = d_plain.workflow.functions[0]
        ctx_plain = plain.functions.invoke(
            d_plain.name, spec.name, "us-east-1", None, 0.0
        )
        ctx_spiked = spiked.functions.invoke(
            d_spiked.name, spec.name, "us-east-1", None, 0.0
        )
        # Same seed, same cold-start draw: only the factor differs.
        delay_plain = ctx_plain.start_s - plain.now()
        delay_spiked = ctx_spiked.start_s - spiked.now()
        assert delay_plain > 0  # first invocation is cold
        assert delay_spiked == pytest.approx(delay_plain * factor)

    def test_kv_error_raises(self, make_cloud):
        plan = FaultPlan().with_kv_errors(1.0)
        cloud = make_cloud(plan)
        kv = cloud.kvstore("us-east-1")
        with pytest.raises(KeyValueStoreError):
            kv.put("t", "k", 1)

    def test_kv_latency_inflated(self, make_cloud):
        factor = 3.0
        plain = SimulatedCloud(seed=7)
        slowed = make_cloud(FaultPlan().with_kv_latency(factor), seed=7)
        base = plain.kvstore("us-east-1").put("t", "k", 1)
        inflated = slowed.kvstore("us-east-1").put("t", "k", 1)
        assert inflated == pytest.approx(base * factor)

    def test_kv_host_outage_raises(self, make_cloud):
        plan = FaultPlan().with_region_outage("us-east-1")
        cloud = make_cloud(plan)
        with pytest.raises(RegionUnavailableError):
            cloud.kvstore("us-east-1").get("t", "k")

    def test_network_partition_refuses_transfer(self, make_cloud):
        plan = FaultPlan().with_network_partition("us-east-1", "us-west-2")
        cloud = make_cloud(plan)
        with pytest.raises(NetworkPartitionError):
            cloud.network.transfer("us-east-1", "us-west-2", 100.0)
        # Unrelated pairs still work.
        cloud.network.transfer("us-east-1", "ca-central-1", 100.0)

    def test_publish_to_dark_region_raises(self, make_cloud):
        plan = FaultPlan().with_region_outage("us-west-2")
        cloud = make_cloud(plan)
        cloud.pubsub.create_topic("t", "us-west-2")
        with pytest.raises(RegionUnavailableError):
            cloud.pubsub.publish(
                "t", "us-west-2", Message(body=None, size_bytes=0),
                source_region="us-east-1",
            )

    def test_delivery_during_outage_retries_then_dead_letters(self, make_cloud):
        # Publish accepted just before the outage window opens; delivery
        # attempts all land inside it.
        plan = FaultPlan().with_region_outage("us-west-2", start_s=0.01)
        cloud = make_cloud(plan)
        cloud.pubsub.create_topic("t", "us-west-2")
        delivered = []
        cloud.pubsub.subscribe("t", "us-west-2", lambda m: delivered.append(m))
        cloud.pubsub.publish(
            "t", "us-west-2", Message(body=None, size_bytes=0, workflow="wf"),
            source_region="us-west-2",
        )
        cloud.run_until_idle()
        assert delivered == []
        assert cloud.pubsub.dead_letter_count("wf") == 1
        assert cloud.pubsub.retry_count("wf") == MAX_DELIVERY_ATTEMPTS - 1

    def test_outage_ending_lets_retry_succeed(self, make_cloud):
        # Outage so short that the first redelivery lands after it ends:
        # at-least-once glue rides out the window (§6.2).
        plan = FaultPlan().with_region_outage("us-west-2", start_s=0.01, end_s=0.3)
        cloud = make_cloud(plan)
        cloud.pubsub.create_topic("t", "us-west-2")
        delivered = []
        cloud.pubsub.subscribe("t", "us-west-2", lambda m: delivered.append(m))
        cloud.pubsub.publish(
            "t", "us-west-2", Message(body=None, size_bytes=0, workflow="wf"),
            source_region="us-west-2",
        )
        cloud.run_until_idle()
        assert len(delivered) == 1
        assert cloud.pubsub.dead_letter_count("wf") == 0
        assert cloud.pubsub.retry_count("wf") >= 1


class TestExecutorResilience:
    def _deploy(self, cloud, **config_kwargs):
        app = get_app("text2speech_censoring")
        config = None
        if config_kwargs:
            config = WorkflowConfig(
                home_region="us-east-1", benchmarking_fraction=0.0,
                **config_kwargs,
            )
        deployed, executor, utility = deploy_benchmark(app, cloud, config=config)
        return app, deployed, executor, utility

    def test_home_fallback_on_region_outage(self, make_cloud):
        from repro.model.plan import DeploymentPlan, HourlyPlanSet

        # Materialise everything in us-west-2 while it is healthy, then
        # route there once the outage window opens: every publish must
        # fall back home and the request must still finish.
        outage_start = 50_000.0
        plan = FaultPlan().with_region_outage("us-west-2", start_s=outage_start)
        cloud = make_cloud(plan)
        app, deployed, executor, utility = self._deploy(cloud)
        for spec in deployed.workflow.functions:
            utility.deploy_function(deployed, executor, spec, "us-west-2",
                                    copy_image_from="us-east-1")
        executor.stage_plan_set(HourlyPlanSet.daily(
            DeploymentPlan.single_region(deployed.dag, "us-west-2")
        ))
        cloud.run_until_idle()
        assert cloud.now() < outage_start  # set-up finished before the outage
        rids = []
        cloud.env.schedule(
            outage_start - cloud.now() + 1.0,
            lambda: rids.append(executor.invoke(app.make_input("small"))),
        )
        cloud.run_until_idle()
        (rid,) = rids
        assert executor.request_status(rid) == "completed"
        stats = executor.reliability()
        assert stats.home_fallbacks >= 1
        regions = {e.region
                   for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert regions == {"us-east-1"}

    def test_missing_home_topic_dead_letters_not_crashes(self):
        from repro.core.executor import topic_name

        cloud = SimulatedCloud(seed=5)
        app, deployed, executor, _ = self._deploy(cloud)
        start = deployed.dag.start_node
        function = deployed.dag.node(start).function
        cloud.pubsub.delete_topic(topic_name(deployed.name, function),
                                  "us-east-1")
        rid = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()  # previously: MessageDeliveryError escaped
        assert executor.request_status(rid) == "failed"
        assert executor.reliability().dead_letters == 1

    def test_watchdog_times_out_stalled_request(self, make_cloud):
        # A gigantic cold-start spike pushes all effects far beyond the
        # request deadline: the watchdog must mark the request timed out.
        plan = FaultPlan().with_cold_start_spike(1e9)
        cloud = make_cloud(plan)
        app, deployed, executor, _ = self._deploy(
            cloud, request_timeout_s=60.0
        )
        rid = executor.invoke(app.make_input("small"))
        cloud.run(until=cloud.now() + 3600.0)
        assert executor.request_status(rid) == "timed_out"
        assert executor.reliability().timed_out_requests == 1

    def test_fetch_active_plan_survives_kv_outage(self, make_cloud):
        # KV errors start only after deployment (which itself writes the
        # plan to the store) has finished.
        errors_start = 50_000.0
        plan = FaultPlan().with_kv_errors(1.0, start_s=errors_start)
        cloud = make_cloud(plan)
        _, _, executor, _ = self._deploy(cloud)
        cloud.run_until_idle()
        assert cloud.now() < errors_start
        plans = []
        cloud.env.schedule(
            errors_start - cloud.now() + 1.0,
            lambda: plans.append(executor.fetch_active_plan()),
        )
        cloud.run_until_idle()
        assert plans[0].regions_used == ("us-east-1",)
        assert executor.reliability().home_fallbacks == 1


class TestRngStreamStability:
    def test_force_home_draw_not_short_circuited(self):
        """Regression: ``force_home`` used to skip the benchmarking draw,
        desynchronising the executor's RNG stream between warmed-up and
        cold runs with the same seed."""
        app = get_app("rag_ingestion")
        cloud = SimulatedCloud(seed=33)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        twin = SimulatedCloud(seed=33)
        expected = twin.env.rng.get(f"executor:{deployed.name}")
        executor.invoke(app.make_input("small"), force_home=True)
        executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        # Both invocations consumed exactly one draw each: the live
        # stream now matches a twin advanced by two draws.
        expected.random(2)
        assert executor._rng.random() == expected.random()  # noqa: SLF001


class TestChaosRegression:
    """The PR's acceptance scenario: Text2Speech under a seeded chaos
    plan runs to completion with every request accounted for, and the
    reliability counters are bit-for-bit reproducible."""

    SETTINGS = SolverSettings(batch_size=20, max_samples=40, cov_threshold=0.5)

    def _chaos_plan(self):
        day = 86_400.0
        return (
            FaultPlan()
            .with_region_outage("us-west-2", start_s=1.0 * day, end_s=1.5 * day)
            .with_invocation_failures(0.05)
            .with_kv_latency(3.0, start_s=2.0 * day, end_s=3.0 * day)
        )

    def _run(self):
        return run_caribou(
            get_app("text2speech_censoring"),
            "small",
            ("us-east-1", "us-west-1", "us-west-2", "ca-central-1"),
            seed=3,
            n_invocations=12,
            warmup=6,
            solver_settings=self.SETTINGS,
            fault_plan=self._chaos_plan(),
        )

    def test_chaos_run_accounts_for_every_request(self):
        outcome = self._run()
        stats = outcome.reliability
        assert stats is not None
        # warmup + measured requests all reached a terminal state.
        assert stats.tracked_requests == 12 + 6
        assert stats.completed_requests > 0
        assert stats.total_injected > 0
        assert not math.isnan(outcome.mean_service_time_s)

    def test_chaos_counters_deterministic(self):
        first = self._run().reliability
        second = self._run().reliability
        assert first == second

    def test_no_fault_run_reports_clean_counters(self):
        outcome = run_caribou(
            get_app("text2speech_censoring"),
            "small",
            ("us-east-1", "us-west-2"),
            seed=3,
            n_invocations=6,
            warmup=4,
            solver_settings=self.SETTINGS,
        )
        stats = outcome.reliability
        assert stats.tracked_requests == 10
        assert stats.completed_requests == 10
        assert stats.failed_requests == 0
        assert stats.timed_out_requests == 0
        assert stats.total_injected == 0

"""Tests for the extensions: temporal shifting and embodied accounting."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.cloud.ledger import ExecutionRecord
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_HOUR
from repro.core.temporal import TemporalPolicy, TemporalShifter
from repro.experiments.harness import deploy_benchmark
from repro.metrics.embodied import (
    EmbodiedCarbonModel,
    ranking_invariant_under_embodied,
)


def v_shaped_overrides(trough_hour=3, low=50.0, high=500.0):
    """A carbon day with an unmistakable trough at ``trough_hour``."""
    day = [high] * 24
    day[trough_hour] = low
    week = day * 7
    return {z: list(week) for z in
            ("US-PJM", "US-CAISO", "US-BPA", "CA-QC", "CA-AB")}


@pytest.fixture
def shifter_setup():
    cloud = SimulatedCloud(
        seed=60, carbon_overrides=v_shaped_overrides(),
        regions=("us-east-1",),
    )
    app = get_app("dna_visualization")
    deployed, executor, _ = deploy_benchmark(app, cloud)
    return cloud, app, executor, TemporalShifter(executor)


class TestTemporalPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalPolicy(max_delay_s=-1)
        with pytest.raises(ValueError):
            TemporalPolicy(max_delay_s=10, slot_s=0)


class TestTemporalShifter:
    def test_no_policy_runs_immediately(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        decision = shifter.submit(app.make_input("small"))
        assert decision.delay_s == 0.0
        cloud.run_until_idle()
        assert cloud.ledger.executions  # it ran

    def test_zero_tolerance_runs_immediately(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        decision = shifter.submit(
            app.make_input("small"), TemporalPolicy(max_delay_s=0)
        )
        assert decision.delay_s == 0.0

    def test_waits_for_the_trough(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        # Now = hour 0 (intensity 500); trough at hour 3 (50); deadline
        # allows reaching it.
        decision = shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=5 * SECONDS_PER_HOUR),
        )
        assert decision.scheduled_at_s == pytest.approx(3 * SECONDS_PER_HOUR)
        assert decision.chosen_intensity == pytest.approx(50.0)
        cloud.run_until_idle()
        exec_start = cloud.ledger.executions[0].start_s
        assert exec_start >= 3 * SECONDS_PER_HOUR

    def test_never_exceeds_deadline(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        decision = shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=2 * SECONDS_PER_HOUR),
        )
        # Trough (hour 3) is out of reach: stays within [now, +2 h].
        assert decision.delay_s <= 2 * SECONDS_PER_HOUR
        cloud.run_until_idle()

    def test_flat_carbon_runs_immediately(self):
        flat = {z: [300.0] * (24 * 7) for z in
                ("US-PJM", "US-CAISO", "US-BPA", "CA-QC", "CA-AB")}
        cloud = SimulatedCloud(seed=61, carbon_overrides=flat,
                               regions=("us-east-1",))
        app = get_app("dna_visualization")
        _deployed, executor, _ = deploy_benchmark(app, cloud)
        shifter = TemporalShifter(executor)
        decision = shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=6 * SECONDS_PER_HOUR),
        )
        assert decision.delay_s == 0.0  # earliest slot wins ties

    def test_improvement_reported(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        shifter.submit(app.make_input("small"),
                       TemporalPolicy(max_delay_s=5 * SECONDS_PER_HOUR))
        assert shifter.mean_intensity_improvement() > 0.8  # 500 -> 50

    def test_joint_with_geo_plan(self):
        """A slot scores by the plan in force: offloading hours win."""
        from repro.model.plan import DeploymentPlan, HourlyPlanSet

        overrides = v_shaped_overrides()
        # Make ca-central-1 flat-low so only geo matters.
        overrides["CA-QC"] = [20.0] * (24 * 7)
        cloud = SimulatedCloud(seed=62, carbon_overrides=overrides)
        app = get_app("dna_visualization")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        spec = deployed.workflow.function("visualize")
        utility.deploy_function(deployed, executor, spec, "ca-central-1",
                                copy_image_from="us-east-1")
        # Plan: home except hour 2, which offloads to the clean region.
        home = DeploymentPlan.single_region(deployed.dag, "us-east-1")
        away = DeploymentPlan.single_region(deployed.dag, "ca-central-1")
        executor.stage_plan_set(HourlyPlanSet({0: home, 2: away, 3: home}))
        shifter = TemporalShifter(executor)
        decision = shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=2.5 * SECONDS_PER_HOUR),
        )
        # Hour 2 (intensity 20 via the plan) beats waiting for hour 3's
        # home trough (50) and beats now (500).
        assert decision.scheduled_at_s == pytest.approx(2 * SECONDS_PER_HOUR)
        assert decision.chosen_intensity == pytest.approx(20.0)

    def test_unreadable_plan_set_prices_slots_at_home(self):
        """A KV error on the plan-set read prices the slot with every
        node at home (the executor's own fallback) instead of raising
        out of ``submit`` — here, out of the event loop that called it."""
        from repro.cloud.faults import FaultPlan
        from repro.model.plan import DeploymentPlan, HourlyPlanSet

        overrides = v_shaped_overrides()
        overrides["CA-QC"] = [20.0] * (24 * 7)
        # Every KV operation fails from t = 60 s on, after the deployment.
        cloud = SimulatedCloud(
            seed=62, carbon_overrides=overrides,
            fault_plan=FaultPlan().with_kv_errors(1.0, start_s=60.0),
        )
        app = get_app("dna_visualization")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        spec = deployed.workflow.function("visualize")
        utility.deploy_function(deployed, executor, spec, "ca-central-1",
                                copy_image_from="us-east-1")
        home = DeploymentPlan.single_region(deployed.dag, "us-east-1")
        away = DeploymentPlan.single_region(deployed.dag, "ca-central-1")
        executor.stage_plan_set(HourlyPlanSet({0: home, 2: away, 3: home}))
        assert cloud.now() < 60.0
        shifter = TemporalShifter(executor)
        decisions = []
        cloud.env.schedule_at(60.0, lambda: decisions.append(shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=2.5 * SECONDS_PER_HOUR),
        )))
        cloud.run_until_idle()
        assert cloud.faults.injected["kv_error"] > 0
        [decision] = decisions
        # Readable, hour 2 would win at 20 (the test above); priced at
        # home every slot is the dirty grid, so the earliest wins.
        assert set(decision.slot_intensities.values()) == {500.0}
        assert decision.scheduled_at_s == decision.submitted_at_s == 60.0


class TestEmbodiedModel:
    def make_record(self, duration=3600.0, memory=1769, n_vcpu=1.0):
        return ExecutionRecord(
            workflow="wf", node="n", function="n", region="us-east-1",
            request_id="r", start_s=0.0, duration_s=duration,
            memory_mb=memory, n_vcpu=n_vcpu, cpu_total_time_s=duration,
            cold_start=False, payload_bytes=0, output_bytes=0,
        )

    def test_embodied_scales_with_resources(self):
        model = EmbodiedCarbonModel()
        one = model.record_embodied_g(self.make_record())
        double_time = model.record_embodied_g(self.make_record(duration=7200))
        assert double_time == pytest.approx(2 * one)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EmbodiedCarbonModel().execution_embodied_g(-1.0, 1769, 1.0)

    def test_total(self):
        model = EmbodiedCarbonModel()
        records = [self.make_record(), self.make_record()]
        assert model.total_embodied_g(records) == pytest.approx(
            2 * model.record_embodied_g(records[0])
        )

    def test_ranking_invariance_same_resources(self):
        # The §7.1 argument: equal embodied per unit of resource cannot
        # reorder plans that consume the same resources.
        operational = [10.0, 2.0, 5.0, 7.0]
        resources = [(3.0, 5.0)] * 4
        assert ranking_invariant_under_embodied(operational, resources)

    def test_ranking_can_change_with_different_resources(self):
        # Sanity: the invariance claim is about equal resource use; with
        # wildly different resource footprints the order can flip, which
        # is exactly why the paper scopes the argument to placement
        # decisions of the same workload.
        operational = [10.0, 9.0]
        resources = [(0.0, 0.0), (1000.0, 1000.0)]
        assert not ranking_invariant_under_embodied(operational, resources)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ranking_invariant_under_embodied([1.0], [])

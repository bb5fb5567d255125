"""Tests for the temporal-shifting extension."""

import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_HOUR
from repro.core.temporal import TemporalPolicy, TemporalShifter
from repro.core.lifecycle import deploy_benchmark


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
        assert decision.scheduled_at_s == decision.submitted_at_s
        cloud.run_until_idle()
        assert cloud.ledger.executions  # it ran

    def test_zero_tolerance_runs_immediately(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        decision = shifter.submit(
            app.make_input("small"), TemporalPolicy(max_delay_s=0)
        )
        assert decision.scheduled_at_s == decision.submitted_at_s

    def test_waits_for_the_trough(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        # Now = hour 0 (intensity 500); trough at hour 3 (50); deadline
        # allows reaching it.
        decision = shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=5 * SECONDS_PER_HOUR),
        )
        assert decision.scheduled_at_s == pytest.approx(3 * SECONDS_PER_HOUR)
        assert decision.slot_intensities[decision.scheduled_at_s] == pytest.approx(50.0)
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
        assert (decision.scheduled_at_s - decision.submitted_at_s) <= 2 * SECONDS_PER_HOUR
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
        assert decision.scheduled_at_s == decision.submitted_at_s  # earliest slot wins ties

    def test_improvement_reported(self, shifter_setup):
        cloud, app, executor, shifter = shifter_setup
        decision = shifter.submit(
            app.make_input("small"),
            TemporalPolicy(max_delay_s=5 * SECONDS_PER_HOUR),
        )
        # The decision records the slot it left and the one it took.
        immediate = decision.slot_intensities[decision.submitted_at_s]
        assert immediate == pytest.approx(500.0)
        assert 1.0 - decision.slot_intensities[decision.scheduled_at_s] / immediate > 0.8  # 500 -> 50

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
        assert decision.slot_intensities[decision.scheduled_at_s] == pytest.approx(20.0)

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


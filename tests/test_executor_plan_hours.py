"""Tests for hourly plan selection and routing edge cases."""

import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_HOUR
from repro.core.lifecycle import deploy_benchmark
from repro.model.plan import DeploymentPlan, HourlyPlanSet


@pytest.fixture
def hourly_setup():
    cloud = SimulatedCloud(seed=70)
    app = get_app("dna_visualization")
    deployed, executor, utility = deploy_benchmark(app, cloud)
    spec = deployed.workflow.function("visualize")
    utility.deploy_function(deployed, executor, spec, "ca-central-1",
                            copy_image_from="us-east-1")
    utility.deploy_function(deployed, executor, spec, "us-west-2",
                            copy_image_from="us-east-1")
    return cloud, app, deployed, executor


class TestHourlyRouting:
    def stage(self, deployed, executor, mapping):
        plans = {
            hour: DeploymentPlan.single_region(deployed.dag, region)
            for hour, region in mapping.items()
        }
        executor.stage_plan_set(HourlyPlanSet(plans))

    def test_hour_of_day_selects_plan(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor,
                   {0: "us-east-1", 8: "ca-central-1", 16: "us-west-2"})

        def run_at(hour):
            cloud.env.clock.advance_to(
                max(cloud.now(), hour * SECONDS_PER_HOUR + 1.0)
            )
            rid = executor.invoke(app.make_input("small"))
            cloud.run_until_idle()
            return cloud.ledger.executions_for(deployed.name, rid)[0].region

        assert run_at(1) == "us-east-1"
        assert run_at(9) == "ca-central-1"
        assert run_at(17) == "us-west-2"
        # Next day wraps back onto the hourly schedule.
        assert run_at(24 + 2) == "us-east-1"

    def test_sparse_hours_inherit(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor, {6: "ca-central-1"})
        cloud.env.clock.advance_to(23 * SECONDS_PER_HOUR)
        rid = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        region = cloud.ledger.executions_for(deployed.name, rid)[0].region
        assert region == "ca-central-1"

    def test_fetch_active_plan_respects_hour(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor, {0: "us-east-1", 12: "us-west-2"})
        cloud.env.clock.advance_to(13 * SECONDS_PER_HOUR)
        plan = executor.fetch_active_plan()
        assert plan.regions_used == ("us-west-2",)

    def test_stale_plan_overwritten_by_new_stage(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor, {0: "ca-central-1"})
        self.stage(deployed, executor, {0: "us-west-2"})  # supersedes
        assert executor.fetch_active_plan().regions_used == ("us-west-2",)

    def test_clear_plan_falls_back_home(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor, {0: "ca-central-1"})
        executor.clear_plan()
        assert executor.fetch_active_plan().regions_used == ("us-east-1",)


class TestDirectInvocation:
    """§6.2's direct-to-home entry path with automatic re-routing."""

    def test_direct_executes_at_home_without_plan(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        executor.clear_plan()
        rid = executor.invoke_direct(app.make_input("small"))
        cloud.run_until_idle()
        execs = cloud.ledger.executions_for(deployed.name, rid)
        assert [e.region for e in execs] == ["us-east-1"]

    def test_direct_rerouted_to_planned_region(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor, {0: "ca-central-1"})
        rid = executor.invoke_direct(app.make_input("small"))
        cloud.run_until_idle()
        execs = cloud.ledger.executions_for(deployed.name, rid)
        assert [e.region for e in execs] == ["ca-central-1"]
        # The re-route hop is visible in the ledger.
        edges = {r.edge for r in cloud.ledger.transmissions_for(deployed.name, rid)}
        assert any(e.startswith("$reroute->") for e in edges)

    def test_direct_slower_than_proxy_when_offloaded(self, hourly_setup):
        cloud, app, deployed, executor = hourly_setup
        self.stage(deployed, executor, {0: "ca-central-1"})
        # Warm the container so the comparison isolates routing.
        warm = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        submit = cloud.now()
        rid_direct = executor.invoke_direct(app.make_input("small"))
        cloud.run_until_idle()
        direct_start = min(
            e.start_s for e in cloud.ledger.executions_for(deployed.name, rid_direct)
        ) - submit
        submit = cloud.now()
        rid_proxy = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        proxy_start = min(
            e.start_s for e in cloud.ledger.executions_for(deployed.name, rid_proxy)
        ) - submit
        # Direct pays the extra home hop before the cross-region forward.
        assert direct_start > proxy_start

    def stage(self, deployed, executor, mapping):
        from repro.model.plan import DeploymentPlan, HourlyPlanSet

        plans = {
            hour: DeploymentPlan.single_region(deployed.dag, region)
            for hour, region in mapping.items()
        }
        executor.stage_plan_set(HourlyPlanSet(plans))

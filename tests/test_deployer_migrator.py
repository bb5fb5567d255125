"""Tests for the Deployment Utility and Migrator (§6.1)."""

import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.errors import ConfigurationError, DeploymentError
from repro.core.deployer import DeploymentUtility
from repro.core.executor import topic_name
from repro.core.migrator import DeploymentMigrator
from repro.core.lifecycle import deploy_benchmark
from repro.model.config import WorkflowConfig
from repro.model.plan import DeploymentPlan, HourlyPlanSet


@pytest.fixture
def deployment():
    cloud = SimulatedCloud(seed=1)
    app = get_app("rag_ingestion")
    deployed, executor, utility = deploy_benchmark(app, cloud)
    return cloud, app, deployed, executor, utility


class TestInitialDeployment:
    def test_functions_deployed_home(self, deployment):
        cloud, app, deployed, _, _ = deployment
        for spec in deployed.workflow.functions:
            assert cloud.functions.is_deployed(
                deployed.name, spec.name, "us-east-1"
            )

    def test_topics_created_and_subscribed(self, deployment):
        cloud, _, deployed, _, _ = deployment
        for spec in deployed.workflow.functions:
            topic = topic_name(deployed.name, spec.name)
            assert cloud.pubsub.topic_exists(topic, "us-east-1")

    def test_iam_roles_created(self, deployment):
        cloud, _, deployed, _, _ = deployment
        for spec in deployed.workflow.functions:
            assert f"{deployed.name}-{spec.name}-us-east-1" in cloud.iam.roles()

    def test_images_pushed_home(self, deployment):
        cloud, _, deployed, _, _ = deployment
        for spec in deployed.workflow.functions:
            assert cloud.registry.exists(
                "us-east-1", f"{deployed.name}/{spec.name}",
                deployed.workflow.version,
            )

    def test_metadata_uploaded(self, deployment):
        _, _, deployed, _, _ = deployment
        meta, _ = deployed.kv().get(deployed.meta_table, "workflow")
        assert meta["name"] == deployed.name
        assert meta["home_region"] == "us-east-1"

    def test_initial_plan_is_home(self, deployment):
        _, _, deployed, executor, _ = deployment
        plan = executor.fetch_active_plan()
        assert plan.regions_used == ("us-east-1",)

    def test_invalid_home_region_rejected(self):
        cloud = SimulatedCloud(seed=1, regions=("us-east-1", "us-west-2"))
        app = get_app("dna_visualization")
        with pytest.raises(ConfigurationError, match="not offered"):
            DeploymentUtility(cloud).deploy(
                app.build_workflow(),
                WorkflowConfig(home_region="ca-central-1"),
            )

    def test_code_constraints_merged_into_config(self):
        cloud = SimulatedCloud(seed=1)
        app = get_app("text2speech_censoring")
        deployed, _, _ = deploy_benchmark(app, cloud)
        # The upload function's decorator allow-list became config.
        assert not deployed.config.permits("upload", "ca-central-1")
        assert deployed.config.permits("text2speech", "ca-central-1")


class TestDeployFunction:
    def test_copy_deploys_new_region(self, deployment):
        cloud, _, deployed, executor, utility = deployment
        spec = deployed.workflow.function("extract_metadata")
        utility.deploy_function(deployed, executor, spec, "us-west-2",
                                copy_image_from="us-east-1")
        assert cloud.functions.is_deployed(deployed.name, spec.name, "us-west-2")
        assert cloud.registry.exists("us-west-2",
                                     f"{deployed.name}/{spec.name}", "1.0")

    def test_deploy_without_image_source_fails(self, deployment):
        _, _, deployed, executor, utility = deployment
        spec = deployed.workflow.function("extract_metadata")
        with pytest.raises(DeploymentError, match="absent"):
            utility.deploy_function(deployed, executor, spec, "us-west-2")

    def test_unknown_region_fails(self, deployment):
        _, _, deployed, executor, utility = deployment
        spec = deployed.workflow.function("extract_metadata")
        with pytest.raises(DeploymentError, match="not offered"):
            utility.deploy_function(deployed, executor, spec, "eu-x-1",
                                    copy_image_from="us-east-1")

    def test_remove_function(self, deployment):
        cloud, _, deployed, executor, utility = deployment
        spec = deployed.workflow.function("extract_metadata")
        utility.deploy_function(deployed, executor, spec, "us-west-2",
                                copy_image_from="us-east-1")
        utility.remove_function(deployed, spec, "us-west-2")
        assert not cloud.functions.is_deployed(deployed.name, spec.name,
                                               "us-west-2")

    def test_home_region_removal_refused(self, deployment):
        _, _, deployed, _, utility = deployment
        spec = deployed.workflow.function("extract_metadata")
        with pytest.raises(DeploymentError, match="fallback"):
            utility.remove_function(deployed, spec, "us-east-1")


class TestMigrator:
    def make_plan_set(self, deployed, region):
        return HourlyPlanSet.daily(
            DeploymentPlan.single_region(deployed.dag, region)
        )

    def test_successful_migration_activates(self, deployment):
        cloud, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        plan_set = self.make_plan_set(deployed, "ca-central-1")
        report = migrator.migrate(plan_set)
        assert report.activated
        assert len(report.deployed) == 2  # both functions created
        assert executor.fetch_active_plan().regions_used == ("ca-central-1",)
        assert migrator.pending is None

    def test_migration_idempotent(self, deployment):
        _, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        plan_set = self.make_plan_set(deployed, "ca-central-1")
        migrator.migrate(plan_set)
        report = migrator.migrate(plan_set)
        assert report.activated
        assert report.deployed == ()  # nothing new to create

    def test_failed_migration_falls_back_home(self, deployment):
        cloud, _, deployed, executor, utility = deployment
        cloud.functions.set_region_available("ca-central-1", False)
        migrator = DeploymentMigrator(utility, deployed, executor)
        report = migrator.migrate(self.make_plan_set(deployed, "ca-central-1"))
        assert not report.activated
        assert report.failed is not None
        # §6.1: traffic defaults back to the home region.
        assert executor.fetch_active_plan().regions_used == ("us-east-1",)
        assert migrator.pending is not None

    def test_retry_pending_succeeds_after_recovery(self, deployment):
        cloud, _, deployed, executor, utility = deployment
        cloud.functions.set_region_available("ca-central-1", False)
        migrator = DeploymentMigrator(utility, deployed, executor)
        migrator.migrate(self.make_plan_set(deployed, "ca-central-1"))
        cloud.functions.set_region_available("ca-central-1", True)
        report = migrator.retry_pending()
        assert report is not None and report.activated
        assert migrator.pending is None

    def test_retry_without_pending_is_noop(self, deployment):
        _, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        assert migrator.retry_pending() is None

    def test_pending_replaced_by_new_plan(self, deployment):
        cloud, _, deployed, executor, utility = deployment
        cloud.functions.set_region_available("ca-central-1", False)
        migrator = DeploymentMigrator(utility, deployed, executor)
        migrator.migrate(self.make_plan_set(deployed, "ca-central-1"))
        assert migrator.pending is not None
        # A newer plan supersedes the parked one ("until it is replaced
        # by a new one"): nothing is left to retry.
        report = migrator.migrate(self.make_plan_set(deployed, "us-west-2"))
        assert report.activated
        assert migrator.pending is None
        assert migrator.retry_pending() is None
        assert executor.fetch_active_plan().regions_used == ("us-west-2",)

    def test_required_deployments_across_hours(self, deployment):
        _, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        plan_set = HourlyPlanSet({
            0: DeploymentPlan.single_region(deployed.dag, "us-east-1"),
            12: DeploymentPlan.single_region(deployed.dag, "us-west-2"),
        })
        needed = migrator.required_deployments(plan_set)
        regions = {r for _f, r in needed}
        assert regions == {"us-east-1", "us-west-2"}

    def test_partial_failure_rolls_back_created_deployments(self, deployment):
        """Regression: a failure on the Nth function used to leak the
        N-1 deployments already created in the target region."""
        cloud, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        calls = []
        original = utility.deploy_function

        def flaky(d, ex, spec, region, **kwargs):
            calls.append((spec.name, region))
            if len(calls) == 2:
                raise DeploymentError("region ran out of capacity")
            return original(d, ex, spec, region, **kwargs)

        utility.deploy_function = flaky
        report = migrator.migrate(self.make_plan_set(deployed, "ca-central-1"))
        assert not report.activated
        assert len(report.deployed) == 1
        assert report.rolled_back == report.deployed[::-1]
        # Nothing is left behind in the region the plan never activated in.
        for spec in deployed.workflow.functions:
            assert not cloud.functions.is_deployed(
                deployed.name, spec.name, "ca-central-1"
            )
        assert migrator.pending is not None

    def test_failure_preserves_unrelated_active_plan(self, deployment):
        """Regression: a failed migration used to clear the active plan
        unconditionally, discarding a still-valid, fully materialised
        plan set that had nothing to do with the failure."""
        cloud, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        good = self.make_plan_set(deployed, "us-west-2")
        assert migrator.migrate(good).activated
        cloud.functions.set_region_available("ca-central-1", False)
        report = migrator.migrate(self.make_plan_set(deployed, "ca-central-1"))
        assert not report.activated
        # The us-west-2 plan is untouched: it was not the failing one.
        assert executor.fetch_active_plan().regions_used == ("us-west-2",)

    def test_failure_of_active_plan_defaults_home(self, deployment):
        """When the *failing* plan set is the active one (a retry of a
        rollout whose region died mid-flight), §6.1 applies: default
        back to the home region."""
        cloud, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)
        plan_set = self.make_plan_set(deployed, "ca-central-1")
        assert migrator.migrate(plan_set).activated
        # The region dies and loses its deployments; re-migrating the
        # same (now active) plan set fails.
        cloud.functions.set_region_available("ca-central-1", False)
        for spec in deployed.workflow.functions:
            cloud.functions.remove(deployed.name, spec.name, "ca-central-1")
        report = migrator.migrate(plan_set)
        assert not report.activated
        assert executor.fetch_active_plan().regions_used == ("us-east-1",)

    def test_activation_failure_keeps_deployments_and_parks_plan(
        self, deployment, monkeypatch
    ):
        """KV store dies between deployment and activation: the created
        functions are what the parked plan needs, so they survive."""
        cloud, _, deployed, executor, utility = deployment
        migrator = DeploymentMigrator(utility, deployed, executor)

        def unreachable(plan_set):
            raise DeploymentError("metadata store unreachable")

        monkeypatch.setattr(executor, "stage_plan_set", unreachable)
        report = migrator.migrate(self.make_plan_set(deployed, "ca-central-1"))
        assert not report.activated
        assert report.failed is None
        assert len(report.deployed) == 2
        for spec in deployed.workflow.functions:
            assert cloud.functions.is_deployed(
                deployed.name, spec.name, "ca-central-1"
            )
        assert migrator.pending is not None
        monkeypatch.undo()
        retry = migrator.retry_pending()
        assert retry is not None and retry.activated
        assert retry.deployed == ()  # everything was already in place

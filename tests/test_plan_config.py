"""Tests for deployment plans and the workflow manifest."""

import pytest

from repro.common.errors import ConfigurationError
from repro.model.config import FunctionConstraints, Tolerances, WorkflowConfig
from repro.model.plan import DeploymentPlan, HourlyPlanSet


class TestDeploymentPlan:
    def test_region_lookup(self, chain_dag):
        plan = DeploymentPlan({"a": "us-east-1", "b": "ca-central-1", "c": "us-east-1"})
        assert plan.region_of("b") == "ca-central-1"
        with pytest.raises(KeyError):
            plan.region_of("ghost")

    def test_single_region_factory(self, chain_dag):
        plan = DeploymentPlan.single_region(chain_dag, "us-west-2")
        assert plan.is_single_region()
        assert plan.regions_used == ("us-west-2",)
        assert plan.covers(chain_dag)

    def test_covers_detects_missing(self, chain_dag):
        assert not DeploymentPlan({"a": "us-east-1"}).covers(chain_dag)

    def test_expiry(self):
        plan = DeploymentPlan({"a": "us-east-1"}, expires_at_s=100.0)
        assert not plan.is_expired(99.0)
        assert plan.is_expired(100.0)
        assert not DeploymentPlan({"a": "us-east-1"}).is_expired(1e12)

    def test_equality_and_hash_by_assignments(self):
        p1 = DeploymentPlan({"a": "x1"}, version=1)
        p2 = DeploymentPlan({"a": "x1"}, version=2)
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert p1 != DeploymentPlan({"a": "x2"})

    def test_serialization_roundtrip(self):
        plan = DeploymentPlan(
            {"a": "us-east-1"}, version=3, created_at_s=5.0, expires_at_s=10.0
        )
        restored = DeploymentPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.version == 3
        assert restored.expires_at_s == 10.0


class TestHourlyPlanSet:
    def test_daily_plan_applies_all_hours(self):
        plan = DeploymentPlan({"a": "us-east-1"})
        plan_set = HourlyPlanSet.daily(plan)
        assert all(plan_set.plan_for_hour(h) == plan for h in range(24))
        assert plan_set.granularity == 1

    def test_sparse_hours_inherit_earlier(self):
        p0 = DeploymentPlan({"a": "us-east-1"})
        p12 = DeploymentPlan({"a": "ca-central-1"})
        plan_set = HourlyPlanSet({0: p0, 12: p12})
        assert plan_set.plan_for_hour(5) == p0
        assert plan_set.plan_for_hour(12) == p12
        assert plan_set.plan_for_hour(23) == p12

    def test_wraparound_inheritance(self):
        p6 = DeploymentPlan({"a": "us-west-1"})
        plan_set = HourlyPlanSet({6: p6})
        assert plan_set.plan_for_hour(2) == p6  # wraps to hour 6 of "yesterday"

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            HourlyPlanSet({})

    def test_invalid_hour_rejected(self):
        with pytest.raises(ConfigurationError):
            HourlyPlanSet({24: DeploymentPlan({"a": "us-east-1"})})
        plan_set = HourlyPlanSet.daily(DeploymentPlan({"a": "us-east-1"}))
        with pytest.raises(ValueError):
            plan_set.plan_for_hour(24)

    def test_distinct_plans_and_regions(self):
        p0 = DeploymentPlan({"a": "us-east-1"})
        p1 = DeploymentPlan({"a": "ca-central-1"})
        plan_set = HourlyPlanSet({0: p0, 6: p1, 12: p0})
        assert plan_set.distinct_plans() == (p0, p1)
        assert plan_set.all_regions_used() == ("ca-central-1", "us-east-1")

    def test_serialization_roundtrip(self):
        plan_set = HourlyPlanSet(
            {0: DeploymentPlan({"a": "us-east-1"}),
             12: DeploymentPlan({"a": "us-west-2"})},
            created_at_s=1.0, expires_at_s=2.0,
        )
        restored = HourlyPlanSet.from_dict(plan_set.to_dict())
        assert restored.hours == (0, 12)
        assert restored.plan_for_hour(13) == plan_set.plan_for_hour(13)
        assert restored.expires_at_s == 2.0


class TestFunctionConstraints:
    def test_allow_list(self):
        fc = FunctionConstraints(allowed_regions=frozenset({"us-east-1"}))
        assert fc.permits("us-east-1")
        assert not fc.permits("ca-central-1")

    def test_deny_list(self):
        fc = FunctionConstraints(disallowed_regions=frozenset({"ca-central-1"}))
        assert fc.permits("us-east-1")
        assert not fc.permits("ca-central-1")

    def test_deny_beats_allow(self):
        fc = FunctionConstraints(
            allowed_regions=frozenset({"us-east-1", "us-west-1"}),
            disallowed_regions=frozenset({"us-west-1"}),
        )
        assert not fc.permits("us-west-1")

    def test_contradictory_constraints_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionConstraints(
                allowed_regions=frozenset({"us-east-1"}),
                disallowed_regions=frozenset({"us-east-1"}),
            )

    def test_unknown_region_rejected(self):
        with pytest.raises(KeyError):
            FunctionConstraints(allowed_regions=frozenset({"nowhere"}))


class TestWorkflowConfig:
    def test_defaults_allow_everything(self):
        cfg = WorkflowConfig(home_region="us-east-1")
        assert cfg.permits(None, "ca-central-1")
        assert cfg.permits("any_fn", "us-west-2")

    def test_priority_validation(self):
        with pytest.raises(ConfigurationError):
            WorkflowConfig(home_region="us-east-1", priority="speed")

    def test_workflow_allow_list(self):
        cfg = WorkflowConfig(
            home_region="us-east-1",
            allowed_regions=frozenset({"us-east-1", "us-west-2"}),
        )
        assert cfg.permits(None, "us-west-2")
        assert not cfg.permits(None, "ca-central-1")

    def test_function_constraints_supersede_workflow(self):
        # §8: function-level configurations supersede workflow-level.
        cfg = WorkflowConfig(
            home_region="us-east-1",
            allowed_regions=frozenset({"us-east-1"}),
            function_constraints={
                "free_fn": FunctionConstraints(
                    allowed_regions=frozenset({"ca-central-1", "us-east-1"})
                )
            },
        )
        assert cfg.permits("free_fn", "ca-central-1")  # function override wins
        assert not cfg.permits("other_fn", "ca-central-1")

    def test_home_region_must_be_permitted(self):
        with pytest.raises(ConfigurationError, match="home region"):
            WorkflowConfig(
                home_region="us-east-1",
                allowed_regions=frozenset({"ca-central-1"}),
            )

    def test_tolerances_validation(self):
        with pytest.raises(ConfigurationError):
            Tolerances(latency=-0.1)
        t = Tolerances(latency=0.05, carbon=None, cost=1.0)
        assert t.latency == 0.05

    def test_benchmarking_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkflowConfig(home_region="us-east-1", benchmarking_fraction=1.5)

    def test_permitted_regions_filter(self):
        cfg = WorkflowConfig(
            home_region="us-east-1",
            disallowed_regions=frozenset({"us-west-1"}),
        )
        regions = ("us-east-1", "us-west-1", "ca-central-1")
        assert cfg.permitted_regions_for_function(None, regions) == (
            "us-east-1", "ca-central-1",
        )

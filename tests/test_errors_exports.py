"""Tests for the error hierarchy and public package surface."""

import pytest

import repro
from repro.common.errors import (
    CaribouError,
    ConditionalCheckFailed,
    ConfigurationError,
    DeploymentError,
    KeyValueStoreError,
    MalformedInputError,
    MessageDeliveryError,
    RegionUnavailableError,
    SolverError,
    ToleranceViolatedError,
    WorkflowDefinitionError,
)


class TestErrorHierarchy:
    def test_everything_is_a_caribou_error(self):
        for exc in (
            WorkflowDefinitionError, ConfigurationError, DeploymentError,
            RegionUnavailableError, SolverError, ToleranceViolatedError,
            KeyValueStoreError, ConditionalCheckFailed, MessageDeliveryError,
            MalformedInputError,
        ):
            assert issubclass(exc, CaribouError)

    def test_specialisations(self):
        assert issubclass(RegionUnavailableError, DeploymentError)
        assert issubclass(ToleranceViolatedError, SolverError)
        assert issubclass(ConditionalCheckFailed, KeyValueStoreError)
        # Callers that caught the loaders' bare ValueError keep working.
        assert issubclass(MalformedInputError, ValueError)

    def test_catchable_as_base(self):
        with pytest.raises(CaribouError):
            raise RegionUnavailableError("region down")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in ("Workflow", "Payload", "SimulatedCloud",
                     "DeploymentPlan", "HourlyPlanSet", "WorkflowConfig"):
            assert hasattr(repro, name), name

    def test_subpackage_imports(self):
        import repro.apps
        import repro.cloud
        import repro.core
        import repro.core.solver
        import repro.data
        import repro.experiments
        import repro.metrics
        import repro.model

    def test_cli_module_has_entry_point(self):
        from repro.cli import main

        assert callable(main)

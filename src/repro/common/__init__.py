"""Shared infrastructure used by every other subpackage.

The simulation is fully deterministic: all time comes from
:class:`repro.common.clock.VirtualClock` and all randomness from seeded
streams handed out by :class:`repro.common.rng.RngRegistry`.
"""

from repro.common.clock import VirtualClock, SECONDS_PER_HOUR, SECONDS_PER_DAY
from repro.common.errors import (
    CaribouError,
    ConfigurationError,
    DeploymentError,
    RegionUnavailableError,
    SolverError,
    ToleranceViolatedError,
    WorkflowDefinitionError,
)
from repro.common.rng import RngRegistry
from repro.common.units import GB, KB, MB, kb, mb

__all__ = [
    "VirtualClock",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "RngRegistry",
    "CaribouError",
    "ConfigurationError",
    "DeploymentError",
    "RegionUnavailableError",
    "SolverError",
    "ToleranceViolatedError",
    "WorkflowDefinitionError",
    "KB",
    "MB",
    "GB",
    "kb",
    "mb",
]

"""Deployment manifest (paper §8: ``config.yml`` + ``iam_policy.json``).

Developers declare: the *home region* (initial deployment, fallback, and
baseline), tolerances on end-to-end latency / carbon / cost per
invocation (enforced at DP generation), the optimisation priority among
carbon, cost, and latency (§5.1), and region allow/deny lists for
regulatory compliance.  Function-level constraints supersede
workflow-level ones (§8); when nothing is explicitly allowed, all
regions are eligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.data.regions import get_region

#: Valid optimisation priorities (§5.1: "the developer indicates their
#: preferred optimization priority between carbon, cost, or latency").
PRIORITIES = ("carbon", "cost", "latency")


@dataclass(frozen=True)
class FunctionConstraints:
    """Per-function region constraints (Listing 1's
    ``regions_and_providers``)."""

    allowed_regions: Optional[FrozenSet[str]] = None
    disallowed_regions: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.allowed_regions is not None:
            object.__setattr__(self, "allowed_regions", frozenset(self.allowed_regions))
            for name in self.allowed_regions:
                get_region(name)
        object.__setattr__(self, "disallowed_regions", frozenset(self.disallowed_regions))
        for name in self.disallowed_regions:
            get_region(name)
        if self.allowed_regions is not None and not (
            set(self.allowed_regions) - set(self.disallowed_regions)
        ):
            raise ConfigurationError(
                "function constraints allow no region at all"
            )

    def permits(self, region: str) -> bool:
        if region in self.disallowed_regions:
            return False
        if self.allowed_regions is not None:
            return region in self.allowed_regions
        return True


@dataclass(frozen=True)
class Tolerances:
    """QoS tolerances enforced at DP generation (§8).

    Each field is a *relative* allowance over the home-region baseline:
    ``latency=0.05`` permits plans whose 95th-percentile end-to-end
    latency is up to 5 % above the home-region tail latency (§9.4's
    "runtime tolerance").  ``None`` disables the check.
    """

    latency: Optional[float] = None
    carbon: Optional[float] = None
    cost: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("latency", "carbon", "cost"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(
                    f"tolerance {name} must be non-negative, got {value}"
                )


@dataclass(frozen=True)
class WorkflowConfig:
    """Workflow-level deployment manifest.

    Attributes:
        home_region: Initial deployment region; the fallback whenever a
            plan expires or a migration fails (§5.2, §6.1).
        priority: Which metric the solver ranks final plans by.
        tolerances: Relative QoS allowances over the home baseline.
        allowed_regions / disallowed_regions: Workflow-level compliance
            lists; an empty allow list means "all regions" (§8).
        function_constraints: Per-function overrides (supersede the
            workflow-level lists).
        benchmarking_fraction: Fraction of invocations always executed
            fully at the home region for metric collection (§6.2: 10 %).
        request_timeout_s: End-to-end watchdog deadline per request, in
            virtual seconds; a request still pending when it expires is
            marked *timed out* instead of staying silently incomplete.
            ``None`` disables the watchdog.
        iam_policy: Opaque policy document attached to every role.
    """

    home_region: str
    priority: str = "carbon"
    tolerances: Tolerances = field(default_factory=Tolerances)
    allowed_regions: Optional[FrozenSet[str]] = None
    disallowed_regions: FrozenSet[str] = frozenset()
    function_constraints: Mapping[str, FunctionConstraints] = field(
        default_factory=dict
    )
    benchmarking_fraction: float = 0.10
    request_timeout_s: Optional[float] = 3600.0
    iam_policy: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_region(self.home_region)
        if self.priority not in PRIORITIES:
            raise ConfigurationError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )
        if self.allowed_regions is not None:
            object.__setattr__(self, "allowed_regions", frozenset(self.allowed_regions))
            for name in self.allowed_regions:
                get_region(name)
        object.__setattr__(self, "disallowed_regions", frozenset(self.disallowed_regions))
        for name in self.disallowed_regions:
            get_region(name)
        object.__setattr__(self, "function_constraints", dict(self.function_constraints))
        if not 0.0 <= self.benchmarking_fraction <= 1.0:
            raise ConfigurationError(
                f"benchmarking_fraction must be in [0, 1], got "
                f"{self.benchmarking_fraction}"
            )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ConfigurationError(
                f"request_timeout_s must be positive or None, got "
                f"{self.request_timeout_s}"
            )
        if not self.permitted_regions_for_function(
            None, candidates=[self.home_region]
        ):
            raise ConfigurationError(
                f"home region {self.home_region!r} is excluded by the "
                "workflow-level compliance constraints"
            )

    def workflow_permits(self, region: str) -> bool:
        """Workflow-level compliance check for ``region``."""
        if region in self.disallowed_regions:
            return False
        if self.allowed_regions is not None:
            return region in self.allowed_regions
        return True

    def permits(self, function: Optional[str], region: str) -> bool:
        """Full compliance check: function-level supersedes workflow-level.

        A function with explicit constraints is judged by those alone
        (§8: "function-level configurations supersede workflow-level
        ones"); functions without constraints inherit the workflow lists.
        """
        if function is not None and function in self.function_constraints:
            return self.function_constraints[function].permits(region)
        return self.workflow_permits(region)

    def permitted_regions_for_function(
        self, function: Optional[str], candidates: Iterable[str]
    ) -> Tuple[str, ...]:
        """Filter ``candidates`` down to regions ``function`` may run in."""
        return tuple(r for r in candidates if self.permits(function, r))

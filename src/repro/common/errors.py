"""Exception hierarchy for the framework.

Every error raised by the reproduction derives from :class:`CaribouError`
so that callers can catch framework failures without swallowing Python
built-ins.
"""

from __future__ import annotations


class CaribouError(Exception):
    """Base class for all framework errors.

    ``retryable`` classifies the failure for the at-least-once delivery
    glue (§6.2): transient faults (the default) are worth redelivering
    with backoff, while deterministic errors — a malformed workflow will
    fail identically on every attempt — are dead-lettered immediately
    instead of re-running user handlers.
    """

    retryable = True


class WorkflowDefinitionError(CaribouError):
    """The developer-declared workflow is malformed.

    Raised when static analysis finds a cycle, multiple start nodes, an
    edge to an unregistered function, or a sync node misuse.
    """

    retryable = False


class ConfigurationError(CaribouError):
    """The deployment manifest (config/IAM policy) is invalid."""

    retryable = False


class MalformedInputError(CaribouError, ValueError):
    """A file handed to the tooling is not the artifact it should be
    (e.g. ``caribou dash`` given something that is not a series dump)."""

    retryable = False


class DeploymentError(CaribouError):
    """A deployment or migration step failed."""


class RegionUnavailableError(DeploymentError):
    """The target region refused the deployment (capacity, outage)."""


class SolverError(CaribouError):
    """The deployment solver could not produce any feasible plan."""


class ToleranceViolatedError(SolverError):
    """Every candidate plan violated the developer's QoS tolerances."""


class KeyValueStoreError(CaribouError):
    """A distributed key-value store operation failed."""


class ConditionalCheckFailed(KeyValueStoreError):
    """A compare-and-set update found an unexpected current value."""


class MessageDeliveryError(CaribouError):
    """Pub/sub delivery exhausted its retries."""


class FaultInjectedError(CaribouError):
    """Base class for failures fired by the fault-injection layer."""


class FunctionInvocationError(FaultInjectedError):
    """An injected invocation failure: the function crashed before its
    effects occurred (retryable via pub/sub redelivery)."""


class FunctionTimeoutError(FaultInjectedError):
    """An injected invocation timeout: the function hit its execution
    deadline (retryable via pub/sub redelivery)."""


class NetworkPartitionError(FaultInjectedError):
    """A transfer was refused because its endpoints are partitioned."""

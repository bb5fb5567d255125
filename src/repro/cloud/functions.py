"""Serverless function runtime (AWS Lambda substitute).

The pieces of Lambda behaviour the paper's models depend on are all
reproduced:

* vCPU allocation follows memory size: ``n_vcpu = memory_mb / 1769``
  (§7.1, citing AWS's documented scaling);
* execution time in a region is a *distribution*, not a constant (§7.1):
  durations are sampled from the function's work profile with lognormal
  noise and a per-region speed factor standing in for hardware/co-tenant
  variation (§2.3 Latency);
* cold starts: the first invocation on an idle (function, region) pair
  pays a provisioning delay; containers stay warm for a keep-alive
  window;
* Lambda-Insights-style telemetry (``cpu_total_time``) is emitted for
  every execution so the carbon model can compute utilisation (Eq. 7.3).

Handlers run *real Python code* instantly in wall-clock terms; virtual
time is charged from the sampled duration.  A handler receives a
:class:`FaasContext` whose ``end_s`` tells it when, in virtual time, its
effects (successor invocations) take place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.cloud.ledger import MeteringLedger
from repro.cloud.simulator import SimulationEnvironment
from repro.common.errors import (
    DeploymentError,
    FunctionInvocationError,
    FunctionTimeoutError,
    RegionUnavailableError,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.cloud.faults import FaultInjector
    from repro.obs.trace import Tracer

#: Memory (MB) per vCPU on AWS Lambda (§7.1).
MEMORY_MB_PER_VCPU = 1769.0
#: How long an idle container stays warm, seconds.
CONTAINER_KEEPALIVE_S = 600.0
#: Cold-start provisioning delay: lognormal around ~0.45 s for container
#: images, the regime the paper deploys in (Docker images, §6.1).
COLD_START_MEDIAN_S = 0.45
COLD_START_SIGMA = 0.35


@dataclass(frozen=True)
class WorkProfile:
    """How a function's resource demand scales with its input.

    Attributes:
        base_seconds: Execution time at zero-size input.
        seconds_per_mb: Additional execution time per MiB of input.
        cpu_utilization: Average utilisation of the allotted vCPUs during
            execution, in (0, 1]; feeds the linear power model (Eq. 7.3).
        output_bytes_per_input_byte: Output payload size as a fraction of
            input size (apps can also override output size explicitly).
        output_base_bytes: Fixed component of the output size.
        noise_cv: Coefficient of variation of the lognormal duration
            noise.
    """

    base_seconds: float
    seconds_per_mb: float = 0.0
    cpu_utilization: float = 0.7
    output_bytes_per_input_byte: float = 1.0
    output_base_bytes: float = 1024.0
    noise_cv: float = 0.12

    def __post_init__(self) -> None:
        if self.base_seconds < 0 or self.seconds_per_mb < 0:
            raise ValueError("work profile durations must be non-negative")
        if not 0.0 < self.cpu_utilization <= 1.0:
            raise ValueError(
                f"cpu_utilization must be in (0, 1], got {self.cpu_utilization}"
            )

    def mean_duration(self, input_bytes: float) -> float:
        """Expected duration for an input of ``input_bytes``."""
        return self.base_seconds + self.seconds_per_mb * (input_bytes / (1024.0 * 1024.0))


@dataclass(frozen=True)
class FunctionDeployment:
    """One function deployed to one region."""

    workflow: str
    function: str
    region: str
    handler: Callable[[Any, "FaasContext"], Any]
    memory_mb: int
    profile: WorkProfile
    image_reference: str = ""
    role_name: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.workflow}.{self.function}"

    @property
    def n_vcpu(self) -> float:
        return self.memory_mb / MEMORY_MB_PER_VCPU


@dataclass
class FaasContext:
    """Execution context passed to handlers.

    ``start_s``/``duration_s`` are fixed before the handler runs; the
    handler should schedule any outward effects at ``end_s``.
    """

    env: SimulationEnvironment
    region: str
    workflow: str
    function: str
    node: str
    request_id: str
    start_s: float
    duration_s: float
    memory_mb: int
    cold_start: bool
    payload_bytes: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@functools.cache
def _region_speed_factor(region: str) -> float:
    """Deterministic per-region execution-speed multiplier.

    Derived from the region name so every experiment sees the same
    hardware spread (±4 %) without configuration.  Pure in the name and
    asked once per invocation, so computed once per region.
    """
    h = 0
    for ch in region:
        h = (h * 131 + ord(ch)) % 1_000_003
    return 1.0 + ((h % 81) - 40) / 1000.0  # in [0.96, 1.04]


class FunctionService:
    """Deploys and invokes functions across every region."""

    def __init__(
        self,
        env: SimulationEnvironment,
        ledger: MeteringLedger,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._env = env
        self._ledger = ledger
        self._faults = faults
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._deployments: Dict[Tuple[str, str], FunctionDeployment] = {}
        # (qualified_name, region) -> time the warm container was last used
        self._warm_until: Dict[Tuple[str, str], float] = {}
        self._rng = env.rng.get("faas")
        self._region_down: Dict[str, bool] = {}

    # -- deployment management ----------------------------------------------
    def deploy(self, deployment: FunctionDeployment) -> None:
        """Create (or replace) a function in its region.

        Raises :class:`~repro.common.errors.RegionUnavailableError` when
        the region is down — via the :meth:`set_region_available` hook or
        an injected ``region_outage`` — the failure path the Deployment
        Migrator must roll back from (§6.1).
        """
        if self._region_unavailable(deployment.region):
            raise RegionUnavailableError(
                f"region {deployment.region} is unavailable for new deployments"
            )
        key = (deployment.qualified_name, deployment.region)
        self._deployments[key] = deployment

    def remove(self, workflow: str, function: str, region: str) -> None:
        self._deployments.pop((f"{workflow}.{function}", region), None)
        self._warm_until.pop((f"{workflow}.{function}", region), None)

    def is_deployed(self, workflow: str, function: str, region: str) -> bool:
        return (f"{workflow}.{function}", region) in self._deployments

    def deployment(
        self, workflow: str, function: str, region: str
    ) -> FunctionDeployment:
        try:
            return self._deployments[(f"{workflow}.{function}", region)]
        except KeyError:
            raise DeploymentError(
                f"{workflow}.{function} is not deployed in {region}"
            ) from None

    def deployments_of(self, workflow: str) -> Tuple[FunctionDeployment, ...]:
        return tuple(
            d for d in self._deployments.values() if d.workflow == workflow
        )

    def set_region_available(self, region: str, available: bool) -> None:
        """Manual fault hook: mark a region as refusing new deployments.

        Time-windowed outages (which also refuse *invocations*) are
        declared through a :class:`~repro.cloud.faults.FaultPlan`.
        """
        self._region_down[region] = not available

    def _region_unavailable(self, region: str) -> bool:
        if self._region_down.get(region, False):
            return True
        if self._faults is not None and self._faults.region_down(region):
            self._faults.record("region_outage")
            return True
        return False

    # -- invocation -----------------------------------------------------------
    def invoke(
        self,
        workflow: str,
        function: str,
        region: str,
        body: Any,
        payload_bytes: float,
        node: str = "",
        request_id: str = "",
        handler_override: Optional[Callable[[Any, "FaasContext"], Any]] = None,
    ) -> FaasContext:
        """Invoke a deployed function now.

        Samples the cold start and execution duration, runs the handler
        (real code, zero wall time), and appends the execution record.
        Returns the context so callers can learn the virtual completion
        time.

        ``handler_override`` lets an orchestration layer wrap the
        deployed handler with per-invocation context (Caribou's function
        wrapper, §6.2) without redeploying.
        """
        deployment = self.deployment(workflow, function, region)
        if self._faults is not None:
            if self._faults.region_down(region):
                self._faults.record("region_outage")
                raise RegionUnavailableError(
                    f"region {region} is down; cannot invoke {workflow}.{function}"
                )
            fault = self._faults.invocation_fault(workflow, function, region)
            if fault is not None:
                self._metrics.counter("faas.fault_aborts", kind=fault).inc()
            if fault == "failure":
                raise FunctionInvocationError(
                    f"injected invocation failure for {workflow}.{function} "
                    f"in {region}"
                )
            if fault == "timeout":
                raise FunctionTimeoutError(
                    f"injected invocation timeout for {workflow}.{function} "
                    f"in {region}"
                )
        now = self._env.now()
        key = (deployment.qualified_name, region)

        warm_until = self._warm_until.get(key, -math.inf)
        cold = now > warm_until
        cold_delay = self._sample_cold_start() if cold else 0.0
        if cold and self._faults is not None:
            cold_delay *= self._faults.cold_start_multiplier(
                workflow, function, region
            )

        duration = self._sample_duration(deployment.profile, payload_bytes, region)
        start = now + cold_delay
        self._warm_until[key] = start + duration + CONTAINER_KEEPALIVE_S

        if self._tracer.enabled:
            self._tracer.record(
                "invocation",
                f"{workflow}.{function}",
                t0=start,
                t1=start + duration,
                workflow=workflow,
                request_id=request_id,
                node=node or function,
                region=region,
                cold_start=cold,
                memory_mb=deployment.memory_mb,
                payload_bytes=payload_bytes,
            )
        ctx = FaasContext(
            env=self._env,
            region=region,
            workflow=workflow,
            function=function,
            node=node or function,
            request_id=request_id,
            start_s=start,
            duration_s=duration,
            memory_mb=deployment.memory_mb,
            cold_start=cold,
            payload_bytes=payload_bytes,
        )
        handler = handler_override if handler_override is not None else deployment.handler
        output = handler(body, ctx)
        output_bytes = self._output_size(deployment.profile, payload_bytes, output)

        self._ledger.record_execution(
            workflow=workflow,
            node=ctx.node,
            function=function,
            region=region,
            request_id=request_id,
            start_s=start,
            duration_s=duration,
            memory_mb=deployment.memory_mb,
            n_vcpu=deployment.n_vcpu,
            cpu_total_time_s=duration
            * deployment.n_vcpu
            * deployment.profile.cpu_utilization,
            cold_start=cold,
            payload_bytes=payload_bytes,
            output_bytes=output_bytes,
        )
        return ctx

    # -- sampling helpers -------------------------------------------------------
    def _sample_cold_start(self) -> float:
        return float(
            COLD_START_MEDIAN_S * self._rng.lognormal(0.0, COLD_START_SIGMA)
        )

    def _sample_duration(
        self, profile: WorkProfile, payload_bytes: float, region: str
    ) -> float:
        mean = profile.mean_duration(payload_bytes) * _region_speed_factor(region)
        if profile.noise_cv <= 0:
            return mean
        sigma = math.sqrt(math.log(1.0 + profile.noise_cv**2))
        noise = self._rng.lognormal(-sigma**2 / 2.0, sigma)
        return max(1e-4, mean * float(noise))

    @staticmethod
    def _output_size(profile: WorkProfile, payload_bytes: float, output: Any) -> float:
        """Output size: explicit (handler returned a sized object) or modelled."""
        size = getattr(output, "size_bytes", None)
        if size is not None:
            return float(size)
        return profile.output_base_bytes + profile.output_bytes_per_input_byte * payload_bytes

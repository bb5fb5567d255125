"""Inter-region network model.

Every byte that crosses a region boundary matters three ways in the
paper: transmission *latency* (QoS), egress *cost* (§7.1), and
transmission *carbon* (Eq. 7.5).  This module models latency and records
transfers in the ledger; carbon and cost are derived later by the metrics
layer so that a single simulated run can be re-priced under the paper's
best-/worst-case transmission-energy scenarios without re-running.

Transfer latency = one-way propagation (CloudPing-derived RTT / 2)
+ size / effective bandwidth + multiplicative jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cloud.ledger import MeteringLedger
from repro.cloud.simulator import SimulationEnvironment
from repro.common.errors import NetworkPartitionError
from repro.data.latency import LatencySource
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.cloud.faults import FaultInjector
    from repro.obs.trace import Tracer

#: Effective cross-region throughput for serverless payloads, bytes/sec.
#: (Conservative relative to backbone capacity: per-connection TCP over
#: long fat pipes, as SNS/Lambda payload hops see in practice.)
INTER_REGION_BANDWIDTH = 40e6
#: Intra-region service-to-service throughput, bytes/sec.
INTRA_REGION_BANDWIDTH = 200e6
#: Relative standard deviation of a transfer's multiplicative jitter.
JITTER_STD = 0.08


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one transfer: when it lands and what it consumed."""

    latency_s: float
    size_bytes: float
    src_region: str
    dst_region: str


class Network:
    """Latency/jitter model for transfers, with ledger recording."""

    def __init__(
        self,
        env: SimulationEnvironment,
        latency_source: LatencySource,
        ledger: MeteringLedger,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._env = env
        self._latency = latency_source
        self._ledger = ledger
        self._faults = faults
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._rng = env.rng.get("network")

    def transfer_latency(
        self, src: str, dst: str, size_bytes: float, jitter: bool = True
    ) -> float:
        """Latency in seconds to move ``size_bytes`` from ``src`` to ``dst``."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        propagation = self._latency.one_way(src, dst)
        bandwidth = INTRA_REGION_BANDWIDTH if src == dst else INTER_REGION_BANDWIDTH
        serialisation = size_bytes / bandwidth
        base = propagation + serialisation
        if jitter:
            base *= max(0.2, 1.0 + self._rng.normal(0.0, JITTER_STD))
        return base

    def transfer(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        workflow: str = "",
        request_id: str = "",
        kind: str = "data",
        edge: str = "",
    ) -> TransferResult:
        """Perform a transfer now, recording it in the ledger.

        The caller is responsible for scheduling whatever happens at
        arrival time (``env.now() + latency_s``).  Raises
        :class:`~repro.common.errors.NetworkPartitionError` while an
        injected partition separates the two endpoints.
        """
        if self._faults is not None and self._faults.partitioned(src, dst):
            self._faults.record("network_partition")
            self._metrics.counter("network.partition_refusals").inc()
            raise NetworkPartitionError(
                f"transfer {src} -> {dst} refused: regions are partitioned"
            )
        latency = self.transfer_latency(src, dst, size_bytes)
        now = self._env.now()
        if self._tracer.enabled:
            self._tracer.record(
                "transfer",
                edge or f"{src}->{dst}",
                t0=now,
                t1=now + latency,
                workflow=workflow,
                request_id=request_id,
                src=src,
                dst=dst,
                size_bytes=size_bytes,
                transfer_kind=kind,
            )
        self._ledger.record_transmission(
            workflow=workflow,
            src_region=src,
            dst_region=dst,
            size_bytes=size_bytes,
            start_s=self._env.now(),
            latency_s=latency,
            request_id=request_id,
            kind=kind,
            edge=edge,
        )
        return TransferResult(
            latency_s=latency, size_bytes=size_bytes, src_region=src, dst_region=dst
        )

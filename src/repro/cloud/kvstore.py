"""Distributed key-value store (DynamoDB substitute).

Caribou's components "interact asynchronously through a distributed
key-value store" (§3): deployment plans, workflow metadata, sync-node
edge annotations, and intermediate data all live here.  The critical
semantic the workflow model needs is the *atomic* update of a sync
node's edge annotation (§4): the predecessor that completes the
invocation condition last is the one that invokes the sync node, which
requires read-modify-write atomicity.

The store is hosted in a home region; accesses from other regions pay
the inter-region round trip.  Every access is metered as a read or write
request unit for the cost model (§7.1 "additional DynamoDB accesses
introduced by Caribou").
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.cloud.ledger import MeteringLedger
from repro.cloud.simulator import SimulationEnvironment
from repro.common.errors import (
    ConditionalCheckFailed,
    KeyValueStoreError,
    RegionUnavailableError,
)
from repro.data.latency import LatencySource
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.cloud.faults import FaultInjector
    from repro.obs.trace import Tracer

#: Single-digit-millisecond request latency that DynamoDB exhibits even
#: for local callers, seconds.
BASE_LATENCY_S = 0.004


def _snapshot(value: Any) -> Any:
    """Deep-copy a stored value the fast way.

    Every KV operation snapshots values so callers cannot mutate the
    store's internals (DynamoDB hands back serialised items, never
    references) — and at open-loop request rates those copies are the
    simulation's hottest allocation site.  Values here are JSON-shaped
    (plans, annotations, message bodies), so a direct structural walk
    copies them ~10x faster than ``copy.deepcopy``'s generic machinery;
    anything exotic falls back to ``deepcopy`` for identical semantics.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_snapshot(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_snapshot(v) for v in value)
    return copy.deepcopy(value)


class KeyValueStore:
    """A multi-table KV store hosted in one region.

    All operations return ``(result, access_latency_s)`` so callers can
    fold storage round trips into their virtual-time accounting.
    """

    def __init__(
        self,
        env: SimulationEnvironment,
        region: str,
        latency_source: LatencySource,
        ledger: MeteringLedger,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """Args:
        env: Simulation environment.
        region: Region hosting the store.
        latency_source: For cross-region access RTTs.
        ledger: Metering sink.
        faults: Optional fault injector (KV op errors, latency
            inflation, host-region outages).
        tracer: Span tracer (one ``kv`` span per operation).
        metrics: Metrics registry (read/write units, latency).
        """
        self._env = env
        self.region = region
        self._latency = latency_source
        self._ledger = ledger
        self._faults = faults
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._tables: Dict[str, Dict[str, Any]] = {}
        # (table, key) -> (stored object, decoder, decoded value); see
        # :meth:`get`.  Holding the stored object keeps its identity
        # from being reused while the entry lives.
        self._decoded: Dict[Tuple[str, str], Tuple[Any, Callable, Any]] = {}
        # Instruments are fixed for the store's lifetime (one region
        # label); resolve them once instead of per operation.
        self._ctr_reads = self._metrics.counter("kv.reads", region=region)
        self._ctr_writes = self._metrics.counter("kv.writes", region=region)
        self._hist_latency = self._metrics.histogram("kv.access_latency_s")

    # -- infrastructure ----------------------------------------------------
    def _check_fault(self, workflow: str = "") -> None:
        """Raise before mutating state when an injected fault fires."""
        if self._faults is None:
            return
        if self._faults.region_down(self.region):
            self._faults.record("region_outage")
            raise RegionUnavailableError(
                f"key-value store host region {self.region} is down"
            )
        if self._faults.kv_error(self.region, workflow):
            raise KeyValueStoreError(
                f"injected key-value store error in {self.region}"
            )

    def _access_latency(self, caller_region: str) -> float:
        if caller_region == self.region:
            latency = BASE_LATENCY_S
        else:
            latency = BASE_LATENCY_S + self._latency.rtt(caller_region, self.region)
        if self._faults is not None:
            latency *= self._faults.kv_latency_factor(self.region)
        return latency

    def _meter(
        self,
        table: str,
        caller_region: str,
        write: bool,
        workflow: str,
        request_id: str,
        op: str = "",
    ) -> float:
        self._ledger.record_kv_access(
            workflow=workflow,
            table=table,
            region=self.region,
            start_s=self._env.now(),
            write=write,
            request_id=request_id,
        )
        latency = self._access_latency(caller_region)
        op = op or ("write" if write else "read")
        if self._tracer.enabled:
            now = self._env.now()
            self._tracer.record(
                "kv",
                f"{op}:{table}",
                t0=now,
                t1=now + latency,
                workflow=workflow,
                request_id=request_id,
                op=op,
                table=table,
                region=self.region,
                caller_region=caller_region,
            )
        (self._ctr_writes if write else self._ctr_reads).inc()
        self._hist_latency.observe(latency)
        return latency

    def _table(self, name: str) -> Dict[str, Any]:
        return self._tables.setdefault(name, {})

    # -- operations ---------------------------------------------------------
    def put(
        self,
        table: str,
        key: str,
        value: Any,
        caller_region: Optional[str] = None,
        workflow: str = "",
        request_id: str = "",
    ) -> float:
        """Store ``value`` under ``key``.  Returns access latency."""
        self._check_fault(workflow)
        caller = caller_region or self.region
        self._table(table)[key] = _snapshot(value)
        return self._meter(table, caller, True, workflow, request_id, op="put")

    def get(
        self,
        table: str,
        key: str,
        caller_region: Optional[str] = None,
        default: Any = None,
        workflow: str = "",
        request_id: str = "",
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[Any, float]:
        """Fetch ``key``.  Returns ``(value or default, latency)``.

        With ``decode`` the value comes back as ``decode(copy of the
        item)``, computed once per write of the item: the result is
        kept until the stored object is replaced.  Every write path
        stores a fresh copy (and ``delete`` removes it), so the stored
        object's identity *is* the item's version and the writers need
        no invalidation.  The read itself — fault check, ledger record,
        latency, span, counters — is the same with or without
        ``decode``.  A missing key returns ``default`` undecoded.  The
        decoded object is shared by every reader of that version: treat
        it as read-only, and pass a ``decode`` that is a pure function
        of the item.
        """
        self._check_fault(workflow)
        caller = caller_region or self.region
        latency = self._meter(table, caller, False, workflow, request_id, op="get")
        tbl = self._table(table)
        if decode is None:
            return _snapshot(tbl.get(key, default)), latency
        stored = tbl.get(key)
        if stored is None:
            self._decoded.pop((table, key), None)
            return default, latency
        memo = self._decoded.get((table, key))
        # ``==``, not ``is``: a bound classmethod is a new object on
        # every attribute access.
        if memo is not None and memo[0] is stored and memo[1] == decode:
            return memo[2], latency
        value = decode(_snapshot(stored))
        self._decoded[(table, key)] = (stored, decode, value)
        return value, latency

    def delete(
        self,
        table: str,
        key: str,
        caller_region: Optional[str] = None,
        workflow: str = "",
        request_id: str = "",
    ) -> float:
        self._check_fault(workflow)
        caller = caller_region or self.region
        self._table(table).pop(key, None)
        return self._meter(table, caller, True, workflow, request_id, op="delete")

    def update(
        self,
        table: str,
        key: str,
        fn: Callable[[Any], Any],
        caller_region: Optional[str] = None,
        default: Any = None,
        workflow: str = "",
        request_id: str = "",
    ) -> Tuple[Any, float]:
        """Atomically apply ``fn`` to the current value (read-modify-write).

        This is the primitive sync-node edge annotations rely on (§4):
        the simulator is single-threaded, so applying ``fn`` in place is
        genuinely atomic with respect to all other simulated actors.

        Returns ``(new_value, latency)``.
        """
        self._check_fault(workflow)
        caller = caller_region or self.region
        tbl = self._table(table)
        current = _snapshot(tbl.get(key, default))
        new_value = fn(current)
        tbl[key] = _snapshot(new_value)
        latency = self._meter(table, caller, True, workflow, request_id, op="update")
        return new_value, latency

    def conditional_put(
        self,
        table: str,
        key: str,
        expected: Any,
        value: Any,
        caller_region: Optional[str] = None,
        workflow: str = "",
        request_id: str = "",
    ) -> float:
        """Compare-and-set: write ``value`` only if current == ``expected``.

        Raises :class:`ConditionalCheckFailed` on mismatch (DynamoDB's
        ``ConditionalCheckFailedException``), still charging a write unit
        as DynamoDB does.
        """
        self._check_fault(workflow)
        caller = caller_region or self.region
        tbl = self._table(table)
        latency = self._meter(table, caller, True, workflow, request_id, op="conditional_put")
        current = tbl.get(key)
        if current != expected:
            raise ConditionalCheckFailed(
                f"{table}/{key}: expected {expected!r}, found {current!r}"
            )
        tbl[key] = _snapshot(value)
        return latency

    def increment(
        self,
        table: str,
        key: str,
        caller_region: Optional[str] = None,
        workflow: str = "",
        request_id: str = "",
    ) -> Tuple[float, float]:
        """Atomic counter increment by one.  Returns ``(new_value, latency)``."""

        def bump(current: Any) -> float:
            if current is None:
                return 1.0
            if not isinstance(current, (int, float)):
                raise KeyValueStoreError(
                    f"{table}/{key} holds non-numeric value {current!r}"
                )
            return current + 1.0

        return self.update(
            table,
            key,
            bump,
            caller_region=caller_region,
            default=None,
            workflow=workflow,
            request_id=request_id,
        )

    def scan(
        self,
        table: str,
        caller_region: Optional[str] = None,
        workflow: str = "",
        request_id: str = "",
    ) -> Tuple[Dict[str, Any], float]:
        """Return a deep copy of the whole table (DynamoDB Scan)."""
        self._check_fault(workflow)
        caller = caller_region or self.region
        latency = self._meter(table, caller, False, workflow, request_id, op="scan")
        return _snapshot(self._table(table)), latency

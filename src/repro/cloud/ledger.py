"""Metering ledger: the raw telemetry every experiment is built on.

Each simulated service appends immutable records here — function
executions (what AWS Lambda logs + Lambda Insights would expose, §7.2),
data transmissions, pub/sub publishes, and KV-store accesses.  Higher
layers (the Metrics Manager, the experiment harness) derive carbon, cost,
and latency from these records; the ledger itself stores measurements
only, mirroring the paper's separation between raw data sources and
data-processing (Fig. 4, orange vs yellow).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple, TypeVar


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """One function execution (Lambda log line + Insights metrics).

    Attributes:
        workflow: Workflow instance name.
        node: DAG node id executed.
        function: Source-code function name backing the node.
        region: Region the execution ran in.
        request_id: End-to-end workflow invocation this belongs to.
        start_s / duration_s: Virtual start time and billed duration.
        memory_mb: Configured memory size.
        n_vcpu: vCPUs allotted (memory_mb / 1769, §7.1).
        cpu_total_time_s: Total CPU time across vCPUs (Lambda Insights'
            ``cpu_total_time``, used for the utilisation power model).
        cold_start: Whether a new container was provisioned.
        payload_bytes: Input payload size.
        output_bytes: Output payload size.
    """

    workflow: str
    node: str
    function: str
    region: str
    request_id: str
    start_s: float
    duration_s: float
    memory_mb: int
    n_vcpu: float
    cpu_total_time_s: float
    cold_start: bool
    payload_bytes: float
    output_bytes: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True, slots=True)
class TransmissionRecord:
    """One inter- or intra-region data transfer.

    Covers both intermediate-data hops between DAG nodes and framework
    traffic (image copies, KV replication), distinguished by ``kind``.
    """

    workflow: str
    src_region: str
    dst_region: str
    size_bytes: float
    start_s: float
    latency_s: float
    request_id: str = ""
    kind: str = "data"  # "data" | "image" | "control"
    edge: str = ""  # "src_node->dst_node" for data hops

    @property
    def intra_region(self) -> bool:
        return self.src_region == self.dst_region


@dataclass(frozen=True, slots=True)
class MessagingRecord:
    """One pub/sub publish (SNS message, billed per publish)."""

    workflow: str
    topic: str
    region: str
    start_s: float
    size_bytes: float
    request_id: str = ""


@dataclass(frozen=True, slots=True)
class KvAccessRecord:
    """One key-value store access (DynamoDB request unit)."""

    workflow: str
    table: str
    region: str
    start_s: float
    write: bool
    request_id: str = ""


K = TypeVar("K")

#: Records per chunk of the index behind :meth:`MeteringLedger.group`.
_CHUNK = 512


@dataclass(slots=True)
class RecordGroup:
    """The records :meth:`MeteringLedger.group` put under one key.

    Raw record lists, in ledger order, so callers can price them under
    any transmission scenario (``CarbonAccountant.price``).
    """

    executions: List[ExecutionRecord] = field(default_factory=list)
    transmissions: List[TransmissionRecord] = field(default_factory=list)
    messages: List[MessagingRecord] = field(default_factory=list)
    kv_accesses: List[KvAccessRecord] = field(default_factory=list)

    @property
    def n_executions(self) -> int:
        return len(self.executions)

    @property
    def exec_seconds(self) -> float:
        return sum(r.duration_s for r in self.executions)

    @property
    def bytes_out(self) -> float:
        return sum(r.size_bytes for r in self.transmissions)

    @property
    def service_time_s(self) -> float:
        """First execution start to last execution end (§9.1); the group
        must hold at least one execution."""
        execs = self.executions
        return max(e.end_s for e in execs) - min(e.start_s for e in execs)


def _select(records: list, workflow: Optional[str], request_id: Optional[str]) -> list:
    return [
        r
        for r in records
        if (workflow is None or r.workflow == workflow)
        and (request_id is None or r.request_id == request_id)
    ]


def _from_window(records: list, marks: List[float], since_s: float) -> list:
    """``records`` from the first chunk that can hold a record starting
    at or after ``since_s``: the list itself when that is chunk 0, a
    copy of its tail otherwise.

    ``marks[c]`` is the latest ``start_s`` among the complete chunks
    ``records[:(c + 1) * _CHUNK]``; the marks of chunks completed since
    the last query are added here, so an append stays one list append.
    Running maxima never decrease, so ``bisect_left`` finds the first
    chunk ``c`` with ``marks[c] >= since_s``, and every record before
    ``c * _CHUNK`` started before ``since_s``.  That holds however far a
    record's start runs ahead of append order (an execution is appended
    when it ends, its start shifted by its cold start).  A NaN start is
    in no window and leaves the marks as they were.
    """
    latest = marks[-1] if marks else -math.inf
    for c in range(len(marks), len(records) // _CHUNK):
        for r in records[c * _CHUNK : (c + 1) * _CHUNK]:
            if r.start_s > latest:
                latest = r.start_s
        marks.append(latest)
    start = bisect_left(marks, since_s) * _CHUNK
    return records if start == 0 else records[start:]


class MeteringLedger:
    """Append-only store of telemetry records with simple querying.

    Each record kind is one list, appended to and never reordered.
    :meth:`group` keeps one index per list, the running maxima of
    ``start_s`` at every 512-record chunk boundary, so a window query
    skips every chunk whose records all started before the window: a
    late window does not pay for the history before it.
    """

    def __init__(self) -> None:
        self.executions: List[ExecutionRecord] = []
        self.transmissions: List[TransmissionRecord] = []
        self.messages: List[MessagingRecord] = []
        self.kv_accesses: List[KvAccessRecord] = []
        # Per kind, in the order above: see _from_window.
        self._marks: Tuple[List[float], ...] = ([], [], [], [])

    # -- append -----------------------------------------------------------
    def record_execution(self, record: ExecutionRecord) -> None:
        self.executions.append(record)

    def record_transmission(self, record: TransmissionRecord) -> None:
        self.transmissions.append(record)

    def record_message(self, record: MessagingRecord) -> None:
        self.messages.append(record)

    def record_kv_access(self, record: KvAccessRecord) -> None:
        self.kv_accesses.append(record)

    # -- query ------------------------------------------------------------
    def executions_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> List[ExecutionRecord]:
        return _select(self.executions, workflow, request_id)

    def transmissions_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> List[TransmissionRecord]:
        return _select(self.transmissions, workflow, request_id)

    def messages_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> List[MessagingRecord]:
        return _select(self.messages, workflow, request_id)

    def kv_accesses_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> List[KvAccessRecord]:
        return _select(self.kv_accesses, workflow, request_id)

    def request_ids(self, workflow: str) -> List[str]:
        """Distinct request ids seen for ``workflow``, in arrival order."""
        seen: Dict[str, None] = {}
        for r in self.executions:
            if r.workflow == workflow and r.request_id not in seen:
                seen[r.request_id] = None
        return list(seen)

    def group(
        self,
        key: Callable[[Any, str], K],
        workflow: Optional[str] = None,
        since_s: float = -math.inf,
        until_s: float = math.inf,
    ) -> Dict[K, RecordGroup]:
        """Group the records of ``workflow`` (every workflow if ``None``)
        that started in ``[since_s, until_s)`` by ``key(record, region)``.

        ``region`` is the region that performed the record; a
        transmission is performed by its *source* region (egress is
        billed and powered where the bytes leave).  One pass per record
        kind, in ledger order, so each group's lists keep ledger order
        and keys appear first-seen across executions, transmissions,
        messages, then KV accesses.

        Each pass starts at the first 512-record chunk that can hold a
        record starting at or after ``since_s`` (the ledger's index; see
        :class:`MeteringLedger`), so a one-hour window late in a long
        history scans from the chunk of its first record on, not from
        record 0.  Skipping is exact: every record in a skipped chunk
        started before ``since_s``.
        """
        groups: DefaultDict[K, RecordGroup] = defaultdict(RecordGroup)
        every = workflow is None
        m_exec, m_trans, m_msg, m_kv = self._marks
        for r in _from_window(self.executions, m_exec, since_s):
            if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
                groups[key(r, r.region)].executions.append(r)
        for r in _from_window(self.transmissions, m_trans, since_s):
            if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
                groups[key(r, r.src_region)].transmissions.append(r)
        for r in _from_window(self.messages, m_msg, since_s):
            if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
                groups[key(r, r.region)].messages.append(r)
        for r in _from_window(self.kv_accesses, m_kv, since_s):
            if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
                groups[key(r, r.region)].kv_accesses.append(r)
        return dict(groups)

    def usage_by_region(
        self, workflow: Optional[str] = None
    ) -> Dict[str, RecordGroup]:
        """Every record grouped by the region that performed it.

        The result covers the *whole* ledger window (warm-up, framework
        traffic, and measured requests alike) — it answers "what did
        each region do", not "what did one invocation cost".  Keys are
        sorted for deterministic serialisation.
        """
        usage = self.group(lambda rec, region: region, workflow)
        return {region: usage[region] for region in sorted(usage)}

    def service_time(self, workflow: str, request_id: str) -> float:
        """End-to-end service time of one invocation (§9.1 definition):
        first function start to last function end."""
        execs = self.executions_for(workflow, request_id)
        if not execs:
            raise KeyError(f"no executions for {workflow}/{request_id}")
        return RecordGroup(executions=execs).service_time_s

    def clear(self) -> None:
        self.executions.clear()
        self.transmissions.clear()
        self.messages.clear()
        self.kv_accesses.clear()
        for marks in self._marks:
            marks.clear()

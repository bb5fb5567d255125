"""Test oracle: ledger grouping and pricing as four separate scans.

Production groups records in one place, ``MeteringLedger.group`` (the
only code that knows a transmission belongs to its source region), and
prices a group in one place, ``CarbonAccountant.price(group)``;
``price_by_request``, ``price_workflow``, ``usage_by_region`` and
``obs.timeseries.ledger_series`` compose the two.  These are the scans
they replaced, kept verbatim: each filtered, grouped and priced the
ledger on its own.  ``tests/test_accounting.py::TestLedgerPricingDifferential``
requires production to equal them with ``==``, key order included.

:class:`ScanAccountant` is a :class:`CarbonAccountant` whose ``price``
takes the four record lists and whose ``price_by_request`` and
``price_workflow`` are the old loops; :func:`usage_by_region` and
:func:`ledger_series` are module functions over a ledger.
:func:`group` is ``MeteringLedger.group`` as it was before the ledger
was indexed, every pass from record 0;
``tests/test_ledger.py::TestLedgerIndexDifferential`` requires the
indexed ``group`` to equal it.  :class:`ListLedger` is the whole
ledger as it was when it stored record objects in four lists, kept
verbatim as the reference for the ledger that replaces it.  Not
shipped: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.cloud.ledger import (
    ExecutionRecord,
    KvAccessRecord,
    MessagingRecord,
    MeteringLedger,
    TransmissionRecord,
)
from repro.metrics.accounting import CarbonAccountant, InvocationFootprint
from repro.obs.timeseries import DEFAULT_WINDOW_S, _point_sort_key

K = TypeVar("K")

#: Records per chunk of the index behind :meth:`MeteringLedger.group`.
_CHUNK = 512


@dataclass(slots=True)
class ListRecordGroup:
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


class ListLedger:
    """The metering ledger as it stored records: one list of record
    objects per kind (``repro.cloud.ledger.MeteringLedger`` before it
    stored typed columns), kept verbatim.

    Append-only store of telemetry records with simple querying.

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
    ) -> Dict[K, ListRecordGroup]:
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
        groups: DefaultDict[K, ListRecordGroup] = defaultdict(ListRecordGroup)
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
    ) -> Dict[str, ListRecordGroup]:
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
        return ListRecordGroup(executions=execs).service_time_s


#: Record class -> the ledger method that appends one.
RECORD_METHODS = {
    ExecutionRecord: "record_execution",
    TransmissionRecord: "record_transmission",
    MessagingRecord: "record_message",
    KvAccessRecord: "record_kv_access",
}


def append_record(ledger, record) -> None:
    """Append ``record`` to a :class:`MeteringLedger` (which takes its
    fields as keywords) or to a :class:`ListLedger` (which keeps it)."""
    method = getattr(ledger, RECORD_METHODS[type(record)])
    if isinstance(ledger, ListLedger):
        method(record)
    else:
        method(**{f.name: getattr(record, f.name) for f in fields(record)})


class ScanAccountant(CarbonAccountant):
    """A :class:`CarbonAccountant` pricing by the per-caller scans."""

    def price(  # type: ignore[override]
        self,
        executions: Sequence[ExecutionRecord] = (),
        transmissions: Sequence[TransmissionRecord] = (),
        messages: Sequence[MessagingRecord] = (),
        kv_accesses: Sequence[KvAccessRecord] = (),
    ) -> InvocationFootprint:
        fp = InvocationFootprint()
        for rec in executions:
            carbon = self.execution_carbon_g(
                rec.region, rec.start_s, rec.duration_s, rec.memory_mb, rec.n_vcpu,
                rec.cpu_total_time_s,
            )
            fp.exec_carbon_g += carbon
            fp.carbon_g += carbon
            fp.exec_seconds += rec.duration_s
            fp.n_executions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.execution_cost(
                    rec.region, rec.duration_s, rec.memory_mb
                )
        for rec in transmissions:
            carbon = self.transmission_carbon_g(
                rec.src_region, rec.dst_region, rec.start_s, rec.size_bytes
            )
            fp.trans_carbon_g += carbon
            fp.carbon_g += carbon
            fp.bytes_moved += rec.size_bytes
            fp.n_transmissions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.transmission_cost(
                    rec.src_region, rec.dst_region, rec.size_bytes
                )
        if self._cost is not None:
            for msg in messages:
                fp.cost_usd += self._cost.messaging_cost(msg.region)
            for access in kv_accesses:
                fp.cost_usd += self._cost.kv_cost(
                    access.region,
                    n_reads=0 if access.write else 1,
                    n_writes=1 if access.write else 0,
                )
        return fp

    def price_by_request(
        self,
        ledger: MeteringLedger,
        workflow: str,
        since_s: float = float("-inf"),
        until_s: float = float("inf"),
    ) -> Dict[str, InvocationFootprint]:
        groups: Dict[str, InvocationFootprint] = {}

        def fp_for(rid: str) -> InvocationFootprint:
            if rid not in groups:
                groups[rid] = InvocationFootprint()
            return groups[rid]

        for rec in ledger.executions:
            if rec.workflow != workflow or not (since_s <= rec.start_s < until_s):
                continue
            fp = fp_for(rec.request_id)
            carbon = self.execution_carbon_g(
                rec.region, rec.start_s, rec.duration_s, rec.memory_mb, rec.n_vcpu,
                rec.cpu_total_time_s,
            )
            fp.exec_carbon_g += carbon
            fp.carbon_g += carbon
            fp.exec_seconds += rec.duration_s
            fp.n_executions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.execution_cost(
                    rec.region, rec.duration_s, rec.memory_mb
                )
        for rec in ledger.transmissions:
            if rec.workflow != workflow or not (since_s <= rec.start_s < until_s):
                continue
            if not rec.request_id:
                continue
            fp = fp_for(rec.request_id)
            carbon = self.transmission_carbon_g(
                rec.src_region, rec.dst_region, rec.start_s, rec.size_bytes
            )
            fp.trans_carbon_g += carbon
            fp.carbon_g += carbon
            fp.bytes_moved += rec.size_bytes
            fp.n_transmissions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.transmission_cost(
                    rec.src_region, rec.dst_region, rec.size_bytes
                )
        if self._cost is not None:
            for msg in ledger.messages:
                if msg.workflow != workflow or not (
                    since_s <= msg.start_s < until_s
                ):
                    continue
                fp_for(msg.request_id).cost_usd += self._cost.messaging_cost(
                    msg.region
                )
            for access in ledger.kv_accesses:
                if access.workflow != workflow or not (
                    since_s <= access.start_s < until_s
                ):
                    continue
                fp_for(access.request_id).cost_usd += self._cost.kv_cost(
                    access.region,
                    n_reads=0 if access.write else 1,
                    n_writes=1 if access.write else 0,
                )
        groups.pop("", None)
        return groups

    def price_workflow(
        self,
        ledger: MeteringLedger,
        workflow: str,
        request_id: Optional[str] = None,
        since_s: float = float("-inf"),
        until_s: float = float("inf"),
    ) -> InvocationFootprint:
        def in_window(start: float) -> bool:
            return since_s <= start < until_s

        return self.price(
            executions=[
                r
                for r in ledger.executions_for(workflow, request_id)
                if in_window(r.start_s)
            ],
            transmissions=[
                r
                for r in ledger.transmissions_for(workflow, request_id)
                if in_window(r.start_s)
            ],
            messages=[
                r
                for r in ledger.messages_for(workflow, request_id)
                if in_window(r.start_s)
            ],
            kv_accesses=[
                r
                for r in ledger.kv_accesses_for(workflow, request_id)
                if in_window(r.start_s)
            ],
        )


def group(
    ledger: MeteringLedger,
    key: Callable[[Any, str], Any],
    workflow: Optional[str] = None,
    since_s: float = -math.inf,
    until_s: float = math.inf,
) -> Dict[Any, ListRecordGroup]:
    """``MeteringLedger.group`` before the ledger was indexed: each
    pass walks its whole list from record 0."""
    groups: DefaultDict[Any, ListRecordGroup] = defaultdict(ListRecordGroup)
    every = workflow is None
    for r in ledger.executions:
        if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
            groups[key(r, r.region)].executions.append(r)
    for r in ledger.transmissions:
        if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
            groups[key(r, r.src_region)].transmissions.append(r)
    for r in ledger.messages:
        if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
            groups[key(r, r.region)].messages.append(r)
    for r in ledger.kv_accesses:
        if (every or r.workflow == workflow) and since_s <= r.start_s < until_s:
            groups[key(r, r.region)].kv_accesses.append(r)
    return dict(groups)


def usage_by_region(
    ledger: MeteringLedger, workflow: Optional[str] = None
) -> Dict[str, ListRecordGroup]:
    usage: Dict[str, ListRecordGroup] = {}

    def bucket(region: str) -> ListRecordGroup:
        if region not in usage:
            usage[region] = ListRecordGroup()
        return usage[region]

    for rec in ledger.executions:
        if workflow is None or rec.workflow == workflow:
            bucket(rec.region).executions.append(rec)
    for trans in ledger.transmissions:
        if workflow is None or trans.workflow == workflow:
            bucket(trans.src_region).transmissions.append(trans)
    for msg in ledger.messages:
        if workflow is None or msg.workflow == workflow:
            bucket(msg.region).messages.append(msg)
    for access in ledger.kv_accesses:
        if workflow is None or access.workflow == workflow:
            bucket(access.region).kv_accesses.append(access)
    return {region: usage[region] for region in sorted(usage)}


def ledger_series(
    ledger,
    accountant: ScanAccountant,
    window_s: float = DEFAULT_WINDOW_S,
    workflow: Optional[str] = None,
) -> List[Dict[str, Any]]:
    def wstart(t: float) -> float:
        return (t // window_s) * window_s

    groups: Dict[Tuple[float, str, str], Dict[str, list]] = {}

    def bucket(t: float, region: str, wf: str) -> Dict[str, list]:
        key = (wstart(t), region, wf)
        if key not in groups:
            groups[key] = {
                "executions": [], "transmissions": [],
                "messages": [], "kv_accesses": [],
            }
        return groups[key]

    first_exec: Dict[str, Tuple[float, str]] = {}
    for rec in ledger.executions:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.region, rec.workflow)["executions"].append(rec)
        seen = first_exec.get(rec.request_id)
        if seen is None or rec.start_s < seen[0]:
            first_exec[rec.request_id] = (rec.start_s, rec.workflow)
    for rec in ledger.transmissions:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.src_region, rec.workflow)[
            "transmissions"
        ].append(rec)
    for rec in ledger.messages:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.region, rec.workflow)["messages"].append(rec)
    for rec in ledger.kv_accesses:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.region, rec.workflow)["kv_accesses"].append(rec)

    requests: Dict[Tuple[float, str], int] = {}
    for t, wf in first_exec.values():
        key = (wstart(t), wf)
        requests[key] = requests.get(key, 0) + 1

    points: List[Dict[str, Any]] = []
    for (window, region, wf), recs in groups.items():
        fp = accountant.price(
            executions=recs["executions"],
            transmissions=recs["transmissions"],
            messages=recs["messages"],
            kv_accesses=recs["kv_accesses"],
        )
        labels = f"{{region={region},workflow={wf}}}"
        points.append(
            {"metric": f"ledger.carbon_g{labels}", "window": window,
             "type": "counter", "value": fp.carbon_g}
        )
        points.append(
            {"metric": f"ledger.cost_usd{labels}", "window": window,
             "type": "counter", "value": fp.cost_usd}
        )
        points.append(
            {"metric": f"ledger.exec_seconds{labels}", "window": window,
             "type": "counter", "value": fp.exec_seconds}
        )
    for (window, wf), n in requests.items():
        points.append(
            {"metric": f"ledger.requests{{workflow={wf}}}", "window": window,
             "type": "counter", "value": float(n)}
        )
    points.sort(key=_point_sort_key)
    return points

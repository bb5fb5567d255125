"""Metering ledger: the raw telemetry every experiment is built on.

Each simulated service appends immutable records here — function
executions (what AWS Lambda logs + Lambda Insights would expose, §7.2),
data transmissions, pub/sub publishes, and KV-store accesses.  Higher
layers (the Metrics Manager, the experiment harness) derive carbon, cost,
and latency from these records; the ledger itself stores measurements
only, mirroring the paper's separation between raw data sources and
data-processing (Fig. 4, orange vs yellow).

The ledger stores each record kind as typed columns and builds a record
object only when a reader asks for one (:class:`RecordView`); a
:class:`RecordGroup` holds row ids.  A served day is hundreds of
thousands of records, so the bill is kept at tens of bytes a record,
not the ~160 a frozen dataclass costs.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import partial
from operator import add
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

import numpy as np


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

#: Rows per chunk of the index behind :meth:`MeteringLedger.group`.
_CHUNK = 512
#: Rows a selection masks at a time, so a query over a whole served
#: day holds one block's mask and row ids, not the day's.
_BLOCK = 1 << 14
#: A :class:`RecordGroup` row id carries its record kind above this bit.
_KIND_SHIFT = 30
_ROW_MASK = (1 << _KIND_SHIFT) - 1


class _Strings(dict):
    """The ledger's intern table: ``self[s]`` is the code of string
    ``s``, assigned on first sight; ``names[code]`` is ``s`` again."""

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self.names)
        self.names.append(name)
        return code


class _Table:
    """One record kind as typed columns, one entry per record in append
    order, never reordered.

    Each field of ``record_class`` is one ``array``: ``'I'`` codes into
    the ledger's intern table for strings, ``'d'`` for times, durations
    and sizes, ``'q'`` for ``memory_mb`` and ``'b'`` for booleans.  A
    ``tagged`` field arrives as ``int`` or ``float``; bit ``i`` of the
    ``int_tags`` column is set when ``tagged[i]`` was an ``int``, so it
    reads back as one (exact below 2**53).  ``readers[name](rows)``
    reads one field of many rows at C speed.  ``region`` names the field
    of the region that performed the record (a transmission's source).
    ``marks[c]`` is the latest ``start_s`` among rows
    ``[0, (c + 1) * _CHUNK)`` (see :meth:`first_row`).
    """

    def __init__(
        self,
        record_class: type,
        typecodes: str,
        codes: _Strings,
        region: str = "region",
        tagged: Tuple[str, ...] = (),
    ) -> None:
        self.record_class = record_class
        self.codes = codes
        self.region = region
        self.columns = {f.name: array(code) for f, code in zip(fields(record_class), typecodes)}
        self.int_tags = array("b")
        #: Bound ``append`` of every column in field order, then of ``int_tags``.
        self.appends = tuple(col.append for col in self.columns.values()) + (
            (self.int_tags.append,) if tagged else ()
        )
        #: Field -> rows -> the field of each row, of the type it arrived as.
        self.readers = {name: self._reader(name, tagged) for name in self.columns}
        self.marks: List[float] = []

    def __len__(self) -> int:
        return len(self.columns["start_s"])

    def _reader(self, name: str, tagged: Tuple[str, ...]) -> Callable[..., Iterator[Any]]:
        read, typecode = self.columns[name].__getitem__, self.columns[name].typecode
        if typecode == "I":
            decode = self.codes.names.__getitem__
            return lambda rows: map(decode, map(read, rows))
        if typecode == "b":
            return lambda rows: map(bool, map(read, rows))
        if name in tagged:
            tags, bit = self.int_tags, 1 << tagged.index(name)
            return lambda rows: (int(read(row)) if tags[row] & bit else read(row) for row in rows)
        return partial(map, read)

    def records(self, rows: Sequence[int]) -> Iterator[Any]:
        """The record of each row, built from its columns."""
        return map(self.record_class, *[read(rows) for read in self.readers.values()])

    def first_row(self, since_s: float) -> int:
        """The first row of the first chunk that can hold a record
        starting at or after ``since_s``.

        The marks of chunks completed since the last query are added
        here, so an append stays one append per column.  Running maxima
        never decrease, so ``bisect_left`` finds the first chunk ``c``
        with ``marks[c] >= since_s``, and every row before
        ``c * _CHUNK`` started before ``since_s``.  That holds however
        far a record's start runs ahead of append order (an execution is
        appended when it ends, its start shifted by its cold start).  A
        NaN start is in no window and leaves the marks as they were
        (``fmax`` skips it).
        """
        marks = self.marks
        full = len(self) // _CHUNK
        if full > len(marks):
            starts = np.frombuffer(self.columns["start_s"], np.float64)
            chunks = starts[len(marks) * _CHUNK : full * _CHUNK].reshape(-1, _CHUNK)
            latest = marks[-1] if marks else -math.inf
            for top in np.fmax.reduce(chunks, axis=1).tolist():
                if top > latest:
                    latest = top
                marks.append(latest)
        return bisect_left(marks, since_s) * _CHUNK

    def rows(
        self,
        first: int = 0,
        workflow: Optional[int] = None,
        request_id: Optional[int] = None,
        window: Optional[Tuple[float, float]] = None,
    ) -> Iterator[int]:
        """Row ids from ``first`` on, ascending, whose workflow and
        request codes match (``None``: any) and, given a ``window``
        ``(since_s, until_s)``, that started in ``[since_s, until_s)``."""
        for rows in self.blocks(first, workflow, request_id, window):
            yield from rows

    def blocks(self, first, workflow, request_id, window) -> Iterator[Sequence[int]]:
        """:meth:`rows`, one block of at most ``_BLOCK`` rows at a time."""
        n = len(self)
        for lo in range(first, n, _BLOCK):
            yield self._block(lo, min(lo + _BLOCK, n), workflow, request_id, window)

    def _block(self, lo, hi, workflow, request_id, window) -> Sequence[int]:
        # The numpy views are gone when this returns: an array that
        # exports its buffer cannot grow.
        mask = None
        if window is not None:
            starts = np.frombuffer(self.columns["start_s"], np.float64)[lo:hi]
            mask = (starts >= window[0]) & (starts < window[1])
        for name, code in (("workflow", workflow), ("request_id", request_id)):
            if code is not None:
                hit = np.frombuffer(self.columns[name], np.uint32)[lo:hi] == code
                mask = hit if mask is None else mask & hit
        if mask is None:
            return range(lo, hi)
        return (np.flatnonzero(mask) + lo).tolist()


class RecordView(Sequence):
    """Read-only records of one kind: the whole kind
    (``ledger.executions``, which grows with the ledger) or a fixed set
    of rows in ledger order.  It supports ``len``, an index, a slice (a
    list) and iteration, and builds each record as it is read; nothing
    holds a record object."""

    __slots__ = ("_table", "_rows")

    def __init__(self, table: _Table, rows: Optional[array] = None) -> None:
        self._table = table
        self._rows = rows

    def _row_ids(self) -> Sequence[int]:
        return range(len(self._table)) if self._rows is None else self._rows

    def __len__(self) -> int:
        return len(self._row_ids())

    def __getitem__(self, index):
        rows = self._row_ids()
        if isinstance(index, slice):
            return list(self._table.records(rows[index]))
        return next(self._table.records((rows[index],)))

    def __iter__(self) -> Iterator[Any]:
        return self._table.records(self._row_ids())

    def values(self, name: str) -> Iterator[Any]:
        """Field ``name`` of each record, in order, without building one."""
        return self._table.readers[name](self._row_ids())

    def fields(self, *names: str) -> Iterator[Tuple[Any, ...]]:
        """The named fields of each record as a tuple, in order."""
        readers, rows = self._table.readers, self._row_ids()
        return zip(*[readers[name](rows) for name in names])

    def select(
        self,
        workflow: Optional[str] = None,
        request_id: Optional[str] = None,
        from_row: int = 0,
    ) -> "RecordView":
        """The records of ``workflow`` and ``request_id`` (``None``:
        any) at ledger row ``from_row`` or later, compared as intern
        codes before any record is built."""
        table = self._table
        codes = []
        for value in (workflow, request_id):
            if value is not None and value not in table.codes:
                return RecordView(table, array("I"))
            codes.append(None if value is None else table.codes[value])
        if self._rows is None:
            return RecordView(table, array("I", table.rows(from_row, *codes)))
        tests = [
            (table.columns[name], code)
            for name, code in zip(("workflow", "request_id"), codes)
            if code is not None
        ]
        return RecordView(table, array("I", [
            row for row in self._rows
            if row >= from_row and all(col[row] == code for col, code in tests)
        ]))


def _service_time(executions: RecordView) -> float:
    """First execution start to last execution end (§9.1)."""
    starts = executions.values("start_s")
    ends = map(add, executions.values("start_s"), executions.values("duration_s"))
    return max(ends) - min(starts)


class RecordGroup:
    """The records :meth:`MeteringLedger.group` put under one key.

    Row ids, not records: one ``array('I')`` of the group's rows, each
    with its kind in the top two bits, so the ids sort by kind, then
    ledger order, and a group costs 4 bytes a row plus about a hundred.  Each kind reads
    as a :class:`RecordView` (``executions``, ``transmissions``,
    ``messages``, ``kv_accesses``), which callers price under any
    transmission scenario (``CarbonAccountant.price``).  ``RecordGroup()``
    is the empty group.
    """

    __slots__ = ("_tables", "_rows")

    def __init__(self) -> None:
        self._tables: Tuple[_Table, ...] = _NO_TABLES
        self._rows = array("I")

    def _view(self, kind: int) -> RecordView:
        rows, tag = self._rows, kind << _KIND_SHIFT
        part = rows[bisect_left(rows, tag) : bisect_left(rows, tag + (1 << _KIND_SHIFT))]
        if tag:
            part = array("I", map((-tag).__add__, part))
        return RecordView(self._tables[kind], part)

    @property
    def executions(self) -> RecordView:
        return self._view(0)

    @property
    def transmissions(self) -> RecordView:
        return self._view(1)

    @property
    def messages(self) -> RecordView:
        return self._view(2)

    @property
    def kv_accesses(self) -> RecordView:
        return self._view(3)

    @property
    def n_executions(self) -> int:
        return bisect_left(self._rows, 1 << _KIND_SHIFT)

    @property
    def exec_seconds(self) -> float:
        return sum(self.executions.values("duration_s"))

    @property
    def bytes_out(self) -> float:
        return sum(self.transmissions.values("size_bytes"))

    @property
    def service_time_s(self) -> float:
        """First execution start to last execution end (§9.1); the group
        must hold at least one execution."""
        return _service_time(self.executions)


class MeteringLedger:
    """Append-only store of telemetry records with simple querying.

    Each record kind is one :class:`_Table` of columns, appended to and
    never reordered, with strings interned in one table the four kinds
    share.  ``executions``, ``transmissions``, ``messages`` and
    ``kv_accesses`` are :class:`RecordView` s of the whole kind.
    :meth:`group` keeps one index per kind, the running maxima of
    ``start_s`` at every 512-row chunk boundary, so a window query
    skips every chunk whose records all started before the window: a
    late window does not pay for the history before it.
    """

    def __init__(self) -> None:
        self._codes = _Strings()
        self._tables = (
            _Table(ExecutionRecord, "IIIIIddqddbdd", self._codes,
                   tagged=("payload_bytes", "output_bytes")),
            _Table(TransmissionRecord, "IIIdddIII", self._codes,
                   region="src_region", tagged=("size_bytes",)),
            _Table(MessagingRecord, "IIIddI", self._codes, tagged=("size_bytes",)),
            _Table(KvAccessRecord, "IIIdbI", self._codes),
        )
        self.executions, self.transmissions, self.messages, self.kv_accesses = (
            RecordView(table) for table in self._tables
        )

    # -- append -----------------------------------------------------------
    def record_execution(
        self, *, workflow: str, node: str, function: str, region: str, request_id: str,
        start_s: float, duration_s: float, memory_mb: int, n_vcpu: float,
        cpu_total_time_s: float, cold_start: bool, payload_bytes: float,
        output_bytes: float,
    ) -> None:
        """Append one :class:`ExecutionRecord`, given as its fields."""
        code = self._codes
        wf, nd, fn, rg, rid, st, du, mem, vc, cpu, cold, pay, out, tag = self._tables[0].appends
        wf(code[workflow])
        nd(code[node])
        fn(code[function])
        rg(code[region])
        rid(code[request_id])
        st(start_s)
        du(duration_s)
        mem(memory_mb)
        vc(n_vcpu)
        cpu(cpu_total_time_s)
        cold(cold_start)
        pay(payload_bytes)
        out(output_bytes)
        tag((type(payload_bytes) is int) | (type(output_bytes) is int) << 1)

    def record_transmission(
        self, *, workflow: str, src_region: str, dst_region: str, size_bytes: float,
        start_s: float, latency_s: float, request_id: str = "", kind: str = "data",
        edge: str = "",
    ) -> None:
        """Append one :class:`TransmissionRecord`, given as its fields."""
        code = self._codes
        wf, src, dst, size, st, lat, rid, knd, edg, tag = self._tables[1].appends
        wf(code[workflow])
        src(code[src_region])
        dst(code[dst_region])
        size(size_bytes)
        st(start_s)
        lat(latency_s)
        rid(code[request_id])
        knd(code[kind])
        edg(code[edge])
        tag(type(size_bytes) is int)

    def record_message(
        self, *, workflow: str, topic: str, region: str, start_s: float,
        size_bytes: float, request_id: str = "",
    ) -> None:
        """Append one :class:`MessagingRecord`, given as its fields."""
        code = self._codes
        wf, tp, rg, st, size, rid, tag = self._tables[2].appends
        wf(code[workflow])
        tp(code[topic])
        rg(code[region])
        st(start_s)
        size(size_bytes)
        rid(code[request_id])
        tag(type(size_bytes) is int)

    def record_kv_access(
        self, *, workflow: str, table: str, region: str, start_s: float, write: bool,
        request_id: str = "",
    ) -> None:
        """Append one :class:`KvAccessRecord`, given as its fields."""
        code = self._codes
        wf, tb, rg, st, wr, rid = self._tables[3].appends
        wf(code[workflow])
        tb(code[table])
        rg(code[region])
        st(start_s)
        wr(write)
        rid(code[request_id])

    # -- query ------------------------------------------------------------
    def executions_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> RecordView:
        return self.executions.select(workflow, request_id)

    def transmissions_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> RecordView:
        return self.transmissions.select(workflow, request_id)

    def messages_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> RecordView:
        return self.messages.select(workflow, request_id)

    def kv_accesses_for(
        self, workflow: Optional[str] = None, request_id: Optional[str] = None
    ) -> RecordView:
        return self.kv_accesses.select(workflow, request_id)

    def request_ids(self, workflow: str) -> List[str]:
        """Distinct request ids seen for ``workflow``, in arrival order."""
        if workflow not in self._codes:
            return []
        table = self._tables[0]
        rid = table.columns["request_id"]
        seen = dict.fromkeys(rid[row] for row in table.rows(workflow=self._codes[workflow]))
        return [self._codes.names[code] for code in seen]

    def group(
        self,
        key: Union[str, Callable[[Any, str], K]],
        workflow: Optional[str] = None,
        since_s: float = -math.inf,
        until_s: float = math.inf,
    ) -> Dict[K, RecordGroup]:
        """Group the records of ``workflow`` (every workflow if ``None``)
        that started in ``[since_s, until_s)`` by ``key(record, region)``,
        or, when ``key`` is the name of a field every kind has
        (``"request_id"``, ``"workflow"``), by that field's value.

        ``region`` is the region that performed the record; a
        transmission is performed by its *source* region (egress is
        billed and powered where the bytes leave).  One pass per record
        kind, in ledger order, so each group's rows keep ledger order
        and keys appear first-seen across executions, transmissions,
        messages, then KV accesses.  Workflow codes and start times are
        compared first; a record is built, for a callable ``key``, only
        for a row in the group's window, and a field name is read from
        its column without building any.

        Each pass starts at the first 512-row chunk that can hold a
        record starting at or after ``since_s`` (the ledger's index; see
        :class:`MeteringLedger`), so a one-hour window late in a long
        history scans from the chunk of its first record on, not from
        row 0.  Skipping is exact: every row in a skipped chunk started
        before ``since_s``.
        """

        def keys(table: _Table, rows: Sequence[int]) -> Iterator[K]:
            if isinstance(key, str):
                return table.readers[key](rows)
            return map(key, table.records(rows), table.readers[table.region](rows))

        return self._group(keys, workflow, since_s, until_s)

    def _group(
        self,
        keys: Callable[[_Table, Sequence[int]], Iterator[K]],
        workflow: Optional[str],
        since_s: float,
        until_s: float,
    ) -> Dict[K, RecordGroup]:
        """Put each row of ``workflow`` that started in the window under
        its key; ``keys(table, rows)`` gives the keys of a block of rows."""
        groups: Dict[K, RecordGroup] = {}
        if workflow is not None and workflow not in self._codes:
            return groups
        code = None if workflow is None else self._codes[workflow]
        for kind, table in enumerate(self._tables):
            if len(table) > _ROW_MASK:
                raise OverflowError(f"a record group holds row ids below 2**{_KIND_SHIFT}")
            tag = kind << _KIND_SHIFT
            for rows in table.blocks(table.first_row(since_s), code, None, (since_s, until_s)):
                for row, key_ in zip(rows, keys(table, rows)):
                    group = groups.get(key_)
                    if group is None:
                        group = groups[key_] = RecordGroup()
                        group._tables = self._tables
                    group._rows.append(tag | row)
        return groups

    def usage_by_region(
        self, workflow: Optional[str] = None
    ) -> Dict[str, RecordGroup]:
        """Every record grouped by the region that performed it.

        The result covers the *whole* ledger window (warm-up, framework
        traffic, and measured requests alike) — it answers "what did
        each region do", not "what did one invocation cost".  Keys are
        sorted for deterministic serialisation.  Keyed by the region
        column alone, so no record is built.
        """
        usage = self._group(
            lambda table, rows: table.readers[table.region](rows), workflow, -math.inf, math.inf
        )
        return {region: usage[region] for region in sorted(usage)}

    def service_time(self, workflow: str, request_id: str) -> float:
        """End-to-end service time of one invocation (§9.1 definition):
        first function start to last function end."""
        execs = self.executions_for(workflow, request_id)
        if not execs:
            raise KeyError(f"no executions for {workflow}/{request_id}")
        return _service_time(execs)


#: What an empty :class:`RecordGroup` reads its (no) rows from.
_NO_TABLES = MeteringLedger()._tables

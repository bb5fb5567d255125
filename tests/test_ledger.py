"""Tests for the metering ledger."""

import math
import tracemalloc
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import ledger as ledger_module
from repro.cloud.ledger import (
    ExecutionRecord,
    KvAccessRecord,
    MeteringLedger,
    MessagingRecord,
    TransmissionRecord,
)
from repro.data.carbon import CarbonIntensitySource
from repro.data.pricing import PricingSource
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.manager import MetricsManager
from repro.model.config import WorkflowConfig
from repro.obs.timeseries import ledger_series
from tests import golden, ledger_capture, ledger_pricing_oracle
from tests.ledger_pricing_oracle import ListLedger, append_record


def make_exec(workflow="wf", node="n", request_id="r1", start=0.0, duration=1.0,
              region="us-east-1"):
    return ExecutionRecord(
        workflow=workflow, node=node, function=node, region=region,
        request_id=request_id, start_s=start, duration_s=duration,
        memory_mb=1769, n_vcpu=1.0, cpu_total_time_s=0.7, cold_start=False,
        payload_bytes=0.0, output_bytes=0.0,
    )


class TestLedger:
    def test_service_time_spans_first_to_last(self):
        ledger = MeteringLedger()
        append_record(ledger, make_exec(node="a", start=1.0, duration=2.0))
        append_record(ledger, make_exec(node="b", start=4.0, duration=3.0))
        # §9.1: first function start (1.0) to last function end (7.0).
        assert ledger.service_time("wf", "r1") == pytest.approx(6.0)

    def test_service_time_missing_request(self):
        with pytest.raises(KeyError):
            MeteringLedger().service_time("wf", "ghost")

    def test_filter_by_workflow_and_request(self):
        ledger = MeteringLedger()
        append_record(ledger, make_exec(workflow="wf1", request_id="r1"))
        append_record(ledger, make_exec(workflow="wf1", request_id="r2"))
        append_record(ledger, make_exec(workflow="wf2", request_id="r1"))
        assert len(ledger.executions_for("wf1")) == 2
        assert len(ledger.executions_for("wf1", "r1")) == 1
        assert len(ledger.executions_for(None, "r1")) == 2

    def test_request_ids_in_arrival_order(self):
        ledger = MeteringLedger()
        for rid in ("r3", "r1", "r3", "r2"):
            append_record(ledger, make_exec(request_id=rid))
        assert ledger.request_ids("wf") == ["r3", "r1", "r2"]

    def test_end_s_property(self):
        rec = make_exec(start=2.0, duration=3.0)
        assert rec.end_s == 5.0

    def test_group_rejects_a_field_not_every_kind_has(self):
        # Executions have a node, the other kinds do not: an
        # executions-only ledger must not make that look like a key.
        ledger = MeteringLedger()
        append_record(ledger, make_exec())
        with pytest.raises(ValueError, match="request_id, workflow, start_s, region"):
            ledger.group("node")
        with pytest.raises(ValueError):
            ledger.group("src_region")


class TestRecordViews:
    """``ledger.executions`` and the other kinds are read-only views that
    build each record as it is read."""

    def _ledger(self, n=5):
        ledger = MeteringLedger()
        for i in range(n):
            append_record(ledger, make_exec(request_id=f"r{i}", start=float(i)))
        return ledger

    def test_a_kind_view_grows_with_the_ledger(self):
        ledger = self._ledger(2)
        view = ledger.executions
        append_record(ledger, make_exec(request_id="late"))
        assert len(view) == 3
        assert view[-1].request_id == "late"

    def test_an_accessor_result_is_a_snapshot(self):
        ledger = self._ledger(2)
        mine = ledger.executions_for("wf")
        append_record(ledger, make_exec(request_id="late"))
        assert len(mine) == 2

    def test_index_slice_and_iteration_agree(self):
        ledger = self._ledger()
        view = ledger.executions
        records = list(view)
        assert view[1:4] == records[1:4]
        assert [view[i] for i in range(-5, 5)] == records[-5:] + records
        with pytest.raises(IndexError):
            view[5]
        assert list(view) == records
        assert view.index(records[2]) == 2

    def test_select_from_a_row_compares_codes(self):
        ledger = self._ledger()
        append_record(ledger, make_exec(workflow="other", request_id="r9"))
        assert [r.request_id for r in ledger.executions.select("wf", from_row=3)] == ["r3", "r4"]
        assert len(ledger.executions.select("no-such-workflow")) == 0
        # An unknown name is compared, never interned.
        assert "no-such-workflow" not in ledger._codes

    def test_values_and_fields_read_columns_in_order(self):
        ledger = self._ledger(3)
        view = ledger.executions_for("wf")
        assert list(view.values("start_s")) == [0.0, 1.0, 2.0]
        assert list(view.fields("request_id", "cold_start")) == [
            ("r0", False), ("r1", False), ("r2", False)
        ]


class TestLedgerRecordsGolden:
    """A ledger three workflows share: its records and every query
    against the capture (see ``tests/ledger_capture.py``)."""

    def test_fleet_ledger_matches_the_capture(self):
        golden.check("ledger_records", ledger_capture.capture_fleet())


REGIONS = ("us-east-1", "us-west-2", "ca-central-1")
KINDS = ("executions", "transmissions", "messages", "kv_accesses")
#: A chunk small enough that a few dozen records span several.
SMALL_CHUNK = 4
#: ``MeteringLedger.group`` keys, each with the ``key(record, region)``
#: that groups the oracle's records alike.
KEYS = (
    ("request_id", lambda rec, region: rec.request_id),
    ("workflow", lambda rec, region: rec.workflow),
    ("start_s", lambda rec, region: rec.start_s),
    ("region", lambda rec, region: region),
    (lambda start_s, region, wf: (wf, region), lambda rec, region: (rec.workflow, region)),
    (
        lambda start_s, region, wf: (start_s // 7.0, region),
        lambda rec, region: (rec.start_s // 7.0, region),
    ),
)


def make_record(kind, workflow, request_id, region, start):
    if kind == "executions":
        return make_exec(workflow=workflow, request_id=request_id, start=start, region=region)
    if kind == "transmissions":
        return TransmissionRecord(
            workflow=workflow, src_region=region, dst_region=REGIONS[0], size_bytes=1.0,
            start_s=start, latency_s=0.1, request_id=request_id,
        )
    if kind == "messages":
        return MessagingRecord(
            workflow=workflow, topic="t", region=region, start_s=start, size_bytes=1.0,
            request_id=request_id,
        )
    return KvAccessRecord(
        workflow=workflow, table="t", region=region, start_s=start, write=True,
        request_id=request_id,
    )


def twins():
    """A ledger and the list ledger it replaced, to append to alike."""
    return MeteringLedger(), ListLedger()


def append_both(ledger, twin, record):
    append_record(ledger, record)
    append_record(twin, record)


def typed(record) -> tuple:
    """A record's class and each field's type and ``repr`` (so a NaN
    equals a NaN and ``1024`` differs from ``1024.0``)."""
    values = (getattr(record, name) for name in record.__dataclass_fields__)
    return type(record), tuple((type(v), repr(v)) for v in values)


def positions(twin) -> dict:
    """Kind -> record identity -> its row in the list ledger."""
    return {
        kind: {id(r): i for i, r in enumerate(getattr(twin, kind))} for kind in KINDS
    }


def assert_view_matches(view, records, rows) -> None:
    """Same rows in the same order, with equal fields of equal types.
    The records are built on read, so they cannot be the oracle's
    objects; the rows say they are the same records."""
    assert list(view._row_ids()) == [rows[id(r)] for r in records]
    assert [typed(r) for r in view] == [typed(r) for r in records]


def assert_groups_match(got, want, twin) -> None:
    """Same keys in the same order; per key and kind the same rows."""
    assert list(got) == list(want)
    rows = positions(twin)
    for k, group in got.items():
        for kind in KINDS:
            assert_view_matches(getattr(group, kind), getattr(want[k], kind), rows[kind])


def assert_group_matches_oracle(ledger, twin, since_s, until_s):
    """Every key and workflow filter against the unindexed scan of the
    list ledger: same keys in the same order, same rows in the same order."""
    for key, oracle_key in KEYS:
        for workflow in (None, "a", "b"):
            got = ledger.group(key, workflow, since_s, until_s)
            want = ledger_pricing_oracle.group(twin, oracle_key, workflow, since_s, until_s)
            assert_groups_match(got, want, twin)


class TestLedgerIndexDifferential:
    """The indexed ``group`` against the whole-list scans of
    ``tests/ledger_pricing_oracle.py::group``, on ledgers spanning many
    (shrunk) chunks, queried between appends."""

    @staticmethod
    def _window(data, ledger, clock):
        """A ``since_s`` that is -inf, a record's start (one at a chunk
        edge included), the latest start of a complete chunk, or any
        time; and an ``until_s`` that is +inf, a record's start or any
        later time."""
        starts = [r.start_s for kind in KINDS for r in getattr(ledger, kind)]
        edges = [
            getattr(ledger, kind)[i].start_s
            for kind in KINDS
            for c in range(1, len(getattr(ledger, kind)) // SMALL_CHUNK + 1)
            for i in (c * SMALL_CHUNK - 1, c * SMALL_CHUNK)
            if i < len(getattr(ledger, kind))
        ]
        chunk_latest = [
            max(r.start_s for r in getattr(ledger, kind)[: (c + 1) * SMALL_CHUNK])
            for kind in KINDS
            for c in range(len(getattr(ledger, kind)) // SMALL_CHUNK)
        ]
        options = [st.just(-math.inf), st.floats(-2.0, clock + 2.0)]
        options += [st.sampled_from(xs) for xs in (starts, edges, chunk_latest) if xs]
        since_s = data.draw(st.one_of(options))
        until_s = data.draw(st.one_of(
            st.just(math.inf),
            st.floats(since_s if since_s > -math.inf else -2.0, clock + 2.0),
            *([st.sampled_from(starts)] if starts else []),
        ))
        return since_s, until_s

    @settings(max_examples=200)
    @given(st.data())
    def test_queries_between_appends_match_the_oracle(self, data):
        ledger, twin = twins()
        clock = 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ledger_module, "_CHUNK", SMALL_CHUNK)
            for _ in range(data.draw(st.integers(1, 8))):
                for _ in range(data.draw(st.integers(0, 24))):
                    clock += data.draw(st.sampled_from((0.0, 1.0, 2.0)))
                    # A record may start before records appended ahead
                    # of it, as an execution's start runs ahead of its
                    # append by its cold start.
                    lag = data.draw(st.sampled_from((0.0, 0.0, 1.0, 3.0)))
                    kind = data.draw(st.sampled_from(KINDS))
                    append_both(ledger, twin, make_record(
                        kind,
                        data.draw(st.sampled_from(("a", "b"))),
                        data.draw(st.sampled_from(("", "r1", "r2", "r3"))),
                        data.draw(st.sampled_from(REGIONS)),
                        clock - lag,
                    ))
                for _ in range(data.draw(st.integers(1, 3))):
                    window = self._window(data, twin, clock)
                    assert_group_matches_oracle(ledger, twin, *window)

    def test_appends_leave_the_index_to_the_next_query(self):
        # record_* stays one append per column: the index catches up lazily.
        ledger = MeteringLedger()
        for i in range(3 * ledger_module._CHUNK + 5):
            append_record(ledger, make_record("messages", "a", "r1", REGIONS[0], float(i)))
        assert [table.marks for table in ledger._tables] == [[], [], [], []]
        ledger.group("request_id", since_s=0.0)
        assert ledger._tables[2].marks == [
            float((c + 1) * ledger_module._CHUNK - 1) for c in range(3)
        ]

    def test_a_window_from_a_chunks_latest_start_keeps_that_record(self):
        # since_s equal to a chunk's mark: that chunk is scanned, not skipped.
        ledger, twin = twins()
        for i in range(3 * ledger_module._CHUNK):
            record = make_record("kv_accesses", "a", f"r{i}", REGIONS[0], float(i))
            append_both(ledger, twin, record)
        since_s = float(2 * ledger_module._CHUNK - 1)
        assert_group_matches_oracle(ledger, twin, since_s, math.inf)
        assert next(iter(ledger.group("request_id", since_s=since_s))) == f"r{int(since_s)}"


# -------------------------------------------------------------- differential
_STARTS = st.one_of(
    st.sampled_from((0.0, 1.0, 2.5)), st.floats(-5.0, 50.0), st.just(math.nan)
)
#: Payload and transmission sizes arrive as ``int`` or ``float``.
_SIZES = st.one_of(st.integers(0, 2**40), st.floats(0.0, 1e12))
_IDS = dict(
    workflow=st.sampled_from(("a", "b")),
    request_id=st.sampled_from(("", "r1", "r2")),
    region=st.sampled_from(REGIONS),
    start_s=_STARTS,
)
_RECORDS = st.one_of(
    st.builds(
        ExecutionRecord, node=st.sampled_from(("n1", "n2")), function=st.just("f"),
        duration_s=st.floats(0.0, 100.0), memory_mb=st.sampled_from((128, 1769)),
        n_vcpu=st.floats(0.1, 4.0), cpu_total_time_s=st.floats(0.0, 100.0),
        cold_start=st.booleans(), payload_bytes=_SIZES, output_bytes=_SIZES, **_IDS,
    ),
    st.builds(
        TransmissionRecord, src_region=_IDS.pop("region"), dst_region=st.sampled_from(REGIONS),
        size_bytes=_SIZES, latency_s=st.floats(0.0, 1.0),
        kind=st.sampled_from(("data", "image")), edge=st.sampled_from(("", "n1->n2")), **_IDS,
    ),
    st.builds(
        MessagingRecord, topic=st.just("t"), region=st.sampled_from(REGIONS),
        size_bytes=_SIZES, **_IDS,
    ),
    st.builds(
        KvAccessRecord, table=st.just("t"), region=st.sampled_from(REGIONS),
        write=st.booleans(), **_IDS,
    ),
)
WORKFLOWS = (None, "a", "b", "no-such-workflow")
REQUEST_IDS = (None, "", "r1", "r2", "no-such-request")


def _same_value(got, want) -> bool:
    return (type(got), repr(got)) == (type(want), repr(want))


def assert_ledgers_match(ledger, twin, since_s, until_s) -> None:
    """Every query of the ledger against the list ledger's."""
    rows = positions(twin)
    for kind in KINDS:
        view, records = getattr(ledger, kind), getattr(twin, kind)
        assert_view_matches(view, records, rows[kind])
        assert [typed(r) for r in view[1:-1]] == [typed(r) for r in records[1:-1]]
        if records:
            assert typed(view[-1]) == typed(records[-1])
    for workflow in WORKFLOWS:
        for rid in REQUEST_IDS:
            for kind in KINDS:
                assert_view_matches(
                    getattr(ledger, f"{kind}_for")(workflow, rid),
                    getattr(twin, f"{kind}_for")(workflow, rid),
                    rows[kind],
                )
        if workflow is not None:
            assert ledger.request_ids(workflow) == twin.request_ids(workflow)
            for rid in REQUEST_IDS[1:]:
                try:
                    want = twin.service_time(workflow, rid)
                except KeyError:
                    with pytest.raises(KeyError):
                        ledger.service_time(workflow, rid)
                else:
                    assert _same_value(ledger.service_time(workflow, rid), want)
        assert_groups_match(ledger.usage_by_region(workflow), twin.usage_by_region(workflow), twin)
        for key, oracle_key in KEYS:
            got = ledger.group(key, workflow, since_s, until_s)
            want = twin.group(oracle_key, workflow, since_s, until_s)
            assert_groups_match(got, want, twin)
            for k, group in got.items():
                theirs = want[k]
                assert group.n_executions == theirs.n_executions
                assert _same_value(group.exec_seconds, theirs.exec_seconds)
                assert _same_value(group.bytes_out, theirs.bytes_out)
                if theirs.executions:
                    assert _same_value(group.service_time_s, theirs.service_time_s)


class TestLedgerDifferential:
    """The column ledger against the list ledger it replaced
    (``tests/ledger_pricing_oracle.py::ListLedger``): random appends of
    every kind, ``int`` and ``float`` sizes, NaN starts and empty request
    ids, with every query asked between appends."""

    @settings(max_examples=120)
    @given(st.data())
    def test_every_query_between_appends_matches_the_list_ledger(self, data):
        ledger, twin = twins()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ledger_module, "_CHUNK", SMALL_CHUNK)
            for _ in range(data.draw(st.integers(1, 4))):
                for record in data.draw(st.lists(_RECORDS, max_size=16)):
                    append_both(ledger, twin, record)
                since_s = data.draw(st.one_of(st.just(-math.inf), st.floats(-5.0, 50.0)))
                until_s = data.draw(st.one_of(st.just(math.inf), st.floats(-5.0, 60.0)))
                assert_ledgers_match(ledger, twin, since_s, until_s)

    def test_values_keep_their_types(self):
        ledger, twin = twins()
        sizes = (("mixed", 1024), ("mixed", 1024.0), ("ints", 0), ("ints", 2**40 + 1))
        for workflow, size in sizes:
            append_both(ledger, twin, TransmissionRecord(
                workflow=workflow, src_region=REGIONS[0], dst_region=REGIONS[1],
                size_bytes=size, start_s=0.0, latency_s=0.1,
            ))
        exec_ = make_exec()
        for record in (exec_, ExecutionRecord(*astuple(exec_)[:10], True, 7, 7.5)):
            append_both(ledger, twin, record)
        assert [typed(r) for r in ledger.transmissions] == [typed(r) for r in twin.transmissions]
        assert [typed(r) for r in ledger.executions] == [typed(r) for r in twin.executions]
        assert ledger.executions[1].cold_start is True
        bytes_out = {
            workflow: ledger.usage_by_region(workflow)[REGIONS[0]].bytes_out
            for workflow in ("mixed", "ints")
        }
        assert _same_value(bytes_out["mixed"], 2048.0)
        assert _same_value(bytes_out["ints"], 2**40 + 1)

    def test_a_nan_start_is_in_no_window(self):
        ledger, twin = twins()
        append_both(ledger, twin, make_exec(start=math.nan))
        append_both(ledger, twin, make_exec(start=1.0))
        assert [g.n_executions for g in ledger.group("request_id").values()] == [1]
        assert len(ledger.executions_for("wf")) == 2
        assert_ledgers_match(ledger, twin, -math.inf, math.inf)


class TestLedgerIndexWork:
    """Host-independent work counts of a window query."""

    RECORDS_PER_HOUR = 300

    def _scan_starts(self, monkeypatch, hours: int) -> list:
        """For a ledger of ``hours`` hours of every record kind, each
        kind's (first in-window row - scan start, rows scanned, rows
        starting in or after the window) for a query of the last hour."""
        ledger = MeteringLedger()
        step = 3600.0 / self.RECORDS_PER_HOUR
        for i in range(hours * self.RECORDS_PER_HOUR):
            # Appended in end order: starts run up to 7 s ahead.
            start = i * step - (i % 5) * 1.75
            for kind in KINDS:
                append_record(ledger, make_record(kind, "a", f"r{i}", REGIONS[i % 3], start))
        scanned = []
        real = ledger_module._Table.first_row

        def counting(table, since_s):
            first = real(table, since_s)
            scanned.append((list(table.columns["start_s"]), first))
            return first

        monkeypatch.setattr(ledger_module._Table, "first_row", counting)
        since_s = (hours - 1) * 3600.0
        ledger.group("request_id", "a", since_s, hours * 3600.0)
        rows = []
        for starts, start in scanned:
            first = next(i for i, s in enumerate(starts) if s >= since_s)
            in_or_after = sum(1 for s in starts if s >= since_s)
            rows.append((first - start, len(starts) - start, in_or_after))
        return rows

    @pytest.mark.parametrize("hours", (2, 8, 32))
    def test_a_one_hour_window_scans_at_most_one_chunk_before_it(self, monkeypatch, hours):
        rows = self._scan_starts(monkeypatch, hours)
        assert len(rows) == len(KINDS)
        for lead, scanned, in_or_after in rows:
            assert 0 <= lead < ledger_module._CHUNK
            assert scanned < in_or_after + ledger_module._CHUNK


class TestNoRecordBuiltOnRead:
    """Every production read keys and prices from the columns: with
    ``_Table.records`` made to raise, each still answers.  Only
    indexing or iterating a :class:`RecordView` builds a record."""

    @staticmethod
    def _ledger():
        """Two workflows over a chain ``a -> b -> c``: per request three
        executions, two data hops, a publish, a KV write, and one
        framework transfer with no request id."""
        ledger = MeteringLedger()
        for i in range(40):
            wf, rid, t = ("chain", "other")[i % 2], f"r{i}", 90.0 * i
            for j, node in enumerate("abc"):
                ledger.record_execution(
                    workflow=wf, node=node, function=node, region=REGIONS[(i + j) % 3],
                    request_id=rid, start_s=t + j, duration_s=0.5, memory_mb=1769,
                    n_vcpu=1.0, cpu_total_time_s=0.35, cold_start=j == 0,
                    payload_bytes=1024, output_bytes=2048.0,
                )
            for j, edge in enumerate(("a->b", "b->c")):
                ledger.record_transmission(
                    workflow=wf, src_region=REGIONS[(i + j) % 3],
                    dst_region=REGIONS[(i + j + 1) % 3], size_bytes=4096.0,
                    start_s=t + j + 0.5, latency_s=0.02, request_id=rid, edge=edge,
                )
            ledger.record_message(
                workflow=wf, topic="b", region=REGIONS[i % 3], start_s=t + 0.5,
                size_bytes=1024.0, request_id=rid,
            )
            ledger.record_kv_access(
                workflow=wf, table="t", region=REGIONS[0], start_s=t + 2.5, write=True,
                request_id=rid,
            )
        ledger.record_transmission(
            workflow="chain", src_region=REGIONS[0], dst_region=REGIONS[1],
            size_bytes=1e6, start_s=10.0, latency_s=0.5, kind="image",
        )
        return ledger

    def test_production_reads_build_no_record(self, monkeypatch, chain_dag):
        ledger = self._ledger()
        carbon = CarbonIntensitySource(hours=24, seed=5)
        accountant = CarbonAccountant(
            carbon, CarbonModel(TransmissionScenario.best_case()), CostModel(PricingSource())
        )
        manager = MetricsManager(
            chain_dag, WorkflowConfig(home_region=REGIONS[0]), ledger, carbon
        )

        def built(*_args):
            raise AssertionError("a ledger record was built")

        monkeypatch.setattr(ledger_module._Table, "records", built)
        assert len(accountant.price_by_request(ledger, "chain")) == 20
        assert accountant.price_workflow(ledger, "chain").n_executions == 60
        assert accountant.price_workflow(ledger, "other", "r1", 0.0, 3600.0).n_transmissions == 2
        assert list(ledger.usage_by_region()) == sorted(REGIONS)
        assert ledger_series(ledger, accountant, 600.0)
        assert ledger_series(ledger, accountant, 3600.0, "other")
        assert ledger.request_ids("chain") == [f"r{i}" for i in range(0, 40, 2)]
        assert ledger.service_time("other", "r3") == 2.5
        for key, _oracle_key in KEYS:
            assert ledger.group(key, "chain", 600.0, 1800.0)
        assert manager.collect(now_s=3600.0) == 60


# -------------------------------------------------------------------- memory
#: Records a served request leaves of each kind on ``serve_shifted``'s two
#: apps (36 on average: 6 executions, 11 transmissions, 6 publishes and
#: 13 KV accesses).
NODES = tuple(f"stage{j}" for j in range(6))


def fill(ledger, request_ids) -> int:
    """Append ``serve_shifted``'s per-request mix for each request id,
    a quarter second apart; returns the records appended."""
    for i, rid in enumerate(request_ids):
        t = 0.25 * i
        for j in range(6):
            ledger.record_execution(
                workflow="wf", node=NODES[j], function=NODES[j], region=REGIONS[j % 3],
                request_id=rid, start_s=t + 0.1 * j, duration_s=0.5, memory_mb=1769,
                n_vcpu=1.0, cpu_total_time_s=0.35, cold_start=j == 0,
                payload_bytes=1024 if j else 2048.5, output_bytes=4096.0,
            )
            ledger.record_message(
                workflow="wf", topic=NODES[j], region=REGIONS[j % 3], start_s=t + 0.1 * j,
                size_bytes=1024.0, request_id=rid,
            )
        for j in range(11):
            ledger.record_transmission(
                workflow="wf", src_region=REGIONS[j % 3], dst_region=REGIONS[(j + 1) % 3],
                size_bytes=1024 if j % 2 else 1536.0, start_s=t + 0.05 * j, latency_s=0.02,
                request_id=rid, kind="data", edge="stage0->stage1",
            )
        for j in range(13):
            ledger.record_kv_access(
                workflow="wf", table="annotations", region=REGIONS[0], start_s=t + 0.05 * j,
                write=j % 3 != 0, request_id=rid,
            )
    return 36 * len(request_ids)


class TestLedgerMemory:
    """What the ledger allocates, counted by ``tracemalloc`` (host
    independent).  The request ids exist before the count: the executor
    makes them, the ledger only refers to them."""

    def test_ledger_bytes_per_record(self):
        request_ids = [f"req-{i:08d}" for i in range(1000)]
        tracemalloc.start()
        try:
            ledger = MeteringLedger()
            n = fill(ledger, request_ids)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ledger.kv_accesses) == 13 * 1000
        assert used / n <= 48

    def test_grouping_and_pricing_peak_per_grouped_record(self):
        """Group a 10,000-request ledger by request and price every
        group, dropping each footprint: at the peak the ledger holds the
        groups' row ids, not records."""
        ledger = MeteringLedger()
        n = fill(ledger, [f"req-{i:08d}" for i in range(10_000)])
        accountant = CarbonAccountant(
            CarbonIntensitySource(hours=24, seed=5),
            CarbonModel(TransmissionScenario.best_case()),
            CostModel(PricingSource()),
        )
        # The served hour's intensity tables fill on first use.
        warm = MeteringLedger()
        fill(warm, ["warm-up"])
        for group in warm.usage_by_region().values():
            accountant.price(group)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            groups = ledger.group("request_id", "wf")
            for group in groups.values():
                accountant.price(group)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(groups) == 10_000
        assert peak / n <= 16

"""Tests for the metering ledger."""

import math

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
from tests import ledger_pricing_oracle


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
        ledger.record_execution(make_exec(node="a", start=1.0, duration=2.0))
        ledger.record_execution(make_exec(node="b", start=4.0, duration=3.0))
        # §9.1: first function start (1.0) to last function end (7.0).
        assert ledger.service_time("wf", "r1") == pytest.approx(6.0)

    def test_service_time_missing_request(self):
        with pytest.raises(KeyError):
            MeteringLedger().service_time("wf", "ghost")

    def test_filter_by_workflow_and_request(self):
        ledger = MeteringLedger()
        ledger.record_execution(make_exec(workflow="wf1", request_id="r1"))
        ledger.record_execution(make_exec(workflow="wf1", request_id="r2"))
        ledger.record_execution(make_exec(workflow="wf2", request_id="r1"))
        assert len(ledger.executions_for("wf1")) == 2
        assert len(ledger.executions_for("wf1", "r1")) == 1
        assert len(ledger.executions_for(None, "r1")) == 2

    def test_request_ids_in_arrival_order(self):
        ledger = MeteringLedger()
        for rid in ("r3", "r1", "r3", "r2"):
            ledger.record_execution(make_exec(request_id=rid))
        assert ledger.request_ids("wf") == ["r3", "r1", "r2"]

    def test_transmission_intra_flag(self):
        rec = TransmissionRecord(
            workflow="wf", src_region="us-east-1", dst_region="us-east-1",
            size_bytes=10, start_s=0.0, latency_s=0.001,
        )
        assert rec.intra_region
        rec2 = TransmissionRecord(
            workflow="wf", src_region="us-east-1", dst_region="us-west-1",
            size_bytes=10, start_s=0.0, latency_s=0.03,
        )
        assert not rec2.intra_region

    def test_end_s_property(self):
        rec = make_exec(start=2.0, duration=3.0)
        assert rec.end_s == 5.0

    def test_clear(self):
        ledger = MeteringLedger()
        ledger.record_execution(make_exec())
        ledger.record_message(MessagingRecord(
            workflow="wf", topic="t", region="us-east-1", start_s=0.0, size_bytes=1,
        ))
        ledger.clear()
        assert not ledger.executions
        assert not ledger.messages


REGIONS = ("us-east-1", "us-west-2", "ca-central-1")
KINDS = ("executions", "transmissions", "messages", "kv_accesses")
#: A chunk small enough that a few dozen records span several.
SMALL_CHUNK = 4
KEYS = (
    lambda rec, region: rec.request_id,
    lambda rec, region: region,
    lambda rec, region: (rec.workflow, region),
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


def append(ledger, kind, record):
    {
        "executions": ledger.record_execution,
        "transmissions": ledger.record_transmission,
        "messages": ledger.record_message,
        "kv_accesses": ledger.record_kv_access,
    }[kind](record)


def assert_group_matches_oracle(ledger, since_s, until_s):
    """Every key and workflow filter: same keys in the same order, same
    records in the same order, the very same record objects."""
    for key in KEYS:
        for workflow in (None, "a", "b"):
            got = ledger.group(key, workflow, since_s, until_s)
            want = ledger_pricing_oracle.group(ledger, key, workflow, since_s, until_s)
            assert list(got.items()) == list(want.items()), (since_s, until_s, workflow)
            for k, group in got.items():
                for kind in KINDS:
                    mine, theirs = getattr(group, kind), getattr(want[k], kind)
                    assert all(a is b for a, b in zip(mine, theirs))


class TestLedgerIndexDifferential:
    """The indexed ``group`` against the whole-list scans of
    ``tests/ledger_pricing_oracle.py::group``, on ledgers spanning many
    (shrunk) chunks, queried between appends and across ``clear()``."""

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
        ledger = MeteringLedger()
        clock = 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ledger_module, "_CHUNK", SMALL_CHUNK)
            for _ in range(data.draw(st.integers(1, 8))):
                if data.draw(st.integers(0, 5)) == 0:
                    ledger.clear()
                for _ in range(data.draw(st.integers(0, 24))):
                    clock += data.draw(st.sampled_from((0.0, 1.0, 2.0)))
                    # A record may start before records appended ahead
                    # of it, as an execution's start runs ahead of its
                    # append by its cold start.
                    lag = data.draw(st.sampled_from((0.0, 0.0, 1.0, 3.0)))
                    kind = data.draw(st.sampled_from(KINDS))
                    append(ledger, kind, make_record(
                        kind,
                        data.draw(st.sampled_from(("a", "b"))),
                        data.draw(st.sampled_from(("", "r1", "r2", "r3"))),
                        data.draw(st.sampled_from(REGIONS)),
                        clock - lag,
                    ))
                for _ in range(data.draw(st.integers(1, 3))):
                    assert_group_matches_oracle(ledger, *self._window(data, ledger, clock))

    def test_clear_resets_the_index(self):
        ledger = MeteringLedger()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ledger_module, "_CHUNK", SMALL_CHUNK)
            for i in range(3 * SMALL_CHUNK):
                append(ledger, "executions", make_record("executions", "a", "r1", REGIONS[0], float(i)))
            assert_group_matches_oracle(ledger, 1.0, math.inf)
            ledger.clear()
            # Every start after the clear is later than every mark from
            # before it: a stale index would skip the chunks that hold them.
            for i in range(3 * SMALL_CHUNK):
                append(ledger, "executions", make_record("executions", "a", "r2", REGIONS[1], 100.0 + i))
            assert_group_matches_oracle(ledger, 100.0, math.inf)
            assert len(ledger.group(KEYS[0], "a", 100.0)["r2"].executions) == 3 * SMALL_CHUNK

    def test_appends_leave_the_index_to_the_next_query(self):
        # record_* stays one list append: the index catches up lazily.
        ledger = MeteringLedger()
        for i in range(3 * ledger_module._CHUNK + 5):
            append(ledger, "messages", make_record("messages", "a", "r1", REGIONS[0], float(i)))
        assert ledger._marks == ([], [], [], [])
        ledger.group(KEYS[0], since_s=0.0)
        assert ledger._marks[2] == [float((c + 1) * ledger_module._CHUNK - 1) for c in range(3)]

    def test_a_window_from_a_chunks_latest_start_keeps_that_record(self):
        # since_s equal to a chunk's mark: that chunk is scanned, not skipped.
        ledger = MeteringLedger()
        for i in range(3 * ledger_module._CHUNK):
            append(ledger, "kv_accesses", make_record("kv_accesses", "a", f"r{i}", REGIONS[0], float(i)))
        since_s = float(2 * ledger_module._CHUNK - 1)
        assert_group_matches_oracle(ledger, since_s, math.inf)
        assert next(iter(ledger.group(KEYS[0], since_s=since_s))) == f"r{int(since_s)}"


class TestLedgerIndexWork:
    """Host-independent work counts of a window query."""

    RECORDS_PER_HOUR = 300

    def _scan_starts(self, monkeypatch, hours: int) -> list:
        """For a ledger of ``hours`` hours of every record kind, each
        kind's (first in-window index - scan start, records scanned,
        records starting in or after the window) for a query of the
        last hour."""
        ledger = MeteringLedger()
        step = 3600.0 / self.RECORDS_PER_HOUR
        for i in range(hours * self.RECORDS_PER_HOUR):
            # Appended in end order: starts run up to 7 s ahead.
            start = i * step - (i % 5) * 1.75
            for kind in KINDS:
                append(ledger, kind, make_record(kind, "a", f"r{i}", REGIONS[i % 3], start))
        scanned = []
        real = ledger_module._from_window

        def counting(records, marks, since_s):
            tail = real(records, marks, since_s)
            scanned.append((records, len(records) - len(tail)))
            return tail

        monkeypatch.setattr(ledger_module, "_from_window", counting)
        since_s = (hours - 1) * 3600.0
        ledger.group(KEYS[0], "a", since_s, hours * 3600.0)
        rows = []
        for records, start in scanned:
            first = next(i for i, r in enumerate(records) if r.start_s >= since_s)
            in_or_after = sum(1 for r in records if r.start_s >= since_s)
            rows.append((first - start, len(records) - start, in_or_after))
        return rows

    @pytest.mark.parametrize("hours", (2, 8, 32))
    def test_a_one_hour_window_scans_at_most_one_chunk_before_it(self, monkeypatch, hours):
        rows = self._scan_starts(monkeypatch, hours)
        assert len(rows) == len(KINDS)
        for lead, scanned, in_or_after in rows:
            assert 0 <= lead < ledger_module._CHUNK
            assert scanned < in_or_after + ledger_module._CHUNK

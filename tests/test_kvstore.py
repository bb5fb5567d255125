"""Tests for the distributed key-value store (DynamoDB substitute)."""

import enum
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.faults import FaultPlan
from repro.cloud.kvstore import _snapshot
from repro.cloud.provider import SimulatedCloud
from repro.common.errors import (
    ConditionalCheckFailed,
    KeyValueStoreError,
    RegionUnavailableError,
)
from repro.obs.trace import Tracer
from tests import kv_snapshot_oracle


@pytest.fixture
def kv(cloud):
    return cloud.kvstore("us-east-1")


class TestBasicOps:
    def test_put_get_roundtrip(self, kv):
        kv.put("t", "k", {"a": 1})
        value, _lat = kv.get("t", "k")
        assert value == {"a": 1}

    def test_get_missing_returns_default(self, kv):
        value, _ = kv.get("t", "nope", default="fallback")
        assert value == "fallback"

    def test_values_are_isolated_copies(self, kv):
        original = {"nested": [1, 2]}
        kv.put("t", "k", original)
        original["nested"].append(3)  # caller mutation must not leak in
        value, _ = kv.get("t", "k")
        assert value == {"nested": [1, 2]}
        value["nested"].append(99)  # reader mutation must not leak back
        again, _ = kv.get("t", "k")
        assert again == {"nested": [1, 2]}

    def test_delete(self, kv):
        kv.put("t", "k", 1)
        kv.delete("t", "k")
        value, _ = kv.get("t", "k")
        assert value is None

    def test_scan(self, kv):
        kv.put("t", "a", 1)
        kv.put("t", "b", 2)
        table, _ = kv.scan("t")
        assert table == {"a": 1, "b": 2}


class TestAtomicOps:
    def test_update_applies_function(self, kv):
        kv.put("t", "k", 10)
        new, _ = kv.update("t", "k", lambda v: v + 5)
        assert new == 15
        assert kv.get("t", "k")[0] == 15

    def test_update_with_default(self, kv):
        new, _ = kv.update("t", "fresh", lambda v: (v or []) + ["x"])
        assert new == ["x"]

    def test_increment(self, kv):
        assert kv.increment("t", "ctr")[0] == 1
        assert kv.increment("t", "ctr")[0] == 2

    def test_increment_non_numeric_raises(self, kv):
        kv.put("t", "k", "text")
        with pytest.raises(KeyValueStoreError):
            kv.increment("t", "k")

    def test_conditional_put_succeeds_on_match(self, kv):
        kv.put("t", "k", "v1")
        kv.conditional_put("t", "k", expected="v1", value="v2")
        assert kv.get("t", "k")[0] == "v2"

    def test_conditional_put_fails_on_mismatch(self, kv):
        kv.put("t", "k", "v1")
        with pytest.raises(ConditionalCheckFailed):
            kv.conditional_put("t", "k", expected="other", value="v2")
        assert kv.get("t", "k")[0] == "v1"


class TestLatencyAndMetering:
    def test_local_access_is_base_latency(self, kv):
        latency = kv.put("t", "k", 1, caller_region="us-east-1")
        assert latency == pytest.approx(0.004)

    def test_remote_access_pays_rtt(self, cloud):
        kv = cloud.kvstore("us-east-1")
        remote = kv.put("t", "k", 1, caller_region="us-west-1")
        rtt = cloud.latency_source.rtt("us-west-1", "us-east-1")
        assert remote == pytest.approx(0.004 + rtt)

    def test_accesses_metered(self, cloud):
        kv = cloud.kvstore("us-east-1")
        kv.put("t", "k", 1, workflow="wf")
        kv.get("t", "k", workflow="wf")
        records = cloud.ledger.kv_accesses_for("wf")
        assert len(records) == 2
        assert [r.write for r in records] == [True, False]

    def test_failed_cas_still_charges_write(self, cloud):
        kv = cloud.kvstore("us-east-1")
        kv.put("t", "k", "v1", workflow="wf")
        with pytest.raises(ConditionalCheckFailed):
            kv.conditional_put("t", "k", "wrong", "v2", workflow="wf")
        writes = [r for r in cloud.ledger.kv_accesses_for("wf") if r.write]
        assert len(writes) == 2


class CountingDecoder:
    """Wraps the item so a decoded value is recognisable, and counts."""

    def __init__(self):
        self.calls = 0

    def __call__(self, item):
        self.calls += 1
        return ("decoded", item)


class TestDecodedGet:
    """``get(decode=)``: the decoding happens once per write of the item,
    the simulated read happens on every call."""

    ITEM = {"plans": {"0": {"a": "us-east-1"}}, "expires": None}

    def reads(self, kv, decode, n=5):
        return [kv.get("t", "k", decode=decode)[0] for _ in range(n)]

    def test_decoder_runs_once_per_write(self, kv):
        decode = CountingDecoder()
        kv.put("t", "k", self.ITEM)
        values = self.reads(kv, decode)
        assert values[0] == ("decoded", self.ITEM)
        assert all(v is values[0] for v in values)
        assert decode.calls == 1
        # Every write path bumps the version — even when the new
        # content equals the old.
        writes = [
            lambda: kv.put("t", "k", self.ITEM),
            lambda: kv.update("t", "k", lambda cur: cur),
            lambda: kv.conditional_put("t", "k", self.ITEM, self.ITEM),
            lambda: (kv.delete("t", "k"), kv.put("t", "k", self.ITEM)),
        ]
        for expected_calls, write in enumerate(writes, start=2):
            write()
            again = self.reads(kv, decode)
            assert decode.calls == expected_calls
            assert again[0] == values[0] and again[0] is not values[0]
            assert all(v is again[0] for v in again)

    def test_missing_key_returns_default_undecoded(self, kv):
        decode = CountingDecoder()
        assert kv.get("t", "k", default="fallback", decode=decode)[0] == "fallback"
        kv.put("t", "k", self.ITEM)
        self.reads(kv, decode)
        kv.delete("t", "k")
        assert kv.get("t", "k", decode=decode)[0] is None
        assert decode.calls == 1

    def test_decoders_compare_by_equality(self, kv):
        class Parsed:
            calls = 0

            @classmethod
            def from_item(cls, item):
                cls.calls += 1
                return cls()

        # The trap: every attribute access builds a new bound method.
        assert Parsed.from_item is not Parsed.from_item
        kv.put("t", "k", self.ITEM)
        first = kv.get("t", "k", decode=Parsed.from_item)[0]
        assert kv.get("t", "k", decode=Parsed.from_item)[0] is first
        assert Parsed.calls == 1
        # Another decoder of the same version is not served the first
        # one's result.
        other = CountingDecoder()
        assert kv.get("t", "k", decode=other)[0] == ("decoded", self.ITEM)
        assert other.calls == 1

    def test_raising_decoder_propagates_and_is_not_cached(self, cloud):
        kv = cloud.kvstore("us-east-1")
        calls = []

        def broken(item):
            calls.append(item)
            raise ValueError("malformed item")

        kv.put("t", "k", self.ITEM, workflow="wf")
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed item"):
                kv.get("t", "k", workflow="wf", decode=broken)
        assert len(calls) == 2
        # The read was still made and metered, as with a caller-side parse.
        assert [r.write for r in cloud.ledger.kv_accesses_for("wf")] == [
            True, False, False,
        ]
        decode = CountingDecoder()
        assert kv.get("t", "k", decode=decode)[0] == ("decoded", self.ITEM)

    def test_decoded_object_is_isolated_from_callers(self, kv):
        item = {"nested": [1, 2]}
        kv.put("t", "k", item)
        decoded = kv.get("t", "k", decode=CountingDecoder())[0]

        def keep(it):  # hands out the very copy it was given
            return it

        kept = kv.get("t", "k", decode=keep)[0]
        item["nested"].append(3)  # the dict passed to put
        plain = kv.get("t", "k")[0]
        plain["nested"].append(99)  # a plain read's result
        assert kv.get("t", "k")[0] == {"nested": [1, 2]}
        assert kv.get("t", "k", decode=keep)[0] is kept
        assert kept == {"nested": [1, 2]}
        assert decoded == ("decoded", {"nested": [1, 2]})

    def test_same_simulated_read_as_a_plain_get(self):
        """Ledger, latency, spans, counters, fault tally and the
        injector's RNG position do not depend on ``decode``."""

        def run(decode):
            tracer = Tracer()
            cloud = SimulatedCloud(
                seed=9,
                fault_plan=FaultPlan().with_kv_errors(0.3).with_kv_latency(3.0),
                tracer=tracer,
            )
            kv = cloud.kvstore("us-east-1")
            latencies = []
            for i in range(60):
                cloud.env.clock.advance(1.0)
                try:
                    if i % 7 == 0:
                        kv.put("t", "k", self.ITEM, workflow="wf")
                    _value, latency = kv.get(
                        "t", "k", caller_region="us-west-2", workflow="wf",
                        request_id=f"r{i}", decode=decode,
                    )
                    latencies.append(latency)
                except KeyValueStoreError:
                    latencies.append(None)
            return (
                latencies,
                list(cloud.ledger.kv_accesses),
                tracer.to_jsonl(),
                cloud.metrics.snapshot(),
                cloud.faults.snapshot(),
                cloud.faults._rng.random(),  # noqa: SLF001
            )

        plain, decoded = run(None), run(CountingDecoder())
        assert None in plain[0] and any(plain[0])  # both outcomes occurred
        assert plain == decoded


class TestExpire:
    """``expire`` models DynamoDB TTL expiry: the item goes, and nothing
    else happens — no request unit, no latency, no span, no fault."""

    def test_drops_the_item_and_tolerates_a_missing_one(self, kv):
        kv.put("t", "k", {"a": [1]})
        kv.put("t", "other", 2)
        kv.expire("t", "k")
        assert kv.get("t", "k")[0] is None
        assert kv.get("t", "other")[0] == 2
        kv.expire("t", "k")
        kv.expire("never-written", "k")

    def test_adds_no_ledger_record_span_or_metric(self):
        tracer = Tracer()
        cloud = SimulatedCloud(seed=3, tracer=tracer)
        kv = cloud.kvstore("us-east-1")
        kv.put("t", "k", {"a": 1}, caller_region="us-west-1", workflow="wf")
        before = (
            list(cloud.ledger.kv_accesses), tracer.to_jsonl(),
            cloud.metrics.snapshot(), cloud.now(),
        )
        kv.expire("t", "k")
        after = (
            list(cloud.ledger.kv_accesses), tracer.to_jsonl(),
            cloud.metrics.snapshot(), cloud.now(),
        )
        assert before == after
        assert len(before[0]) == 1

    def test_ignores_an_injected_outage(self):
        plan = (
            FaultPlan()
            .with_region_outage("us-east-1", start_s=10.0)
            .with_kv_errors(1.0, start_s=10.0)
        )
        cloud = SimulatedCloud(seed=3, fault_plan=plan)
        kv = cloud.kvstore("us-east-1")
        kv.put("t", "k", 1)
        cloud.env.clock.advance(20.0)
        with pytest.raises(RegionUnavailableError):
            kv.get("t", "k")
        injected = cloud.faults.snapshot()
        kv.expire("t", "k")
        assert cloud.faults.snapshot() == injected
        assert "k" not in kv._tables["t"]  # noqa: SLF001

    def test_drops_the_decode_memo(self, kv):
        calls = []

        def decode(item):
            calls.append(item)
            return ("decoded", item)

        kv.put("t", "k", {"v": 1})
        first = kv.get("t", "k", decode=decode)[0]
        assert ("t", "k") in kv._decoded  # noqa: SLF001
        kv.expire("t", "k")
        assert ("t", "k") not in kv._decoded  # noqa: SLF001
        assert kv.get("t", "k", decode=decode)[0] is None
        kv.put("t", "k", {"v": 1})
        again = kv.get("t", "k", decode=decode)[0]
        assert again == first and again is not first
        assert len(calls) == 2


class StrSub(str):
    pass


class IntSub(int):
    pass


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class DictSub(dict):
    pass


class ListSub(list):
    pass


@dataclass
class Point:
    x: float
    y: float


ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=4).map(StrSub),
    st.integers().map(IntSub),
    st.sampled_from(list(Colour)),
    st.builds(Point, st.floats(allow_nan=False), st.floats(allow_nan=False)),
)


def _containers(children):
    keys = st.text(max_size=3)
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.lists(children, max_size=3).map(ListSub),
        st.dictionaries(keys, children, max_size=3).map(DictSub),
        st.dictionaries(keys, children, max_size=3).map(OrderedDict),
        # One sub-object reachable twice.
        children.map(lambda child: [child, {"again": child}]),
    )


JSON_SHAPED = st.recursive(ATOMS, _containers, max_leaves=20)


def _shape(value, seen):
    """Types all the way down, plus the aliasing of mutable containers
    (the index of each one's first sighting), in traversal order."""
    if isinstance(value, (dict, list)):
        first = seen.setdefault(id(value), len(seen))
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return (type(value), first, tuple((k, _shape(v, seen)) for k, v in items))
    if isinstance(value, tuple):
        return (tuple, tuple(_shape(v, seen) for v in value))
    return (type(value), value)


def _mutable_ids(value, out):
    if isinstance(value, (dict, list)):
        out.add(id(value))
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            _mutable_ids(v, out)
    return out


class TestSnapshotDifferential:
    """The exact-type fast path copies as the former ``isinstance`` walk
    (``tests/kv_snapshot_oracle.py``) did: equal values of the same
    types, subclasses and the ``deepcopy`` fallback included, the same
    sharing (a sub-object reached twice is copied twice), and nothing
    mutable shared with the input."""

    @settings(max_examples=300)
    @given(JSON_SHAPED)
    def test_matches_the_isinstance_walk(self, value):
        fast = _snapshot(value)
        slow = kv_snapshot_oracle.snapshot(value)
        assert fast == slow
        assert _shape(fast, {}) == _shape(slow, {})
        assert _mutable_ids(fast, set()).isdisjoint(_mutable_ids(value, set()))

    def test_atoms_are_shared_and_containers_copied(self):
        leaf = np.float64(2.5)
        value = {"a": [leaf, "s"], "b": {"c": None}}
        copied = _snapshot(value)
        assert copied == value
        assert copied["a"][0] is leaf
        assert copied["a"] is not value["a"] and copied["b"] is not value["b"]

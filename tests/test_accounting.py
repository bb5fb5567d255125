"""Tests for ledger record pricing (carbon/cost accounting)."""

import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.cloud.ledger import (
    ExecutionRecord,
    KvAccessRecord,
    MessagingRecord,
    MeteringLedger,
    TransmissionRecord,
)
from repro.data.carbon import CarbonIntensitySource
from repro.data.pricing import PricingSource
from repro.experiments import harness
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.obs.timeseries import ledger_series
from tests import chaos_capture, golden, ledger_capture, ledger_pricing_oracle
from tests.ledger_pricing_oracle import ListLedger, append_record
from tests.test_ledger import assert_groups_match


@pytest.fixture
def carbon_source():
    # Flat 400 everywhere for predictable arithmetic.
    flat = {zone: [400.0] * 24 for zone in
            ("US-PJM", "US-CAISO", "US-BPA", "CA-QC", "CA-AB")}
    return CarbonIntensitySource(hours=24, overrides=flat)


@pytest.fixture
def accountant(carbon_source):
    return CarbonAccountant(
        carbon_source,
        CarbonModel(TransmissionScenario.best_case()),
        CostModel(PricingSource()),
    )


def exec_rec(region="us-east-1", duration=3600.0, rid="r1"):
    return ExecutionRecord(
        workflow="wf", node="n", function="n", region=region, request_id=rid,
        start_s=0.0, duration_s=duration, memory_mb=1769, n_vcpu=1.0,
        cpu_total_time_s=duration, cold_start=False, payload_bytes=0,
        output_bytes=0,
    )


def trans_rec(src="us-east-1", dst="ca-central-1", size=1024**3, rid="r1"):
    return TransmissionRecord(
        workflow="wf", src_region=src, dst_region=dst, size_bytes=size,
        start_s=0.0, latency_s=0.1, request_id=rid, kind="data", edge="a->b",
    )


class TestSingleRecords:
    def test_execution_carbon_matches_model(self, accountant):
        rec = exec_rec()
        carbon = accountant.execution_carbon_g(
            rec.region, rec.start_s, rec.duration_s, rec.memory_mb, rec.n_vcpu,
            rec.cpu_total_time_s,
        )
        # Full-util 1 vCPU + 1769 MB for 1 h at 400 g/kWh with PUE 1.11.
        expected = 400.0 * (3.5e-3 + 3.725e-4 * 1769 / 1024) * 1.11
        assert carbon == pytest.approx(expected)

    def test_transmission_uses_route_mean(self, accountant, carbon_source):
        carbon = accountant.transmission_carbon_g("us-east-1", "ca-central-1", 0.0, 1024**3)
        assert carbon == pytest.approx(400.0 * 0.001 * 1.0)

    def test_scenario_swap(self, accountant):
        worst = accountant.with_scenario(TransmissionScenario.worst_case())
        intra = ("us-east-1", "us-east-1", 0.0, 1024**3)
        assert worst.transmission_carbon_g(*intra) == 0.0
        assert accountant.transmission_carbon_g(*intra) > 0.0


class TestAggregation:
    def test_price_combines_components(self, accountant):
        ledger = MeteringLedger()
        for record in (
            exec_rec(),
            trans_rec(),
            MessagingRecord(workflow="wf", topic="t", region="us-east-1",
                            start_s=0.0, size_bytes=10, request_id="r1"),
            KvAccessRecord(workflow="wf", table="t", region="us-east-1",
                           start_s=0.0, write=True, request_id="r1"),
        ):
            append_record(ledger, record)
        fp = accountant.price(ledger.usage_by_region()["us-east-1"])
        assert fp.carbon_g == pytest.approx(fp.exec_carbon_g + fp.trans_carbon_g)
        assert fp.n_executions == 1
        assert fp.n_transmissions == 1
        assert fp.exec_seconds == 3600.0
        assert fp.bytes_moved == 1024**3
        assert fp.cost_usd > 0

    def test_price_workflow_filters_request(self, accountant):
        ledger = MeteringLedger()
        append_record(ledger, exec_rec(rid="r1"))
        append_record(ledger, exec_rec(rid="r2"))
        fp = accountant.price_workflow(ledger, "wf", request_id="r1")
        assert fp.n_executions == 1

    def test_price_workflow_time_window(self, accountant):
        ledger = MeteringLedger()
        early = exec_rec(rid="r1")
        append_record(ledger, early)
        late = ExecutionRecord(
            workflow="wf", node="n", function="n", region="us-east-1",
            request_id="r2", start_s=5000.0, duration_s=1.0, memory_mb=1769,
            n_vcpu=1.0, cpu_total_time_s=1.0, cold_start=False,
            payload_bytes=0, output_bytes=0,
        )
        append_record(ledger, late)
        fp = accountant.price_workflow(ledger, "wf", since_s=1000.0)
        assert fp.n_executions == 1


class TestPriceByRequest:
    def test_groups_match_per_request_pricing(self, accountant):
        ledger = MeteringLedger()
        for rid in ("r1", "r2"):
            append_record(ledger, exec_rec(rid=rid))
            append_record(ledger, trans_rec(rid=rid))
            append_record(ledger, MessagingRecord(
                workflow="wf", topic="t", region="us-east-1", start_s=0.0,
                size_bytes=10, request_id=rid,
            ))
        grouped = accountant.price_by_request(ledger, "wf")
        assert set(grouped) == {"r1", "r2"}
        for rid, fp in grouped.items():
            direct = accountant.price_workflow(ledger, "wf", rid)
            assert fp.carbon_g == pytest.approx(direct.carbon_g)
            assert fp.cost_usd == pytest.approx(direct.cost_usd)
            assert fp.n_executions == direct.n_executions

    def test_window_filter(self, accountant):
        ledger = MeteringLedger()
        append_record(ledger, exec_rec(rid="early"))
        late = ExecutionRecord(
            workflow="wf", node="n", function="n", region="us-east-1",
            request_id="late", start_s=9999.0, duration_s=1.0, memory_mb=1769,
            n_vcpu=1.0, cpu_total_time_s=1.0, cold_start=False,
            payload_bytes=0, output_bytes=0,
        )
        append_record(ledger, late)
        grouped = accountant.price_by_request(ledger, "wf", since_s=5000.0)
        assert set(grouped) == {"late"}

    def test_anonymous_records_dropped(self, accountant):
        ledger = MeteringLedger()
        append_record(ledger, TransmissionRecord(
            workflow="wf", src_region="us-east-1", dst_region="us-west-1",
            size_bytes=10, start_s=0.0, latency_s=0.1, request_id="",
            kind="image", edge="crane:x",
        ))
        assert accountant.price_by_request(ledger, "wf") == {}


class TestLedgerPricingGolden:
    """Chaos-ledger pricing, grouping and harness outcomes against the
    digests captured before the grouped rewrite
    (see ``tests/ledger_capture.py``)."""

    @pytest.mark.parametrize("app_name", ledger_capture.APPS)
    def test_pricing_matches_the_capture(self, app_name):
        golden.check("ledger_pricing", ledger_capture.capture(app_name), app_name)


# ---------------------------------------------------------------- differential
WORKFLOWS = ("wf_a", "wf_b")
REQUEST_IDS = ("", "r1", "r2", "r3")
REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")
#: Window edges of the 600 s and 3600 s grids, so records land on them.
EDGES_S = (0.0, 600.0, 1200.0, 3600.0, 4200.0, 7200.0)
WINDOWS = ((-math.inf, math.inf), (600.0, math.inf), (600.0, 3600.0), (3600.0, 4200.0))
SERIES_WINDOWS_S = (600.0, 1000.0, 3600.0)
#: A synthetic, hour-varying trace: a grouping that priced records in a
#: different order would change the float sums.
SOURCE = CarbonIntensitySource(hours=24, seed=5)

_starts = st.one_of(st.sampled_from(EDGES_S), st.floats(0.0, 3 * 3600.0))
_base = dict(
    workflow=st.sampled_from(WORKFLOWS),
    request_id=st.sampled_from(REQUEST_IDS),
    start_s=_starts,
)


@st.composite
def _execution(draw):
    duration = draw(st.floats(0.01, 900.0))
    return ExecutionRecord(
        node="n", function="f", region=draw(st.sampled_from(REGIONS)),
        duration_s=duration, memory_mb=draw(st.sampled_from((128, 1769, 3008))),
        n_vcpu=1.0, cpu_total_time_s=duration * draw(st.floats(0.0, 1.0)),
        cold_start=draw(st.booleans()), payload_bytes=0.0, output_bytes=0.0,
        **{k: draw(v) for k, v in _base.items()},
    )


_transmission = st.builds(
    TransmissionRecord,
    src_region=st.sampled_from(REGIONS), dst_region=st.sampled_from(REGIONS),
    size_bytes=st.floats(0.0, 2e9), latency_s=st.just(0.1), **_base,
)
_message = st.builds(
    MessagingRecord, topic=st.just("t"), region=st.sampled_from(REGIONS),
    size_bytes=st.floats(0.0, 1e6), **_base,
)
_kv_access = st.builds(
    KvAccessRecord, table=st.just("t"), region=st.sampled_from(REGIONS),
    write=st.booleans(), **_base,
)


@st.composite
def ledgers(draw) -> tuple:
    """A ledger and its list-ledger twin: two workflows, the empty
    request id, intra- and inter-region routes, every record kind; a
    request may exist only as messages or KV accesses."""
    ledger, twin = MeteringLedger(), ListLedger()
    for strategy, max_size in (
        (_execution(), 12), (_transmission, 12), (_message, 8), (_kv_access, 8)
    ):
        for rec in draw(st.lists(strategy, max_size=max_size)):
            append_record(ledger, rec)
            append_record(twin, rec)
    return ledger, twin


def twin_of(ledger) -> ListLedger:
    """A list ledger holding the records of ``ledger``, in order."""
    twin = ListLedger()
    for kind in ledger_capture.KINDS:
        for rec in getattr(ledger, kind):
            append_record(twin, rec)
    return twin


def _accountants(scenario: TransmissionScenario, source=SOURCE, pricing=None):
    args = (source, CarbonModel(scenario), CostModel(pricing or PricingSource()))
    return CarbonAccountant(*args), ledger_pricing_oracle.ScanAccountant(*args)


def _assert_matches_oracle(
    ledger, twin, production, oracle, windows=WINDOWS, request_ids=REQUEST_IDS
) -> None:
    """All five grouped paths equal the per-caller scans of the list
    ledger ``twin``, key order and record rows included."""
    workflows = sorted({r.workflow for r in twin.executions} | set(WORKFLOWS))
    for workflow in (None, *workflows):
        got = ledger.usage_by_region(workflow)
        want = ledger_pricing_oracle.usage_by_region(twin, workflow)
        assert_groups_match(got, want, twin)
        for region, group in got.items():
            theirs = want[region]
            assert production.price(group) == oracle.price(
                executions=theirs.executions, transmissions=theirs.transmissions,
                messages=theirs.messages, kv_accesses=theirs.kv_accesses,
            )
        for window_s in SERIES_WINDOWS_S:
            assert ledger_series(ledger, production, window_s, workflow) == (
                ledger_pricing_oracle.ledger_series(twin, oracle, window_s, workflow)
            )
    for workflow in workflows:
        for since, until in windows:
            got = production.price_by_request(ledger, workflow, since, until)
            want = oracle.price_by_request(twin, workflow, since, until)
            assert list(got.items()) == list(want.items())
            for rid in (None, *request_ids, "no-such-request"):
                assert production.price_workflow(ledger, workflow, rid, since, until) == (
                    oracle.price_workflow(twin, workflow, rid, since, until)
                )


class TestLedgerPricingDifferential:
    """``MeteringLedger.group`` + ``CarbonAccountant.price`` against the
    scans they replaced (``tests/ledger_pricing_oracle.py``)."""

    @settings(max_examples=150)
    @given(ledgers=ledgers(), worst=st.booleans())
    def test_random_ledgers_match_the_oracle(self, ledgers, worst):
        scenario = (TransmissionScenario.worst_case if worst else TransmissionScenario.best_case)()
        _assert_matches_oracle(*ledgers, *_accountants(scenario))

    @pytest.mark.parametrize("app_name", chaos_capture.APPS)
    def test_chaos_ledgers_match_the_oracle(self, app_name):
        cloud, _tracer, executor = chaos_capture.chaos_run(app_name)
        ledger, workflow = cloud.ledger, executor.deployed.name
        twin = twin_of(ledger)
        for scenario in ledger_capture.SCENARIOS.values():
            _assert_matches_oracle(
                ledger,
                twin,
                *_accountants(scenario, cloud.carbon_source, cloud.pricing_source),
                windows=ledger_capture.windows(ledger, workflow),
                request_ids=ledger_capture.request_ids(ledger, workflow),
            )


class TestHarnessLedgerPasses:
    """The harness reads the ledger a fixed number of times, however
    many requests it measured."""

    COUNTED = ("executions_for", "transmissions_for", "messages_for",
               "kv_accesses_for", "service_time", "group")

    def _ledger_queries(self, monkeypatch, n_invocations: int) -> int:
        calls = []
        for name in self.COUNTED:
            method = getattr(MeteringLedger, name)

            def counted(*args, _method=method, **kwargs):
                calls.append(1)
                return _method(*args, **kwargs)

            monkeypatch.setattr(MeteringLedger, name, counted)
        outcome = harness.run_coarse(
            get_app("text2speech_censoring"), "small", "us-west-2",
            seed=1, n_invocations=n_invocations, days=0.5,
        )
        assert outcome.n_invocations == n_invocations
        monkeypatch.undo()
        return len(calls)

    def test_queries_do_not_grow_with_requests(self, monkeypatch):
        assert self._ledger_queries(monkeypatch, 40) == self._ledger_queries(monkeypatch, 5)


@pytest.mark.parametrize("cls", [CarbonAccountant, MeteringLedger])
def test_public_method_annotations_resolve(cls):
    for name, member in vars(cls).items():
        if callable(member) and not name.startswith("_"):
            typing.get_type_hints(member)

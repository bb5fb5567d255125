"""The registry's ledger-backed families (``repro.cloud.ledger.LedgerMetrics``).

The families that restate a ledger row are folded from the rows at each
registry read.  ``TestLedgerFoldDifferential`` holds them to the
per-operation updates the services made before, reproduced by
``tests/telemetry_oracle.py`` into a second registry, over drawn traffic
and fault plans: every end-of-run value and every windowed point is
equal.  ``TestFoldCursor`` pins the fold's edges one by one, and
``TestUpdatesPerRequest`` counts what a served request still updates.
"""

import functools
import inspect

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.cloud.pubsub import Message
from repro.core.lifecycle import deploy_benchmark
from repro.core.migrator import DeploymentMigrator
from repro.obs.metrics import Counter, Histogram, parse_key
from repro.obs.timeseries import WindowedSampler
from tests import telemetry_oracle
from tests.chaos_capture import REGIONS, _rotating_plan_set

HOUR = 3600.0


def _only_ledger_backed(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if telemetry_oracle.ledger_backed(k)}


def _ledger_backed_points(points: list) -> list:
    return [p for p in points if telemetry_oracle.ledger_backed(p["metric"])]


@st.composite
def fault_plans(draw) -> FaultPlan:
    """Outage, invocation failures, KV errors and a partition, each
    drawn on or off, from after the deployment (at 0 s) on."""
    plan = FaultPlan()

    def window():
        start = draw(st.floats(1.0, 8 * HOUR))
        return start, start + draw(st.floats(60.0, 4 * HOUR))

    if draw(st.booleans()):
        start, end = window()
        plan = plan.with_region_outage(draw(st.sampled_from(REGIONS[1:])), start, end)
    failures = draw(st.sampled_from((0.0, 0.2, 0.5)))
    if failures:
        plan = plan.with_invocation_failures(failures, start_s=1.0)
    kv_errors = draw(st.sampled_from((0.0, 0.05, 0.3)))
    if kv_errors:
        plan = plan.with_kv_errors(kv_errors, start_s=1.0)
    if draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(REGIONS), min_size=2, max_size=2, unique=True))
        start, end = window()
        plan = plan.with_network_partition(a, b, start, end)
    return plan


def _serve(app_name, plan, seed, arrivals, window_s, sample_oracle=False):
    """Deploy ``app_name`` under ``plan`` with the oracle installed,
    spread it over every region, serve ``arrivals`` (seconds apart) and
    sample the cloud's registry, or the oracle's with ``sample_oracle``
    (one sampler a run: two would keep each other's flush alive).
    Returns ``(cloud, oracle registry, sampler)``."""
    cloud = SimulatedCloud(seed=seed, regions=REGIONS, fault_plan=plan)
    oracle = telemetry_oracle.install(cloud)
    sampler = WindowedSampler(oracle if sample_oracle else cloud.metrics, window_s=window_s)
    app = get_app(app_name)
    deployed, executor, utility = deploy_benchmark(app, cloud, benchmarking_fraction=0.2)
    report = DeploymentMigrator(utility, deployed, executor).migrate(
        _rotating_plan_set(deployed.dag, cloud.now())
    )
    assert report.activated, report.error
    sampler.attach(cloud.env)
    t = 1.0
    for gap in arrivals:
        t += gap
        cloud.env.schedule_at(t, functools.partial(executor.invoke, app.make_input("small")))
    cloud.run_until_idle()
    sampler.close()
    return cloud, oracle, sampler


def _check_against_the_oracle(*scenario) -> dict:
    """Run ``scenario`` twice, sampling the cloud, then the oracle;
    assert the ledger-backed snapshot and points equal the oracle's, and
    return the oracle's snapshot."""
    cloud, oracle, sampled = _serve(*scenario)
    want = oracle.snapshot()
    assert _only_ledger_backed(cloud.metrics.snapshot()) == want
    _, oracle_again, oracle_sampled = _serve(*scenario, True)
    assert oracle_again.snapshot() == want
    assert _ledger_backed_points(sampled.points) == oracle_sampled.points
    return want


class TestLedgerFoldDifferential:
    """The fold against the per-operation updates it replaced."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(
        app_name=st.sampled_from(("image_processing", "text2speech_censoring")),
        plan=fault_plans(),
        seed=st.integers(0, 2**16),
        arrivals=st.lists(st.floats(0.0, 3 * HOUR), min_size=1, max_size=6),
        window_s=st.sampled_from((600.0, HOUR, 6 * HOUR)),
    )
    def test_snapshot_and_every_window_equal_the_oracle(
        self, app_name, plan, seed, arrivals, window_s
    ):
        _check_against_the_oracle(app_name, plan, seed, arrivals, window_s)

    def test_the_chaos_scenario_moves_every_family_and_the_faults_fire(self):
        plan = (
            FaultPlan()
            .with_region_outage("us-west-2", 2 * HOUR, 5 * HOUR)
            .with_invocation_failures(0.2)
            .with_kv_errors(0.05)
            .with_network_partition("us-east-1", "us-west-1", 6 * HOUR, 9 * HOUR)
        )
        scenario = ("text2speech_censoring", plan, 3, [HOUR] * 12, HOUR)
        want = _check_against_the_oracle(*scenario)
        assert {parse_key(k)[0] for k in want} == telemetry_oracle.FAMILIES
        faults = _serve(*scenario)[0].faults.snapshot()
        assert {"invocation_failure", "kv_error", "network_partition", "region_outage"} <= set(faults)
        assert want["network.egress_bytes"] > 0


class TestFoldCursor:
    """Each read folds exactly the rows appended since the last one."""

    def test_rows_fold_once_across_reads(self, cloud):
        snap = cloud.metrics.snapshot
        assert snap()["network.transfer_bytes"]["count"] == 0
        cloud.network.transfer("us-east-1", "us-west-1", 10.0)
        assert snap()["network.transfers{kind=data}"] == 1.0
        assert snap()["network.transfers{kind=data}"] == 1.0
        cloud.network.transfer("us-east-1", "us-west-1", 10.0, kind="image")
        after = snap()
        assert after["network.transfers{kind=data}"] == 1.0
        assert after["network.transfers{kind=image}"] == 1.0
        assert after["network.transfer_bytes"]["count"] == 2
        assert after["network.egress_bytes"] == 20.0

    def test_intra_region_transfers_are_no_egress(self, cloud):
        cloud.network.transfer("us-east-1", "us-east-1", 5_000.0)
        snap = cloud.metrics.snapshot()
        assert snap["network.egress_bytes"] == 0.0
        assert snap["network.transfer_bytes"]["sum"] == 5_000.0

    def test_a_size_on_a_bound_counts_in_that_bounds_bucket(self, cloud):
        cloud.network.transfer("us-east-1", "us-west-1", 1_000)
        cloud.network.transfer("us-east-1", "us-west-1", 1_000.5)
        buckets = cloud.metrics.snapshot()["network.transfer_bytes"]["buckets"]
        assert (buckets["1000"], buckets["10000"]) == (1, 1)

    def test_every_read_is_current(self, cloud):
        store = cloud.kvstore("us-east-1")
        store.put("t", "k", 1)
        store.get("t", "k")
        assert dict(cloud.metrics.iter_counters())["kv.writes{region=us-east-1}"].value == 1.0
        store.get("t", "k")
        assert dict(cloud.metrics.iter_counters())["kv.reads{region=us-east-1}"].value == 2.0
        n = len(cloud.metrics)
        cloud.pubsub.create_topic("t", "us-west-1")
        cloud.pubsub.publish("t", "us-west-1", Message(None, 64.0), source_region="us-east-1")
        assert len(cloud.metrics) == n + 2  # pubsub.publishes, network.transfers
        hist = dict(cloud.metrics.iter_histograms())["network.transfer_latency_s"]
        assert hist.count == 1

    def test_series_appear_where_they_did_before_the_fold(self, cloud):
        keys = set(cloud.metrics.snapshot())
        assert keys == {"faas.duration_s", "network.egress_bytes",
                        "network.transfer_bytes", "network.transfer_latency_s"}
        cloud.kvstore("ca-central-1")
        assert set(cloud.metrics.snapshot()) - keys == {
            "kv.access_latency_s", "kv.reads{region=ca-central-1}",
            "kv.writes{region=ca-central-1}",
        }

    def test_the_cloud_takes_no_registry(self):
        assert "metrics" not in inspect.signature(SimulatedCloud).parameters


class TestUpdatesPerRequest:
    """One served request updates only what no ledger row states."""

    def test_only_the_non_ledger_families_move(self, monkeypatch):
        cloud = SimulatedCloud(seed=5, regions=REGIONS)
        app = get_app("image_processing")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        DeploymentMigrator(utility, deployed, executor).migrate(
            _rotating_plan_set(deployed.dag, cloud.now())
        )
        cloud.run_until_idle()
        rows = [len(cloud.ledger.kv_accesses), len(cloud.ledger.messages)]
        moved = []
        for cls, method in ((Counter, "inc"), (Histogram, "observe")):
            original = getattr(cls, method)
            monkeypatch.setattr(cls, method, lambda self, *a, o=original: (
                moved.append(parse_key(self.name)[0]), o(self, *a))[1])
        executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        monkeypatch.undo()
        kv_accesses = len(cloud.ledger.kv_accesses) - rows[0]
        deliveries = len(cloud.ledger.messages) - rows[1]
        assert executor.reliability().completed_requests == 1
        assert sorted(moved) == sorted(
            ["executor.requests", "executor.requests_finished",
             "executor.watchdogs_cancelled", "executor.request_latency_s"]
            + ["kv.access_latency_s"] * kv_accesses
            + ["pubsub.deliveries"] * deliveries
        )
        assert kv_accesses > 0 and deliveries > 0

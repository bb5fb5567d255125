"""Tests for the Metrics Manager (§7.2): ingestion, selective
forgetting, model data, and forecasting integration."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.ledger import ExecutionRecord, MeteringLedger, TransmissionRecord
from repro.common.clock import SECONDS_PER_DAY
from repro.data.carbon import CarbonIntensitySource
from repro.metrics.manager import MetricsManager
from repro.model.config import WorkflowConfig
from repro.model.dag import Edge, Node, WorkflowDAG
from tests import control_loop_oracle
from tests.ledger_pricing_oracle import append_record


def exec_rec(node, region, rid, start=0.0, duration=1.0, workflow="chain",
             util=0.7):
    return ExecutionRecord(
        workflow=workflow, node=node, function=node, region=region,
        request_id=rid, start_s=start, duration_s=duration, memory_mb=1769,
        n_vcpu=1.0, cpu_total_time_s=duration * util, cold_start=False,
        payload_bytes=0.0, output_bytes=0.0,
    )


def trans_rec(src, dst, src_region, dst_region, rid, size=1e6, start=0.0,
              workflow="chain"):
    return TransmissionRecord(
        workflow=workflow, src_region=src_region, dst_region=dst_region,
        size_bytes=size, start_s=start, latency_s=0.01, request_id=rid,
        kind="data", edge=f"{src}->{dst}",
    )


@pytest.fixture
def setup(chain_dag):
    ledger = MeteringLedger()
    config = WorkflowConfig(home_region="us-east-1")
    carbon = CarbonIntensitySource(hours=24 * 14, seed=0)
    mm = MetricsManager(chain_dag, config, ledger, carbon)
    return mm, ledger


class TestIngestion:
    def test_collect_builds_invocations(self, setup):
        mm, ledger = setup
        for node in ("a", "b", "c"):
            append_record(ledger, exec_rec(node, "us-east-1", "r1"))
        assert mm.collect(now_s=10.0) == 3
        assert mm.invocation_count == 1

    def test_collect_is_incremental(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1"))
        mm.collect(10.0)
        append_record(ledger, exec_rec("a", "us-east-1", "r2"))
        assert mm.collect(20.0) == 1
        assert mm.invocation_count == 2

    def test_other_workflows_ignored(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1", workflow="other"))
        assert mm.collect(10.0) == 0

    def test_execution_time_dist_from_history(self, setup):
        mm, ledger = setup
        for i, duration in enumerate((1.0, 2.0, 3.0)):
            append_record(ledger, 
                exec_rec("a", "us-east-1", f"r{i}", duration=duration)
            )
        mm.collect(10.0)
        dist = mm.execution_time_dist("a", "us-east-1")
        assert dist.support().tolist() == [1.0, 2.0, 3.0]

    def test_missing_region_falls_back_to_home(self, setup):
        # §7.1: new regions borrow the home region's distribution.
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1", duration=5.0))
        mm.collect(10.0)
        dist = mm.execution_time_dist("a", "ca-central-1")
        assert dist is mm.execution_time_dist("a", "us-east-1")
        assert dist.support().tolist() == [5.0]

    def test_no_history_anywhere_raises(self, setup):
        mm, _ = setup
        with pytest.raises(ValueError, match="home"):
            mm.execution_time_dist("a", "us-east-1")

    def test_fully_shifted_history_pools_other_regions(self, setup):
        # After a long fully-shifted run the window holds no home-region
        # sample: the home distribution (and, through it, any region the
        # node never ran in) pools what the node did record, in
        # invocation order.
        mm, ledger = setup
        for rid, region, duration in (
            ("r1", "us-west-2", 4.0),
            ("r2", "ca-central-1", 2.0),
            ("r3", "us-west-2", 6.0),
        ):
            append_record(ledger, exec_rec("a", region, rid, duration=duration))
        mm.collect(10.0)
        home = mm.execution_time_dist("a", "us-east-1")
        assert home.support().tolist() == [4.0, 2.0, 6.0]
        assert mm.execution_time_dist("a", "us-west-1") is home
        # Regions with their own history keep it.
        assert mm.execution_time_dist("a", "us-west-2").support().tolist() == [4.0, 6.0]
        with pytest.raises(ValueError, match="any region"):
            mm.execution_time_dist("b", "us-east-1")

    def test_edge_size_dist(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1"))
        append_record(ledger, 
            trans_rec("a", "b", "us-east-1", "us-east-1", "r1", size=5e6)
        )
        mm.collect(10.0)
        assert mm.edge_size_dist("a", "b").support().tolist() == [5e6]

    def test_edge_size_prior_fallback(self, setup):
        # There is no prior to fall back to: an edge with no payload
        # history cannot be sized.
        mm, _ = setup
        with pytest.raises(ValueError, match="no payload-size history"):
            mm.edge_size_dist("b", "c")

    def test_utilization_from_insights(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1", util=0.4))
        append_record(ledger, exec_rec("a", "us-east-1", "r2", util=0.6))
        mm.collect(10.0)
        assert mm.node_cpu_utilization("a") == pytest.approx(0.5)

    def test_utilization_default_without_data(self, setup):
        mm, _ = setup
        assert mm.node_cpu_utilization("a") == pytest.approx(0.7)

    def test_external_data_declaration(self, setup):
        mm, _ = setup
        mm.declare_external_data("b", "us-east-1", 1e6)
        assert mm.node_external_bytes("b") == ("us-east-1", 1e6)
        assert mm.node_external_bytes("a") == (None, 0.0)


class TestEdgeProbability:
    def test_unconditional_edge_is_one(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1"))
        mm.collect(10.0)
        assert mm.edge_probability("a", "b") == 1.0

    def test_conditional_probability_learned(self, diamond_dag):
        ledger = MeteringLedger()
        config = WorkflowConfig(home_region="us-east-1")
        carbon = CarbonIntensitySource(hours=24, seed=0)
        mm = MetricsManager(diamond_dag, config, ledger, carbon)
        # a ran 4 times; conditional edge a->c taken twice.
        for i in range(4):
            append_record(ledger, 
                exec_rec("a", "us-east-1", f"r{i}", workflow="diamond")
            )
        for i in range(2):
            append_record(ledger, 
                trans_rec("a", "c", "us-east-1", "us-east-1", f"r{i}",
                          workflow="diamond")
            )
        mm.collect(10.0)
        assert mm.edge_probability("a", "c") == pytest.approx(0.5)

    def test_conditional_default_without_history(self, diamond_dag):
        ledger = MeteringLedger()
        mm = MetricsManager(
            diamond_dag, WorkflowConfig(home_region="us-east-1"), ledger,
            CarbonIntensitySource(hours=24),
        )
        assert mm.edge_probability("a", "c") == 0.0
        assert mm.edge_probability("a", "b") == 1.0


class TestRetention:
    def test_thirty_day_window(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "old", start=0.0))
        append_record(ledger, 
            exec_rec("a", "us-east-1", "new", start=31 * SECONDS_PER_DAY)
        )
        mm.collect(31 * SECONDS_PER_DAY + 10)
        assert mm.invocation_count == 1
        assert mm.invocations_since(0.0) == 1

    def test_expiry_alone_drops_what_was_learned(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "old", start=0.0, duration=2.0))
        append_record(ledger, 
            exec_rec("a", "us-east-1", "new", start=SECONDS_PER_DAY, duration=3.0))
        mm.collect(10.0)
        assert mm.execution_time_dist("a", "us-east-1").support().tolist() == [2.0, 3.0]
        version = mm.version
        assert mm.collect(31 * SECONDS_PER_DAY) == 0
        assert mm.version > version
        assert mm.execution_time_dist("a", "us-east-1").support().tolist() == [3.0]

    def test_cap_evicts_fifo(self, chain_dag):
        ledger = MeteringLedger()
        mm = MetricsManager(
            chain_dag, WorkflowConfig(home_region="us-east-1"), ledger,
            CarbonIntensitySource(hours=24), max_invocations=10,
        )
        for i in range(25):
            append_record(ledger, exec_rec("a", "us-east-1", f"r{i:03d}"))
        mm.collect(10.0)
        assert mm.invocation_count == 10

    def test_selective_forgetting_keeps_unique_dag_info(self, chain_dag):
        # §7.2: the only invocation representing a (node, region) pair
        # survives eviction even when it is the oldest.
        ledger = MeteringLedger()
        mm = MetricsManager(
            chain_dag, WorkflowConfig(home_region="us-east-1"), ledger,
            CarbonIntensitySource(hours=24), max_invocations=5,
        )
        # Oldest invocation ran node a in ca-central-1 — nothing else did.
        append_record(ledger, exec_rec("a", "ca-central-1", "unique", start=0.0))
        for i in range(10):
            append_record(ledger, 
                exec_rec("a", "us-east-1", f"r{i:03d}", start=1.0 + i)
            )
        mm.collect(100.0)
        assert mm.invocation_count <= 6  # cap honoured (plus the survivor)
        # The unique ca-central-1 sample is still available.
        dist = mm.execution_time_dist("a", "ca-central-1")
        assert len(dist) == 1

    def test_forgetting_keeps_the_last_of_several_representatives(self, chain_dag):
        # The two oldest invocations are the only ones that ran a in
        # ca-central-1: forgetting the first leaves the second as the
        # key's sole representative, so the second stays.
        ledger = MeteringLedger()
        mm = MetricsManager(
            chain_dag, WorkflowConfig(home_region="us-east-1"), ledger,
            CarbonIntensitySource(hours=24), max_invocations=5,
        )
        for i in range(2):
            append_record(ledger, exec_rec(
                "a", "ca-central-1", f"ca{i}", start=float(i), duration=9.0))
        for i in range(10):
            append_record(ledger, exec_rec(
                "a", "us-east-1", f"r{i:03d}", start=2.0 + i))
        mm.collect(100.0)
        assert mm.invocation_count == 5
        assert mm._info_counts[("exec", "a", "ca-central-1")] == 1
        assert list(mm._invocations) == ["ca1", "r006", "r007", "r008", "r009"]
        assert mm.execution_time_dist("a", "ca-central-1").support().tolist() == [9.0]

    def test_forgetting_keeps_a_route_only_one_invocation_took(self, chain_dag):
        # One invocation moved a->b and b->c over the same region pair:
        # it alone represents that route, however many edges took it.
        ledger = MeteringLedger()
        mm = MetricsManager(
            chain_dag, WorkflowConfig(home_region="us-east-1"), ledger,
            CarbonIntensitySource(hours=24), max_invocations=2,
        )
        for node in ("a", "b", "c"):
            append_record(ledger, exec_rec(node, "us-east-1", "old", start=0.0))
        for src, dst in (("a", "b"), ("b", "c")):
            append_record(ledger, 
                trans_rec(src, dst, "us-east-1", "us-west-2", "old"))
        for i in range(3):
            for node in ("a", "b", "c"):
                append_record(ledger, exec_rec(node, "us-east-1", f"r{i}", start=1.0 + i))
        mm.collect(100.0)
        assert list(mm._invocations) == ["old", "r2"]
        assert mm._info_counts[("route", "us-east-1", "us-west-2")] == 2

    def test_average_runtime(self, setup):
        mm, ledger = setup
        for node, dur in (("a", 1.0), ("b", 2.0)):
            append_record(ledger, exec_rec(node, "us-east-1", "r1", duration=dur))
        append_record(ledger, exec_rec("a", "us-east-1", "r2", duration=5.0))
        mm.collect(10.0)
        assert mm.average_runtime_s() == pytest.approx((3.0 + 5.0) / 2)


class TestForecastIntegration:
    def test_refit_requires_week_of_history(self, setup):
        mm, _ = setup
        assert not mm.forecasts.refit("us-east-1", now_hour=100)
        assert mm.forecasts.refit("us-east-1", now_hour=24 * 7)
        assert mm.forecasts.has_forecast("us-east-1")

    def test_carbon_for_hour_uses_forecast_when_available(self, setup):
        mm, _ = setup
        hour = 24 * 7 + 5
        actual = mm.carbon_for_hour("us-east-1", hour, use_forecast=True)
        mm.forecasts.refit("us-east-1", now_hour=24 * 7)
        forecast = mm.carbon_for_hour("us-east-1", hour, use_forecast=True)
        raw = mm.carbon_for_hour("us-east-1", hour, use_forecast=False)
        assert actual == raw  # before refit: actuals
        assert forecast != raw or abs(forecast - raw) < 50  # plausible forecast

    def test_forecast_before_fit_raises(self, setup):
        mm, _ = setup
        with pytest.raises(RuntimeError):
            mm.forecasts.forecast_at("us-east-1", 200)

    def test_past_hours_return_actuals(self, setup):
        mm, _ = setup
        mm.forecasts.refit("us-east-1", now_hour=24 * 7)
        past = mm.forecasts.forecast_at("us-east-1", 24 * 7 - 10)
        assert past == mm.carbon_for_hour("us-east-1", 24 * 7 - 10,
                                          use_forecast=False)


class TestInputSizeLearning:
    def test_input_sizes_learned_from_client_transfers(self, setup):
        mm, ledger = setup
        append_record(ledger, exec_rec("a", "us-east-1", "r1"))
        append_record(ledger, TransmissionRecord(
            workflow="chain", src_region="us-east-1", dst_region="us-east-1",
            size_bytes=7e5, start_s=0.0, latency_s=0.01, request_id="r1",
            kind="data", edge="$input->a",
        ))
        mm.collect(10.0)
        assert mm.input_size_dist().support().tolist() == [7e5]

    def test_zero_default_without_data(self, setup):
        mm, _ = setup
        assert mm.input_size_dist().support().tolist() == [0.0]


REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")
CARBON = CarbonIntensitySource(hours=24 * 14, seed=0)


def diamond() -> WorkflowDAG:
    dag = WorkflowDAG("diamond")
    for name in ("a", "b", "c", "d"):
        dag.add_node(Node(name=name, function=name))
    for src, dst, conditional in (
        ("a", "b", False), ("a", "c", True), ("b", "d", False), ("c", "d", False)
    ):
        dag.add_edge(Edge(src, dst, conditional=conditional))
    dag.validate()
    return dag


def outcome(build):
    """A distribution's support, or the error building it raises."""
    try:
        return build().support().tolist()
    except ValueError as exc:
        return ("ValueError", str(exc))


ACCESSORS = {"exec": "execution_time_dist", "edge": "edge_size_dist",
             "prob": "edge_probability", "input": "input_size_dist"}


def read(mm, key):
    """One learned-data read: a support, a probability, or the error."""
    kind, *args = key
    answer = lambda: getattr(mm, ACCESSORS[kind])(*args)  # noqa: E731
    return answer() if kind == "prob" else outcome(answer)


class TestLearnedDistributionsDifferential:
    """A production manager and ``tests/control_loop_oracle.py``'s
    :class:`ScanMetricsManager` (per-key scans, record-at-a-time
    collect) over one ledger: equal stores and versions after every
    collect, and every learned read — each (node, region) and edge
    distribution, each edge probability and the input sizes — equal,
    asked for in the same random order of both, across collects,
    expiry (also in a collect that brings no record) and eviction."""

    @settings(max_examples=120)
    @given(st.data())
    def test_random_stores_match_the_oracle(self, data):
        dag = diamond()
        ledger = MeteringLedger()
        args = (dag, WorkflowConfig(home_region="us-east-1"), ledger, CARBON)
        kwargs = dict(max_invocations=data.draw(st.integers(2, 12)), retention_days=1)
        mm = MetricsManager(*args, **kwargs)
        ref = control_loop_oracle.ScanMetricsManager(*args, **kwargs)
        # Nodes that never run at home exercise the pooled fallback.
        regions = {
            node: data.draw(st.sampled_from((REGIONS, REGIONS[1:])))
            for node in dag.node_names
        }
        edges = [(e.src, e.dst) for e in dag.edges] + [("$input", "a"), ("a", "zz")]
        keys = [("exec", n, r) for n in dag.node_names for r in REGIONS]
        keys += [(kind, e.src, e.dst) for e in dag.edges for kind in ("edge", "prob")]
        keys += [("input",)]
        now, n_requests = 0.0, 0
        for _ in range(data.draw(st.integers(1, 6))):
            for _ in range(data.draw(st.integers(0, 16))):
                now += data.draw(st.sampled_from((1.0, 600.0, 0.4 * SECONDS_PER_DAY)))
                # A known request id re-ingests: its node may change region.
                rid = f"r{data.draw(st.integers(0, n_requests))}"
                n_requests += rid == f"r{n_requests}"
                if data.draw(st.booleans()):
                    node = data.draw(st.sampled_from(dag.node_names))
                    append_record(ledger, exec_rec(
                        node, data.draw(st.sampled_from(regions[node])), rid, start=now,
                        duration=data.draw(st.floats(0.01, 60.0)), workflow="diamond",
                    ))
                else:
                    src, dst = data.draw(st.sampled_from(edges))
                    append_record(ledger, trans_rec(
                        src, dst, data.draw(st.sampled_from(REGIONS)),
                        data.draw(st.sampled_from(REGIONS)), rid, start=now,
                        size=data.draw(st.floats(0.0, 1e7)), workflow="diamond",
                    ))
            # Time may pass with no record, so a collect expires alone.
            now += data.draw(st.sampled_from((0.0, 0.7 * SECONDS_PER_DAY)))
            assert mm.collect(now) == ref.collect(now)
            assert mm._invocations == ref._invocations
            assert mm._info_counts == ref._info_counts
            assert mm.version == ref.version
            for key in data.draw(st.permutations(keys)):
                assert read(mm, key) == read(ref, key), key

    def test_past_the_cap_each_distribution_keeps_the_latest(self, setup):
        mm, ledger = setup
        for i in range(2500):
            append_record(ledger, exec_rec("a", "us-east-1", f"r{i}", duration=float(i)))
        mm.collect(10.0)
        assert mm.execution_time_dist("a", "us-east-1").support().tolist() == [
            float(i) for i in range(500, 2500)
        ]


def every_read(mm, dag) -> list:
    """Every distribution and edge probability a manager serves for
    ``dag``: supports, or the error building them raises."""
    reads = [
        outcome(lambda n=n, r=r: mm.execution_time_dist(n, r))
        for n in dag.node_names for r in REGIONS
    ]
    for e in dag.edges:
        reads.append(outcome(lambda e=e: mm.edge_size_dist(e.src, e.dst)))
        reads.append(mm.edge_probability(e.src, e.dst))
    return reads + [mm.input_size_dist().support().tolist()]


class TestTransmissionOnlyCollect:
    """A collect that ingests data transmissions and no execution still
    changes the store (edge sizes, edge probabilities, input sizes):
    every read after it equals a fresh manager's over the same ledger,
    and the version moves so evaluation caches drop what they priced."""

    def managers(self):
        dag = diamond()
        ledger = MeteringLedger()
        args = (dag, WorkflowConfig(home_region="us-east-1"), ledger, CARBON)
        return dag, ledger, args, MetricsManager(*args)

    def test_reads_equal_a_fresh_managers(self):
        dag, ledger, args, mm = self.managers()
        for node in ("a", "b", "d"):
            append_record(ledger, exec_rec(node, "us-east-1", "r0", workflow="diamond"))
        append_record(ledger, trans_rec(
            "a", "b", "us-east-1", "us-east-1", "r0", size=0.0, workflow="diamond"))
        mm.collect(10.0)
        every_read(mm, dag)
        version = mm.version
        for src, dst, rid, size in (("a", "b", "r0", 1.0), ("a", "c", "r0", 2.0),
                                    ("$input", "a", "r1", 3.0)):
            append_record(ledger, trans_rec(
                src, dst, "us-east-1", "us-west-1", rid, size=size, workflow="diamond"))
        assert mm.collect(20.0) == 0
        fresh = MetricsManager(*args)
        fresh.collect(20.0)
        assert every_read(mm, dag) == every_read(fresh, dag)
        assert mm.version > version

    @settings(max_examples=60)
    @given(st.data())
    def test_random_transmissions_read_as_fresh(self, data):
        dag, ledger, args, mm = self.managers()
        edges = [(e.src, e.dst) for e in dag.edges] + [("$input", "a")]
        rids = [f"r{i}" for i in range(data.draw(st.integers(1, 4)))]
        for rid in rids:
            for node in data.draw(st.sets(st.sampled_from(dag.node_names), min_size=1)):
                append_record(ledger, exec_rec(
                    node, data.draw(st.sampled_from(REGIONS)), rid, workflow="diamond",
                    duration=data.draw(st.floats(0.01, 60.0))))
        for collect_at in (10.0, 20.0, 30.0):
            for _ in range(data.draw(st.integers(1, 6))):
                src, dst = data.draw(st.sampled_from(edges))
                append_record(ledger, trans_rec(
                    src, dst, data.draw(st.sampled_from(REGIONS)),
                    data.draw(st.sampled_from(REGIONS)),
                    data.draw(st.sampled_from(rids + ["new"])),
                    size=data.draw(st.floats(0.0, 1e7)), workflow="diamond"))
            version = mm.version
            mm.collect(collect_at)
            fresh = MetricsManager(*args)
            fresh.collect(collect_at)
            assert every_read(mm, dag) == every_read(fresh, dag)
            assert mm.version > version


class CountingStore(OrderedDict):
    """An invocation store that counts passes over its values."""

    passes = 0

    def values(self):
        self.passes += 1
        return super().values()


class TestLearnedDistributionsWork:
    def test_one_store_pass_per_version_however_many_keys(self, setup):
        mm, ledger = setup
        mm._invocations = CountingStore(mm._invocations)
        keys = [(n, r) for n in ("a", "b", "c") for r in REGIONS]
        for version in range(1, 4):
            for i in range(20):
                rid = f"v{version}-{i}"
                for node in ("a", "b", "c"):
                    append_record(ledger, exec_rec(node, REGIONS[i % 2], rid))
                append_record(ledger, trans_rec("a", "b", "us-east-1", "us-east-1", rid))
                append_record(ledger, trans_rec("b", "c", "us-east-1", "us-east-1", rid))
            mm.collect(10.0)
            assert mm.version == version
            mm._invocations.passes = 0
            for _ in range(3):
                for node, region in keys:
                    mm.execution_time_dist(node, region)
                for src, dst in (("a", "b"), ("b", "c")):
                    mm.edge_size_dist(src, dst)
                    mm.edge_probability(src, dst)
                mm.input_size_dist()
            assert mm._invocations.passes == 1

"""Tests for the Metrics Manager (§7.2): ingestion, selective
forgetting, model data, and forecasting integration."""

import pytest

from repro.cloud.ledger import ExecutionRecord, MeteringLedger, TransmissionRecord
from repro.common.clock import SECONDS_PER_DAY
from repro.data.carbon import CarbonIntensitySource
from repro.metrics.manager import MetricsManager
from repro.model.config import WorkflowConfig


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
            ledger.record_execution(exec_rec(node, "us-east-1", "r1"))
        assert mm.collect(now_s=10.0) == 3
        assert mm.invocation_count == 1

    def test_collect_is_incremental(self, setup):
        mm, ledger = setup
        ledger.record_execution(exec_rec("a", "us-east-1", "r1"))
        mm.collect(10.0)
        ledger.record_execution(exec_rec("a", "us-east-1", "r2"))
        assert mm.collect(20.0) == 1
        assert mm.invocation_count == 2

    def test_other_workflows_ignored(self, setup):
        mm, ledger = setup
        ledger.record_execution(exec_rec("a", "us-east-1", "r1", workflow="other"))
        assert mm.collect(10.0) == 0

    def test_execution_time_dist_from_history(self, setup):
        mm, ledger = setup
        for i, duration in enumerate((1.0, 2.0, 3.0)):
            ledger.record_execution(
                exec_rec("a", "us-east-1", f"r{i}", duration=duration)
            )
        mm.collect(10.0)
        dist = mm.execution_time_dist("a", "us-east-1")
        assert dist.mean() == pytest.approx(2.0)

    def test_missing_region_falls_back_to_home(self, setup):
        # §7.1: new regions borrow the home region's distribution.
        mm, ledger = setup
        ledger.record_execution(exec_rec("a", "us-east-1", "r1", duration=5.0))
        mm.collect(10.0)
        dist = mm.execution_time_dist("a", "ca-central-1")
        assert dist.mean() == pytest.approx(5.0)

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
            ledger.record_execution(exec_rec("a", region, rid, duration=duration))
        mm.collect(10.0)
        home = mm.execution_time_dist("a", "us-east-1")
        assert list(home.samples) == [4.0, 2.0, 6.0]
        assert mm.execution_time_dist("a", "us-west-1") is home
        # Regions with their own history keep it.
        assert mm.execution_time_dist("a", "us-west-2").mean() == 5.0
        with pytest.raises(ValueError, match="any region"):
            mm.execution_time_dist("b", "us-east-1")

    def test_edge_size_dist(self, setup):
        mm, ledger = setup
        ledger.record_execution(exec_rec("a", "us-east-1", "r1"))
        ledger.record_transmission(
            trans_rec("a", "b", "us-east-1", "us-east-1", "r1", size=5e6)
        )
        mm.collect(10.0)
        assert mm.edge_size_dist("a", "b").mean() == pytest.approx(5e6)

    def test_edge_size_prior_fallback(self, setup):
        # There is no prior to fall back to: an edge with no payload
        # history cannot be sized.
        mm, _ = setup
        with pytest.raises(ValueError, match="no payload-size history"):
            mm.edge_size_dist("b", "c")

    def test_utilization_from_insights(self, setup):
        mm, ledger = setup
        ledger.record_execution(exec_rec("a", "us-east-1", "r1", util=0.4))
        ledger.record_execution(exec_rec("a", "us-east-1", "r2", util=0.6))
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
        ledger.record_execution(exec_rec("a", "us-east-1", "r1"))
        mm.collect(10.0)
        assert mm.edge_probability("a", "b") == 1.0

    def test_conditional_probability_learned(self, diamond_dag):
        ledger = MeteringLedger()
        config = WorkflowConfig(home_region="us-east-1")
        carbon = CarbonIntensitySource(hours=24, seed=0)
        mm = MetricsManager(diamond_dag, config, ledger, carbon)
        # a ran 4 times; conditional edge a->c taken twice.
        for i in range(4):
            ledger.record_execution(
                exec_rec("a", "us-east-1", f"r{i}", workflow="diamond")
            )
        for i in range(2):
            ledger.record_transmission(
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
        ledger.record_execution(exec_rec("a", "us-east-1", "old", start=0.0))
        ledger.record_execution(
            exec_rec("a", "us-east-1", "new", start=31 * SECONDS_PER_DAY)
        )
        mm.collect(31 * SECONDS_PER_DAY + 10)
        assert mm.invocation_count == 1
        assert mm.invocations_since(0.0) == 1

    def test_cap_evicts_fifo(self, chain_dag):
        ledger = MeteringLedger()
        mm = MetricsManager(
            chain_dag, WorkflowConfig(home_region="us-east-1"), ledger,
            CarbonIntensitySource(hours=24), max_invocations=10,
        )
        for i in range(25):
            ledger.record_execution(exec_rec("a", "us-east-1", f"r{i:03d}"))
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
        ledger.record_execution(exec_rec("a", "ca-central-1", "unique", start=0.0))
        for i in range(10):
            ledger.record_execution(
                exec_rec("a", "us-east-1", f"r{i:03d}", start=1.0 + i)
            )
        mm.collect(100.0)
        assert mm.invocation_count <= 6  # cap honoured (plus the survivor)
        # The unique ca-central-1 sample is still available.
        dist = mm.execution_time_dist("a", "ca-central-1")
        assert len(dist) == 1

    def test_average_runtime(self, setup):
        mm, ledger = setup
        for node, dur in (("a", 1.0), ("b", 2.0)):
            ledger.record_execution(exec_rec(node, "us-east-1", "r1", duration=dur))
        ledger.record_execution(exec_rec("a", "us-east-1", "r2", duration=5.0))
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
        ledger.record_execution(exec_rec("a", "us-east-1", "r1"))
        ledger.record_transmission(TransmissionRecord(
            workflow="chain", src_region="us-east-1", dst_region="us-east-1",
            size_bytes=7e5, start_s=0.0, latency_s=0.01, request_id="r1",
            kind="data", edge="$input->a",
        ))
        mm.collect(10.0)
        assert mm.input_size_dist().mean() == pytest.approx(7e5)

    def test_zero_default_without_data(self, setup):
        mm, _ = setup
        assert mm.input_size_dist().mean() == 0.0

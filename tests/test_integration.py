"""Cross-module integration scenarios exercising full paper workflows."""

import numpy as np

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.manager import DeploymentManager
from repro.core.solver import SolverSettings
from repro.core.trigger import TriggerSettings
from repro.data.traces import azure_like_trace
from repro.core.lifecycle import deploy_benchmark, warm_up
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel

FAST = SolverSettings(batch_size=30, max_samples=60, cov_threshold=0.2,
                      alpha_per_node_region=2)


class TestLifecycle:
    """Deploy -> learn -> solve -> migrate -> route -> save carbon."""

    def test_full_lifecycle_saves_carbon(self):
        cloud = SimulatedCloud(seed=50)
        app = get_app("video_analytics")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        scenario = TransmissionScenario.best_case()
        accountant = CarbonAccountant(
            cloud.carbon_source, CarbonModel(scenario),
            CostModel(cloud.pricing_source),
        )

        home_rids = warm_up(executor, app, "small", n=8)
        home_carbons = [
            accountant.price_workflow(cloud.ledger, deployed.name, rid).carbon_g
            for rid in home_rids
        ]

        dm = DeploymentManager(
            deployed, executor, utility, scenario=scenario,
            solver_settings=FAST, use_token_bucket=False, use_forecast=False,
        )
        report = dm.check()
        assert report.solved and report.migration.activated

        routed_rids = []
        for i in range(8):
            cloud.env.schedule(
                i * 200.0,
                lambda: routed_rids.append(executor.invoke(app.make_input("small"))),
            )
        cloud.run_until_idle()
        routed_carbons = [
            accountant.price_workflow(cloud.ledger, deployed.name, rid).carbon_g
            for rid in routed_rids
        ]
        # Compute-heavy workflow + clean region available => real savings.
        assert np.mean(routed_carbons) < 0.6 * np.mean(home_carbons)

    def test_metrics_learned_from_multiple_regions(self):
        """After routing, the MM holds per-region distributions."""
        cloud = SimulatedCloud(seed=51)
        app = get_app("rag_ingestion")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=5)
        dm = DeploymentManager(
            deployed, executor, utility,
            scenario=TransmissionScenario.best_case(),
            solver_settings=FAST, use_token_bucket=False, use_forecast=False,
        )
        dm.check()
        for i in range(5):
            cloud.env.schedule(
                i * 100.0, lambda: executor.invoke(app.make_input("small"))
            )
        cloud.run_until_idle()
        dm.metrics.collect(cloud.now())
        regions_seen = {
            region
            for s in dm.metrics._invocations.values()
            for region, _d in s.node_executions.values()
        }
        assert len(regions_seen) >= 2

    def test_failure_injection_workflow_survives(self):
        """A failed migration never blackholes traffic (§6.1)."""
        cloud = SimulatedCloud(seed=52)
        app = get_app("rag_ingestion")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=5)
        cloud.functions.set_region_available("ca-central-1", False)
        dm = DeploymentManager(
            deployed, executor, utility,
            scenario=TransmissionScenario.best_case(),
            solver_settings=FAST, use_token_bucket=False, use_forecast=False,
        )
        report = dm.check()
        # Whatever the solver wanted, traffic still completes (home).
        rid = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        execs = cloud.ledger.executions_for(deployed.name, rid)
        assert len(execs) == len(deployed.dag)
        assert all(e.region != "ca-central-1" for e in execs)
        # Recovery: the pending rollout eventually lands.
        cloud.functions.set_region_available("ca-central-1", True)
        retry = dm.migrator.retry_pending()
        assert retry is None or retry.activated


class TestConcurrency:
    def test_interleaved_invocations_do_not_cross_talk(self, expired_items):
        """Many in-flight requests share topics/KV without mixing state."""
        cloud = SimulatedCloud(seed=53)
        app = get_app("image_processing")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rids = []
        for i in range(10):
            cloud.env.schedule(
                i * 0.05,  # heavy overlap: all in flight at once
                lambda: rids.append(
                    executor.invoke(app.make_input("small"), force_home=True)
                ),
            )
        cloud.run_until_idle()
        for rid in rids:
            execs = cloud.ledger.executions_for(deployed.name, rid)
            assert len(execs) == len(deployed.dag), rid
            # The fan-in data as it stood when this request's items expired.
            stored = expired_items[(deployed.data_table, f"{rid}:collect")]
            assert len(stored) == 5  # exactly this request's fan-out

    def test_token_bucket_loop_under_bursty_traffic(self):
        """The dynamic trigger self-regulates under a real trace."""
        cloud = SimulatedCloud(seed=54)
        app = get_app("text2speech_censoring")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        dm = DeploymentManager(
            deployed, executor, utility,
            scenario=TransmissionScenario.best_case(),
            solver_settings=FAST,
            trigger_settings=TriggerSettings(
                min_check_period_s=2 * SECONDS_PER_HOUR,
                max_check_period_s=12 * SECONDS_PER_HOUR,
            ),
            use_forecast=False,
        )
        trace = azure_like_trace(days=1.5, mean_daily_invocations=120, seed=54)
        for t in trace:
            cloud.env.schedule(
                t, lambda: executor.invoke(app.make_input("small"))
            )
        dm.run_for(1.5 * SECONDS_PER_DAY, first_check_delay_s=3600.0)
        cloud.run_until_idle()
        assert len(dm.reports) >= 2
        # All traffic completed despite plan changes mid-stream.
        rids = cloud.ledger.request_ids(deployed.name)
        for rid in rids:
            assert cloud.ledger.service_time(deployed.name, rid) > 0
        assert not cloud.pubsub.dead_letters


class TestDeterminism:
    def test_same_seed_same_world(self):
        def run(seed):
            cloud = SimulatedCloud(seed=seed)
            app = get_app("text2speech_censoring")
            deployed, executor, _ = deploy_benchmark(app, cloud)
            rid = executor.invoke(app.make_input("small"), force_home=True)
            cloud.run_until_idle()
            return [
                (e.node, e.region, round(e.start_s, 9), round(e.duration_s, 9))
                for e in cloud.ledger.executions_for(deployed.name, rid)
            ]

        assert run(77) == run(77)
        assert run(77) != run(78)

"""Tests for the experiment harness (§9.1 methodology)."""

import math

import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.solver import SolverSettings
from repro.core.lifecycle import (
    deploy_benchmark,
    solve_plan_set,
    warm_up,
    weekly_hour_profile,
)
from repro.experiments.harness import (
    FIG7_FINE_REGION_SETS,
    geometric_mean,
    run_caribou,
    run_coarse,
)
from repro.metrics.carbon import TransmissionScenario

FAST = SolverSettings(batch_size=30, max_samples=60, cov_threshold=0.2,
                      alpha_per_node_region=2)


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_weekly_hour_profile_shape(self):
        cloud = SimulatedCloud(seed=1)
        profile = weekly_hour_profile(cloud, "us-west-1")
        assert profile.shape == (24,)
        trace = cloud.carbon_source.trace("us-west-1")
        assert profile.mean() == pytest.approx(trace[: 7 * 24].mean())

    def test_region_sets_include_paper_combinations(self):
        assert "us-east-1+ca-central-1" in FIG7_FINE_REGION_SETS
        assert FIG7_FINE_REGION_SETS["all"] == (
            "us-east-1", "us-west-1", "us-west-2", "ca-central-1",
        )

    def test_warm_up_runs_home(self):
        cloud = SimulatedCloud(seed=2)
        app = get_app("dna_visualization")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rids = warm_up(executor, app, "small", n=4)
        assert len(rids) == 4
        regions = {e.region for e in cloud.ledger.executions}
        assert regions == {"us-east-1"}


class TestRunCoarse:
    def test_outcome_fields(self):
        app = get_app("dna_visualization")
        out = run_coarse(app, "small", "us-east-1", seed=3, n_invocations=6,
                         days=1)
        assert out.n_invocations == 6
        assert out.mean_service_time_s > 0
        assert out.p95_service_time_s >= out.mean_service_time_s
        assert set(out.per_scenario) == {"best-case", "worst-case"}
        assert out.regions_used == ("us-east-1",)

    def test_remote_coarse_runs_in_target_region(self):
        app = get_app("dna_visualization")
        out = run_coarse(app, "small", "ca-central-1", seed=3,
                         n_invocations=6, days=1)
        assert out.regions_used == ("ca-central-1",)

    def test_clean_region_cuts_exec_carbon(self):
        app = get_app("dna_visualization")
        home = run_coarse(app, "small", "us-east-1", seed=4,
                          n_invocations=8, days=1)
        remote = run_coarse(app, "small", "ca-central-1", seed=4,
                            n_invocations=8, days=1)
        assert (
            remote.per_scenario["best-case"].mean_exec_carbon_g
            < 0.2 * home.per_scenario["best-case"].mean_exec_carbon_g
        )

    def test_compliance_bypassed_for_manual_deployment(self):
        # §9.2 I1: coarse deployment is manual and ignores constraints.
        app = get_app("text2speech_censoring")
        out = run_coarse(app, "small", "ca-central-1", seed=5,
                         n_invocations=4, days=1)
        assert out.regions_used == ("ca-central-1",)


class TestRunCaribou:
    def test_caribou_beats_home_for_compute_heavy(self):
        app = get_app("video_analytics")
        home = run_coarse(app, "small", "us-east-1", seed=6,
                          n_invocations=8, days=2)
        fine = run_caribou(app, "small", ("us-east-1", "ca-central-1"),
                           seed=6, n_invocations=8, warmup=6, days=2,
                           solver_settings=FAST)
        assert fine.carbon("best-case") < home.carbon("best-case")

    def test_region_set_must_include_home(self):
        app = get_app("dna_visualization")
        with pytest.raises(ValueError, match="home region"):
            run_caribou(app, "small", ("ca-central-1",), seed=1)

    def test_compliance_respected_by_solver(self):
        app = get_app("text2speech_censoring")
        out = run_caribou(app, "small", ("us-east-1", "ca-central-1"),
                          seed=7, n_invocations=6, warmup=6, days=1,
                          solver_settings=FAST)
        # The upload stage may never land in Canada.
        for plan in out.plan_set.distinct_plans():
            assert plan.region_of("upload") == "us-east-1"

    def test_exec_to_trans_ratio_finite_with_transfers(self):
        app = get_app("image_processing")
        out = run_caribou(app, "large", ("us-east-1", "ca-central-1"),
                          seed=8, n_invocations=5, warmup=5, days=1,
                          solver_settings=FAST)
        ratio = out.per_scenario["best-case"].exec_to_trans_ratio
        assert math.isfinite(ratio) and ratio > 0


class TestRunReproducibility:
    """Two full harness runs on one seed agree on plans, latency, carbon
    and regions — with and without chaos faults in play."""

    def _outcome_key(self, out):
        return (
            out.plan_set.to_dict(),
            out.mean_service_time_s,
            {name: stats.mean_carbon_g
             for name, stats in out.per_scenario.items()},
            out.regions_used,
        )

    @pytest.mark.parametrize("chaos", [False, True])
    def test_same_seed_runs_match(self, chaos):
        from repro.cloud.faults import FaultPlan

        app = get_app("dna_visualization")
        fault_plan = (
            FaultPlan().with_invocation_failures(0.1) if chaos else None
        )
        first, second = (
            self._outcome_key(
                run_caribou(
                    app, "small", ("us-east-1", "ca-central-1"), seed=11,
                    n_invocations=6, warmup=5, days=1, solver_settings=FAST,
                    fault_plan=fault_plan,
                )
            )
            for _ in range(2)
        )
        assert second == first


class TestSolvePlanSet:
    def test_plan_set_covers_24_hours(self):
        cloud = SimulatedCloud(seed=9)
        app = get_app("rag_ingestion")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=5)
        plan_set = solve_plan_set(
            deployed, executor, TransmissionScenario.best_case(),
            solver_settings=FAST,
        )
        assert plan_set.hours == tuple(range(24))
        for h in range(24):
            assert plan_set.plan_for_hour(h).covers(deployed.dag)

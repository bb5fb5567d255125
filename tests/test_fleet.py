"""Tests for fleet-level management of multiple workflows."""

import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.deployer import DeploymentUtility
from repro.core.fleet import FleetManager
from repro.core.solver import SolverSettings
from repro.core.trigger import TriggerSettings
from repro.metrics.carbon import TransmissionScenario

FAST = SolverSettings(batch_size=30, max_samples=60, cov_threshold=0.2,
                      alpha_per_node_region=2)


@pytest.fixture
def fleet():
    cloud = SimulatedCloud(seed=90)
    utility = DeploymentUtility(cloud)
    manager = FleetManager(
        cloud, utility, TransmissionScenario.best_case(),
        solver_settings=FAST,
        trigger_settings=TriggerSettings(
            min_check_period_s=2 * SECONDS_PER_HOUR,
            max_check_period_s=12 * SECONDS_PER_HOUR,
        ),
        use_forecast=False,
    )
    entries = {}
    for app_name in ("dna_visualization", "rag_ingestion"):
        app = get_app(app_name)
        deployed, executor = utility.deploy(
            app.build_workflow(),
            # fresh config per workflow
            __import__("repro.apps.base", fromlist=["default_config"])
            .default_config(benchmarking_fraction=0.0),
        )
        manager.register(deployed, executor)
        entries[app_name] = (app, deployed, executor)
    return cloud, manager, entries


class TestRegistry:
    def test_workflows_listed(self, fleet):
        _cloud, manager, _entries = fleet
        assert set(manager.workflows) == {"dna_visualization", "rag_ingestion"}

    def test_duplicate_registration_rejected(self, fleet):
        cloud, manager, entries = fleet
        _app, deployed, executor = entries["dna_visualization"]
        with pytest.raises(ValueError, match="already managed"):
            manager.register(deployed, executor)

    def test_manager_lookup(self, fleet):
        _cloud, manager, _entries = fleet
        assert manager.manager_for("rag_ingestion") is not None
        with pytest.raises(KeyError):
            manager.manager_for("ghost")

    def test_unregister(self, fleet):
        _cloud, manager, _entries = fleet
        manager.unregister("rag_ingestion")
        assert manager.workflows == ("dna_visualization",)


class TestOperation:
    def test_check_all_produces_one_report_each(self, fleet):
        cloud, manager, entries = fleet
        reports = manager.check_all()
        assert set(reports) == set(manager.workflows)
        for report in reports.values():
            assert report.next_check_delay_s > 0

    def test_independent_cadences(self, fleet):
        cloud, manager, entries = fleet
        # Only one workflow receives traffic.
        app, _deployed, executor = entries["rag_ingestion"]
        for i in range(10):
            cloud.env.schedule(
                i * 60.0, lambda: executor.invoke(app.make_input("small"),
                                                  force_home=True)
            )
        cloud.run_until_idle()
        reports = manager.check_all()
        busy = reports["rag_ingestion"]
        idle = reports["dna_visualization"]
        assert busy.invocations_in_period == 10
        assert idle.invocations_in_period == 0
        # The busy workflow is checked at least as often as the idle one.
        assert busy.next_check_delay_s <= idle.next_check_delay_s

    def test_run_for_drives_both_loops(self, fleet):
        cloud, manager, entries = fleet
        for name, (app, _d, executor) in entries.items():
            for i in range(6):
                cloud.env.schedule(
                    i * 600.0,
                    lambda a=app, e=executor: e.invoke(a.make_input("small"),
                                                       force_home=True),
                )
        manager.run_for(SECONDS_PER_DAY)
        cloud.run_until_idle()
        for name, checks, _solves, _tokens in manager.summary():
            assert checks >= 2, name

    def test_staggered_first_checks(self, fleet):
        cloud, manager, entries = fleet
        manager.run_for(4 * SECONDS_PER_HOUR, stagger_s=120.0)
        cloud.run_until_idle()
        first_times = [
            m.reports[0].time_s
            for m in (manager.manager_for(n) for n in manager.workflows)
        ]
        assert len(set(round(t, 3) for t in first_times)) == len(first_times)


def _build_fleet(n, seed=91, app_name="dna_visualization", **manager_kwargs):
    """A fleet of ``n`` uniquified copies of one app under one manager."""
    from repro.apps.base import default_config

    cloud = SimulatedCloud(seed=seed)
    utility = DeploymentUtility(cloud)
    manager = FleetManager(
        cloud, utility, TransmissionScenario.best_case(),
        solver_settings=FAST, use_forecast=False,
        use_token_bucket=False, fixed_granularity=1,
        **manager_kwargs,
    )
    app = get_app(app_name)
    executors = []
    for i in range(n):
        workflow = app.build_workflow()
        workflow.name = f"{workflow.name}-{i:03d}"
        deployed, executor = utility.deploy(
            workflow, default_config(benchmarking_fraction=0.0)
        )
        manager.register(deployed, executor)
        executors.append(executor)
    return cloud, manager, app, executors


class TestFleetScale:
    """Hundred-workflow sweeps: the stagger-wrap regression and one
    shared-cache ``check_all`` cycle across the whole fleet."""

    def test_stagger_wraps_so_every_workflow_is_checked(self):
        # Regression: a raw ``index * stagger_s`` first-check offset put
        # workflow #24 onward past the one-day horizon (24 * 1h = the
        # full day), so most of a 100-workflow fleet was never checked.
        cloud, manager, _app, _executors = _build_fleet(
            100,
            trigger_settings=TriggerSettings(
                min_check_period_s=SECONDS_PER_DAY,
                max_check_period_s=SECONDS_PER_DAY,
            ),
        )
        manager.run_for(SECONDS_PER_DAY, stagger_s=SECONDS_PER_HOUR)
        cloud.run_until_idle()
        unchecked = [
            name for name in manager.workflows
            if not manager.manager_for(name).reports
        ]
        assert unchecked == []
        first_times = [
            manager.manager_for(name).reports[0].time_s
            for name in manager.workflows
        ]
        assert max(first_times) < SECONDS_PER_DAY
        # The wrap folds offsets onto a 24-slot cycle, four workflows
        # per slot — not 100 distinct offsets, and never a pile-up of
        # the whole tail at the horizon.
        assert len(set(first_times)) == 24

    def test_shared_cache_sweep_solves_whole_fleet(self):
        n = 100
        cloud, manager, app, executors = _build_fleet(n, seed=92)
        # A manager only solves for workflows with observed traffic.
        for executor in executors:
            for _ in range(2):
                executor.invoke(app.make_input("small"), force_home=True)
            cloud.run_until_idle()
        reports = manager.check_all()
        assert len(reports) == n
        assert all(r.solved for r in reports.values())
        fleet = manager.fleet_report()
        assert fleet["workflows"] == n
        assert fleet["checks"] == n
        assert fleet["solves"] == n
        assert fleet["invocations_observed"] == 2 * n
        # One evaluation cache per workflow, rolled up by the report.
        assert fleet["cache_scopes"] == n
        assert fleet["cache_estimates"] > 0
        # Unregistering drops exactly that workflow's cache.
        victim = manager.workflows[0]
        manager.unregister(victim)
        assert manager.fleet_report()["cache_scopes"] == n - 1


class TestPerWorkflowReport:
    def test_fleet_report_breaks_down_per_workflow(self, fleet):
        cloud, manager, entries = fleet
        app, _deployed, executor = entries["rag_ingestion"]
        for _ in range(3):
            executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        manager.check_all()
        report = manager.fleet_report()
        per_wf = report["per_workflow"]
        assert set(per_wf) == {"dna_visualization", "rag_ingestion"}
        busy = per_wf["rag_ingestion"]
        idle = per_wf["dna_visualization"]
        assert busy["invocations_observed"] == 3
        assert idle["invocations_observed"] == 0
        assert busy["checks"] == idle["checks"] == 1
        for entry in per_wf.values():
            assert set(entry) == {
                "checks", "invocations_observed", "migrations", "solves",
                "tokens_g",
            }

    def test_per_workflow_sums_match_totals(self, fleet):
        cloud, manager, entries = fleet
        for name, (app, _d, executor) in entries.items():
            executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        manager.check_all()
        manager.check_all()
        report = manager.fleet_report()
        per_wf = report["per_workflow"]
        for key in ("checks", "invocations_observed", "migrations", "solves"):
            assert sum(e[key] for e in per_wf.values()) == report[key], key

    def test_per_workflow_iteration_order_is_sorted(self, fleet):
        _cloud, manager, _entries = fleet
        names = list(manager.fleet_report()["per_workflow"])
        assert names == sorted(names)


class TestUnregisterLifecycle:
    """Unregistering must actually stop the control loop.

    Regression: ``run_for`` used to discard its pending event handle,
    so ``unregister`` dropped the manager while the self-scheduled
    check chain kept firing against it forever.
    """

    def test_unregister_unknown_workflow_raises(self, fleet):
        _cloud, manager, _entries = fleet
        with pytest.raises(KeyError, match="ghost"):
            manager.unregister("ghost")

    def test_unregister_mid_run_stops_check_chain(self):
        cloud, manager, _app, _executors = _build_fleet(
            2,
            trigger_settings=TriggerSettings(
                min_check_period_s=2 * SECONDS_PER_HOUR,
                max_check_period_s=2 * SECONDS_PER_HOUR,
            ),
        )
        victim, survivor = manager.workflows
        manager.run_for(SECONDS_PER_DAY, stagger_s=60.0)
        cloud.env.run(until=5 * SECONDS_PER_HOUR)

        victim_manager = manager.manager_for(victim)
        checks_before = len(victim_manager.reports)
        assert checks_before >= 2  # the chain was live before unregistering
        scopes_before = manager.fleet_report()["cache_scopes"]

        manager.unregister(victim)
        assert manager.fleet_report()["cache_scopes"] == scopes_before - 1

        cloud.run_until_idle()
        # No check fired for the victim after unregistration...
        assert len(victim_manager.reports) == checks_before
        # ...no cache reappeared for it...
        assert manager.fleet_report()["cache_scopes"] == scopes_before - 1
        # ...while the survivor's chain ran on to the horizon.
        assert len(manager.manager_for(survivor).reports) > checks_before

    def test_stop_is_idempotent_and_reports_whether_armed(self, fleet):
        cloud, manager, _entries = fleet
        dm = manager.manager_for("rag_ingestion")
        assert dm.stop() is False  # nothing scheduled yet
        dm.run_for(SECONDS_PER_DAY)
        assert dm.stop() is True
        assert dm.stop() is False  # already cancelled
        cloud.run_until_idle()
        assert dm.reports == []

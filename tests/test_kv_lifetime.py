"""Lifetime of a request's KV items (edge annotation and fan-in data).

A tracked request counts the continuations the executor scheduled and
the messages it published but has not seen handled; when that count
returns to zero no event can reach the request's items again, and they
expire (:meth:`KeyValueStore.expire`, free like DynamoDB TTL), whatever
the request's status.  Untracked requests — the SNS baseline and a
direct ``_annotate`` — keep their items.
"""

import pytest

from repro.apps import ALL_APPS, get_app
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.core.baselines import SnsOrchestrator
from repro.core.lifecycle import deploy_benchmark
from repro.core.migrator import DeploymentMigrator
from repro.model.config import WorkflowConfig
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.trace import Tracer
from tests import executor_capture, golden

APP = "image_processing"  # one sync node, ``collect``, fed by five stages


def request_items(deployed, rid):
    """Keys the request still holds in the annotation and data tables."""
    tables = deployed.kv()._tables  # noqa: SLF001
    return sorted(
        (table, key)
        for table in (deployed.annotation_table, deployed.data_table)
        for key in tables.get(table, {})
        if key == rid or key.startswith(f"{rid}:")
    )


def run_one(cloud, config=None, at_s=None):
    app = get_app(APP)
    deployed, executor, _ = deploy_benchmark(app, cloud, config=config)
    cloud.run_until_idle()
    rids = []
    cloud.env.schedule_at(
        cloud.now() if at_s is None else at_s,
        lambda: rids.append(executor.invoke(app.make_input("small"))),
    )
    cloud.run_until_idle()
    return deployed, executor, rids[0]


class TestTrackedRequestsRetire:
    def test_completed(self, expired_items):
        cloud = SimulatedCloud(seed=21)
        deployed, executor, rid = run_one(cloud)
        assert executor.request_status(rid) == "completed"
        assert request_items(deployed, rid) == []
        assert len(expired_items[(deployed.data_table, f"{rid}:collect")]) == 5
        assert expired_items[(deployed.annotation_table, rid)]["__invoked__:collect"]

    def test_failed_in_a_continuation(self, expired_items):
        # ``collect`` cannot run: the request fails after its fan-in
        # items were written.
        cloud = SimulatedCloud(
            seed=22,
            fault_plan=FaultPlan().with_invocation_failures(1.0, function="collect"),
        )
        deployed, executor, rid = run_one(cloud)
        assert executor.request_status(rid) == "failed"
        assert request_items(deployed, rid) == []
        assert len(expired_items[(deployed.data_table, f"{rid}:collect")]) == 5

    def test_failed_by_a_dead_letter(self, expired_items):
        # The store errs from the moment ``collect`` loads its fan-in
        # data: every delivery attempt raises and the message
        # dead-letters, the last thing the request had in flight.
        at_s = 10_000.0
        clean = SimulatedCloud(seed=22)
        deployed, _executor, _rid = run_one(clean, at_s=at_s)
        (load_s,) = [
            r.start_s for r in clean.ledger.kv_accesses
            if r.table == deployed.data_table and not r.write
        ]
        cloud = SimulatedCloud(
            seed=22,
            fault_plan=FaultPlan().with_kv_errors(1.0, start_s=load_s, end_s=load_s + 10.0),
        )
        deployed, executor, rid = run_one(cloud, at_s=at_s)
        assert executor.request_status(rid) == "failed"
        assert executor.reliability().dead_letters == 1
        assert request_items(deployed, rid) == []
        assert len(expired_items[(deployed.data_table, f"{rid}:collect")]) == 5

    def test_timed_out(self, expired_items):
        cloud = SimulatedCloud(
            seed=23, fault_plan=FaultPlan().with_cold_start_spike(1e9)
        )
        config = WorkflowConfig(
            home_region="us-east-1", benchmarking_fraction=0.0,
            request_timeout_s=60.0,
        )
        deployed, executor, rid = run_one(cloud, config=config)
        assert executor.request_status(rid) == "timed_out"
        # The in-flight work drained after the watchdog fired.
        assert request_items(deployed, rid) == []
        assert len(expired_items[(deployed.data_table, f"{rid}:collect")]) == 5

    def test_retried_delivery(self, expired_items):
        # ``prepare``'s first delivery fails inside the window; pub/sub
        # redelivers after its backoff and the request completes.
        at_s = 10_000.0
        plan = FaultPlan().with_invocation_failures(
            1.0, function="prepare", start_s=at_s, end_s=at_s + 0.4
        )
        cloud = SimulatedCloud(seed=24, fault_plan=plan)
        deployed, executor, rid = run_one(cloud, at_s=at_s)
        assert executor.request_status(rid) == "completed"
        assert executor.reliability().retries >= 1
        assert request_items(deployed, rid) == []
        assert len(expired_items[(deployed.data_table, f"{rid}:collect")]) == 5


    def test_rerouted_direct_request(self, expired_items):
        # The home wrapper forwards the start message to the planned
        # region: the forwarded message is counted, the first released.
        cloud = SimulatedCloud(seed=27)
        app = get_app(APP)
        deployed, executor, utility = deploy_benchmark(app, cloud)
        plan = DeploymentPlan.single_region(deployed.dag, "us-west-2")
        report = DeploymentMigrator(utility, deployed, executor).migrate(
            HourlyPlanSet.daily(plan, created_at_s=cloud.now())
        )
        assert report.activated, report.error
        cloud.run_until_idle()
        rid = executor.invoke_direct(app.make_input("small"))
        cloud.run_until_idle()
        assert executor.request_status(rid) == "completed"
        assert {
            e.region for e in cloud.ledger.executions_for(deployed.name, rid)
        } == {"us-west-2"}
        assert request_items(deployed, rid) == []
        assert len(expired_items[(deployed.data_table, f"{rid}:collect")]) == 5


class TestUntrackedRequestsKeepTheirItems:
    def test_sns_baseline(self, expired_items):
        cloud = SimulatedCloud(seed=25, tracer=Tracer())
        app = get_app(APP)
        deployed, _executor, _ = deploy_benchmark(app, cloud)
        sns = SnsOrchestrator(deployed)
        sns.setup()
        rid = sns.invoke(app.make_input("small"))
        cloud.run_until_idle()
        assert request_items(deployed, rid) == [
            (deployed.annotation_table, rid),
            (deployed.data_table, f"{rid}:collect"),
        ]
        assert not expired_items

    @pytest.mark.parametrize("traced", [False, True])
    def test_direct_annotate(self, traced, expired_items):
        cloud = SimulatedCloud(seed=26, tracer=Tracer() if traced else None)
        deployed, executor, _ = deploy_benchmark(get_app(APP), cloud)
        executor._annotate("manual-1", "us-east-1", {"prepare->transform:0": 1})  # noqa: SLF001
        cloud.run_until_idle()
        assert request_items(deployed, "manual-1") == [
            (deployed.annotation_table, "manual-1")
        ]
        assert not expired_items


# -- the claim's host-independent count ------------------------------------------
PINNED = golden.load("executor_paths")
TRACKED_CASES = sorted(
    name for name in PINNED["cases"]
    if name.startswith(("app/", "shape/"))
    and name.endswith(("/invoke", "/invoke_direct"))
)


def test_every_app_is_covered():
    apps = {name.split("/")[1] for name in TRACKED_CASES if name.startswith("app/")}
    assert apps == set(ALL_APPS)


@pytest.mark.parametrize("name", TRACKED_CASES)
def test_idle_store_holds_no_tracked_request_item(name, monkeypatch):
    """After ``run_until_idle`` the annotation and data tables hold no
    key of a tracked request, and the ledger, trace and request paths
    still equal the capture's."""
    leftovers = []
    run = executor_capture._run

    def checked(cloud, tracer, deployed, executor, engine, payloads):
        out = run(cloud, tracer, deployed, executor, engine, payloads)
        for rid in out["request_status"]:
            leftovers.extend(request_items(deployed, rid))
        return out

    monkeypatch.setattr(executor_capture, "_run", checked)
    out = executor_capture.capture_case(name, PINNED["shapes"])
    assert leftovers == []
    golden.check("executor_paths", out, "cases", name)

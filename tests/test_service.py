"""Tests for the durable service layer (job store, engine, builder)."""

import json

import pytest

from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.core.analysis import analyze_workflow
from repro.core.api import Payload
from repro.service import (
    ANALYZED,
    CANCELLED,
    DEPLOYED,
    FAILED,
    JobRecord,
    LocalJobStore,
    MemoryJobStore,
    MONITORING,
    ServiceEngine,
    SOLVED,
    SUBMITTED,
    step_digest,
    task,
    workflow,
)
from repro.service.jobstore import JobStateError
from tests import front_end_capture, golden

APP = "dna_visualization"


# --------------------------------------------------------------------------
# Job records and the state machine
# --------------------------------------------------------------------------
class TestJobRecord:
    def test_pipeline_advance_and_journal(self):
        record = JobRecord(job_id="j1", app=APP)
        assert record.advance(ANALYZED, 10.0, step="deploy", digest="d1")
        assert record.advance(SOLVED, 20.0, step="solve", digest="d2")
        assert record.state == SOLVED
        assert [e.to_state for e in record.journal] == [ANALYZED, SOLVED]
        assert record.journal[0].time_s == 10.0
        assert record.updated_at_s == 20.0

    def test_advance_is_idempotent(self):
        record = JobRecord(job_id="j1", app=APP)
        record.advance(ANALYZED, 1.0)
        # Re-applying the same (or an earlier) transition is a no-op.
        assert not record.advance(ANALYZED, 2.0)
        assert record.state == ANALYZED
        assert len(record.journal) == 1

    def test_illegal_jump_rejected(self):
        record = JobRecord(job_id="j1", app=APP)
        with pytest.raises(JobStateError, match="illegal jump"):
            record.advance(DEPLOYED, 1.0)

    def test_terminal_states_are_sticky(self):
        record = JobRecord(job_id="j1", app=APP)
        record.fail(5.0, error="boom")
        assert record.state == FAILED
        assert record.is_terminal
        with pytest.raises(JobStateError, match="terminal"):
            record.advance(ANALYZED, 6.0)

    def test_cancel_idempotent(self):
        record = JobRecord(job_id="j1", app=APP)
        assert record.cancel(3.0, note="bye")
        assert record.state == CANCELLED
        assert not record.cancel(4.0)
        assert len(record.journal) == 1

    def test_step_digest_is_stable_and_distinct(self):
        assert step_digest("j1", "solve") == step_digest("j1", "solve")
        assert step_digest("j1", "solve") != step_digest("j1", "deploy")
        assert step_digest("j1", "solve") != step_digest("j2", "solve")

    def test_roundtrip(self):
        record = JobRecord(job_id="j1", app=APP)
        record.advance(ANALYZED, 1.0, step="deploy", digest="d")
        record.record_step("deploy", "d")
        record.artifacts["plan_set"] = {"plans": []}
        clone = JobRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.state == ANALYZED
        assert clone.steps == {"deploy": "d"}
        assert clone.artifacts["plan_set"] == {"plans": []}
        assert clone.journal[0].to_state == ANALYZED


# --------------------------------------------------------------------------
# Store backends
# --------------------------------------------------------------------------
def _roundtrip(store):
    record = JobRecord(job_id="a-job", app=APP)
    record.advance(ANALYZED, 1.5, step="deploy", digest="xyz")
    store.save(record)
    loaded = store.get("a-job")
    assert loaded.state == ANALYZED
    assert loaded.journal[0].digest == "xyz"
    assert store.job_ids() == ("a-job",)
    assert store.load("ghost") is None
    with pytest.raises(KeyError):
        store.get("ghost")


class TestStores:
    def test_memory_store(self):
        _roundtrip(MemoryJobStore())

    def test_local_store(self, tmp_path):
        _roundtrip(LocalJobStore(str(tmp_path / "jobs.json")))

    def test_local_store_survives_processes(self, tmp_path):
        path = str(tmp_path / "jobs.json")
        record = JobRecord(job_id="j1", app=APP)
        LocalJobStore(path).save(record)
        # A brand-new store object (a new process) sees the record.
        assert LocalJobStore(path).get("j1").state == SUBMITTED

    def test_memory_store_isolates_copies(self):
        store = MemoryJobStore()
        record = JobRecord(job_id="j1", app=APP)
        store.save(record)
        record.state = "SCRIBBLED"
        assert store.get("j1").state == SUBMITTED


# --------------------------------------------------------------------------
# The engine pipeline
# --------------------------------------------------------------------------
def make_engine(seed=7, fault_plan=None):
    cloud = SimulatedCloud(seed=seed, fault_plan=fault_plan)
    store = MemoryJobStore()
    return cloud, store, ServiceEngine(cloud, store)


class TestEnginePipeline:
    def test_submitted_to_monitoring(self):
        cloud, _store, engine = make_engine()
        record = engine.submit(APP)
        assert record.state == SUBMITTED
        steps = engine.run(max_steps=10)
        record = engine.job(record.job_id)
        assert steps == 4
        assert record.state == MONITORING
        assert [e.to_state for e in record.journal] == [
            ANALYZED, SOLVED, DEPLOYED, MONITORING,
        ]
        # Virtual-time stamps are monotone along the journal.
        times = [e.time_s for e in record.journal]
        assert times == sorted(times)
        # The solved plan set is durable on the record.
        assert record.artifacts["plan_set"]["plans_by_hour"]
        # The fleet is actually monitoring: advancing time runs checks.
        cloud.env.run(until=cloud.now() + SECONDS_PER_DAY)
        assert len(engine.fleet.manager_for(record.job_id).reports) >= 1

    def test_unknown_workflow_rejected(self):
        _cloud, _store, engine = make_engine()
        with pytest.raises(KeyError, match="unknown workflow"):
            engine.submit("not-a-workflow")

    def test_duplicate_job_id_rejected(self):
        _cloud, _store, engine = make_engine()
        engine.submit(APP, job_id="dup")
        with pytest.raises(ValueError, match="already exists"):
            engine.submit(APP, job_id="dup")

    def test_two_jobs_of_same_app_are_isolated(self):
        _cloud, _store, engine = make_engine()
        a = engine.submit(APP)
        b = engine.submit(APP)
        engine.run(max_steps=12)
        assert engine.job(a.job_id).state == MONITORING
        assert engine.job(b.job_id).state == MONITORING
        assert set(engine.fleet.workflows) == {a.job_id, b.job_id}

    def test_transition_metrics_counted(self):
        cloud, _store, engine = make_engine()
        record = engine.submit(APP)
        engine.run(max_steps=10)
        snapshot = cloud.metrics.snapshot()
        counted = {
            key: value for key, value in snapshot.items()
            if "service.transitions" in key
        }
        assert counted, snapshot.keys()
        record = engine.job(record.job_id)
        assert record.state == MONITORING


class TestCancel:
    def test_cancel_mid_pipeline(self):
        _cloud, _store, engine = make_engine()
        record = engine.submit(APP)
        engine.tick()  # deploy only
        engine.cancel(record.job_id)
        record = engine.job(record.job_id)
        assert record.state == CANCELLED
        # A cancelled job never runs again.
        assert engine.run(max_steps=5) == 0

    def test_cancel_monitoring_job_stops_check_chain(self):
        cloud, _store, engine = make_engine()
        record = engine.submit(APP)
        engine.run(max_steps=10)
        assert engine.job(record.job_id).state == MONITORING
        manager = engine.fleet.manager_for(record.job_id)
        engine.cancel(record.job_id)
        checks_at_cancel = len(manager.reports)
        cloud.env.run_until_idle()
        # The armed run_for chain was cancelled: no further checks fire.
        assert len(manager.reports) == checks_at_cancel
        assert record.job_id not in engine.fleet.workflows
        assert engine.job(record.job_id).state == CANCELLED


# --------------------------------------------------------------------------
# Crash recovery and idempotent replay
# --------------------------------------------------------------------------
class TestRecovery:
    @pytest.mark.parametrize("steps_before_crash", [1, 2, 3])
    def test_engine_killed_after_any_step_resumes(self, steps_before_crash):
        cloud = SimulatedCloud(seed=11)
        store = MemoryJobStore()
        engine = ServiceEngine(cloud, store)
        record = engine.submit(APP)
        for _ in range(steps_before_crash):
            engine.tick()
        state_at_crash = engine.job(record.job_id).state
        del engine  # the crash: all in-process runtime is gone

        resumed = ServiceEngine(cloud, store)
        assert resumed.recover() == 1
        resumed.run(max_steps=10)
        final = resumed.job(record.job_id)
        assert final.state == MONITORING, state_at_crash
        # No duplicated side effects: each pipeline step ran exactly once
        # across both engine lifetimes.
        for step in ("deploy", "solve", "migrate", "monitor"):
            entries = [e for e in final.journal if e.step == step]
            assert len(entries) == 1, (step, final.journal)

    def test_recovery_does_not_resolve_or_restage(self):
        cloud = SimulatedCloud(seed=11)
        store = MemoryJobStore()
        engine = ServiceEngine(cloud, store)
        record = engine.submit(APP)
        engine.tick(); engine.tick(); engine.tick()  # -> DEPLOYED
        assert engine.job(record.job_id).state == DEPLOYED
        solves_before = engine.solver_stats.simulations_run
        staged_before, _ = cloud.kvstore("us-east-1").get(
            f"meta:{record.job_id}", "active_plan"
        )
        del engine

        resumed = ServiceEngine(cloud, store)
        resumed.recover()
        resumed.run(max_steps=5)
        assert resumed.job(record.job_id).state == MONITORING
        # The resumed engine never invoked the solver...
        assert resumed.solver_stats.simulations_run == 0
        assert solves_before > 0
        # ...and the plan staged before the crash is still the active one.
        staged_after, _ = cloud.kvstore("us-east-1").get(
            f"meta:{record.job_id}", "active_plan"
        )
        assert staged_after == staged_before

    def test_monitoring_job_rearmed_on_recovery(self):
        cloud = SimulatedCloud(seed=12)
        store = MemoryJobStore()
        engine = ServiceEngine(cloud, store)
        record = engine.submit(APP)
        engine.run(max_steps=10)
        assert engine.job(record.job_id).state == MONITORING
        del engine

        resumed = ServiceEngine(cloud, store)
        assert resumed.recover() == 1
        assert record.job_id in resumed.fleet.workflows
        cloud.env.run(until=cloud.now() + SECONDS_PER_DAY)
        assert len(
            resumed.fleet.manager_for(record.job_id).reports
        ) >= 1

    def test_crash_before_persist_replays_step_idempotently(self):
        """Crash between cloud side effects and the store save: the
        record still says the step is pending, so the resumed engine
        re-runs it — replace-style cloud semantics make that a no-op."""
        cloud = SimulatedCloud(seed=13)
        store = MemoryJobStore()
        engine = ServiceEngine(cloud, store)
        record = engine.submit(APP)
        snapshot = store.get(record.job_id).to_dict()  # pre-deploy doc
        engine.tick()  # deploy completes AND persists
        # Undo the persistence only — as if the save never hit disk.
        store.save(JobRecord.from_dict(snapshot))
        del engine

        resumed = ServiceEngine(cloud, store)
        resumed.recover()
        resumed.run(max_steps=10)
        final = resumed.job(record.job_id)
        assert final.state == MONITORING
        # The replayed deploy displaced (not duplicated) the original:
        # one home deployment per function.
        deployments = cloud.functions.deployments_of(record.job_id)
        home = [d for d in deployments if d.region == "us-east-1"]
        assert len(home) == len({d.function for d in home})

    def test_fresh_cloud_recovery_reapplies_persisted_plan(self, tmp_path):
        """Cross-process serve: a brand-new cloud has none of the old
        deployments, so recovery re-establishes them and re-applies the
        persisted plan artifact instead of re-solving."""
        store = LocalJobStore(str(tmp_path / "jobs.json"))
        cloud1 = SimulatedCloud(seed=3)
        engine1 = ServiceEngine(cloud1, store)
        record = engine1.submit(APP)
        engine1.tick(); engine1.tick(); engine1.tick()  # -> DEPLOYED
        persisted = store.get(record.job_id).artifacts["plan_set"]
        del engine1, cloud1

        cloud2 = SimulatedCloud(seed=3)
        engine2 = ServiceEngine(cloud2, store)
        engine2.recover()
        engine2.run(max_steps=5)
        assert engine2.job(record.job_id).state == MONITORING
        assert engine2.solver_stats.simulations_run == 0  # never re-solved
        staged, _ = cloud2.kvstore("us-east-1").get(
            f"meta:{record.job_id}", "active_plan"
        )
        assert staged["plans_by_hour"] == persisted["plans_by_hour"]


# --------------------------------------------------------------------------
# Retry / backoff on injected faults
# --------------------------------------------------------------------------
class TestRetryBackoff:
    def test_step_retries_after_injected_kv_fault(self):
        # KV errors for the first virtual second: the deploy step's
        # metadata upload fails, the job backs off, and the retry after
        # the fault window succeeds.
        plan = FaultPlan().with_kv_errors(1.0, end_s=1.0)
        cloud, _store, engine = make_engine(seed=5, fault_plan=plan)
        record = engine.submit(APP)
        assert engine.tick() == 0  # first attempt fails
        record = engine.job(record.job_id)
        assert record.state == SUBMITTED
        assert record.attempts["deploy"] == 1
        assert record.not_before_s == pytest.approx(300.0)
        retry_notes = [e for e in record.journal if "attempt 1" in e.note]
        assert retry_notes and retry_notes[0].step == "deploy"
        # run() jumps the clock over the backoff window and retries.
        engine.run(max_steps=10)
        final = engine.job(record.job_id)
        assert final.state == MONITORING
        assert final.not_before_s == 0.0

    def test_job_fails_after_max_attempts(self):
        plan = FaultPlan().with_kv_errors(1.0)  # KV never recovers
        cloud, _store, engine = make_engine(seed=5, fault_plan=plan)
        record = engine.submit(APP)
        engine.run(max_steps=20)
        final = engine.job(record.job_id)
        assert final.state == FAILED
        assert final.attempts["deploy"] == 3
        assert "deploy" in final.error
        # Terminal: nothing left to run.
        assert engine.runnable() == []

    def test_backoff_is_exponential(self):
        # The fault window outlasts the first retry (at 300 s) but not
        # the second (at 900 s), so the job fails no step for good.
        plan = FaultPlan().with_kv_errors(1.0, end_s=1000.0)
        cloud, _store, engine = make_engine(seed=5, fault_plan=plan)
        record = engine.submit(APP)
        engine.tick()
        first = engine.job(record.job_id).not_before_s
        cloud.env.run(until=first)
        engine.tick()
        second = engine.job(record.job_id).not_before_s
        assert first == pytest.approx(300.0)
        assert second == pytest.approx(first + 600.0)


# --------------------------------------------------------------------------
# Builder API
# --------------------------------------------------------------------------
@task(memory_mb=512)
def fetch(payload):
    return payload


@task()
def left(payload):
    return payload


@task()
def right(payload):
    return payload


@task()
def merge(payloads):
    return Payload(content=payloads, size_bytes=2048.0)


class TestBuilder:
    def test_diamond_compiles_to_dag(self):
        wf = (
            workflow("diamond").then(fetch).branch(left, right).join(merge)
            .build()
        )
        dag = analyze_workflow(wf)
        assert set(dag.node_names) == {"fetch", "left", "right", "merge"}
        assert dag.start_node == "fetch"
        assert dag.sync_nodes == ("merge",)
        assert dag.node("fetch").memory_mb == 512
        assert wf.entry_function.name == "fetch"

    def test_linear_chain(self):
        dag = analyze_workflow(workflow("chain").then(fetch).then(left).build())
        assert [e.key for e in dag.edges] == ["fetch->left"]
        assert dag.sync_nodes == ()

    def test_duplicate_task_rejected(self):
        from repro.common.errors import WorkflowDefinitionError

        with pytest.raises(WorkflowDefinitionError, match="duplicate"):
            workflow("dup").then(fetch).then(fetch)

    def test_empty_workflow_rejected(self):
        from repro.common.errors import WorkflowDefinitionError

        with pytest.raises(WorkflowDefinitionError, match="no tasks"):
            workflow("empty").build()

    def test_name_override_isolates_jobs(self):
        _cloud, _store, engine = make_engine()
        engine.register_workflow(workflow("pipe").then(fetch).then(left))
        a, b = engine.submit("pipe"), engine.submit("pipe")
        engine.tick()  # deploy both
        assert (a.job_id, b.job_id) == ("pipe-0001", "pipe-0002")
        for job in (a, b):
            deployed = engine._runtime[job.job_id].deployed  # noqa: SLF001
            assert (deployed.name, deployed.dag.name) == (job.job_id, job.job_id)

    def test_constraints_attach(self):
        @task(allowed_regions=["us-east-1", "us-west-1"])
        def pinned(payload):
            return payload

        wf = workflow("pinned-wf").then(pinned).build()
        constraints = wf.function("pinned").constraints
        assert constraints is not None
        assert constraints.allowed_regions == frozenset(
            {"us-east-1", "us-west-1"}
        )

    def test_builder_workflow_runs_through_engine(self):
        builder = workflow("diamond").then(fetch).branch(left, right).join(merge)
        cloud, _store, engine = make_engine(seed=9)
        engine.register_workflow(builder)
        record = engine.submit("diamond")
        engine.run(max_steps=10)
        final = engine.job(record.job_id)
        assert final.state == MONITORING
        assert final.artifacts["nodes"] == ["fetch", "left", "right", "merge"]
        assert final.artifacts["home_region"] == "us-east-1"
        # The deployed builder workflow serves real invocations: the
        # engine's warm-up traffic completed through the sync node.
        executions = [
            r for r in cloud.ledger.executions if r.workflow == record.job_id
        ]
        assert {r.node for r in executions} == {
            "fetch", "left", "right", "merge",
        }

    def test_builder_workflow_recovers(self):
        builder = workflow("diamond").then(fetch).branch(left, right).join(merge)
        cloud = SimulatedCloud(seed=9)
        store = MemoryJobStore()
        engine = ServiceEngine(cloud, store)
        engine.register_workflow(builder)
        record = engine.submit("diamond")
        engine.tick(); engine.tick()  # -> SOLVED
        del engine

        resumed = ServiceEngine(cloud, store)
        resumed.register_workflow(builder)
        assert resumed.recover() == 1
        resumed.run(max_steps=5)
        assert resumed.job(record.job_id).state == MONITORING


class TestFrontEndGolden:
    """Both front-ends' DAGs and a builder job's run against the capture
    taken while the builder still lowered its own DAG (see
    ``tests/front_end_capture.py``)."""

    @pytest.fixture(scope="class")
    def captured(self):
        return front_end_capture.capture()

    @pytest.mark.parametrize("section", ["apps", "builder", "engine"])
    def test_front_end_matches_the_capture(self, captured, section):
        golden.check("front_end", captured[section], section)

"""The service engine: drains the durable job queue (Fig. 6 as a daemon).

Each job walks the pipeline ``SUBMITTED → ANALYZED → SOLVED → DEPLOYED
→ MONITORING`` one durable step at a time:

========== ========================================================
step        side effects
========== ========================================================
``deploy``  build the workflow (benchmark app or registered builder)
            and run the initial home-region deployment
``solve``   warm-up traffic to seed the Metrics Manager, then solve
            the 24-hour plan set; the plan set itself is persisted on
            the job record as an artifact
``migrate`` activate the persisted plan set via the migrator
``monitor`` register with the fleet manager and arm the token-check
            chain (``DeploymentManager.run_for``)
========== ========================================================

Durability contract: a step's cloud-side effects are replace-style
idempotent (function deploy replaces, topic create no-ops, subscribe
displaces the old subscriber), the step's completion is recorded on the
job record as ``step -> digest`` *atomically with* the state
transition, and expensive outputs (the solved plan set) are persisted
as artifacts.  An engine killed at any point therefore resumes from the
store: completed steps are skipped by digest, a half-applied step is
simply re-run, and :meth:`ServiceEngine.recover` rebuilds the
in-process runtime handles (executor, subscriptions, fleet
registration) without re-running solves or re-staging plans.

Failures raised by injected faults (``repro.cloud.faults``) are
retried with exponential backoff in virtual time; a step that keeps
failing moves the job to ``FAILED`` with the error journaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.apps import ALL_APPS, get_app
from repro.apps.base import default_config
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.common.errors import CaribouError
from repro.core.api import Workflow
from repro.core.deployer import DeploymentUtility
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.core.fleet import FleetManager
from repro.core.lifecycle import HOME_REGION, solve_plan_set, warm_up
from repro.core.manager import PLAN_LIFETIME_S
from repro.core.migrator import DeploymentMigrator
from repro.core.solver import SolverSettings, SolverStats
from repro.core.trigger import TriggerSettings
from repro.metrics.carbon import TransmissionScenario
from repro.model.config import WorkflowConfig
from repro.model.plan import HourlyPlanSet
from repro.service.builder import WorkflowBuilder
from repro.service.jobstore import (
    ANALYZED,
    DEPLOYED,
    JobRecord,
    JobStore,
    JournalEntry,
    MONITORING,
    PIPELINE,
    SOLVED,
    SUBMITTED,
    step_digest,
)

#: Fast solver settings for the service loop (same family as the fleet
#: bench knobs: small sample budget, loose CoV — the service pipeline
#: is about orchestration, not solver fidelity).
SERVICE_SOLVER_SETTINGS = SolverSettings(
    batch_size=30, max_samples=60, cov_threshold=0.2
)
#: Invocations run on a fresh deployment before its first solve, so the
#: Metrics Manager has history to learn from.
WARMUP_INVOCATIONS = 6
#: A step that fails this many times fails its job.
MAX_ATTEMPTS = 3
#: Virtual-time backoff before a failed step's first retry; it doubles
#: with every further attempt.
BACKOFF_S = 300.0
#: Virtual time a job's manager runs for once the job reaches MONITORING.
MONITOR_HORIZON_S = SECONDS_PER_DAY

#: step name per transition, in pipeline order.
STEP_OF_TRANSITION: Dict[str, str] = {
    ANALYZED: "deploy",
    SOLVED: "solve",
    DEPLOYED: "migrate",
    MONITORING: "monitor",
}


@dataclass
class JobRuntime:
    """In-process (non-durable) handles for one hydrated job."""

    workflow: Workflow
    config: WorkflowConfig
    deployed: Optional[DeployedWorkflow] = None
    executor: Optional[CaribouExecutor] = None


class ServiceEngine:
    """Drives submitted jobs through the deployment pipeline."""

    def __init__(
        self,
        cloud: SimulatedCloud,
        store: JobStore,
        trigger_settings: Optional[TriggerSettings] = None,
    ):
        self._cloud = cloud
        self._store = store
        self._scenario = TransmissionScenario.best_case()
        self.utility = DeploymentUtility(cloud)
        # The fleet runs without the token bucket: the service pipeline
        # promises a solve on the way to MONITORING, and the bench/CLI
        # demo fleets use the same knobs (cmd_fleet_report).
        self.fleet = FleetManager(
            cloud,
            self.utility,
            self._scenario,
            solver_settings=SERVICE_SOLVER_SETTINGS,
            trigger_settings=trigger_settings or TriggerSettings(),
            use_forecast=False,
            use_token_bucket=False,
            fixed_granularity=1,
        )
        self.solver_stats = SolverStats()
        self._runtime: Dict[str, JobRuntime] = {}
        self._builders: Dict[str, WorkflowBuilder] = {}
        self._metrics = cloud.metrics
        self._tracer = cloud.tracer
        self._submit_counter = 0
        #: jobs that finished a step this engine's lifetime (telemetry).
        self.steps_executed = 0

    # -- workflow sources ---------------------------------------------------
    def register_workflow(self, builder: WorkflowBuilder) -> None:
        """Make a builder-declared workflow submittable by name."""
        self._builders[builder.name] = builder

    def _build_workflow(self, record: JobRecord) -> JobRuntime:
        """(Re)construct the workflow objects for a job — deterministic,
        so recovery rebuilds exactly what the original step deployed."""
        if record.app in self._builders:
            wf = self._builders[record.app].build()
        elif record.app in ALL_APPS:
            wf = get_app(record.app).build_workflow()
        else:
            raise CaribouError(
                f"job {record.job_id!r}: unknown workflow source {record.app!r} "
                "(not a benchmark app, not a registered builder)"
            )
        # Isolated per-job namespace: two jobs of the same workflow must
        # not collide in the fleet registry or the KV tables.
        wf.name = record.job_id
        config = default_config(
            home_region=HOME_REGION, benchmarking_fraction=0.0
        )
        return JobRuntime(workflow=wf, config=config)

    # -- submission / queries -----------------------------------------------
    def submit(
        self,
        app: str,
        input_size: str = "small",
        job_id: Optional[str] = None,
    ) -> JobRecord:
        """Create a durable job record in ``SUBMITTED``."""
        if app not in self._builders and app not in ALL_APPS:
            raise KeyError(
                f"unknown workflow {app!r}: pick a benchmark app "
                f"({', '.join(sorted(ALL_APPS))}) or register a builder"
            )
        self._submit_counter += 1
        if job_id is None:
            job_id, self._submit_counter = self._store.free_job_id(
                app, self._submit_counter
            )
        elif self._store.load(job_id) is not None:
            raise ValueError(f"job {job_id!r} already exists")
        now = self._cloud.now()
        record = JobRecord(
            job_id=job_id,
            app=app,
            input_size=input_size,
            submitted_at_s=now,
            updated_at_s=now,
        )
        self._store.save(record)
        self._count_transition(SUBMITTED)
        return record

    def job(self, job_id: str) -> JobRecord:
        return self._store.get(job_id)

    def jobs(self) -> List[JobRecord]:
        return self._store.load_all()

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job; a MONITORING job's check chain is torn down."""
        record = self._store.get(job_id)
        if record.state == MONITORING and record.job_id in self.fleet.workflows:
            # Bugfixed unregister: stops the armed check chain and
            # raises on unknown names instead of masking typos.
            self.fleet.unregister(record.job_id)
        if record.cancel(self._cloud.now(), note="cancelled by operator"):
            self._store.save(record)
            self._count_transition("CANCELLED")
        self._runtime.pop(job_id, None)
        return record

    # -- the drain loop -----------------------------------------------------
    def runnable(self) -> List[JobRecord]:
        """Jobs with pipeline work left whose backoff window has passed."""
        now = self._cloud.now()
        return [
            r
            for r in self.jobs()
            if not r.is_terminal
            and r.state != MONITORING
            and r.not_before_s <= now
        ]

    def tick(self) -> int:
        """Advance every runnable job by exactly one pipeline step.

        Returns the number of steps that completed successfully."""
        done = 0
        for record in self.runnable():
            if self._step(record):
                done += 1
        return done

    def run(self, max_steps: int = 100) -> int:
        """Tick until every job is settled (MONITORING or terminal) or
        the step budget runs out, advancing virtual time over backoff
        windows so retries actually happen.  Returns steps executed."""
        executed = 0
        while executed < max_steps:
            progressed = 0
            for record in self.runnable():
                if executed >= max_steps:
                    break
                self._step(record)
                executed += 1
                progressed += 1
            if progressed:
                continue
            # Nothing runnable: either all settled, or every pending
            # job is backing off — jump the clock to the next retry.
            waiting = [
                r.not_before_s
                for r in self.jobs()
                if not r.is_terminal and r.state != MONITORING
            ]
            if not waiting:
                break
            self._cloud.env.run(until=max(min(waiting), self._cloud.now()))
        return executed

    # -- one step ------------------------------------------------------------
    def _step(self, record: JobRecord) -> bool:
        """Run the next pipeline step for one job; True on success."""
        next_state = PIPELINE[record.rank() + 1]
        step = STEP_OF_TRANSITION[next_state]
        t0 = self._cloud.now()
        try:
            digest = self._run_step(record, step)
        except CaribouError as exc:
            self._note_failure(record, step, exc)
            return False
        self._tracer.record(
            "service", f"service.{step}",
            t0=t0, t1=self._cloud.now(), workflow=record.job_id,
        )
        record.record_step(step, digest)
        record.advance(
            next_state,
            self._cloud.now(),
            step=step,
            digest=digest,
            note="" if digest else "replayed (already complete)",
        )
        record.not_before_s = 0.0
        self._store.save(record)
        self.steps_executed += 1
        self._count_transition(next_state)
        return True

    def _run_step(self, record: JobRecord, step: str) -> str:
        """Execute one step's side effects; returns its digest.

        A step whose digest is already on the record is a no-op: the
        runtime is hydrated if needed, but no solve/deploy/migrate side
        effects re-run (crash-after-persist replays land here).
        """
        digest = step_digest(record.job_id, step)
        if record.step_done(step):
            self._hydrate(record)
            return record.steps[step]
        runtime = self._hydrate(record, for_step=step)
        if step == "deploy":
            self._do_deploy(record, runtime)
        elif step == "solve":
            self._do_solve(record, runtime)
        elif step == "migrate":
            self._do_migrate(record, runtime)
        elif step == "monitor":
            self._do_monitor(record, runtime)
        else:  # pragma: no cover - state machine guards this
            raise CaribouError(f"unknown step {step!r}")
        return digest

    # -- step bodies ---------------------------------------------------------
    def _do_deploy(self, record: JobRecord, runtime: JobRuntime) -> None:
        deployed, executor = self.utility.deploy(runtime.workflow, runtime.config)
        runtime.deployed, runtime.executor = deployed, executor
        record.artifacts["nodes"] = list(deployed.dag.node_names)
        record.artifacts["home_region"] = deployed.config.home_region

    def _do_solve(self, record: JobRecord, runtime: JobRuntime) -> None:
        deployed, executor = runtime.deployed, runtime.executor
        assert deployed is not None and executor is not None
        source = self._builders.get(record.app) or get_app(record.app)
        warm_up(executor, source, record.input_size, n=WARMUP_INVOCATIONS)
        plan_set = solve_plan_set(
            deployed,
            executor,
            self._scenario,
            solver_settings=SERVICE_SOLVER_SETTINGS,
            stats=self.solver_stats,
        )
        now = self._cloud.now()
        plan_set.created_at_s = now
        plan_set.expires_at_s = now + PLAN_LIFETIME_S
        # The expensive output is durable: recovery re-applies this
        # dict instead of re-running the solver.
        record.artifacts["plan_set"] = plan_set.to_dict()

    def _do_migrate(self, record: JobRecord, runtime: JobRuntime) -> None:
        deployed, executor = runtime.deployed, runtime.executor
        assert deployed is not None and executor is not None
        raw = record.artifacts.get("plan_set")
        if raw is None:
            raise CaribouError(
                f"job {record.job_id!r}: no persisted plan set to migrate"
            )
        plan_set = HourlyPlanSet.from_dict(raw)
        migrator = DeploymentMigrator(self.utility, deployed, executor)
        report = migrator.migrate(plan_set)
        if not report.activated:
            raise CaribouError(
                f"job {record.job_id!r}: migration failed: {report.error}"
            )
        record.artifacts["migrated_regions"] = list(
            plan_set.all_regions_used()
        )

    def _do_monitor(self, record: JobRecord, runtime: JobRuntime) -> None:
        deployed, executor = runtime.deployed, runtime.executor
        assert deployed is not None and executor is not None
        if record.job_id not in self.fleet.workflows:
            manager = self.fleet.register(deployed, executor)
        else:  # replay after crash-before-persist
            manager = self.fleet.manager_for(record.job_id)
            manager.stop()
        manager.run_for(MONITOR_HORIZON_S)

    # -- retry / backoff -----------------------------------------------------
    def _note_failure(
        self, record: JobRecord, step: str, exc: CaribouError
    ) -> None:
        now = self._cloud.now()
        attempts = record.attempts.get(step, 0) + 1
        record.attempts[step] = attempts
        if attempts >= MAX_ATTEMPTS:
            record.fail(now, error=f"{step}: {exc!r}", step=step)
            self._count_transition("FAILED")
        else:
            # Exponential backoff in virtual time.
            record.not_before_s = now + BACKOFF_S * 2 ** (attempts - 1)
            record.journal.append(
                JournalEntry(
                    time_s=now,
                    from_state=record.state,
                    to_state=record.state,
                    step=step,
                    note=f"attempt {attempts} failed: {exc!r}; "
                    f"retry not before t={record.not_before_s:.0f}s",
                )
            )
        self._store.save(record)

    # -- recovery ------------------------------------------------------------
    def recover(self) -> int:
        """Rebuild in-process runtime for every non-terminal job.

        Called on engine start.  For each job past ``SUBMITTED`` the
        workflow objects are rebuilt deterministically and either
        *attached* to the still-standing cloud deployment (same-process
        restart: functions/plan survive in the simulated cloud) or
        *re-established* in a fresh cloud (cross-process ``caribou
        serve``: re-deploy, then re-apply the persisted plan artifact —
        never re-solve).  MONITORING jobs are re-registered with the
        fleet and their check chains re-armed.  Returns the number of
        jobs hydrated.
        """
        hydrated = 0
        for record in self.jobs():
            if record.is_terminal or record.rank() < 1:
                continue  # SUBMITTED jobs hydrate lazily on first step
            self._hydrate(record)
            if record.state == MONITORING:
                runtime = self._runtime[record.job_id]
                assert runtime.deployed is not None
                assert runtime.executor is not None
                if record.job_id not in self.fleet.workflows:
                    manager = self.fleet.register(
                        runtime.deployed, runtime.executor
                    )
                    manager.run_for(MONITOR_HORIZON_S)
            hydrated += 1
        return hydrated

    def _hydrate(
        self, record: JobRecord, for_step: Optional[str] = None
    ) -> JobRuntime:
        """Ensure in-process handles exist for a job, rebuilding them
        from the durable record when this engine has none."""
        runtime = self._runtime.get(record.job_id)
        if runtime is not None and (
            runtime.deployed is not None or not record.step_done("deploy")
        ):
            return runtime
        runtime = self._build_workflow(record)
        self._runtime[record.job_id] = runtime
        if not record.step_done("deploy"):
            return runtime  # nothing cloud-side yet
        entry = runtime.workflow.entry_function.name
        if self._cloud.functions.is_deployed(
            runtime.workflow.name, entry, runtime.config.home_region
        ):
            # Same-process restart: cloud state survived; attach only.
            deployed, executor = self.utility.attach(runtime.workflow, runtime.config)
        else:
            # Fresh cloud (cross-process serve): re-establish the
            # recorded deployment, then re-apply the persisted plan.
            deployed, executor = self.utility.deploy(runtime.workflow, runtime.config)
            raw = record.artifacts.get("plan_set")
            if raw is not None and record.step_done("migrate"):
                migrator = DeploymentMigrator(self.utility, deployed, executor)
                migrator.migrate(HourlyPlanSet.from_dict(raw))
        runtime.deployed, runtime.executor = deployed, executor
        return runtime

    # -- telemetry -----------------------------------------------------------
    def _count_transition(self, to_state: str) -> None:
        self._metrics.counter("service.transitions", state=to_state).inc()

    def summary(self) -> Dict[str, Any]:
        """Counts per state plus engine-lifetime step count."""
        by_state: Dict[str, int] = {}
        for record in self.jobs():
            by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "jobs": sum(by_state.values()),
            "by_state": dict(sorted(by_state.items())),
            "steps_executed": self.steps_executed,
            "fleet_workflows": len(self.fleet.workflows),
        }

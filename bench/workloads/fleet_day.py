"""``fleet_day`` — the service end to end: ten jobs onboarded through
``ServiceEngine``, then a virtual day of traffic while every manager
checks hourly.

Timed from the engine's construction, so onboarding (deploy, warm-up,
solve, migrate, register) is inside the number.  Every layer contributes
and none dominates, so a gain in one layer that costs another shows here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.apps import ALL_APPS, get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.trigger import TriggerSettings
from repro.data.workload import OpenLoopInjector
from repro.service import MONITORING, MemoryJobStore, ServiceEngine

from . import common
from .common import SLICE_S, Outcome, Tally

NAME = "fleet_day"
WHY = (
    "ten jobs through ServiceEngine to MONITORING, then a day of traffic with hourly "
    "checks: every layer contributes, so a gain in one that costs another shows"
)

#: Frozen sizing (scale 1 = ``--seconds 20`` on the 2-core sandbox).
JOBS_PER_APP = 2  # 5 apps x 2 = 10 jobs = 40 pipeline steps
RATE_PER_S = 0.01  # per workflow, before the diurnal profile
N_SLICES = 144  # one virtual day in 10-minute slices
TAIL_S = common.SLICE_S
#: ``step_tail_ms`` percentile: 14 of the 144 slices lie beyond p90, all of
#: them among the 24 slices in which the hourly checks run.
TAIL_PERCENTILE = 90
#: ``min == max`` divides by zero in ``TokenBucket.next_check_delay_s``
#: (left for a later issue), hence 3660.
TRIGGER = TriggerSettings(min_check_period_s=3600, max_check_period_s=3660)


@dataclass
class State:
    cloud: object
    n_slices: int
    #: One arrival trace per job, anchored at t=0 until traffic starts.
    traces: List[object]
    engine: ServiceEngine = None
    traffic_start_s: float = 0.0
    injectors: Dict[str, OpenLoopInjector] = field(default_factory=dict)
    events: int = 0


def setup(seed: int, scale: float) -> State:
    n_jobs = len(ALL_APPS) * max(1, round(JOBS_PER_APP * scale))
    n_slices = max(12, round(N_SLICES * scale))
    return State(
        cloud=SimulatedCloud(
            seed=common.derive(seed, "cloud"), carbon_overrides=common.carbon_week()
        ),
        n_slices=n_slices,
        traces=[
            common.diurnal_trace(
                RATE_PER_S, n_slices * SLICE_S - TAIL_S, common.derive(seed, f"arrivals:{job}")
            )
            for job in range(n_jobs)
        ],
    )


def fleet_executors(engine: ServiceEngine) -> Dict[str, object]:
    """Executor per managed workflow.  The service has no public accessor
    for them (clients of the real system invoke by name), so this reads
    the fleet's registry."""
    return {name: entry.executor for name, entry in engine.fleet._entries.items()}


def run(state: State, step) -> None:
    cloud = state.cloud
    env = cloud.env
    events0 = env.events_executed
    engine = state.engine = ServiceEngine(cloud, MemoryJobStore(), trigger_settings=TRIGGER)
    n_jobs = len(state.traces)
    for k in range(n_jobs // len(ALL_APPS)):
        for name in sorted(ALL_APPS):
            engine.submit(name, "small")
    engine.run(max_steps=4 * n_jobs)

    state.traffic_start_s = start_s = cloud.now()
    for trace, (name, executor) in zip(state.traces, fleet_executors(engine).items()):
        app = get_app(engine.job(name).app)
        injector = OpenLoopInjector(
            executor,
            trace.shifted(start_s),
            payload_factory=lambda i, app=app: app.make_input("small"),
        )
        injector.start()
        state.injectors[name] = injector
    for i in range(state.n_slices):
        until = start_s + (i + 1) * SLICE_S
        step(lambda: env.run(until=until))
    state.events = env.events_executed - events0


def finish(state: State) -> Outcome:
    tally = Tally()
    cloud, engine = state.cloud, state.engine
    jobs = engine.jobs()
    tally.expect(
        len(jobs) == len(state.traces), f"{len(jobs)} jobs, expected {len(state.traces)}"
    )
    for job in jobs:
        tally.expect(job.state == MONITORING, f"job {job.job_id} is {job.state}")
    executors = fleet_executors(engine)
    times = common.service_times(cloud, state.traffic_start_s)
    ops = 0
    ratios: List[float] = []
    expansions = 0
    for name, injector in state.injectors.items():
        rids = [rid for (wf, rid) in times if wf == name]
        tally.expect(
            len(rids) == injector.injected and injector.remaining == 0,
            f"{name}: {len(rids)} requests in the ledger, {injector.injected} injected",
        )
        ops += common.check_requests(tally, executors[name], rids)
        common.check_region_sums(tally, cloud, name)
        manager = engine.fleet.manager_for(name)
        common.check_reports(tally, name, manager.reports)
        evaluator = manager.make_evaluator()
        for at_s, plan_set in manager.plan_history:
            common.check_plan_set(tally, evaluator, plan_set, f"{name}@{at_s:.0f}")
        case_ratios, case_expansions = common.hbss_vs_exact(
            evaluator, manager.plan_history[-1][1]
        )
        ratios += case_ratios
        expansions += case_expansions
    carbon, p95 = common.ledger_outcomes(
        tally, cloud, list(state.injectors), state.traffic_start_s, times
    )
    requests = sum(i.injected for i in state.injectors.values())
    counts = common.cloud_layer_counts([cloud], list(executors.values()))
    counts["core.solver.exact.expansions"] = expansions
    counts["service.engine.retries"] = sum(sum(j.attempts.values()) for j in jobs)
    return Outcome(
        tally=tally,
        ops=ops,
        virtual_s=cloud.now(),
        carbon_g_per_request=carbon,
        sim_latency_p95_s=p95,
        hbss_carbon_vs_exact_pct=sum(ratios) / len(ratios),
        events_per_request=state.events / requests,
        layer_counts=counts,
    )

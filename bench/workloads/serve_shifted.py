"""``serve_shifted`` — one virtual day of open-loop traffic through two
workflows whose plans are already solved and migrated.

The simulated cloud (event loop, executor, KV store, pub/sub, functions,
network, ledger, metrics) does all the work and the solver stack none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.migrator import DeploymentMigrator
from repro.data.workload import OpenLoopInjector
from repro.experiments.harness import (
    BENCH_SOLVER_SETTINGS,
    build_plan_evaluator,
    deploy_benchmark,
    solve_plan_set,
    warm_up,
)

from . import common
from .common import SCENARIO, SLICE_S, Outcome, Tally

NAME = "serve_shifted"
WHY = (
    "a day of open-loop traffic over migrated plans: event loop, executor, "
    "KV, pub/sub, functions, network and ledger do all the work, the solver none"
)

#: Frozen sizing (scale 1 = ``--seconds 20`` on the 2-core sandbox).
APPS = ("text2speech_censoring", "image_processing")
RATE_PER_S = 0.125  # per workflow, before the diurnal profile
N_SLICES = 144  # one virtual day in 10-minute slices
WARMUP_REQUESTS = 12
#: The trace stops this long before the day ends so the last requests
#: finish inside it.
TAIL_S = SLICE_S
#: ``step_tail_ms`` percentile: 29 of the 144 slices lie beyond p80.  p90
#: (14 beyond) sits in the few peak-hour slices, where one slow moment of
#: the host moves it by 20-30 % from run to run.
TAIL_PERCENTILE = 80


@dataclass
class Served:
    app: object
    deployed: object
    executor: object
    plan_set: object
    #: Built right after the solve, over the metrics the solver saw: a
    #: day of fully shifted traffic later, the Metrics Manager's
    #: 5,000-invocation window holds no home-region history to build
    #: a fresh one from.
    evaluator: object
    trace: object
    injector: OpenLoopInjector


@dataclass
class State:
    cloud: object
    served: List[Served]
    start_s: float
    events: int = 0


def setup(seed: int, scale: float) -> State:
    cloud = SimulatedCloud(seed=common.derive(seed, "cloud"), carbon_overrides=common.carbon_week())
    deployments = []
    for name in APPS:
        app = get_app(name)
        deployed, executor, utility = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=WARMUP_REQUESTS)
        plan_set = solve_plan_set(deployed, executor, SCENARIO)
        report = DeploymentMigrator(utility, deployed, executor).migrate(plan_set)
        if not report.activated:
            raise RuntimeError(f"{name}: migration failed: {report.error}")
        evaluator = build_plan_evaluator(deployed, SCENARIO, BENCH_SOLVER_SETTINGS)
        deployments.append((app, deployed, executor, plan_set, evaluator))
    start_s = cloud.now()
    served = []
    for app, deployed, executor, plan_set, evaluator in deployments:
        trace = common.diurnal_trace(
            RATE_PER_S * scale,
            N_SLICES * SLICE_S - TAIL_S,
            common.derive(seed, f"arrivals:{deployed.name}"),
        ).shifted(start_s)
        injector = OpenLoopInjector(
            executor, trace, payload_factory=lambda i, app=app: app.make_input("small")
        )
        injector.start()
        served.append(Served(app, deployed, executor, plan_set, evaluator, trace, injector))
    return State(cloud, served, start_s)


def run(state: State, step) -> None:
    env = state.cloud.env
    events0 = env.events_executed
    for i in range(N_SLICES):
        until = state.start_s + (i + 1) * SLICE_S
        step(lambda: env.run(until=until))
    state.events = env.events_executed - events0


def finish(state: State) -> Outcome:
    tally = Tally()
    cloud = state.cloud
    times = common.service_times(cloud, state.start_s)
    ops = 0
    ratios: List[float] = []
    expansions = 0
    for s in state.served:
        name = s.deployed.name
        rids = [rid for (wf, rid) in times if wf == name]
        tally.expect(
            len(rids) == s.injector.injected and s.injector.remaining == 0,
            f"{name}: {len(rids)} requests in the ledger, {s.injector.injected} injected",
        )
        ops += common.check_requests(tally, s.executor, rids)
        common.check_region_sums(tally, cloud, name)
        common.check_plan_set(tally, s.evaluator, s.plan_set, name)
        case_ratios, case_expansions = common.hbss_vs_exact(s.evaluator, s.plan_set)
        ratios += case_ratios
        expansions += case_expansions
    names = [s.deployed.name for s in state.served]
    carbon, p95 = common.ledger_outcomes(tally, cloud, names, state.start_s, times)
    requests = sum(s.injector.injected for s in state.served)
    counts = common.cloud_layer_counts([cloud], [s.executor for s in state.served])
    counts["core.solver.exact.expansions"] = expansions
    return Outcome(
        tally=tally,
        ops=ops,
        virtual_s=cloud.now() - state.start_s,
        carbon_g_per_request=carbon,
        sim_latency_p95_s=p95,
        hbss_carbon_vs_exact_pct=sum(ratios) / len(ratios),
        events_per_request=state.events / requests,
        layer_counts=counts,
    )

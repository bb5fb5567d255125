"""``resolve_churn`` — a week of Deployment Manager checks over a
persistent evaluation cache that is alternately reusable and invalidated.

Busy periods bring new telemetry (the learned metrics move, the cache is
dropped); quiet periods bring none (the cache survives unless the daily
forecast refit lands in them).  The same solver stack as ``solve_cold``,
used the way the control loop uses it: warm-started walks, cache reuse,
``MetricsManager.collect``, Holt-Winters refits, realised-savings pricing
and the migrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.core.manager import DeploymentManager
from repro.experiments.harness import BENCH_SOLVER_SETTINGS, deploy_benchmark, warm_up

from . import common
from .common import SCENARIO, Outcome, Tally

NAME = "resolve_churn"
WHY = (
    "manager checks over a persistent evaluation cache that busy periods invalidate "
    "and quiet periods reuse: warm-started solves, collect, refits, accounting, migrator"
)

#: Frozen sizing (scale 1 = ``--seconds 20`` on the 2-core sandbox).
APPS = ("text2speech_censoring", "video_analytics")
N_PERIODS = 26  # 6.5 virtual days of 6-hour periods = 52 checks
PERIOD_S = 6 * 3600.0
BUSY_REQUESTS = 30  # per workflow, in every other period
WARMUP_REQUESTS = 12
#: Forecasts need a week of history, so the clock starts a week in and
#: the daily Holt-Winters refits really happen.
START_S = 7 * SECONDS_PER_DAY
#: Busy traffic stops this long before the check so it has finished.
TAIL_S = 600.0
#: ``step_tail_ms`` percentile: 10 of the 52 checks lie beyond p80.
TAIL_PERCENTILE = 80


@dataclass
class Managed:
    app: object
    deployed: object
    executor: object
    manager: DeploymentManager
    #: Busy-period arrival offsets, one array per period (empty = quiet).
    arrivals: List[np.ndarray]
    rids: List[str] = field(default_factory=list)


@dataclass
class State:
    cloud: object
    managed: List[Managed]
    start_s: float
    n_periods: int
    events: int = 0


def setup(seed: int, scale: float) -> State:
    n_periods = max(4, round(N_PERIODS * scale))
    cloud = SimulatedCloud(seed=common.derive(seed, "cloud"), carbon_overrides=common.carbon_week())
    cloud.env.run(until=START_S)
    managed = []
    for name in APPS:
        app = get_app(name)
        deployed, executor, utility = deploy_benchmark(
            app, cloud, benchmarking_fraction=0.1
        )
        warm_up(executor, app, "small", n=WARMUP_REQUESTS)
        manager = DeploymentManager(
            deployed, executor, utility, SCENARIO,
            solver_settings=BENCH_SOLVER_SETTINGS,
            use_token_bucket=False, fixed_granularity=24, use_forecast=True,
        )
        rng = np.random.default_rng(common.derive(seed, f"arrivals:{name}"))
        arrivals = [
            np.sort(rng.uniform(0.0, PERIOD_S - TAIL_S, size=BUSY_REQUESTS))
            if period % 2 == 0 else np.empty(0)
            for period in range(n_periods)
        ]
        managed.append(Managed(app, deployed, executor, manager, arrivals))
    return State(cloud, managed, cloud.now(), n_periods)


def run(state: State, step) -> None:
    env = state.cloud.env
    events0 = env.events_executed
    for period in range(state.n_periods):
        begin = state.start_s + period * PERIOD_S
        for m in state.managed:
            for offset in m.arrivals[period]:
                env.schedule_at(
                    begin + float(offset),
                    lambda m=m: m.rids.append(m.executor.invoke(m.app.make_input("small"))),
                )
        env.run(until=begin + PERIOD_S)
        for m in state.managed:
            step(m.manager.check)
    state.events = env.events_executed - events0


def finish(state: State) -> Outcome:
    tally = Tally()
    cloud = state.cloud
    ops = 0
    ratios: List[float] = []
    expansions = 0
    for m in state.managed:
        name = m.deployed.name
        tally.expect(
            len(m.manager.reports) == state.n_periods,
            f"{name}: {len(m.manager.reports)} checks, expected {state.n_periods}",
        )
        ops += common.check_reports(tally, name, m.manager.reports)
        common.check_requests(tally, m.executor, m.rids)
        common.check_region_sums(tally, cloud, name)
        evaluator = m.manager.make_evaluator()
        for at_s, plan_set in m.manager.plan_history:
            common.check_plan_set(tally, evaluator, plan_set, f"{name}@{at_s:.0f}")
        case_ratios, case_expansions = common.hbss_vs_exact(
            evaluator, m.manager.plan_history[-1][1]
        )
        ratios += case_ratios
        expansions += case_expansions
    names = [m.deployed.name for m in state.managed]
    times = common.service_times(cloud, state.start_s)
    carbon, p95 = common.ledger_outcomes(tally, cloud, names, state.start_s, times)
    requests = sum(len(m.rids) for m in state.managed)
    counts = common.cloud_layer_counts([cloud], [m.executor for m in state.managed])
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

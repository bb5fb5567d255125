"""``solve_cold`` — cold 24-hour HBSS solves over the five Table-1 apps.

Every cache starts empty, so the Monte-Carlo kernel, the per-hour
re-pricing of profiles and the HBSS walk dominate; the simulated cloud is
idle.  The bypass workload for executor work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps import ALL_APPS, get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.solver import SolverSettings
from repro.experiments.harness import (
    build_plan_evaluator,
    deploy_benchmark,
    solve_plan_set,
    warm_up,
)

from . import common
from .common import SCENARIO, Outcome, Tally

NAME = "solve_cold"
WHY = (
    "cold 24-hour HBSS solves of the five apps with every cache empty: "
    "Monte-Carlo kernel, profile re-pricing and the HBSS walk dominate, the cloud is idle"
)

#: Frozen sizing (scale 1 = ``--seconds 20`` on the 2-core sandbox).
CLOUDS_PER_APP = 10  # 5 apps x 10 cloud seeds = 50 day-solves = 1200 hour-solves
WARMUP_REQUESTS = 12
SETTINGS = SolverSettings()
#: ``step_tail_ms`` percentile.  The five apps are five equal clusters of
#: step time, so p80 falls exactly between the two dearest and jumps from
#: one to the other; p90 is the middle of the dearest (image_processing),
#: at the price of only 5 of the 50 steps beyond it.
TAIL_PERCENTILE = 90


@dataclass
class Case:
    app: str
    deployed: object
    executor: object
    plan_set: object = None


@dataclass
class State:
    cases: List[Case]
    warmup_events: int
    clouds: List[object]


def setup(seed: int, scale: float) -> State:
    n_clouds = max(1, round(CLOUDS_PER_APP * scale))
    carbon = common.carbon_week()
    cases, clouds, events = [], [], 0
    # Cloud-major order, so every stretch of steps holds the same app mix.
    for k in range(n_clouds):
        for name in sorted(ALL_APPS):
            cloud = SimulatedCloud(
                seed=common.derive(seed, f"cloud:{name}:{k}"), carbon_overrides=carbon
            )
            app = get_app(name)
            deployed, executor, _utility = deploy_benchmark(app, cloud)
            warm_up(executor, app, "small", n=WARMUP_REQUESTS)
            events += cloud.env.events_executed
            clouds.append(cloud)
            cases.append(Case(name, deployed, executor))
    return State(cases, events, clouds)


def run(state: State, step) -> None:
    for case in state.cases:
        case.plan_set = step(
            lambda: solve_plan_set(
                case.deployed, case.executor, SCENARIO, solver_settings=SETTINGS
            )
        )


def finish(state: State) -> Outcome:
    tally = Tally()
    ops = 0
    carbons: List[float] = []
    tails: List[float] = []
    ratios: List[float] = []
    expansions = 0
    for i, case in enumerate(state.cases):
        evaluator = build_plan_evaluator(case.deployed, SCENARIO, SETTINGS)
        ops += common.check_plan_set(tally, evaluator, case.plan_set, f"{case.app}#{i}")
        for hour in range(24):
            estimate = evaluator.estimate(case.plan_set.plan_for_hour(hour), hour)
            carbons.append(estimate.mean_carbon_g)
            tails.append(estimate.tail_latency_s)
        case_ratios, case_expansions = common.hbss_vs_exact(evaluator, case.plan_set)
        ratios += case_ratios
        expansions += case_expansions
    hours = 24 * len(state.cases)
    counts = common.cloud_layer_counts(state.clouds, [c.executor for c in state.cases])
    counts["core.solver.exact.expansions"] = expansions
    return Outcome(
        tally=tally,
        ops=ops,
        # No virtual time passes while solving; the plans cover this much.
        virtual_s=hours * 3600.0,
        carbon_g_per_request=sum(carbons) / len(carbons),
        sim_latency_p95_s=float(np.percentile(tails, 95)),
        hbss_carbon_vs_exact_pct=sum(ratios) / len(ratios),
        events_per_request=state.warmup_events / (WARMUP_REQUESTS * len(state.cases)),
        layer_counts=counts,
    )

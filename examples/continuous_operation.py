#!/usr/bin/env python3
"""Continuous self-adaptive operation: a week in the life of a workflow.

Reproduces the §9.5 setting as a runnable demo: the Video Analytics
workflow receives Azure-trace-shaped traffic for five days while the
Deployment Manager loop (Fig. 6) runs autonomously — collecting metrics,
earning carbon tokens, solving when the budget allows, migrating, and
scheduling its own next check.  Prints the decision timeline and the
cumulative carbon against an everything-at-home counterfactual.

Run:  python examples/continuous_operation.py
"""

from collections import Counter

import numpy as np

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.manager import DeploymentManager
from repro.core.solver import SolverSettings
from repro.core.trigger import TriggerSettings
from repro.data.traces import azure_like_trace
from repro.core.lifecycle import deploy_benchmark
from repro.experiments.harness import run_coarse
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel

DAYS = 5.0
DAILY_INVOCATIONS = 200


def main() -> None:
    cloud = SimulatedCloud(seed=99)
    app = get_app("video_analytics")
    scenario = TransmissionScenario.best_case()

    deployed, executor, utility = deploy_benchmark(
        app, cloud, benchmarking_fraction=0.10
    )
    dm = DeploymentManager(
        deployed, executor, utility, scenario=scenario,
        solver_settings=SolverSettings(batch_size=50, max_samples=150,
                                       cov_threshold=0.12,
                                       alpha_per_node_region=4),
        trigger_settings=TriggerSettings(
            min_check_period_s=4 * SECONDS_PER_HOUR,
            max_check_period_s=SECONDS_PER_DAY,
        ),
        use_forecast=False,
    )

    trace = azure_like_trace(days=DAYS,
                             mean_daily_invocations=DAILY_INVOCATIONS,
                             seed=99)
    print(f"scheduling {len(trace)} invocations over {DAYS:.0f} days "
          f"(Azure-trace-shaped)")
    rids = []
    for t in trace:
        cloud.env.schedule(
            t, lambda: rids.append(executor.invoke(app.make_input("small")))
        )
    dm.run_for(DAYS * SECONDS_PER_DAY, first_check_delay_s=SECONDS_PER_HOUR)
    cloud.run_until_idle()

    print(f"\n== Deployment Manager activity ==")
    print(f"token checks: {len(dm.reports)}, "
          f"plan generations: {len(dm.plan_history)}")
    for report in dm.reports:
        mark = "SOLVED" if report.solved else "  -   "
        print(f"  t={report.time_s / 3600:6.1f}h  [{mark}]  "
              f"tokens={report.tokens_g * 1000:8.3f} mg / "
              f"cost={report.solve_cost_g * 1000:8.3f} mg  "
              f"next check in {report.next_check_delay_s / 3600:.1f}h")

    print(f"\n== where did the work run? (per day, execution counts) ==")
    per_day: dict = {}
    for rec in cloud.ledger.executions_for(deployed.name):
        day = int(rec.start_s // SECONDS_PER_DAY)
        per_day.setdefault(day, Counter())[rec.region] += 1
    for day, counts in sorted(per_day.items()):
        summary = ", ".join(f"{r}={n}" for r, n in counts.most_common())
        print(f"  day {day}: {summary}")

    accountant = CarbonAccountant(
        cloud.carbon_source, CarbonModel(scenario),
        CostModel(cloud.pricing_source),
    )
    fp = accountant.price_workflow(cloud.ledger, deployed.name)
    caribou_per_inv = fp.carbon_g / max(1, len(rids))

    home = run_coarse(app, "small", "us-east-1", seed=99, n_invocations=40,
                      days=DAYS, scenarios=[scenario])
    print(f"\n== weekly outcome ==")
    print(f"Caribou:     {caribou_per_inv * 1000:8.3f} mgCO2eq/invocation "
          f"(includes 10 % home benchmarking traffic)")
    print(f"all-at-home: {home.carbon(scenario.name) * 1000:8.3f} "
          f"mgCO2eq/invocation")
    print(f"reduction:   "
          f"{1 - caribou_per_inv / home.carbon(scenario.name):.1%}")


if __name__ == "__main__":
    main()

"""Ablation — geospatial vs joint geospatial+temporal shifting.

The paper contrasts temporal and geospatial shifting as orthogonal
levers (§2.2) and leaves their combination to future work.  This bench
quantifies the combination on the US-only region set — the case where
geospatial shifting alone is least effective (no always-clean hydro
region) and the solar grid's diurnal swing gives delay tolerance real
value.

Setup: DNA Visualization (single-stage, trivially delay-tolerant),
regions us-east-1/us-west-1/us-west-2, invocations submitted at a dirty
hour of day.  Compared: immediate execution under the Caribou plan vs
the TemporalShifter with a 6-hour deadline.
"""

import numpy as np

from conftest import BENCH_SOLVER, print_header
from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_HOUR
from repro.core.migrator import DeploymentMigrator
from repro.core.temporal import TemporalPolicy, TemporalShifter
from repro.core.lifecycle import deploy_benchmark, solve_plan_set, warm_up
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel

US_REGIONS = ("us-east-1", "us-west-1", "us-west-2")
#: Submit at 21:00: the solar grid is near its nightly peak.
SUBMIT_HOUR = 21
N = 15


def run(delay_tolerance_h: float, seed: int = 900) -> float:
    cloud = SimulatedCloud(seed=seed, regions=US_REGIONS)
    app = get_app("dna_visualization")
    deployed, executor, utility = deploy_benchmark(app, cloud)
    warm_up(executor, app, "small", n=8)
    scenario = TransmissionScenario.best_case()
    plan_set = solve_plan_set(deployed, executor, scenario,
                              solver_settings=BENCH_SOLVER)
    DeploymentMigrator(utility, deployed, executor).migrate(plan_set)

    shifter = TemporalShifter(executor)
    policy = (
        TemporalPolicy(max_delay_s=delay_tolerance_h * SECONDS_PER_HOUR)
        if delay_tolerance_h > 0 else None
    )
    # Submit a nightly batch on several evenings.
    base = cloud.now()
    for day in range(3):
        submit_at = (
            base
            + day * 24 * SECONDS_PER_HOUR
            + ((SUBMIT_HOUR * SECONDS_PER_HOUR - base) % (24 * SECONDS_PER_HOUR))
        )
        for i in range(N // 3):
            cloud.env.schedule_at(
                submit_at + i * 30.0,
                lambda: shifter.submit(app.make_input("small"), policy),
            )
    cloud.run_until_idle()

    accountant = CarbonAccountant(
        cloud.carbon_source, CarbonModel(scenario), CostModel(cloud.pricing_source)
    )
    rids = [
        rid for rid in cloud.ledger.request_ids(deployed.name)
        if cloud.ledger.executions_for(deployed.name, rid)[0].start_s > base
    ]
    carbons = [
        accountant.price_workflow(cloud.ledger, deployed.name, rid).carbon_g
        for rid in rids
    ]
    return float(np.mean(carbons))


def test_ablation_temporal_shifting(benchmark):
    print_header("Ablation — geo-only vs geo+temporal (US regions, "
                 "nightly batch)")
    geo_only = run(0.0)
    joint_3h = run(3.0)
    joint_8h = run(8.0)
    print(f"{'strategy':26s} {'mg/invocation':>14s} {'vs geo-only':>12s}")
    for name, value in (("geo-only (immediate)", geo_only),
                        ("geo + 3 h tolerance", joint_3h),
                        ("geo + 8 h tolerance", joint_8h)):
        print(f"{name:26s} {value * 1000:14.4f} "
              f"{value / geo_only - 1:11.1%}")

    # Waiting out the solar grid's night peak saves carbon, and more
    # tolerance saves at least as much.
    assert joint_8h < geo_only
    assert joint_8h <= joint_3h * 1.05

    benchmark.pedantic(lambda: run(3.0, seed=901), rounds=1, iterations=1)

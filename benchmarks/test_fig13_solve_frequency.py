"""Fig. 13 — sensitivity to the plan-generation frequency (§9.7).

The dynamic trigger is disabled and the solver runs on a fixed schedule
of 1..7 solves per week (Text2Speech Censoring, small input, scaled
Azure-style traffic).

(a) Total carbon per invocation, split into workflow execution carbon
    and Caribou overhead (DP generation compute — priced via the §5.2
    cost model the token bucket uses — plus migration image copies).
    Shape: overhead grows with frequency but stays small relative to
    the workflow itself, and more frequent solving does not
    dramatically reduce workflow carbon (the paper's "no significant
    framework overhead ... but also no significant decrease").

(b) Forecast quality vs solve frequency: solving k times per week means
    each plan relies on a 7/k-day-old Holt-Winters forecast; MAPE over
    the applicable window shrinks as solves become more frequent, and
    sub-linearly (Fig. 13b: "forecast quality does not worsen linearly
    with increasing forecast window").
"""

from typing import Dict

import numpy as np
import pytest

from conftest import BENCH_SOLVER, print_header
from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.core.manager import DeploymentManager
from repro.data.carbon import generate_carbon_trace
from repro.data.traces import azure_like_trace
from repro.core.lifecycle import deploy_benchmark
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.forecast import HoltWintersForecaster, mape

FREQUENCIES = (1, 2, 3, 5, 7)
DAYS = 6.0
#: Scaled from the paper's ~1.6 K daily invocations (5th-pct Azure DAG);
#: framework overhead amortises proportionally (§9.7), so the scaled
#: rate must stay high enough that the one-time migration image copies
#: do not dominate the per-invocation overhead.
DAILY_INVOCATIONS = 400
APP = "text2speech_censoring"


def run_with_frequency(solves_per_week: int, seed: int = 600) -> Dict[str, float]:
    cloud = SimulatedCloud(seed=seed)
    app = get_app(APP)
    deployed, executor, utility = deploy_benchmark(app, cloud)
    scenario = TransmissionScenario.worst_case()
    dm = DeploymentManager(
        deployed, executor, utility, scenario=scenario,
        solver_settings=BENCH_SOLVER, use_token_bucket=False,
        use_forecast=False,
    )
    trace = azure_like_trace(days=DAYS, mean_daily_invocations=DAILY_INVOCATIONS,
                             seed=seed)
    rids = []
    for t in trace:
        cloud.env.schedule(
            t, lambda: rids.append(executor.invoke(app.make_input("small")))
        )
    interval = 7.0 * SECONDS_PER_DAY / solves_per_week
    solve_times = [t for t in np.arange(SECONDS_PER_DAY / 4, DAYS * SECONDS_PER_DAY,
                                        interval)]
    for t in solve_times:
        cloud.env.schedule_at(t, lambda: dm.solve_now(granularity_hours=24))
    cloud.run_until_idle()

    accountant = CarbonAccountant(
        cloud.carbon_source, CarbonModel(scenario), CostModel(cloud.pricing_source)
    )
    workflow_fp = accountant.price_workflow(cloud.ledger, deployed.name)
    # Framework overhead: the §5.2 solve-cost model per generation plus
    # the crane image copies the migrator performed.
    framework_i = cloud.carbon_source.average("us-east-1")
    solve_overhead = len(dm.plan_history) * dm.bucket.solve_cost_g(
        framework_i, 24
    )
    image_records = [
        r for r in cloud.ledger.transmissions if r.kind == "image"
    ]
    image_overhead = sum(
        accountant.transmission_carbon_g(r.src_region, r.dst_region, r.start_s, r.size_bytes)
        for r in image_records
    )
    n = max(1, len(rids))
    return {
        "workflow_g": workflow_fp.carbon_g / n,
        "overhead_g": (solve_overhead + image_overhead) / n,
        "n_invocations": len(rids),
        "n_solves": len(dm.plan_history),
    }


@pytest.fixture(scope="module")
def frequency_results():
    return {f: run_with_frequency(f) for f in FREQUENCIES}


def test_fig13a_overhead_vs_frequency(frequency_results, benchmark):
    print_header("Fig. 13a — carbon per invocation vs weekly solve frequency")
    print(f"{'freq/wk':>7s} {'solves':>7s} {'workflow mg':>12s} "
          f"{'overhead mg':>12s} {'total mg':>10s} {'ovh share':>9s}")
    for f in FREQUENCIES:
        r = frequency_results[f]
        total = r["workflow_g"] + r["overhead_g"]
        print(f"{f:7d} {r['n_solves']:7d} {r['workflow_g'] * 1000:12.4f} "
              f"{r['overhead_g'] * 1000:12.4f} {total * 1000:10.4f} "
              f"{r['overhead_g'] / total:8.1%}")

    overheads = [frequency_results[f]["overhead_g"] for f in FREQUENCIES]
    workflows = [frequency_results[f]["workflow_g"] for f in FREQUENCIES]
    totals = [w + o for w, o in zip(workflows, overheads)]
    # Overhead grows with solve frequency...
    assert overheads[-1] > overheads[0]
    # ...but stays below the workflow's own carbon (at the paper's 1.6 K
    # daily invocations the share would be ~4x smaller still — overhead
    # amortises per invocation, §9.7).
    for f in FREQUENCIES:
        r = frequency_results[f]
        assert r["overhead_g"] < r["workflow_g"], f
    # The paper's 13a conclusion, both directions: frequent updates do
    # not blow the budget (total at 7/week is no worse than at 1/week —
    # here it is strictly better, because the weekly plan goes stale and
    # falls back home mid-week)...
    assert totals[-1] <= totals[0]
    # ...and they do not dramatically reduce workflow carbon either:
    # the steadily re-solving frequencies sit within a narrow band.
    resolving = workflows[1:]
    assert max(resolving) < 1.35 * min(resolving)

    benchmark.pedantic(
        lambda: run_with_frequency(1, seed=601), rounds=1, iterations=1,
    )


def test_fig13b_forecast_quality_vs_frequency(benchmark):
    print_header("Fig. 13b — forecast MAPE vs solve frequency")
    horizon_weeks = 3
    traces = {
        zone: generate_carbon_trace(zone, 24 * 7 * horizon_weeks, seed=7)
        for zone in ("US-PJM", "US-CAISO", "US-BPA", "CA-QC")
    }

    def mean_mape(solves_per_week: int) -> float:
        window_hours = int(round(24 * 7 / solves_per_week))
        errors = []
        for zone, trace in traces.items():
            # Fit at each solve point in week 2..3, score the window the
            # plan would rely on.
            fit_points = range(24 * 7, len(trace) - window_hours, window_hours)
            for start in fit_points:
                forecaster = HoltWintersForecaster().fit(
                    trace[start - 24 * 7 : start]
                )
                pred = forecaster.forecast(window_hours)
                errors.append(mape(trace[start : start + window_hours], pred))
        return float(np.mean(errors))

    results = {f: mean_mape(f) for f in FREQUENCIES}
    print(f"{'freq/wk':>7s} {'window (h)':>10s} {'MAPE':>7s}")
    for f, err in results.items():
        print(f"{f:7d} {round(24 * 7 / f):10d} {err:6.1%}")

    # More frequent solves (shorter forecast windows) -> better forecasts.
    assert results[7] < results[1]
    # Sub-linear degradation: a 7x longer window costs far less than 7x
    # the error (Fig. 13b's point).
    assert results[1] < 4 * results[7]
    # All within a usable band for plan ranking.
    assert all(err < 0.5 for err in results.values())

    benchmark(lambda: mean_mape(7))

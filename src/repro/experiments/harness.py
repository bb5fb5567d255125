"""End-to-end experiment runner (§9.1 methodology).

One *run* = one fresh simulated cloud + one deployed benchmark +
``n_invocations`` measured end-user requests spread over the carbon
week (2023-10-15..21), after a home-region warm-up phase that gives the
Metrics Manager the execution history the solver needs (standing in for
the 10 % benchmarking traffic of a long-lived deployment).

Fairness rules from §9.1 are baked in: external storage/services stay at
the home region (declared per app), service time is measured from the
first function's start to the last function's end, and each simulated
run is priced under both the best- and worst-case transmission-carbon
scenarios without re-running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import BenchmarkApp, default_config
from repro.cloud.faults import FaultPlan, ReliabilityStats
from repro.cloud.ledger import RecordGroup
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.core.deployer import DeploymentUtility
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.core.migrator import DeploymentMigrator
from repro.core.solver import (
    CoarseSolver,
    ExactSolver,
    HBSSSolver,
    PlanEvaluator,
    SolverSettings,
    SolverStats,
)
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.manager import MetricsManager
from repro.model.config import Tolerances, WorkflowConfig
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.slo import evaluate_slos
from repro.obs.timeseries import (
    TelemetryConfig,
    WindowedSampler,
    ledger_series,
    merge_series,
    render_prometheus,
)
from repro.obs.trace import Tracer

HOME_REGION = "us-east-1"

#: Fig. 7's fine-grained region combinations.
FIG7_FINE_REGION_SETS: Dict[str, Tuple[str, ...]] = {
    "us-east-1+us-west-1": ("us-east-1", "us-west-1"),
    "us-east-1+us-west-2": ("us-east-1", "us-west-2"),
    "us-east-1+us-west-1+us-west-2": ("us-east-1", "us-west-1", "us-west-2"),
    "us-east-1+ca-central-1": ("us-east-1", "ca-central-1"),
    "all": ("us-east-1", "us-west-1", "us-west-2", "ca-central-1"),
}

#: Default measurement shape: enough invocations for stable means while
#: keeping the full Fig. 7 sweep tractable.
DEFAULT_INVOCATIONS = 40
DEFAULT_WARMUP = 15
#: Solver fidelity used by the figure benches (profiles are cached, so
#: the effective sample budget is far larger than it looks).
BENCH_SOLVER_SETTINGS = SolverSettings(
    batch_size=60, max_samples=240, cov_threshold=0.10
)


@dataclass(frozen=True)
class ScenarioStats:
    """Per-invocation means under one transmission scenario."""

    mean_carbon_g: float
    mean_exec_carbon_g: float
    mean_trans_carbon_g: float
    mean_cost_usd: float

    @property
    def exec_to_trans_ratio(self) -> float:
        """Fig. 8's x-axis; infinite when nothing crossed the wire."""
        if self.mean_trans_carbon_g <= 0:
            return math.inf
        return self.mean_exec_carbon_g / self.mean_trans_carbon_g


@dataclass
class RunOutcome:
    """Everything a figure bench needs from one run."""

    app_name: str
    input_size: str
    label: str
    n_invocations: int
    mean_service_time_s: float
    p95_service_time_s: float
    per_scenario: Dict[str, ScenarioStats]
    plan_set: Optional[HourlyPlanSet] = None
    regions_used: Tuple[str, ...] = ()
    solver_stats: Optional[SolverStats] = None
    reliability: Optional[ReliabilityStats] = None
    #: Flat ``cloud.metrics.snapshot()`` of the run's operational
    #: counters/histograms (always present for harness-driven runs).
    metrics: Optional[Dict[str, Any]] = None
    #: Ledger-derived per-region carbon/cost/usage, per transmission
    #: scenario: ``{scenario: {region: {carbon_g, cost_usd, ...}}}``.
    #: Covers the whole run window (warm-up and framework traffic
    #: included), unlike the per-invocation ``per_scenario`` means.
    per_region: Optional[Dict[str, Dict[str, Dict[str, float]]]] = None
    #: Cumulative simulation events executed by the run's environment —
    #: deterministic (virtual-clock event count), used by the benchmark
    #: harness as the executor-throughput denominator.
    events_executed: Optional[int] = None
    #: Windowed telemetry series (sampler + ledger points, merged and
    #: sorted) when the run was made with a :class:`TelemetryConfig`.
    series: Optional[List[Dict[str, Any]]] = None
    #: Window size the series was sampled on (seconds of virtual time).
    series_window_s: Optional[float] = None
    #: Per-SLO evaluation dicts (see ``repro.obs.slo.SloResult.to_dict``)
    #: when the telemetry config carried SLO specs.
    slo: Optional[List[Dict[str, Any]]] = None
    #: Prometheus text exposition of the run's final registry state
    #: (telemetered runs only) — the registry itself dies with the
    #: simulated cloud, so the exposition is rendered while it exists.
    prom: Optional[str] = None

    def carbon(self, scenario: str) -> float:
        return self.per_scenario[scenario].mean_carbon_g


def geometric_mean(values: Sequence[float]) -> float:
    arr = np.asarray([v for v in values if v > 0], dtype=float)
    if len(arr) == 0:
        raise ValueError("geometric mean needs positive values")
    return float(np.exp(np.log(arr).mean()))


def weekly_hour_profile(
    cloud: SimulatedCloud, region: str
) -> np.ndarray:
    """Mean intensity per hour-of-day across the materialised horizon —
    the solver's view when generating one 24-hour plan set for a week."""
    trace = cloud.carbon_source.trace(region)
    n_days = len(trace) // 24
    return trace[: n_days * 24].reshape(n_days, 24).mean(axis=0)


# --------------------------------------------------------------------------- setup
def deploy_benchmark(
    app: BenchmarkApp,
    cloud: SimulatedCloud,
    home_region: str = HOME_REGION,
    tolerances: Optional[Tolerances] = None,
    benchmarking_fraction: float = 0.0,
    config: Optional[WorkflowConfig] = None,
) -> Tuple[DeployedWorkflow, CaribouExecutor, DeploymentUtility]:
    """Initial deployment of one benchmark to the home region."""
    workflow = app.build_workflow()
    cfg = config or default_config(
        home_region=home_region,
        tolerances=tolerances,
        benchmarking_fraction=benchmarking_fraction,
    )
    utility = DeploymentUtility(cloud)
    deployed, executor = utility.deploy(workflow, cfg)
    return deployed, executor, utility


def warm_up(
    executor: CaribouExecutor,
    app: BenchmarkApp,
    input_size: str,
    n: int = DEFAULT_WARMUP,
    interval_s: float = 120.0,
) -> List[str]:
    """Run home-region invocations to seed the Metrics Manager."""
    cloud = executor.deployed.cloud
    rids = []
    for i in range(n):
        payload = app.make_input(input_size)
        cloud.env.schedule(
            i * interval_s,
            lambda p=payload: rids.append(executor.invoke(p, force_home=True)),
        )
    cloud.run_until_idle()
    return rids


def solve_plan_set(
    deployed: DeployedWorkflow,
    executor: CaribouExecutor,
    scenario: TransmissionScenario,
    solver_settings: SolverSettings = BENCH_SOLVER_SETTINGS,
    hours: Optional[Sequence[int]] = None,
    intensity_fn=None,
    stats: Optional[SolverStats] = None,
) -> HourlyPlanSet:
    """Solve a 24-hour plan set over the week-averaged diurnal profile
    and return it (not yet migrated).  Pass a :class:`SolverStats` to
    collect simulation/caching counters for the run.

    Each hour draws from its own registry substream
    (``solver:{name}:hour={h}``).

    ``solver_settings.solver`` picks the search strategy — ``"hbss"``
    (default), ``"coarse"``, or ``"exact"`` (the branch-and-bound
    optimum)."""
    evaluator = build_plan_evaluator(
        deployed,
        scenario,
        solver_settings=solver_settings,
        intensity_fn=intensity_fn,
        stats=stats,
    )
    cloud = deployed.cloud
    which = solver_settings.solver
    if which == "coarse":
        return CoarseSolver(evaluator).solve_day(hours)
    if which == "exact":
        return ExactSolver(evaluator).solve_day(hours)
    solver = HBSSSolver(
        evaluator,
        cloud.env.rng.get(f"solver:{deployed.name}"),
        tracer=cloud.tracer,
        metrics=cloud.metrics,
        rng_factory=lambda h: cloud.env.rng.get(
            f"solver:{deployed.name}:hour={h}"
        ),
    )
    plan_set, _ = solver.solve_day(hours)
    return plan_set


def build_plan_evaluator(
    deployed: DeployedWorkflow,
    scenario: TransmissionScenario,
    solver_settings: SolverSettings = BENCH_SOLVER_SETTINGS,
    intensity_fn=None,
    stats: Optional[SolverStats] = None,
) -> PlanEvaluator:
    """The :class:`PlanEvaluator` ``solve_plan_set`` solves over:
    learned metrics collected now, week-averaged diurnal intensities,
    and the workflow's registered external-data declarations.  Exposed
    so ablations (e.g. the solver-quality bench) can run several
    solvers against one shared evaluator — shared cache, shared RNG
    substreams, bit-identical per-plan metrics across solvers."""
    cloud = deployed.cloud
    metrics = MetricsManager(
        deployed.dag, deployed.config, cloud.ledger, cloud.carbon_source
    )
    metrics.declare_function_external_data(deployed.workflow.functions)
    metrics.collect(cloud.now())

    if intensity_fn is None:
        profiles = {r: weekly_hour_profile(cloud, r) for r in cloud.regions}

        def intensity_fn(region: str, hour: int) -> float:  # noqa: F811
            return float(profiles[region][hour % 24])

    return PlanEvaluator(
        dag=deployed.dag,
        config=deployed.config,
        data=metrics,
        regions=cloud.regions,
        intensity_fn=intensity_fn,
        carbon_model=CarbonModel(scenario),
        cost_model=CostModel(cloud.pricing_source),
        latency_model=TransferLatencyModel(cloud.latency_source),
        rng=cloud.env.rng.get(f"solver:{deployed.name}"),
        kv_region=deployed.kv_region,
        client_region=deployed.config.home_region,
        settings=solver_settings,
        stats=stats,
    )


# --------------------------------------------------------------------------- runs
def _run_measurement(
    deployed: DeployedWorkflow,
    executor: CaribouExecutor,
    app: BenchmarkApp,
    input_size: str,
    n_invocations: int,
    duration_s: float,
    scenarios: Sequence[TransmissionScenario],
    label: str,
    plan_set: Optional[HourlyPlanSet],
    solver_stats: Optional[SolverStats] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunOutcome:
    cloud = deployed.cloud
    start = cloud.now()
    step = duration_s / max(1, n_invocations)
    # Windowed telemetry attaches before any measured work is scheduled,
    # so the first window boundary is already armed when the loop starts;
    # with telemetry off, nothing is scheduled and the event sequence is
    # byte-identical to a pre-telemetry run.
    sampler: Optional[WindowedSampler] = None
    if telemetry is not None:
        sampler = WindowedSampler(cloud.metrics, window_s=telemetry.window_s)
        sampler.attach(cloud.env)
    rids: List[str] = []
    for i in range(n_invocations):
        payload = app.make_input(input_size)
        cloud.env.schedule(
            i * step + step / 2.0,
            lambda p=payload: rids.append(executor.invoke(p)),
        )
    cloud.run_until_idle()
    if sampler is not None:
        sampler.close()

    # One ledger pass: every measured request's records.  A request that
    # failed before any record was written prices as an empty group.
    by_request = cloud.ledger.group(lambda rec, region: rec.request_id, deployed.name)
    measured = [by_request.get(rid, RecordGroup()) for rid in rids]
    # Under fault injection some requests fail before any execution is
    # recorded; measure service time only over requests that actually ran.
    ran = [group for group in measured if group.executions]
    service_times = [group.service_time_s for group in ran]
    regions_used = tuple(sorted({r.region for group in ran for r in group.executions}))

    per_scenario: Dict[str, ScenarioStats] = {}
    per_region: Dict[str, Dict[str, Dict[str, float]]] = {}
    region_usage = cloud.ledger.usage_by_region(deployed.name)
    for scenario in scenarios:
        accountant = CarbonAccountant(
            cloud.carbon_source,
            CarbonModel(scenario),
            CostModel(cloud.pricing_source),
        )
        fps = [accountant.price(group) for group in measured]
        per_scenario[scenario.name] = ScenarioStats(
            mean_carbon_g=float(np.mean([fp.carbon_g for fp in fps])),
            mean_exec_carbon_g=float(np.mean([fp.exec_carbon_g for fp in fps])),
            mean_trans_carbon_g=float(np.mean([fp.trans_carbon_g for fp in fps])),
            mean_cost_usd=float(np.mean([fp.cost_usd for fp in fps])),
        )
        per_region[scenario.name] = {}
        for region, usage in region_usage.items():
            fp = accountant.price(usage)
            per_region[scenario.name][region] = {
                "bytes_out": usage.bytes_out,
                "carbon_g": fp.carbon_g,
                "cost_usd": fp.cost_usd,
                "exec_carbon_g": fp.exec_carbon_g,
                "exec_seconds": usage.exec_seconds,
                "n_executions": usage.n_executions,
                "trans_carbon_g": fp.trans_carbon_g,
            }

    reliability = (
        executor.reliability() if hasattr(executor, "reliability") else None
    )
    metrics_snapshot = cloud.metrics.snapshot()

    series: Optional[List[Dict[str, Any]]] = None
    slo_results: Optional[List[Dict[str, Any]]] = None
    prom_text: Optional[str] = None
    if telemetry is not None and sampler is not None:
        prom_text = render_prometheus(cloud.metrics)
        series = sampler.points
        if telemetry.ledger:
            # Post-hoc per-window carbon/cost, priced under the first
            # (reporting) scenario — ledger records carry virtual start
            # times, so this is as deterministic as the sampler itself.
            accountant = CarbonAccountant(
                cloud.carbon_source,
                CarbonModel(scenarios[0]),
                CostModel(cloud.pricing_source),
            )
            series = merge_series(
                series,
                ledger_series(
                    cloud.ledger, accountant, window_s=telemetry.window_s
                ),
            )
        if telemetry.slos:
            slo_results = evaluate_slos(telemetry.slos, series)

    return RunOutcome(
        app_name=app.name,
        input_size=input_size,
        label=label,
        n_invocations=len(rids),
        mean_service_time_s=(
            float(np.mean(service_times)) if service_times else math.nan
        ),
        p95_service_time_s=(
            float(np.percentile(service_times, 95)) if service_times else math.nan
        ),
        per_scenario=per_scenario,
        plan_set=plan_set,
        regions_used=regions_used,
        solver_stats=solver_stats,
        reliability=reliability,
        metrics=metrics_snapshot,
        per_region=per_region,
        events_executed=cloud.env.events_executed,
        series=series,
        series_window_s=(
            telemetry.window_s if telemetry is not None else None
        ),
        slo=slo_results,
        prom=prom_text,
    )


def run_coarse(
    app: BenchmarkApp,
    input_size: str,
    region: str,
    seed: int = 0,
    n_invocations: int = DEFAULT_INVOCATIONS,
    days: float = 6.5,
    scenarios: Optional[Sequence[TransmissionScenario]] = None,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunOutcome:
    """Manual static single-region deployment (Fig. 7 "Coarse" bars).

    Coarse deployment is a *manual* act (§9.2 I1): it bypasses the
    solver and therefore any compliance constraints.
    """
    scenarios = scenarios or (
        TransmissionScenario.best_case(),
        TransmissionScenario.worst_case(),
    )
    cloud = SimulatedCloud(seed=seed, fault_plan=fault_plan, tracer=tracer)
    deployed, executor, utility = deploy_benchmark(app, cloud)
    # Materialise every function in the target region and pin the plan.
    if region != deployed.config.home_region:
        for spec in deployed.workflow.functions:
            utility.deploy_function(
                deployed, executor, spec, region,
                copy_image_from=deployed.config.home_region,
            )
    plan_set = HourlyPlanSet.daily(
        DeploymentPlan.single_region(deployed.dag, region)
    )
    executor.stage_plan_set(plan_set)
    return _run_measurement(
        deployed,
        executor,
        app,
        input_size,
        n_invocations,
        days * SECONDS_PER_DAY,
        scenarios,
        label=f"coarse:{region}",
        plan_set=plan_set,
        telemetry=telemetry,
    )


def run_caribou(
    app: BenchmarkApp,
    input_size: str,
    regions: Sequence[str],
    seed: int = 0,
    n_invocations: int = DEFAULT_INVOCATIONS,
    warmup: int = DEFAULT_WARMUP,
    days: float = 6.0,
    scenario_for_solver: Optional[TransmissionScenario] = None,
    scenarios: Optional[Sequence[TransmissionScenario]] = None,
    tolerances: Optional[Tolerances] = None,
    solver_settings: SolverSettings = BENCH_SOLVER_SETTINGS,
    label: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunOutcome:
    """Caribou fine-grained deployment over a region set (Fig. 7 "Fine").

    Warm-up seeds the metrics, HBSS solves a 24-hour plan set under
    ``scenario_for_solver``'s transmission accounting, the migrator
    materialises it, and the measured invocations route through it.
    """
    scenarios = scenarios or (
        TransmissionScenario.best_case(),
        TransmissionScenario.worst_case(),
    )
    scenario_for_solver = scenario_for_solver or scenarios[0]
    if HOME_REGION not in regions:
        raise ValueError(f"region set must include the home region {HOME_REGION}")
    cloud = SimulatedCloud(
        seed=seed, regions=tuple(regions), fault_plan=fault_plan, tracer=tracer
    )
    deployed, executor, utility = deploy_benchmark(
        app, cloud, tolerances=tolerances
    )
    warm_up(executor, app, input_size, n=warmup)
    solver_stats = SolverStats()
    plan_set = solve_plan_set(
        deployed, executor, scenario_for_solver, solver_settings,
        stats=solver_stats,
    )
    migrator = DeploymentMigrator(utility, deployed, executor)
    report = migrator.migrate(plan_set)
    if not report.activated:
        raise RuntimeError(f"migration failed: {report.error}")
    return _run_measurement(
        deployed,
        executor,
        app,
        input_size,
        n_invocations,
        days * SECONDS_PER_DAY,
        scenarios,
        label=label or f"caribou:{'+'.join(regions)}",
        plan_set=plan_set,
        solver_stats=solver_stats,
        telemetry=telemetry,
    )

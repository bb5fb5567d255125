"""The lifecycle of one workflow (paper §5.2, Fig. 6): deploy, warm up,
collect, solve; the migrator then activates the plan set.

``caribou run`` and the figure benches, the service engine's job steps
and the Deployment Manager's re-solves all build their pieces here: one
Metrics Manager constructor, one :class:`PlanEvaluator` constructor, one
HBSS wiring and one warm-up schedule.  What differs between them is an
argument, never a branch: a fresh or long-lived Metrics Manager, the
week-averaged diurnal profile or ``carbon_for_hour``, no cache or a
persistent :class:`EvaluationCache`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import BenchmarkApp, default_config
from repro.cloud.provider import SimulatedCloud
from repro.core.deployer import DeploymentUtility
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.core.solver import (
    CoarseSolver,
    EvaluationCache,
    ExactSolver,
    HBSSSolver,
    PlanEvaluator,
    SolverSettings,
    SolverStats,
)
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.manager import CarbonForecastProvider, MetricsManager
from repro.model.config import Tolerances, WorkflowConfig
from repro.model.plan import HourlyPlanSet

HOME_REGION = "us-east-1"
DEFAULT_WARMUP = 15
#: Solver fidelity used by the figure benches (profiles are cached, so
#: the effective sample budget is far larger than it looks).
BENCH_SOLVER_SETTINGS = SolverSettings(
    batch_size=60, max_samples=240, cov_threshold=0.10
)

IntensityFn = Callable[[str, int], float]


def weekly_hour_profile(cloud: SimulatedCloud, region: str) -> np.ndarray:
    """Mean intensity per hour-of-day across the materialised horizon —
    the solver's view when generating one 24-hour plan set for a week."""
    trace = cloud.carbon_source.trace(region)
    n_days = len(trace) // 24
    return trace[: n_days * 24].reshape(n_days, 24).mean(axis=0)


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
    """Run home-region invocations to seed the Metrics Manager.  ``app``
    is anything with ``make_input(size)``: a benchmark app or a
    :class:`~repro.service.builder.WorkflowBuilder`."""
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


def workflow_metrics(
    deployed: DeployedWorkflow,
    forecasts: Optional[CarbonForecastProvider] = None,
) -> MetricsManager:
    """The Metrics Manager that learns ``deployed``'s behaviour from the
    cloud's ledger (nothing collected yet)."""
    cloud = deployed.cloud
    metrics = MetricsManager(deployed.dag, deployed.config, cloud.ledger,
                             cloud.carbon_source, forecasts=forecasts)
    metrics.declare_function_external_data(deployed.workflow.functions)
    return metrics


def plan_evaluator(
    deployed: DeployedWorkflow,
    metrics: MetricsManager,
    intensity_fn: IntensityFn,
    scenario: TransmissionScenario,
    settings: SolverSettings,
    stats: Optional[SolverStats],
    cache: Optional[EvaluationCache] = None,
) -> PlanEvaluator:
    """The evaluator every solve of ``deployed`` prices plans with: its
    learned ``metrics``, ``intensity_fn``, the provider's pricing and
    latency, and the registry's ``solver:{wf}`` stream.  A caller that
    passes a persistent ``cache`` syncs it against ``metrics`` first."""
    cloud = deployed.cloud
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
        settings=settings,
        stats=stats,
        cache=cache,
    )


def hbss_solver(deployed: DeployedWorkflow, evaluator: PlanEvaluator) -> HBSSSolver:
    """HBSS over ``evaluator``.  Per-hour registry substreams
    (``solver:{wf}:hour={h}``) keep each hour's walk reproducible
    whatever hours are solved, and persistent across solves."""
    cloud = deployed.cloud
    registry = cloud.env.rng
    name = deployed.name
    return HBSSSolver(
        evaluator,
        registry.get(f"solver:{name}"),
        tracer=cloud.tracer,
        metrics=cloud.metrics,
        rng_factory=lambda h: registry.get(f"solver:{name}:hour={h}"),
    )


def build_plan_evaluator(
    deployed: DeployedWorkflow,
    scenario: TransmissionScenario,
    solver_settings: SolverSettings = BENCH_SOLVER_SETTINGS,
    intensity_fn: Optional[IntensityFn] = None,
    stats: Optional[SolverStats] = None,
) -> PlanEvaluator:
    """The evaluator ``solve_plan_set`` solves over: a fresh Metrics
    Manager collected now and week-averaged diurnal intensities.  Shared
    by ablations that run several solvers over one cache and one RNG
    stream."""
    cloud = deployed.cloud
    metrics = workflow_metrics(deployed)
    metrics.collect(cloud.now())

    if intensity_fn is None:
        profiles = {r: weekly_hour_profile(cloud, r) for r in cloud.regions}

        def intensity_fn(region: str, hour: int) -> float:  # noqa: F811
            return float(profiles[region][hour % 24])

    return plan_evaluator(
        deployed, metrics, intensity_fn, scenario, solver_settings, stats
    )


def solve_plan_set(
    deployed: DeployedWorkflow,
    executor: CaribouExecutor,
    scenario: TransmissionScenario,
    solver_settings: SolverSettings = BENCH_SOLVER_SETTINGS,
    hours: Optional[Sequence[int]] = None,
    intensity_fn: Optional[IntensityFn] = None,
    stats: Optional[SolverStats] = None,
) -> HourlyPlanSet:
    """Solve a 24-hour plan set over :func:`build_plan_evaluator` and
    return it (not yet migrated).  ``solver_settings.solver`` picks the
    search: ``"hbss"`` (default), ``"coarse"`` or ``"exact"`` (the
    branch-and-bound optimum)."""
    evaluator = build_plan_evaluator(
        deployed,
        scenario,
        solver_settings=solver_settings,
        intensity_fn=intensity_fn,
        stats=stats,
    )
    which = solver_settings.solver
    if which == "coarse":
        return CoarseSolver(evaluator).solve_day(hours)
    if which == "exact":
        return ExactSolver(evaluator).solve_day(hours)
    plan_set, _ = hbss_solver(deployed, evaluator).solve_day(hours)
    return plan_set

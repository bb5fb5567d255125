#!/usr/bin/env python
"""Wall-clock benchmark harness (ROADMAP perf trajectory).

Measures the repo's three hot paths plus the tracer's overhead, all in
host time (virtual time is free — these numbers say how fast the
*simulator* runs, not how fast the simulated cloud is):

* ``solver_solves_per_s``   — HBSS ``solve_hour`` calls per second;
* ``executor_events_per_s`` — simulation events per second through the
  *serving phase*: an open-loop arrival trace injected into a deployed
  workflow, timed over the event-loop drain only (deploy and trace
  generation excluded, so the number isolates the executor + pubsub +
  KV + network hot path);
* ``workload_gen_events_per_s`` — arrival-trace generation rate of
  :func:`repro.data.workload.generate_arrivals` on a day-scale diurnal
  spec;
* ``fleet_solve_wall_s``    — wall seconds for one shared-cache
  ``check_all`` cycle over a registered fleet (200 workflows, 24 in
  smoke); *lower is better*, gated separately from the throughput
  metrics;
* ``mc_samples_per_s``      — Monte-Carlo simulation samples per second
  inside ``estimate_profile`` (measured by the phase profiler);
* ``tracer_overhead_pct``   — wall-clock cost of running with a live
  :class:`~repro.obs.trace.Tracer` vs the no-op ``NULL_TRACER``,
  best-of-3 each to shed scheduler noise;
* ``tracer_sampled_overhead_pct`` — the same comparison with request
  sampling (``Tracer(sample_every=8)``), the cheap way to keep traces
  on hot paths;
* ``telemetry_overhead_pct``  — events/s cost of a live
  :class:`~repro.obs.timeseries.WindowedSampler` on the serving phase,
  gated by an absolute ceiling (5 % by default) and paired with a
  byte-identity abort on the windowed series (same seed twice).

Results are written as ``BENCH_<label>.json`` (schema
``caribou.bench/v1``) and optionally compared against a committed
baseline: any throughput metric slower than ``--max-regression`` times
the baseline fails the gate (exit code 1), which is what CI's
perf-smoke job enforces.

Usage::

    python scripts/bench.py --smoke                     # quick CI shape
    python scripts/bench.py --label mybox               # full run
    python scripts/bench.py --smoke --baseline BENCH_baseline.json
    python scripts/bench.py --smoke --update-baseline   # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import get_app  # noqa: E402
from repro.apps.base import default_config  # noqa: E402
from repro.cloud.provider import SimulatedCloud  # noqa: E402
from repro.common.rng import RngRegistry  # noqa: E402
from repro.core.deployer import DeploymentUtility  # noqa: E402
from repro.core.fleet import FleetManager  # noqa: E402
from repro.core.solver import (  # noqa: E402
    ExactSolver,
    HBSSSolver,
    SolverSettings,
    SolverStats,
)
from repro.data.workload import (  # noqa: E402
    OpenLoopInjector,
    WorkloadSpec,
    generate_arrivals,
    generate_trace,
)
from repro.experiments.harness import (  # noqa: E402
    BENCH_SOLVER_SETTINGS,
    build_plan_evaluator,
    deploy_benchmark,
    run_caribou,
    solve_plan_set,
    warm_up,
)
from repro.metrics.carbon import TransmissionScenario  # noqa: E402
from repro.model.config import Tolerances  # noqa: E402
from repro.obs.profile import Profiler, set_profiler  # noqa: E402
from repro.obs.timeseries import (  # noqa: E402
    TelemetryConfig,
    WindowedSampler,
)
from repro.obs.trace import Tracer  # noqa: E402

#: Schema identifier embedded in every benchmark document.
BENCH_SCHEMA = "caribou.bench/v1"

#: Metrics where *higher is better*; the regression gate applies to these.
THROUGHPUT_METRICS = (
    "executor_events_per_s",
    "mc_samples_per_s",
    "service_jobs_per_s",
    "solver_solves_per_s",
    "workload_gen_events_per_s",
)

#: Metrics where *lower is better* (wall seconds); the regression gate
#: fails when current exceeds ``baseline * max_regression``.
LATENCY_METRICS = ("fleet_solve_wall_s",)

#: Solver-quality metrics (percentage points, lower is better).  The
#: HBSS optimality gap sits at ~0 pp on a healthy solver, so a ratio
#: gate is meaningless — the gate is *absolute*: current may exceed the
#: baseline by at most ``--max-quality-regression-pp`` points.
QUALITY_METRICS = ("hbss_carbon_gap_pct",)

#: Default absolute slack for the quality gate, in percentage points.
MAX_QUALITY_REGRESSION_PP = 2.0

#: Overhead metrics gated by an *absolute ceiling* (percent), not a
#: baseline ratio: windowed telemetry must stay within this share of
#: the untelemetered ``executor_events_per_s``, whatever the machine.
OVERHEAD_METRICS = ("telemetry_overhead_pct",)

#: Default ceiling for the telemetry-overhead gate, in percent.
MAX_TELEMETRY_OVERHEAD_PCT = 5.0

APP = "text2speech_censoring"

#: Apps and latency-tolerance sweep for the solver-quality stage.
QUALITY_APPS = ("rag_ingestion", "text2speech_censoring", "video_analytics")
QUALITY_TOLERANCES = (None, 0.25, 0.05)


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Validate a benchmark document; returns a list of problems
    (empty == valid).  Kept dependency-free on purpose — the repo has no
    jsonschema package."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    if not isinstance(doc.get("label"), str) or not doc.get("label"):
        problems.append("label must be a non-empty string")
    if not isinstance(doc.get("smoke"), bool):
        problems.append("smoke must be a boolean")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
        metrics = {}
    for name in THROUGHPUT_METRICS + LATENCY_METRICS + QUALITY_METRICS + (
        OVERHEAD_METRICS
    ) + (
        "tracer_overhead_pct",
        "tracer_sampled_overhead_pct",
    ):
        entry = metrics.get(name)
        if not isinstance(entry, dict):
            problems.append(f"metrics.{name} missing")
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"metrics.{name}.value must be a number")
        elif name in THROUGHPUT_METRICS + LATENCY_METRICS and value <= 0:
            problems.append(f"metrics.{name}.value must be positive")
        elif name in QUALITY_METRICS and value < -1e-6:
            # exact is a proven lower bound; a *negative* gap means the
            # heuristic beat the optimum — i.e. the exact solver broke.
            problems.append(f"metrics.{name}.value must be non-negative")
        if not isinstance(entry.get("unit"), str):
            problems.append(f"metrics.{name}.unit must be a string")
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        problems.append("phases must be an object")
    else:
        for phase, entry in phases.items():
            for key in ("calls", "self_s", "total_s"):
                if key not in entry:
                    problems.append(f"phases.{phase}.{key} missing")
    return problems


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float,
    max_quality_pp: float = MAX_QUALITY_REGRESSION_PP,
    max_overhead_pct: float = MAX_TELEMETRY_OVERHEAD_PCT,
) -> List[str]:
    """Compare throughput metrics against a baseline document.

    Returns failure lines for every metric slower than
    ``baseline / max_regression``.  Absolute wall-clock numbers vary by
    machine, so the gate is deliberately loose — it exists to catch
    order-of-magnitude accidents (an O(n^2) slip, a hot path suddenly
    allocating), not 10 % jitter.

    Quality metrics (``QUALITY_METRICS``) gate differently: they are
    deterministic (seeded virtual-time solves, no wall clock involved)
    and sit near zero, so the gate is an absolute percentage-point
    ceiling — current may exceed baseline by at most ``max_quality_pp``.
    """
    failures: List[str] = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name in THROUGHPUT_METRICS:
        base = (base_metrics.get(name) or {}).get("value")
        cur = (cur_metrics.get(name) or {}).get("value")
        if not base or not cur:
            continue
        ratio = base / cur
        if ratio > max_regression:
            failures.append(
                f"{name}: {cur:.1f} vs baseline {base:.1f} "
                f"({ratio:.2f}x slower, limit {max_regression:.2f}x)"
            )
    for name in LATENCY_METRICS:
        base = (base_metrics.get(name) or {}).get("value")
        cur = (cur_metrics.get(name) or {}).get("value")
        if not base or not cur:
            continue
        ratio = cur / base  # lower is better: slower means cur grows
        if ratio > max_regression:
            failures.append(
                f"{name}: {cur:.2f}s vs baseline {base:.2f}s "
                f"({ratio:.2f}x slower, limit {max_regression:.2f}x)"
            )
    for name in QUALITY_METRICS:
        base = (base_metrics.get(name) or {}).get("value")
        cur = (cur_metrics.get(name) or {}).get("value")
        if base is None or cur is None:
            continue
        if cur > base + max_quality_pp:
            failures.append(
                f"{name}: {cur:.3f} pp vs baseline {base:.3f} pp "
                f"(exceeds absolute slack of {max_quality_pp:.2f} pp)"
            )
    for name in OVERHEAD_METRICS:
        # Absolute ceiling, baseline-independent: telemetry that costs
        # more than the ceiling is broken on *any* machine.
        cur = (cur_metrics.get(name) or {}).get("value")
        if cur is None:
            continue
        if cur > max_overhead_pct:
            failures.append(
                f"{name}: {cur:.2f}% exceeds the absolute ceiling of "
                f"{max_overhead_pct:.2f}%"
            )
    return failures


# -------------------------------------------------------------------- workloads
def bench_solver(smoke: bool) -> Dict[str, float]:
    """HBSS solves/sec and MC samples/sec over a warmed-up deployment."""
    profiler = Profiler()
    prev = set_profiler(profiler)
    try:
        cloud = SimulatedCloud(seed=7)
        app = get_app(APP)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=6 if smoke else 12)
        stats = SolverStats()
        hours = list(range(2 if smoke else 8))
        t0 = time.perf_counter()
        solve_plan_set(
            deployed,
            executor,
            TransmissionScenario.best_case(),
            hours=hours,
            stats=stats,
        )
        elapsed = time.perf_counter() - t0
    finally:
        set_profiler(prev)
    mc_s = profiler.total_s("mc.estimate_profile")
    return {
        "solver_solves_per_s": len(hours) / max(elapsed, 1e-9),
        "mc_samples_per_s": stats.samples_drawn / max(mc_s, 1e-9),
        "solver_wall_s": elapsed,
        "mc_wall_s": mc_s,
        "mc_samples": float(stats.samples_drawn),
        "phases": profiler.snapshot(),  # hoisted into the doc by run_bench
    }


def _timed_run(n_invocations: int, tracer: Optional[Tracer]) -> Dict[str, float]:
    """One full Caribou run; returns wall seconds and events executed."""
    app = get_app(APP)
    t0 = time.perf_counter()
    outcome = run_caribou(
        app,
        "small",
        ("us-east-1", "ca-central-1"),
        seed=3,
        n_invocations=n_invocations,
        tracer=tracer,
    )
    elapsed = time.perf_counter() - t0
    assert outcome.n_invocations == n_invocations
    return {"wall_s": elapsed}


def bench_executor(smoke: bool) -> Dict[str, float]:
    """Events/sec through the serving phase.

    Deploys once (untimed), generates an open-loop arrival trace
    (untimed), injects it through :class:`OpenLoopInjector`, and times
    the event-loop drain alone — the number measures how fast the
    simulator serves traffic, not how fast it deploys or solves.
    """
    cloud = SimulatedCloud(seed=3)
    app = get_app(APP)
    _deployed, executor, _ = deploy_benchmark(app, cloud)
    spec = WorkloadSpec(
        base_rate_per_s=20.0,
        duration_s=60.0 if smoke else 1200.0,
        profile="steady",
    )
    trace = generate_trace(spec, cloud.env.rng.get("bench.workload"))
    injector = OpenLoopInjector(executor, trace)
    injector.start()
    env = cloud.env
    before = env.events_executed
    t0 = time.perf_counter()
    env.run_until_idle()
    elapsed = time.perf_counter() - t0
    events = float(env.events_executed - before)
    return {
        "executor_events_per_s": events / max(elapsed, 1e-9),
        "executor_events": events,
        "executor_requests": float(injector.injected),
        "executor_wall_s": elapsed,
    }


def bench_workload_gen(smoke: bool) -> Dict[str, float]:
    """Arrival-trace generation rate on a day-scale diurnal spec."""
    spec = WorkloadSpec(
        base_rate_per_s=100.0 if smoke else 500.0,
        duration_s=3600.0 if smoke else 14400.0,
        profile="diurnal",
    )
    rng = RngRegistry(7).get("bench.workload_gen")
    t0 = time.perf_counter()
    times = generate_arrivals(spec, rng)
    elapsed = time.perf_counter() - t0
    return {
        "workload_gen_events_per_s": len(times) / max(elapsed, 1e-9),
        "workload_gen_events": float(len(times)),
        "workload_gen_wall_s": elapsed,
    }


#: Fleet sizes for the shared-cache sweep bench.
FLEET_SIZE = 200
FLEET_SIZE_SMOKE = 24

#: Small solver settings for the fleet sweep: each check solves one
#: hour, so the sweep's wall clock is dominated by per-workflow fixed
#: costs — exactly what the fleet layer's sharing is meant to amortise.
FLEET_BENCH_SETTINGS = SolverSettings(
    batch_size=30, max_samples=60, cov_threshold=0.2, alpha_per_node_region=2
)


def bench_fleet(smoke: bool) -> Dict[str, float]:
    """Wall seconds for one shared-cache ``check_all`` cycle.

    Registers ``FLEET_SIZE`` copies of the benchmark app (names
    uniquified) under one :class:`FleetManager`, so every check shares
    the fleet's evaluation-cache scopes and the daily forecast refits.
    Each workflow gets a couple of warm-up requests first — a manager
    only solves for workflows with observed invocations.
    """
    n = FLEET_SIZE_SMOKE if smoke else FLEET_SIZE
    cloud = SimulatedCloud(seed=5)
    utility = DeploymentUtility(cloud)
    fleet = FleetManager(
        cloud,
        utility,
        TransmissionScenario.best_case(),
        solver_settings=FLEET_BENCH_SETTINGS,
        use_forecast=False,
        use_token_bucket=False,
        fixed_granularity=1,
    )
    app = get_app(APP)
    executors = []
    for i in range(n):
        workflow = app.build_workflow()
        workflow.name = f"{workflow.name}-{i:03d}"
        deployed, executor = utility.deploy(
            workflow, default_config(benchmarking_fraction=0.0)
        )
        fleet.register(deployed, executor)
        executors.append(executor)
    for executor in executors:
        for _ in range(2):
            executor.invoke(app.make_input("small"), force_home=True)
        cloud.env.run_until_idle()
    t0 = time.perf_counter()
    reports = fleet.check_all()
    elapsed = time.perf_counter() - t0
    solved = sum(1 for r in reports.values() if r.solved)
    if solved != n:
        raise RuntimeError(
            f"fleet sweep solved {solved}/{n} workflows — the bench must "
            "exercise one solve per registered workflow"
        )
    report = fleet.fleet_report()
    return {
        "fleet_solve_wall_s": elapsed,
        "fleet_workflows": float(n),
        "fleet_cache_estimates": float(report["cache_estimates"]),
        "fleet_checks": float(report["checks"]),
    }


SERVICE_JOBS = 8
SERVICE_JOBS_SMOKE = 3


def bench_service(smoke: bool) -> Dict[str, float]:
    """Jobs per wall second through the full service pipeline.

    Submits ``SERVICE_JOBS`` copies of the benchmark app to a
    :class:`~repro.service.ServiceEngine` and drains them
    SUBMITTED -> MONITORING (deploy, warm-up + solve, migrate, register
    with the fleet).  The solve dominates, so this is effectively the
    end-to-end cost of onboarding one tenant.
    """
    from repro.service import MONITORING, MemoryJobStore, ServiceEngine

    n = SERVICE_JOBS_SMOKE if smoke else SERVICE_JOBS
    cloud = SimulatedCloud(seed=11)
    engine = ServiceEngine(cloud, MemoryJobStore())
    for _ in range(n):
        engine.submit(APP, "small")
    t0 = time.perf_counter()
    steps = engine.run(max_steps=4 * n + 4)
    elapsed = time.perf_counter() - t0
    done = sum(1 for r in engine.jobs() if r.state == MONITORING)
    if done != n:
        raise RuntimeError(
            f"service drained {done}/{n} jobs to MONITORING — the bench "
            "must push every job through the whole pipeline"
        )
    return {
        "service_jobs_per_s": done / elapsed,
        "service_jobs": float(n),
        "service_steps": float(steps),
    }


#: Request-sampling period for the sampled-tracer bench.
TRACE_SAMPLE_EVERY = 8


def bench_solver_quality(smoke: bool) -> Dict[str, float]:
    """HBSS optimality gap vs the branch-and-bound exact optimum.

    For each (app, latency-tolerance) case, both solvers run against
    *one shared evaluator* — same learned metrics, same per-plan RNG
    substreams, same cache — so every per-plan metric is bit-identical
    across solvers and the measured gap is purely search quality:

        gap_pct = (hbss_carbon - exact_carbon) / exact_carbon * 100

    The whole stage is deterministic (seeded virtual-time runs, no wall
    clock in the numbers), which is what lets CI pin it with an
    absolute percentage-point gate instead of a loose speed ratio.
    """
    apps = QUALITY_APPS[:2] if smoke else QUALITY_APPS
    tolerances = QUALITY_TOLERANCES[:2] if smoke else QUALITY_TOLERANCES
    hours = [0] if smoke else [0, 12]
    gaps: List[float] = []
    for app_name in apps:
        for tol in tolerances:
            cloud = SimulatedCloud(seed=11)
            app = get_app(app_name)
            deployed, executor, _ = deploy_benchmark(
                app,
                cloud,
                tolerances=None if tol is None else Tolerances(latency=tol),
            )
            warm_up(executor, app, "small", n=6)
            evaluator = build_plan_evaluator(
                deployed, TransmissionScenario.best_case()
            )
            hbss = HBSSSolver(
                evaluator,
                cloud.env.rng.get(f"solver:{deployed.name}"),
                rng_factory=lambda h: cloud.env.rng.get(
                    f"solver:{deployed.name}:hour={h}"
                ),
            )
            hbss_set, _ = hbss.solve_day(hours)
            exact_set = ExactSolver(evaluator).solve_day(hours)
            for hour in hours:
                hbss_carbon = evaluator.estimate(
                    hbss_set.plan_for_hour(hour), hour
                ).mean_carbon_g
                exact_carbon = evaluator.estimate(
                    exact_set.plan_for_hour(hour), hour
                ).mean_carbon_g
                gaps.append(
                    (hbss_carbon - exact_carbon) / exact_carbon * 100.0
                )
    return {
        "hbss_carbon_gap_pct": sum(gaps) / len(gaps),
        "hbss_carbon_gap_max_pct": max(gaps),
        "hbss_quality_cases": float(len(gaps)),
    }


def bench_tracer_overhead(smoke: bool) -> Dict[str, float]:
    """Traced vs untraced wall clock, best-of-3 each — once with the
    full tracer and once with request sampling
    (``sample_every=TRACE_SAMPLE_EVERY``)."""
    n = 4 if smoke else 12
    repeats = 3
    untraced = min(
        _timed_run(n, tracer=None)["wall_s"] for _ in range(repeats)
    )
    traced = min(
        _timed_run(n, tracer=Tracer())["wall_s"] for _ in range(repeats)
    )
    sampled = min(
        _timed_run(n, tracer=Tracer(sample_every=TRACE_SAMPLE_EVERY))["wall_s"]
        for _ in range(repeats)
    )
    overhead = (traced - untraced) / max(untraced, 1e-9) * 100.0
    sampled_overhead = (sampled - untraced) / max(untraced, 1e-9) * 100.0
    return {
        "tracer_overhead_pct": overhead,
        "tracer_sampled_overhead_pct": sampled_overhead,
        "tracer_sample_every": float(TRACE_SAMPLE_EVERY),
        "traced_wall_s": traced,
        "sampled_wall_s": sampled,
        "untraced_wall_s": untraced,
    }


def _serving_run(
    smoke: bool, window_s: Optional[float]
) -> Dict[str, Any]:
    """One open-loop serving run (the ``bench_executor`` shape), with
    an optional windowed sampler attached.  Returns events/s plus the
    sampler's series dump for determinism checks."""
    cloud = SimulatedCloud(seed=3)
    app = get_app(APP)
    _deployed, executor, _ = deploy_benchmark(app, cloud)
    spec = WorkloadSpec(
        base_rate_per_s=20.0,
        duration_s=60.0 if smoke else 1200.0,
        profile="steady",
    )
    trace = generate_trace(spec, cloud.env.rng.get("bench.workload"))
    sampler = None
    if window_s is not None:
        sampler = WindowedSampler(cloud.metrics, window_s=window_s)
        sampler.attach(cloud.env)
    injector = OpenLoopInjector(executor, trace)
    injector.start()
    env = cloud.env
    before = env.events_executed
    t0 = time.perf_counter()
    env.run_until_idle()
    elapsed = time.perf_counter() - t0
    series = ""
    windows = 0
    if sampler is not None:
        sampler.close()
        series = sampler.to_jsonl()
        windows = sampler.windows_flushed
    return {
        "events_per_s": float(env.events_executed - before)
        / max(elapsed, 1e-9),
        "series": series,
        "windows": windows,
    }


def bench_telemetry(smoke: bool) -> Dict[str, float]:
    """Windowed-telemetry overhead and determinism on the serving path.

    Overhead: the ``bench_executor`` workload with a live
    :class:`WindowedSampler` vs without, best-of-3 each;
    ``telemetry_overhead_pct`` is the events/s cost in percent and is
    gated by an *absolute* ceiling (``MAX_TELEMETRY_OVERHEAD_PCT``) —
    sampling happens only at window boundaries, so the hot path should
    not notice it at all.

    Determinism (abort, not a metric — mirroring the solver benches'
    bit-identity contracts): same-seed telemetered serving runs must
    dump byte-identical series.
    """
    window_s = 10.0 if smoke else 60.0
    repeats = 3
    base = max(
        _serving_run(smoke, window_s=None)["events_per_s"]
        for _ in range(repeats)
    )
    telemetered_runs = [
        _serving_run(smoke, window_s=window_s) for _ in range(repeats)
    ]
    telemetered = max(r["events_per_s"] for r in telemetered_runs)
    first_series = telemetered_runs[0]["series"]
    for run in telemetered_runs[1:]:
        if run["series"] != first_series:
            raise RuntimeError(
                "telemetered serving runs on one seed dumped different "
                "series — windowed sampling determinism violated"
            )
    if telemetered_runs[0]["windows"] == 0:
        raise RuntimeError(
            "telemetered serving run flushed no windows — the sampler "
            "never fired and the overhead number is meaningless"
        )

    telemetry = TelemetryConfig(window_s=3600.0)
    app = get_app(APP)
    outcome = run_caribou(
        app, "small", ("us-east-1", "ca-central-1"), seed=3,
        n_invocations=4 if smoke else 12, telemetry=telemetry,
    )
    if not outcome.series:
        raise RuntimeError("telemetered Caribou run produced no series")

    overhead = (base - telemetered) / max(base, 1e-9) * 100.0
    return {
        "telemetry_overhead_pct": overhead,
        "telemetry_windows": float(telemetered_runs[0]["windows"]),
        "telemetry_points": float(len(outcome.series)),
        "telemetry_window_s": window_s,
    }


def run_bench(label: str, smoke: bool) -> Dict[str, Any]:
    """Run every workload and assemble the benchmark document."""
    units = {
        "executor_events_per_s": "events/s",
        "fleet_solve_wall_s": "s",
        "fleet_workflows": "workflows",
        "hbss_carbon_gap_pct": "%",
        "hbss_carbon_gap_max_pct": "%",
        "hbss_quality_cases": "cases",
        "mc_samples_per_s": "samples/s",
        "service_jobs": "jobs",
        "service_jobs_per_s": "jobs/s",
        "service_steps": "steps",
        "solver_solves_per_s": "solves/s",
        "telemetry_overhead_pct": "%",
        "telemetry_points": "points",
        "telemetry_window_s": "s",
        "telemetry_windows": "windows",
        "tracer_overhead_pct": "%",
        "tracer_sampled_overhead_pct": "%",
        "workload_gen_events_per_s": "events/s",
    }
    raw: Dict[str, float] = {}
    solver = bench_solver(smoke)
    phases = solver.pop("phases")
    raw.update(solver)
    raw.update(bench_executor(smoke))
    raw.update(bench_workload_gen(smoke))
    raw.update(bench_fleet(smoke))
    raw.update(bench_service(smoke))
    raw.update(bench_solver_quality(smoke))
    raw.update(bench_tracer_overhead(smoke))
    raw.update(bench_telemetry(smoke))

    metrics = {
        name: {"unit": units.get(name, "s" if name.endswith("_s") else ""),
               "value": value}
        for name, value in sorted(raw.items())
    }
    return {
        "app": APP,
        "label": label,
        "metrics": metrics,
        "phases": phases,
        "schema": BENCH_SCHEMA,
        "smoke": smoke,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="local",
                        help="suffix for BENCH_<label>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized workloads")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="compare against this committed baseline")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail if any throughput metric is this many "
                             "times slower than baseline (default 2.0)")
    parser.add_argument("--max-quality-regression-pp", type=float,
                        default=MAX_QUALITY_REGRESSION_PP,
                        help="fail if a solver-quality metric (percentage "
                             "points, e.g. hbss_carbon_gap_pct) exceeds the "
                             "baseline by more than this absolute slack "
                             f"(default {MAX_QUALITY_REGRESSION_PP})")
    parser.add_argument("--max-telemetry-overhead-pct", type=float,
                        default=MAX_TELEMETRY_OVERHEAD_PCT,
                        help="fail if windowed telemetry costs more than "
                             "this percent of executor_events_per_s "
                             f"(absolute; default {MAX_TELEMETRY_OVERHEAD_PCT})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the result to BENCH_baseline.json")
    parser.add_argument("--out-dir", default=str(REPO_ROOT),
                        help="directory for BENCH_<label>.json")
    args = parser.parse_args(argv)

    doc = run_bench(args.label, args.smoke)
    problems = validate_bench(doc)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_path = out_dir / f"BENCH_{args.label}.json"
    out_path.write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path}")
    for name, entry in doc["metrics"].items():
        print(f"  {name:24s} {entry['value']:12.2f} {entry['unit']}")

    if args.update_baseline:
        base_path = out_dir / "BENCH_baseline.json"
        base_path.write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {base_path}")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        base_problems = validate_bench(baseline)
        if base_problems:
            for problem in base_problems:
                print(f"BASELINE INVALID: {problem}", file=sys.stderr)
            return 2
        failures = check_regression(
            doc, baseline, args.max_regression,
            max_quality_pp=args.max_quality_regression_pp,
            max_overhead_pct=args.max_telemetry_overhead_pct,
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"regression gate passed (limit {args.max_regression:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

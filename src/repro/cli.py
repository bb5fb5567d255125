"""Command-line interface (the paper's Deployment Utility CLI, §6.1/§8).

The original ``caribou`` package ships a CLI for deploying workflows and
proxy-invoking them.  Offline, the CLI operates on the bundled benchmark
workflows against a simulated cloud:

    caribou list                       # available benchmark workflows
    caribou deploy <app>               # initial deployment (home region)
    caribou run <app> [-n N] [--size large] [--regions r1,r2]
    caribou solve <app> [--regions ...]  # print the 24-hour plan set
    caribou carbon [--hours H]           # show the synthetic carbon traces
    caribou report <file>                # render a run report / analyze a trace
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from repro.apps import ALL_APPS, get_app
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.common.errors import CaribouError
from repro.core.solver import SolverStats
from repro.data.regions import EVALUATION_REGIONS, all_regions
from repro.experiments.harness import (
    BENCH_SOLVER_SETTINGS,
    HOME_REGION,
    deploy_benchmark,
    run_caribou,
    run_coarse,
    solve_plan_set,
    warm_up,
)
from repro.metrics.carbon import TransmissionScenario
from repro.obs.critical_path import analyze_trace, render_critical_path
from repro.obs.dash import render_dashboard
from repro.obs.diffrun import diff_runs
from repro.obs.render import load_jsonl, render_trace_summary
from repro.obs.report import RunReport, build_run_report, fleet_markdown_lines
from repro.obs.slo import DEFAULT_SLOS, parse_slo
from repro.obs.timeseries import (
    DEFAULT_WINDOW_S,
    TelemetryConfig,
    export_series,
    load_series_jsonl,
)
from repro.obs.trace import Tracer


def cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'workflow':28s} {'stages':>6s} {'sync':>5s} {'cond':>5s}  description")
    for app in ALL_APPS.values():
        print(
            f"{app.name:28s} {app.n_stages:6d} "
            f"{'yes' if app.has_sync else 'no':>5s} "
            f"{'yes' if app.has_conditional else 'no':>5s}  {app.description}"
        )
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    cloud = SimulatedCloud(seed=args.seed, regions=args.regions)
    deployed, _executor, _utility = deploy_benchmark(app, cloud)
    print(f"deployed {deployed.name!r} to {deployed.config.home_region}")
    print(f"  nodes: {', '.join(deployed.dag.node_names)}")
    print(f"  sync nodes: {', '.join(deployed.dag.sync_nodes) or '(none)'}")
    print(f"  functions: {len(deployed.workflow.functions)}")
    print(f"  IAM roles: {len(cloud.iam.roles())}")
    return 0


def _default_chaos_plan(regions: Sequence[str], home: str) -> FaultPlan:
    """The stock ``--chaos`` schedule: one non-home region goes dark for
    half a day, 5 % of invocations fail everywhere, and KV accesses are
    slowed 3x for a stretch — enough to exercise every resilience path."""
    plan = (
        FaultPlan()
        .with_invocation_failures(0.05)
        .with_kv_latency(
            3.0, start_s=2.0 * SECONDS_PER_DAY, end_s=3.0 * SECONDS_PER_DAY
        )
    )
    victims = [r for r in regions if r != home]
    if victims:
        plan = plan.with_region_outage(
            victims[0], start_s=1.0 * SECONDS_PER_DAY, end_s=1.5 * SECONDS_PER_DAY
        )
    return plan


def _solver_settings(args: argparse.Namespace):
    """The bench defaults, with any CLI solver knobs applied."""
    settings = BENCH_SOLVER_SETTINGS
    solver = getattr(args, "solver", None)
    if solver:
        settings = dataclasses.replace(settings, solver=solver)
    return settings


def _telemetry_config(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    """Build the run's :class:`TelemetryConfig` from CLI flags.

    Any of ``--timeseries``/``--slo``/``--export-prom`` turns the
    windowed pipeline on; without them the run schedules no telemetry
    events at all (the byte-identical no-telemetry path).
    """
    slo_args = args.slo or []
    wants = args.timeseries or args.export_prom or slo_args
    if not wants:
        return None
    slos = []
    for spec in slo_args:
        if spec == "":  # bare --slo: the stock objectives
            slos.extend(DEFAULT_SLOS)
        else:
            slos.append(spec)
    return TelemetryConfig(window_s=args.window, slos=tuple(slos))


def cmd_run(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    fault_plan = None
    if args.chaos:
        home = args.coarse if args.coarse else HOME_REGION
        fault_plan = _default_chaos_plan(args.regions, home)
    # --report needs a trace for its critical-path section; tracing is
    # pure observation, so enabling it never changes the run itself.
    tracer = (
        Tracer(sample_every=args.trace_sample)
        if (args.trace or args.report)
        else None
    )
    telemetry = _telemetry_config(args)
    if args.coarse:
        outcome = run_coarse(
            app, args.size, args.coarse, seed=args.seed,
            n_invocations=args.invocations, fault_plan=fault_plan,
            tracer=tracer, telemetry=telemetry,
        )
    else:
        outcome = run_caribou(
            app, args.size, args.regions, seed=args.seed,
            n_invocations=args.invocations, fault_plan=fault_plan,
            tracer=tracer,
            solver_settings=_solver_settings(args),
            telemetry=telemetry,
        )
    print(f"{outcome.label}: {outcome.n_invocations} invocations")
    print(f"  mean service time : {outcome.mean_service_time_s:8.3f} s")
    print(f"  p95 service time  : {outcome.p95_service_time_s:8.3f} s")
    for name, stats in outcome.per_scenario.items():
        print(
            f"  [{name}] carbon {stats.mean_carbon_g * 1000:8.3f} mgCO2eq/inv "
            f"(exec {stats.mean_exec_carbon_g * 1000:.3f} / "
            f"trans {stats.mean_trans_carbon_g * 1000:.3f}), "
            f"cost ${stats.mean_cost_usd:.6f}"
        )
    print(f"  regions used      : {', '.join(outcome.regions_used)}")
    if outcome.solver_stats is not None:
        print(f"  solver stats      : {outcome.solver_stats.summary()}")
    if outcome.reliability is not None and (
        args.chaos or outcome.reliability.total_injected
    ):
        print(f"  reliability       : {outcome.reliability.summary()}")
    if tracer is not None and args.trace:
        tracer.export(args.trace)
        print(f"  trace             : {len(tracer)} spans -> {args.trace}")
        print(render_trace_summary(tracer))
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(outcome.metrics or {}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        n = len(outcome.metrics or {})
        print(f"  metrics           : {n} instruments -> {args.metrics}")
    if args.timeseries:
        export_series(
            outcome.series or [], args.timeseries,
            window_s=outcome.series_window_s or args.window,
        )
        print(
            f"  timeseries        : {len(outcome.series or [])} points -> "
            f"{args.timeseries}"
        )
    if args.export_prom:
        with open(args.export_prom, "w", encoding="utf-8") as fh:
            fh.write(outcome.prom or "")
        print(f"  prometheus        : -> {args.export_prom}")
    if outcome.slo:
        for entry in outcome.slo:
            status = "OK  " if entry["met"] else "MISS"
            print(
                f"  slo [{status}]        : {entry['name']} "
                f"({entry['violations']}/{entry['windows']} windows "
                f"violating, {len(entry['alerts'])} alerts)"
            )
    if args.report:
        report = build_run_report(outcome, trace=tracer)
        report.export(args.report)
        print(f"  report            : -> {args.report}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two run artifacts (reports or series dumps)."""
    print(diff_runs(args.a, args.b), end="")
    return 0


def cmd_dash(args: argparse.Namespace) -> int:
    """Render the offline terminal dashboard for a series dump, with
    SLO budget lines when a run report is supplied alongside."""
    # Opened here, not by the loader's path-or-text guess: a missing
    # file is then an OSError whatever its name looks like.
    with open(args.series, "r", encoding="utf-8") as fh:
        points, window_s = load_series_jsonl(fh)
    slo = None
    if args.report:
        with open(args.report, "r", encoding="utf-8") as fh:
            slo = RunReport.from_json(fh.read()).doc.get("slo")
    print(
        render_dashboard(
            points, slo_results=slo, window_s=window_s, width=args.width
        ),
        end="",
    )
    return 0


def cmd_fleet_report(args: argparse.Namespace) -> int:
    """Run a small managed fleet and print its control-loop rollup."""
    from repro.apps.base import default_config
    from repro.core.deployer import DeploymentUtility
    from repro.core.fleet import FleetManager
    from repro.core.solver import SolverSettings

    app = get_app(args.app)
    cloud = SimulatedCloud(seed=args.seed, regions=args.regions)
    utility = DeploymentUtility(cloud)
    # Bench-style fleet knobs: no forecast gate and no token bucket, so
    # every checked workflow actually solves and the rollup shows real
    # control-loop activity even for a tiny demo fleet.
    fleet = FleetManager(
        cloud,
        utility,
        TransmissionScenario.best_case(),
        solver_settings=SolverSettings(
            batch_size=30, max_samples=60, cov_threshold=0.2
        ),
        use_forecast=False,
        use_token_bucket=False,
        fixed_granularity=1,
    )
    executors = []
    for i in range(args.workflows):
        workflow = app.build_workflow()
        workflow.name = f"{workflow.name}-{i:03d}"
        deployed, executor = utility.deploy(
            workflow, default_config(benchmarking_fraction=0.0)
        )
        fleet.register(deployed, executor)
        executors.append(executor)
    for executor in executors:
        for _ in range(args.invocations):
            executor.invoke(app.make_input(args.size), force_home=True)
        cloud.env.run_until_idle()
    fleet.check_all()
    report = fleet.fleet_report()
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(fleet_markdown_lines(report)).lstrip("\n"))
    return 0


#: Default durable job store for the service commands.
DEFAULT_JOB_STORE = ".caribou-jobs.json"


def _job_store(args: argparse.Namespace):
    from repro.service import LocalJobStore

    return LocalJobStore(args.store)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a workflow as a durable job (state SUBMITTED)."""
    from repro.service import JobRecord, SUBMITTED

    store = _job_store(args)
    seq = len(store.job_ids()) + 1
    job_id = args.job_id or f"{args.app}-{seq:04d}"
    if store.load(job_id) is not None:
        print(f"caribou submit: job {job_id!r} already exists", file=sys.stderr)
        return 2
    record = JobRecord(job_id=job_id, app=args.app, input_size=args.size)
    store.save(record)
    print(f"submitted {job_id} ({SUBMITTED}) -> {args.store}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """List all jobs in the durable store."""
    store = _job_store(args)
    records = store.load_all()
    if args.json:
        print(json.dumps([r.to_dict() for r in records], sort_keys=True,
                         indent=2))
        return 0
    if not records:
        print(f"no jobs in {args.store}")
        return 0
    print(f"{'job id':32s} {'app':24s} {'state':12s} {'updated':>10s}  note")
    for r in records:
        note = r.error or ""
        print(
            f"{r.job_id:32s} {r.app:24s} {r.state:12s} "
            f"{r.updated_at_s:10.1f}  {note}"
        )
    return 0


def cmd_job(args: argparse.Namespace) -> int:
    """Show one job record, including its transition journal."""
    store = _job_store(args)
    record = store.load(args.job_id)
    if record is None:
        print(f"caribou job: no such job {args.job_id!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record.to_dict(), sort_keys=True, indent=2))
        return 0
    print(f"job      : {record.job_id}")
    print(f"app      : {record.app} (input {record.input_size})")
    print(f"state    : {record.state}")
    if record.error:
        print(f"error    : {record.error}")
    print(f"steps    : {', '.join(record.steps) or '(none)'}")
    if record.artifacts.get("plan_set"):
        print("artifacts: plan_set (persisted)")
    print("journal  :")
    for entry in record.journal:
        extra = f"  [{entry.note}]" if entry.note else ""
        print(
            f"  t={entry.time_s:10.1f}  {entry.from_state:10s} -> "
            f"{entry.to_state:10s}  step={entry.step or '-'}{extra}"
        )
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel a job in the durable store."""
    store = _job_store(args)
    record = store.load(args.job_id)
    if record is None:
        print(f"caribou cancel: no such job {args.job_id!r}", file=sys.stderr)
        return 2
    if not record.cancel(record.updated_at_s, note="cancelled via CLI"):
        print(f"{record.job_id} is already terminal ({record.state})")
        return 0
    store.save(record)
    print(f"cancelled {record.job_id}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Tick the service engine deterministically over the job store.

    Builds a fresh simulated cloud, recovers every in-flight job from
    the store (re-establishing deployments and re-applying persisted
    plan artifacts — never re-solving), then runs up to ``--steps``
    pipeline steps.  Safe to re-run: completed steps are skipped by
    digest.
    """
    from repro.service import ServiceEngine

    store = _job_store(args)
    cloud = SimulatedCloud(seed=args.seed, regions=args.regions)
    engine = ServiceEngine(cloud, store)
    hydrated = engine.recover()
    executed = engine.run(max_steps=args.steps)
    summary = engine.summary()
    print(
        f"serve: {summary['jobs']} job(s), {executed} step(s) executed, "
        f"{hydrated} recovered from {args.store}"
    )
    for state, count in summary["by_state"].items():
        print(f"  {state:12s} {count}")
    if summary["fleet_workflows"]:
        print(f"  fleet: {summary['fleet_workflows']} workflow(s) under "
              "management")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a saved run report (JSON) or analyze a trace (JSONL)."""
    if args.file.endswith(".jsonl"):
        with open(args.file, "r", encoding="utf-8") as fh:
            spans = load_jsonl(fh)
        analysis = analyze_trace(spans)
        print(
            f"{analysis.n_requests} requests, "
            f"total critical-path time {analysis.total_latency_s():.3f}s"
        )
        for kind, entry in analysis.by_kind().items():
            print(
                f"  {kind:12s} {entry['seconds']:10.3f}s "
                f"{entry['share']:6.1%}"
            )
        gates = analysis.sync_gates()
        for node, entry in gates.items():
            gated = ", ".join(
                f"{edge} x{count}" for edge, count in entry["gated_by"].items()
            )
            print(
                f"  sync {node}: {entry['n']} joins, gated by {gated}, "
                f"mean straggle {entry['mean_straggle_s']:.4f}s"
            )
        if args.requests:
            for path in analysis.requests:
                print(render_critical_path(path))
        return 0
    with open(args.file, "r", encoding="utf-8") as fh:
        report = RunReport.from_json(fh.read())
    print(report.to_markdown(), end="")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    cloud = SimulatedCloud(seed=args.seed, regions=args.regions)
    deployed, executor, _utility = deploy_benchmark(app, cloud)
    warm_up(executor, app, args.size, n=10)
    scenario = (
        TransmissionScenario.worst_case()
        if args.worst_case
        else TransmissionScenario.best_case()
    )
    stats = SolverStats()
    plan_set = solve_plan_set(
        deployed, executor, scenario,
        solver_settings=_solver_settings(args),
        stats=stats,
    )
    print(f"24-hour plan set for {app.name} over {', '.join(args.regions)}:")
    last = None
    for hour in range(24):
        plan = plan_set.plan_for_hour(hour)
        summary = ", ".join(f"{n}->{r}" for n, r in sorted(plan.assignments.items()))
        if summary != last:
            print(f"  {hour:02d}:00  {summary}")
            last = summary
    print(f"solver stats: {stats.summary()}")
    return 0


def cmd_carbon(args: argparse.Namespace) -> int:
    cloud = SimulatedCloud(seed=args.seed)
    hours = min(args.hours, cloud.carbon_source.horizon_hours)
    print(f"{'hour':>4s}  " + "  ".join(f"{r:>14s}" for r in cloud.regions))
    for hour in range(hours):
        row = "  ".join(
            f"{cloud.carbon_source.intensity_at_hour(r, hour):14.1f}"
            for r in cloud.regions
        )
        print(f"{hour:4d}  {row}")
    return 0


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {raw}")
    return value


def _region_list(raw: str) -> tuple:
    """``--regions r1,r2``: catalogue names, the home region among them."""
    regions = tuple(part.strip() for part in raw.split(",") if part.strip())
    known = sorted(r.name for r in all_regions())
    unknown = [r for r in regions if r not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown region {', '.join(unknown)} (known: {', '.join(known)})"
        )
    if HOME_REGION not in regions:
        raise argparse.ArgumentTypeError(
            f"must include the home region {HOME_REGION}"
        )
    return regions


def _slo_spec(raw: str):
    """One ``--slo`` value, parsed; bare ``--slo`` arrives as ``""``."""
    if raw == "":
        return raw
    try:
        return parse_slo(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caribou",
        description="Caribou reproduction CLI (simulated cloud).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    regions_flag = dict(
        type=_region_list, default=tuple(EVALUATION_REGIONS), metavar="R1,R2",
        help=f"comma-separated region set, {HOME_REGION} included",
    )

    p_list = sub.add_parser("list", help="list benchmark workflows")
    p_list.set_defaults(func=cmd_list)

    p_deploy = sub.add_parser("deploy", help="initial deployment of a workflow")
    p_deploy.add_argument("app", choices=sorted(ALL_APPS))
    p_deploy.add_argument("--regions", **regions_flag)
    p_deploy.add_argument("--seed", type=int, default=0)
    p_deploy.set_defaults(func=cmd_deploy)

    p_run = sub.add_parser("run", help="deploy + solve + run invocations")
    p_run.add_argument("app", choices=sorted(ALL_APPS))
    p_run.add_argument("--size", choices=("small", "large"), default="small")
    p_run.add_argument("-n", "--invocations", type=_positive_int, default=20)
    p_run.add_argument("--regions", **regions_flag)
    p_run.add_argument("--coarse", metavar="REGION", default=None,
                       choices=EVALUATION_REGIONS,
                       help="static single-region deployment instead of Caribou")
    p_run.add_argument("--chaos", action="store_true",
                       help="inject the stock fault schedule (region outage, "
                            "5%% invocation failures, KV slowdown)")
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="record a structured span trace of the run and "
                            "write it to FILE as JSON Lines")
    p_run.add_argument("--metrics", metavar="FILE", default=None,
                       help="dump the run's MetricsRegistry snapshot to "
                            "FILE as JSON")
    p_run.add_argument("--report", metavar="FILE", default=None,
                       help="write the unified run report (critical path, "
                            "per-region carbon/cost, metrics, reliability) "
                            "to FILE as JSON; render it with `caribou "
                            "report FILE`")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--solver", choices=("hbss", "coarse", "exact"),
                       default=None,
                       help="search strategy (default hbss; 'exact' runs the "
                            "provably-optimal branch-and-bound)")
    p_run.add_argument("--trace-sample", type=_positive_int, default=1,
                       help="keep every N-th request's spans in the trace "
                            "(default 1 = record everything); cuts tracer "
                            "overhead on hot paths")
    p_run.add_argument("--timeseries", metavar="FILE", default=None,
                       help="sample every metric into per-window points on "
                            "the virtual clock and write the series to FILE "
                            "as JSONL (render with `caribou dash FILE`)")
    p_run.add_argument("--window", type=_positive_float,
                       default=DEFAULT_WINDOW_S,
                       help="telemetry window in virtual seconds "
                            "(default 3600 = the solver's hour granularity)")
    p_run.add_argument("--slo", metavar="SPEC", action="append", nargs="?",
                       const="", default=None, type=_slo_spec,
                       help="evaluate an SLO per window, e.g. "
                            "'p95(executor.request_latency_s)<=1.0' or "
                            "'rate(a/b)<=0.01@0.999'; repeatable; bare "
                            "--slo applies the stock objectives")
    p_run.add_argument("--export-prom", metavar="FILE", default=None,
                       help="write the run's final metrics as Prometheus "
                            "text exposition to FILE")
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="print the solved 24-hour plan set")
    p_solve.add_argument("app", choices=sorted(ALL_APPS))
    p_solve.add_argument("--size", choices=("small", "large"), default="small")
    p_solve.add_argument("--regions", **regions_flag)
    p_solve.add_argument("--worst-case", action="store_true")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--solver", choices=("hbss", "coarse", "exact"),
                       default=None,
                       help="search strategy (default hbss; 'exact' runs the "
                            "provably-optimal branch-and-bound)")
    p_solve.set_defaults(func=cmd_solve)

    p_report = sub.add_parser(
        "report",
        help="render a saved run report (.json) or analyze a trace (.jsonl)",
    )
    p_report.add_argument("file", help="run-report JSON or trace JSONL path")
    p_report.add_argument("--requests", action="store_true",
                          help="also print each request's critical path "
                               "(trace input only)")
    p_report.set_defaults(func=cmd_report)

    p_carbon = sub.add_parser("carbon", help="show synthetic carbon traces")
    p_carbon.add_argument("--hours", type=int, default=24)
    p_carbon.add_argument("--seed", type=int, default=0)
    p_carbon.set_defaults(func=cmd_carbon)

    p_diff = sub.add_parser(
        "diff",
        help="compare two runs: delta table over reports or series dumps",
    )
    p_diff.add_argument("a", help="first run artifact (report JSON or "
                                  "series JSONL)")
    p_diff.add_argument("b", help="second run artifact (same kind as A)")
    p_diff.set_defaults(func=cmd_diff)

    p_dash = sub.add_parser(
        "dash",
        help="offline terminal dashboard (sparklines) for a series dump",
    )
    p_dash.add_argument("series", help="series JSONL from `caribou run "
                                       "--timeseries`")
    p_dash.add_argument("--report", metavar="FILE", default=None,
                        help="run report JSON to pull SLO budget lines from")
    p_dash.add_argument("--width", type=int, default=48,
                        help="max sparkline width in characters (default 48)")
    p_dash.set_defaults(func=cmd_dash)

    p_fleet = sub.add_parser(
        "fleet-report",
        help="run a small managed fleet and print its control-loop rollup",
    )
    p_fleet.add_argument("app", choices=sorted(ALL_APPS))
    p_fleet.add_argument("-w", "--workflows", type=int, default=4,
                         help="fleet size: copies of APP to manage "
                              "(default 4)")
    p_fleet.add_argument("-n", "--invocations", type=int, default=2,
                         help="warm-up invocations per workflow (default 2)")
    p_fleet.add_argument("--size", choices=("small", "large"), default="small")
    p_fleet.add_argument("--regions", **regions_flag)
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--json", action="store_true",
                         help="emit the raw rollup as JSON instead of "
                              "markdown")
    p_fleet.set_defaults(func=cmd_fleet_report)

    p_submit = sub.add_parser(
        "submit",
        help="submit a workflow as a durable job (drive it with `serve`)",
    )
    p_submit.add_argument("app", choices=sorted(ALL_APPS))
    p_submit.add_argument("--size", choices=("small", "large"),
                          default="small")
    p_submit.add_argument("--job-id", default=None,
                          help="explicit job id (default APP-NNNN)")
    p_submit.add_argument("--store", default=DEFAULT_JOB_STORE,
                          help=f"durable job store path (default "
                               f"{DEFAULT_JOB_STORE})")
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser("jobs", help="list jobs in the durable store")
    p_jobs.add_argument("--store", default=DEFAULT_JOB_STORE)
    p_jobs.add_argument("--json", action="store_true")
    p_jobs.set_defaults(func=cmd_jobs)

    p_job = sub.add_parser(
        "job", help="show one job record and its transition journal"
    )
    p_job.add_argument("job_id")
    p_job.add_argument("--store", default=DEFAULT_JOB_STORE)
    p_job.add_argument("--json", action="store_true")
    p_job.set_defaults(func=cmd_job)

    p_cancel = sub.add_parser("cancel", help="cancel a job")
    p_cancel.add_argument("job_id")
    p_cancel.add_argument("--store", default=DEFAULT_JOB_STORE)
    p_cancel.set_defaults(func=cmd_cancel)

    p_serve = sub.add_parser(
        "serve",
        help="tick the service engine over the job store "
             "(submit -> analyze -> solve -> deploy -> monitor)",
    )
    p_serve.add_argument("--store", default=DEFAULT_JOB_STORE)
    p_serve.add_argument("--steps", type=int, default=16,
                         help="maximum pipeline steps to execute "
                              "(default 16)")
    p_serve.add_argument("--regions", **regions_flag)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, CaribouError) as exc:
        # An unreadable/unwritable path or a request the framework
        # refuses gets what argparse gives bad flags: one line, exit 2.
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"
        print(f"caribou {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing for the benchmark's traced run.

Nothing under ``src/`` is edited: :func:`install` replaces the public
methods of each layer (class attributes, this process only) with
wrappers that report into whichever :class:`Recorder` is active.  The
program's own ``repro.obs.profile`` / ``Tracer`` stay off, and an
untraced run never calls :func:`install`, so it pays nothing.

A *layer* is a module name under ``repro``.  A wrapped call's *self time*
is its duration minus the duration of the wrapped calls nested in it, so
self times add up to the time the outermost spans cover and no second is
counted twice.  Work that crosses a layer as a callback — an event
action handed to the simulator, the executor's mutator handed to
``KeyValueStore.update``, its handler handed to ``FunctionService.invoke``,
the subscriber the pub/sub service calls — is attributed to the module
that *defines* the callback, not to the layer that happens to call it.

Coarse boundaries keep one span each (layer, name, start, end, parent,
workload step); per-event boundaries only aggregate calls and self time,
so a day of traffic stays in memory.  Counts are exact either way.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Key = Tuple[str, str]

#: The recorder wrapped calls report into; ``None`` = call straight through.
_active: Optional["Recorder"] = None

#: (owner class, attribute, original) for everything :func:`install` replaced.
_installed: List[Tuple[type, str, Any]] = []


class Recorder:
    """In-memory sink for one traced phase."""

    def __init__(self, delays: Optional[Dict[Key, float]] = None):
        #: Open frames, innermost last: ``[key, child_s, span_id]``.
        self.stack: List[list] = []
        #: key -> ``[calls, self_s, total_s]``.
        self.stats: Dict[Key, List[float]] = {}
        #: Exact counts taken at the boundaries (metric name -> value).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Durations kept for medians (name -> seconds list).
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Kept spans: (id, parent id, layer, name, start, end, step).
        self.spans: List[Tuple[int, int, str, str, float, float, int]] = []
        #: Workload step the benchmark is in (-1 outside any step).
        self.step = -1
        #: Busy-wait seconds added inside the named wrappers — the
        #: sensitivity self-test's injected slowdown.
        self.delays: Dict[Key, float] = dict(delays or {})
        #: Seconds the wrappers spent on their own bookkeeping (the part
        #: they can time themselves; see :func:`unmeasured_cost_s`).
        self.overhead_s = 0.0
        self._next_span = 0

    # -- reading -------------------------------------------------------------
    def calls(self, layer: str, *names: str) -> int:
        return int(sum(self.stats[(layer, n)][0] for n in names if (layer, n) in self.stats))

    def self_s(self, layer: str, *names: str) -> float:
        """Self seconds of the named functions, or of the whole layer."""
        if names:
            return sum(self.stats[(layer, n)][1] for n in names if (layer, n) in self.stats)
        return sum(st[1] for (lay, _), st in self.stats.items() if lay == layer)

    def total_s(self, layer: str, name: str) -> float:
        return self.stats[(layer, name)][2] if (layer, name) in self.stats else 0.0

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer, largest first."""
        out: Dict[str, float] = defaultdict(float)
        for (layer, _), st in self.stats.items():
            out[layer] += st[1]
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def wrapper_calls(self) -> int:
        return int(sum(st[0] for st in self.stats.values()))

    def write_jsonl(self, path, origin: float) -> None:
        """Spans first, then one line per aggregated boundary."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, start, end, step in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer, "name": name,
                    "start_s": start - origin, "end_s": end - origin, "step": step,
                }) + "\n")
            for (layer, name), (calls, self_s, total_s) in sorted(self.stats.items()):
                fh.write(json.dumps({
                    "aggregate": True, "layer": layer, "name": name,
                    "calls": int(calls), "self_s": self_s, "total_s": total_s,
                }) + "\n")


def activate(recorder: Optional[Recorder]) -> None:
    """Route wrapped calls into ``recorder`` (``None`` switches tracing off)."""
    global _active
    _active = recorder


# ----------------------------------------------------------------- wrapping
def _wrap(
    key: Key,
    fn: Callable,
    span: bool = False,
    prepare: Optional[Callable] = None,
    transform: Optional[Callable] = None,
    after: Optional[Callable] = None,
    copy_metadata: bool = True,
) -> Callable:
    """Wrap ``fn`` so an active recorder sees it as one frame.

    ``prepare(args, kwargs)`` and ``transform(result)`` always run (they
    re-wrap callbacks that outlive the call); ``after(rec, args, result,
    elapsed)`` only counts, and only while a recorder is active.
    """
    layer, name = key

    def wrapper(*args, **kwargs):
        rec = _active
        if rec is None:
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            result = fn(*args, **kwargs)
            return transform(result) if transform is not None else result
        entered = perf_counter()
        if prepare is not None:
            args, kwargs = prepare(args, kwargs)
        stack = rec.stack
        parent_span = stack[-1][2] if stack else -1
        if span:
            span_id = rec._next_span
            rec._next_span = span_id + 1
        else:
            span_id = parent_span
        frame = [key, 0.0, span_id]
        stack.append(frame)
        t0 = perf_counter()
        try:
            if rec.delays:
                delay = rec.delays.get(key)
                if delay:
                    until = t0 + delay
                    while perf_counter() < until:
                        pass
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            elapsed = t1 - t0
            stack.pop()
            st = rec.stats.get(key)
            if st is None:
                st = rec.stats[key] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += elapsed - frame[1]
            st[2] += elapsed
            # The caller's child time covers this wrapper's own work too,
            # so tracing cost lands in ``overhead_s``, not in a layer.
            rec.overhead_s += t0 - entered
            if stack:
                stack[-1][1] += t1 - entered
            if span:
                rec.spans.append((span_id, parent_span, layer, name, t0, t1, rec.step))
        if after is not None:
            after(rec, args, result, elapsed)
        if transform is not None:
            result = transform(result)
        leaving = perf_counter() - t1
        rec.overhead_s += leaving
        if stack:
            stack[-1][1] += leaving
        return result

    if copy_metadata:
        functools.update_wrapper(wrapper, fn)
    else:  # per-event callbacks: the marker is all _attributed needs
        wrapper.__wrapped__ = fn
    return wrapper


#: code object -> key, so classifying a callback is one dict lookup.
_callback_keys: Dict[Any, Key] = {}


def layer_of_module(module: str) -> str:
    """``repro.cloud.kvstore`` -> ``cloud.kvstore``; anything outside the
    program (the benchmark's own callbacks) -> ``bench``."""
    return module[len("repro."):] if module.startswith("repro.") else "bench"


def _attributed(fn: Callable) -> Callable:
    """Wrap a callback so its time goes to the module that defines it."""
    func = getattr(fn, "__func__", fn)
    if hasattr(func, "__wrapped__"):
        return fn  # already one of ours; its own frame attributes it
    code = getattr(func, "__code__", None)
    key = _callback_keys.get(code)
    if key is None:
        module = getattr(func, "__module__", None) or ""
        name = getattr(func, "__qualname__", type(fn).__name__)
        key = (layer_of_module(module), "callback:" + name)
        if code is not None:
            _callback_keys[code] = key
    return _wrap(key, fn, copy_metadata=False)


def _rewrap_arg(index: int, name: str) -> Callable:
    """A ``prepare`` hook re-wrapping the callback passed at ``index``/``name``."""

    def prepare(args, kwargs):
        if name in kwargs:
            if kwargs[name] is not None:
                kwargs = dict(kwargs, **{name: _attributed(kwargs[name])})
        elif len(args) > index and args[index] is not None:
            args = args[:index] + (_attributed(args[index]),) + args[index + 1:]
        return args, kwargs

    return prepare


def _count(metric: str, amount: Callable[[tuple, Any], float]) -> Callable:
    def after(rec, args, result, elapsed):
        rec.counts[metric] += amount(args, result)

    return after


def _after_schedule(rec, args, result, elapsed):
    heap = args[0].heap_size
    if heap > rec.counts["cloud.simulator.heap_peak"]:
        rec.counts["cloud.simulator.heap_peak"] = heap


def _after_check(rec, args, report, elapsed):
    rec.counts["core.manager.solves"] += bool(report.solved)
    rec.durations["check_busy" if report.new_records else "check_quiet"].append(elapsed)


def _count_hours(rec, results) -> None:
    rec.counts["core.solver.hbss.hours_solved"] += len(results)
    rec.counts["core.solver.hbss.iterations"] += sum(r.iterations for r in results)
    rec.counts["core.solver.hbss.plans_evaluated"] += sum(r.plans_evaluated for r in results)


def _targets() -> Iterable[Tuple[str, type, str, dict]]:
    """(layer, class, method, wrap options) for every boundary."""
    from repro.cloud.functions import FunctionService
    from repro.cloud.kvstore import KeyValueStore
    from repro.cloud.ledger import MeteringLedger
    from repro.cloud.network import Network
    from repro.cloud.pubsub import PubSubService
    from repro.cloud.simulator import SimulationEnvironment
    from repro.core.deployer import DeploymentUtility
    from repro.core.executor import CaribouExecutor
    from repro.core.fleet import FleetManager
    from repro.core.manager import DeploymentManager
    from repro.core.migrator import DeploymentMigrator
    from repro.core.solver import EvaluationCache, ExactSolver, HBSSSolver, PlanEvaluator
    from repro.metrics.accounting import CarbonAccountant
    from repro.metrics.manager import CarbonForecastProvider, MetricsManager
    from repro.metrics.montecarlo import MonteCarloEstimator, PlanProfile
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.service.engine import ServiceEngine
    from repro.service.jobstore import JobStore

    sim = "cloud.simulator"
    yield sim, SimulationEnvironment, "run", dict(
        span=True, after=_count("cloud.simulator.events", lambda a, r: r))
    yield sim, SimulationEnvironment, "run_until_idle", dict(span=True)
    for name in ("schedule", "schedule_at"):
        yield sim, SimulationEnvironment, name, dict(
            prepare=_rewrap_arg(2, "action"), after=_after_schedule)

    ex = "core.executor"
    yield ex, CaribouExecutor, "invoke", {}
    yield ex, CaribouExecutor, "fetch_active_plan", {}
    yield ex, CaribouExecutor, "stage_plan_set", dict(span=True)
    yield ex, CaribouExecutor, "clear_plan", dict(span=True)
    yield ex, CaribouExecutor, "make_subscriber", dict(
        transform=lambda sub: _wrap((ex, "subscriber"), sub))

    yield "cloud.pubsub", PubSubService, "publish", {}
    yield "cloud.pubsub", PubSubService, "dead_letter", {}

    for name in ("get", "put", "delete", "conditional_put", "increment", "scan"):
        yield "cloud.kvstore", KeyValueStore, name, {}
    yield "cloud.kvstore", KeyValueStore, "update", dict(prepare=_rewrap_arg(3, "fn"))

    yield "cloud.functions", FunctionService, "invoke", dict(
        prepare=_rewrap_arg(8, "handler_override"))
    yield "cloud.functions", FunctionService, "deploy", dict(span=True)

    yield "cloud.network", Network, "transfer", {}
    yield "cloud.network", Network, "transfer_latency", {}

    for name in ("record_execution", "record_transmission", "record_message",
                 "record_kv_access", "executions_for", "transmissions_for",
                 "messages_for", "kv_accesses_for", "request_ids",
                 "usage_by_region", "service_time"):
        yield "cloud.ledger", MeteringLedger, name, {}

    yield "obs.metrics", Counter, "inc", {}
    yield "obs.metrics", Histogram, "observe", {}
    yield "obs.metrics", Gauge, "set", {}
    yield "obs.metrics", Gauge, "add", {}
    for name in ("counter", "gauge", "histogram"):
        yield "obs.metrics", MetricsRegistry, name, {}

    mc = "metrics.montecarlo"
    yield mc, MonteCarloEstimator, "estimate_profile", dict(
        after=lambda rec, a, profile, e: _bump_profiles(rec, [profile]))
    yield mc, MonteCarloEstimator, "estimate_profiles", dict(
        after=lambda rec, a, profiles, e: _bump_profiles(rec, profiles))
    yield mc, PlanProfile, "estimate_at", {}

    ev = "core.solver.evaluation"
    for name in ("profile", "estimate", "prefetch_profiles", "tolerance_violated"):
        yield ev, PlanEvaluator, name, {}
    yield ev, EvaluationCache, "sync", dict(
        after=_count("core.solver.evaluation.invalidations", lambda a, r: bool(r)))

    yield "core.solver.hbss", HBSSSolver, "solve_day", dict(
        span=True, after=lambda rec, a, result, e: _count_hours(rec, result[1]))
    yield "core.solver.hbss", HBSSSolver, "solve_hour", dict(
        span=True, after=lambda rec, a, result, e: _count_hours(rec, [result]))
    yield "core.solver.exact", ExactSolver, "solve_day", dict(span=True)
    yield "core.solver.exact", ExactSolver, "solve_hour", dict(span=True)

    mm = "metrics.manager"
    yield mm, MetricsManager, "collect", dict(
        span=True, after=_count("metrics.manager.records_collected", lambda a, r: r))
    for name in ("execution_time_dist", "edge_size_dist", "edge_probability", "input_size_dist"):
        yield mm, MetricsManager, name, {}
    yield mm, CarbonForecastProvider, "maybe_refit", dict(span=True)
    yield mm, CarbonForecastProvider, "refit", dict(
        span=True, after=_count("metrics.manager.refits", lambda a, r: bool(r)))

    yield "metrics.accounting", CarbonAccountant, "price_by_request", dict(span=True)

    yield "core.manager", DeploymentManager, "check", dict(span=True, after=_after_check)

    yield "core.migrator", DeploymentMigrator, "migrate", dict(
        span=True,
        after=_count("core.migrator.deployments_added", lambda a, r: len(r.deployed)))
    yield "core.migrator", DeploymentMigrator, "retry_pending", dict(span=True)

    for name in ("deploy", "attach", "deploy_function"):
        yield "core.deployer", DeploymentUtility, name, dict(span=True)

    for name in ("register", "check_all", "fleet_report"):
        yield "core.fleet", FleetManager, name, dict(span=True)

    yield "service.engine", ServiceEngine, "submit", dict(span=True)
    for name in ("tick", "run"):
        yield "service.engine", ServiceEngine, name, dict(
            span=True, after=_count("service.engine.steps", lambda a, r: r))

    for name in ("save", "load", "get", "load_all"):
        yield "service.jobstore", JobStore, name, dict(span=True)


def _bump_profiles(rec: Recorder, profiles) -> None:
    rec.counts["metrics.montecarlo.profiles_built"] += len(profiles)
    rec.counts["metrics.montecarlo.samples_drawn"] += sum(p.n_samples for p in profiles)


def install() -> None:
    """Replace every boundary method with its wrapper (idempotent)."""
    if _installed:
        return
    import repro.data.workload as workload

    for layer, owner, attr, options in _targets():
        original = owner.__dict__[attr]
        _installed.append((owner, attr, original))
        setattr(owner, attr, _wrap((layer, attr), original, **options))
    # Module-level functions: callers look them up on the module at call
    # time (the benchmark does), so replacing the attribute is enough.
    for attr in ("generate_trace", "generate_arrivals"):
        original = getattr(workload, attr)
        _installed.append((workload, attr, original))
        setattr(workload, attr, _wrap(("data.workload", attr), original, span=True))


def uninstall() -> None:
    """Put the original methods back."""
    activate(None)
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    _callback_keys.clear()


def unmeasured_cost_s(calls: int = 100_000) -> float:
    """Seconds per wrapped call that the wrapper cannot time itself
    (entering and leaving it, its clock reads): the cost of a wrapped
    no-op over a bare one, less what its recorder saw, best of three.
    The no-op takes two positional and two keyword arguments, the
    typical shape of a boundary call."""

    def noop(a, b, c=None, d=None):
        return None

    wrapped = _wrap(("bench", "noop"), noop)
    saved = _active
    best = float("inf")
    try:
        for _ in range(3):
            recorder = Recorder()
            activate(recorder)
            t0 = perf_counter()
            for _ in range(calls):
                wrapped(1, 2, c=3, d=4)
            t1 = perf_counter()
            for _ in range(calls):
                noop(1, 2, c=3, d=4)
            t2 = perf_counter()
            extra = (t1 - t0) - (t2 - t1) - recorder.overhead_s
            best = min(best, extra / calls)
    finally:
        activate(saved)
    return max(best, 0.0)


# ------------------------------------------------------------ layer metrics
#: The solver stack and the simulated cloud, for the dominance checks.
SOLVER_LAYERS = ("metrics.montecarlo", "core.solver.evaluation", "core.solver.hbss")
CLOUD_LAYERS = (
    "cloud.simulator", "core.executor", "cloud.pubsub", "cloud.kvstore",
    "cloud.functions", "cloud.network", "cloud.ledger", "obs.metrics",
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(
    rec: Recorder,
    verify: Recorder,
    wall_s: float,
    extra: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``.

    ``rec`` traced the timed phase and ``verify`` the verification after
    it (the only place the exact solver runs); ``extra`` holds counts the
    workload read from public accessors once the phase was over.
    """
    c, s, n = rec.counts, rec.self_s, rec.calls
    m: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    sim = "cloud.simulator"
    events = c["cloud.simulator.events"]
    put(f"{sim}.self_s", s(sim), "s")
    put(f"{sim}.events", events, "count")
    put(f"{sim}.schedules", n(sim, "schedule", "schedule_at"), "count")
    put(f"{sim}.heap_peak", c["cloud.simulator.heap_peak"], "count")
    put(f"{sim}.compactions", extra.get(f"{sim}.compactions", 0), "count")
    put(f"{sim}.self_us_per_event", _ratio(s(sim), events, 1e6), "us")

    ex = "core.executor"
    requests = n(ex, "invoke")
    put(f"{ex}.self_s", s(ex), "s")
    put(f"{ex}.requests", requests, "count")
    put(f"{ex}.node_runs", n(ex, "subscriber"), "count")
    put(f"{ex}.plan_fetches", n(ex, "fetch_active_plan"), "count")
    put(f"{ex}.plan_fetch_self_s", s(ex, "fetch_active_plan"), "s")
    put(f"{ex}.timeouts", extra.get(f"{ex}.timeouts", 0), "count")
    put(f"{ex}.self_us_per_request", _ratio(s(ex), requests, 1e6), "us")

    ps = "cloud.pubsub"
    put(f"{ps}.self_s", s(ps), "s")
    put(f"{ps}.publishes", n(ps, "publish"), "count")
    put(f"{ps}.retries", extra.get(f"{ps}.retries", 0), "count")
    put(f"{ps}.dead_letters", n(ps, "dead_letter"), "count")

    kv = "cloud.kvstore"
    reads = n(kv, "get", "scan")
    # increment() is update() underneath, so it is not counted twice.
    writes = n(kv, "put", "delete", "update", "conditional_put")
    put(f"{kv}.self_s", s(kv), "s")
    put(f"{kv}.reads", reads, "count")
    put(f"{kv}.writes", writes, "count")
    put(f"{kv}.self_us_per_op", _ratio(s(kv), reads + writes, 1e6), "us")

    fn = "cloud.functions"
    put(f"{fn}.self_s", s(fn), "s")
    put(f"{fn}.invocations", n(fn, "invoke"), "count")
    put(f"{fn}.deploys", n(fn, "deploy"), "count")

    put("cloud.network.self_s", s("cloud.network"), "s")
    put("cloud.network.transfers", n("cloud.network", "transfer"), "count")

    led = "cloud.ledger"
    records = ("record_execution", "record_transmission", "record_message", "record_kv_access")
    queries = ("executions_for", "transmissions_for", "messages_for", "kv_accesses_for",
               "request_ids", "usage_by_region", "service_time")
    put(f"{led}.self_s", s(led), "s")
    put(f"{led}.records", n(led, *records), "count")
    put(f"{led}.queries", n(led, *queries), "count")
    put(f"{led}.query_self_s", s(led, *queries), "s")

    put("obs.metrics.self_s", s("obs.metrics"), "s")
    put("obs.metrics.updates", n("obs.metrics", "inc", "observe", "set", "add"), "count")

    mc = "metrics.montecarlo"
    kernel_s = s(mc, "estimate_profile", "estimate_profiles")
    put(f"{mc}.kernel_self_s", kernel_s, "s")
    put(f"{mc}.profiles_built", c[f"{mc}.profiles_built"], "count")
    put(f"{mc}.samples_drawn", c[f"{mc}.samples_drawn"], "count")
    put(f"{mc}.samples_per_s", _ratio(c[f"{mc}.samples_drawn"], kernel_s), "1/s")
    put(f"{mc}.estimate_at_self_s", s(mc, "estimate_at"), "s")
    put(f"{mc}.estimate_at_calls", n(mc, "estimate_at"), "count")

    ev = "core.solver.evaluation"
    profile_requests = n(ev, "profile")
    estimate_requests = n(ev, "estimate")
    put(f"{ev}.self_s", s(ev), "s")
    put(f"{ev}.profile_requests", profile_requests, "count")
    # A profile()/estimate() miss is exactly one kernel / estimate_at call.
    put(f"{ev}.profile_hit_pct",
        _ratio(profile_requests - n(mc, "estimate_profile"), profile_requests, 100.0), "%")
    put(f"{ev}.estimate_requests", estimate_requests, "count")
    put(f"{ev}.estimate_hit_pct",
        _ratio(estimate_requests - n(mc, "estimate_at"), estimate_requests, 100.0), "%")
    put(f"{ev}.invalidations", c[f"{ev}.invalidations"], "count")

    hb = "core.solver.hbss"
    hours = c[f"{hb}.hours_solved"]
    put(f"{hb}.self_s", s(hb), "s")
    put(f"{hb}.hours_solved", hours, "count")
    put(f"{hb}.iterations", c[f"{hb}.iterations"], "count")
    put(f"{hb}.plans_evaluated", c[f"{hb}.plans_evaluated"], "count")
    put(f"{hb}.self_ms_per_hour", _ratio(s(hb), hours, 1e3), "ms")

    put("core.solver.exact.self_s", verify.self_s("core.solver.exact"), "s")
    put("core.solver.exact.expansions", extra.get("core.solver.exact.expansions", 0), "count")

    mm = "metrics.manager"
    dists = ("execution_time_dist", "edge_size_dist", "edge_probability", "input_size_dist")
    put(f"{mm}.collect_self_s", s(mm, "collect"), "s")
    put(f"{mm}.records_collected", c[f"{mm}.records_collected"], "count")
    put(f"{mm}.dist_self_s", s(mm, *dists), "s")
    put(f"{mm}.dist_calls", n(mm, *dists), "count")
    put(f"{mm}.refit_self_s", s(mm, "maybe_refit", "refit"), "s")
    put(f"{mm}.refits", c[f"{mm}.refits"], "count")

    put("metrics.accounting.self_s", s("metrics.accounting"), "s")
    put("metrics.accounting.calls", n("metrics.accounting", "price_by_request"), "count")

    put("core.manager.self_s", s("core.manager"), "s")
    put("core.manager.checks", n("core.manager", "check"), "count")
    put("core.manager.solves", c["core.manager.solves"], "count")
    put("core.manager.check_busy_ms_p50", _median_ms(rec.durations["check_busy"]), "ms")
    put("core.manager.check_quiet_ms_p50", _median_ms(rec.durations["check_quiet"]), "ms")

    put("core.migrator.self_s", s("core.migrator"), "s")
    put("core.migrator.migrations", n("core.migrator", "migrate"), "count")
    put("core.migrator.deployments_added", c["core.migrator.deployments_added"], "count")

    put("core.deployer.self_s", s("core.deployer"), "s")
    put("core.deployer.deploys", n("core.deployer", "deploy_function"), "count")

    put("core.fleet.self_s", s("core.fleet"), "s")
    put("core.fleet.registered", n("core.fleet", "register"), "count")

    se = "service.engine"
    onboard_s = rec.total_s(se, "run") + rec.total_s(se, "tick")
    put(f"{se}.self_s", s(se), "s")
    put(f"{se}.steps", c[f"{se}.steps"], "count")
    put(f"{se}.retries", extra.get(f"{se}.retries", 0), "count")
    put(f"{se}.onboard_s", onboard_s, "s")
    put(f"{se}.jobs_per_s", _ratio(n(se, "submit"), onboard_s), "1/s")

    js = "service.jobstore"
    put(f"{js}.self_s", s(js), "s")
    put(f"{js}.saves", n(js, "save"), "count")
    # get() is load() underneath, so it is not counted twice.
    put(f"{js}.loads", n(js, "load", "load_all"), "count")

    dw = "data.workload"
    put(f"{dw}.self_s", s(dw), "s")
    put(f"{dw}.arrivals", n(dw, "callback:OpenLoopInjector._fire"), "count")

    # Every second goes to a layer of the program or to the tracer; what
    # is left is the benchmark's own loop and callbacks.
    overhead_s = rec.overhead_s + unmeasured_cost_s() * rec.wrapper_calls()
    attributed = rec.overhead_s + sum(
        v for layer, v in rec.layers().items() if layer != "bench"
    )
    put("trace.attributed_pct", _ratio(attributed, wall_s, 100.0), "%")
    put("trace.overhead_pct", _ratio(overhead_s, wall_s - overhead_s, 100.0), "%")
    put("trace.spans", len(rec.spans), "count")
    return m

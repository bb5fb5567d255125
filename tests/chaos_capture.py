"""Seeded chaos scenario pinned by digest in ``golden/chaos_serve.json``.

One deployment of a Table-1 app served for four virtual days under the
``tests/test_faults.py`` chaos plan (a region outage, 5 % invocation
failures, a day of 3x KV latency) plus 2 % injected KV errors, so every
reader of the staged plan set meets every branch it has: requests via
the proxy path (``invoke`` -> ``fetch_active_plan``), direct-to-home
requests (the subscriber's fetch), ``TemporalShifter`` slot scoring, a
plan set that expires mid-run, and a ``DeploymentManager.check`` whose
expiry probe clears it and whose solve stages the next one.

The golden was captured on the parent commit of the decoded-``get``
change, *before* ``src/`` was touched; the ledger, the trace and the
metrics snapshot of a run must serialise to the same bytes ever after.
``image_processing`` was re-pinned once, for a declared change: its
``TemporalShifter`` slot scoring meets a KV error, which now prices the
slot at home instead of raising out of ``submit``.  ``python -m
tests.golden diff chaos_serve`` shows what a change moves (see
``tests/golden.py``).
"""

import dataclasses
import functools
import json
from typing import Optional

from repro.apps import get_app
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.core.manager import DeploymentManager
from repro.core.migrator import DeploymentMigrator
from repro.core.temporal import TemporalPolicy, TemporalShifter
from repro.core.lifecycle import deploy_benchmark, warm_up
from repro.metrics.carbon import TransmissionScenario
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.timeseries import WindowedSampler
from repro.obs.trace import Tracer
from tests import golden, test_faults

APPS = ("text2speech_censoring", "image_processing")
REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")
DAY = 86_400.0
N_ARRIVALS = 48
ARRIVAL_STEP_S = 4 * DAY / N_ARRIVALS


def _rotating_plan_set(dag, now_s: float) -> HourlyPlanSet:
    """Four plans a day, each spreading the nodes over all regions."""
    plans = {
        hour: DeploymentPlan(
            {
                name: REGIONS[(hour // 6 + i) % len(REGIONS)]
                for i, name in enumerate(dag.node_names)
            }
        )
        for hour in range(24)
    }
    return HourlyPlanSet(plans, created_at_s=now_s, expires_at_s=now_s + 2.25 * DAY)


def chaos_plan() -> FaultPlan:
    """The ``tests/test_faults.py`` chaos plan plus 2 % KV errors."""
    return test_faults.TestChaosRegression()._chaos_plan().with_kv_errors(0.02)  # noqa: SLF001


def chaos_run(app_name: str, seed: int = 3):
    """Returns ``(cloud, tracer, executor)`` after the scenario ran."""
    tracer = Tracer()
    cloud = SimulatedCloud(
        seed=seed, regions=REGIONS, fault_plan=chaos_plan(), tracer=tracer
    )
    return cloud, tracer, serve(cloud, app_name)


def serve(cloud: SimulatedCloud, app_name: str, sampler: Optional[WindowedSampler] = None):
    """Deploy ``app_name`` on ``cloud``, run the scenario to idle and
    return its executor; ``sampler`` samples the traffic, from its
    first arrival to idle."""
    chaos = test_faults.TestChaosRegression()
    app = get_app(app_name)
    deployed, executor, utility = deploy_benchmark(
        app, cloud, benchmarking_fraction=0.1
    )
    manager = DeploymentManager(
        deployed,
        executor,
        utility,
        scenario=TransmissionScenario.best_case(),
        solver_settings=chaos.SETTINGS,
        use_token_bucket=False,
        use_forecast=False,
        fixed_granularity=4,
    )
    warm_up(executor, app, "small", n=6)
    report = DeploymentMigrator(utility, deployed, executor).migrate(
        _rotating_plan_set(deployed.dag, cloud.now())
    )
    assert report.activated, report.error

    if sampler is not None:
        sampler.attach(cloud.env)
    shifter = TemporalShifter(executor)
    policy = TemporalPolicy(max_delay_s=3 * 3600.0)
    start = cloud.now()

    def submit_shifted(payload) -> None:
        shifter.submit(payload, policy)

    for i in range(N_ARRIVALS):
        if i % 4 == 1:
            submit = executor.invoke_direct
        elif i % 6 == 2:
            submit = submit_shifted
        else:
            submit = executor.invoke
        cloud.env.schedule_at(
            start + (i + 0.5) * ARRIVAL_STEP_S,
            functools.partial(submit, app.make_input("small")),
        )
    # After the staged set expired (2.25 d), inside the slow-KV day.
    cloud.env.schedule_at(start + 2.5 * DAY, manager.check)
    cloud.run_until_idle()
    if sampler is not None:
        sampler.close()
    return executor


def _ledger_text(ledger) -> str:
    lines = []
    for kind in ("executions", "transmissions", "messages", "kv_accesses"):
        for record in getattr(ledger, kind):
            lines.append(
                json.dumps(
                    [kind, dataclasses.astuple(record)], separators=(",", ":")
                )
            )
    return "\n".join(lines) + "\n"


def _pin(text: str) -> dict:
    return {"sha256": golden.digest(text), "lines": text.count("\n")}


def capture(app_name: str) -> dict:
    """What the golden stores for one app: digests of the serialised
    ledger, trace and metrics, plus the counts that say where to look
    when one of them moves."""
    cloud, tracer, executor = chaos_run(app_name)
    ledger = cloud.ledger
    metrics_text = json.dumps(cloud.metrics.snapshot(), sort_keys=True) + "\n"
    return {
        "ledger": _pin(_ledger_text(ledger)),
        "trace": _pin(tracer.to_jsonl()),
        "metrics": _pin(metrics_text),
        "kv_accesses": len(ledger.kv_accesses),
        "kv_reads": sum(not r.write for r in ledger.kv_accesses),
        "executions": len(ledger.executions),
        "events": cloud.env.events_executed,
        "final_time_s": cloud.now(),
        "injected": cloud.faults.snapshot(),
        "reliability": dataclasses.asdict(executor.reliability()),
    }


#: The series capture's sampling window: six virtual hours, sixteen
#: windows over the four days.
SERIES_WINDOW_S = 6 * 3600.0


def series_plan() -> FaultPlan:
    """:func:`chaos_plan` plus half a day of partition between two
    regions before the outage, and half a day of 50 % invocation
    failures on the last day, so deliveries exhaust their retries."""
    return (
        chaos_plan()
        .with_network_partition("us-east-1", "us-west-1", start_s=0.5 * DAY, end_s=DAY)
        .with_invocation_failures(0.5, start_s=3 * DAY, end_s=3.5 * DAY)
    )


def capture_series(app_name: str) -> dict:
    """The windowed series of the chaos scenario under :func:`series_plan`,
    one compact JSON line per point, sampled over the traffic: retries, dead letters, partition refusals and fault aborts land
    in sampled windows beside every per-operation family.  Pinned in
    ``golden/chaos_series.json``, captured before the per-operation
    families were folded from the ledger; every point must stay
    byte-equal."""
    cloud = SimulatedCloud(seed=3, regions=REGIONS, fault_plan=series_plan())
    sampler = WindowedSampler(cloud.metrics, window_s=SERIES_WINDOW_S)
    serve(cloud, app_name, sampler)
    return {
        "injected": cloud.faults.snapshot(),
        "windows": sampler.windows_flushed,
        "points": [
            json.dumps(point, sort_keys=True, separators=(",", ":"))
            for point in sampler.points
        ],
    }

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

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.manager import DeploymentManager
from repro.core.migrator import DeploymentMigrator
from repro.core.temporal import TemporalPolicy, TemporalShifter
from repro.core.lifecycle import deploy_benchmark, warm_up
from repro.metrics.carbon import TransmissionScenario
from repro.model.plan import DeploymentPlan, HourlyPlanSet
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


def chaos_run(app_name: str, seed: int = 3):
    """Returns ``(cloud, tracer, executor)`` after the scenario ran."""
    chaos = test_faults.TestChaosRegression()
    tracer = Tracer()
    cloud = SimulatedCloud(
        seed=seed,
        regions=REGIONS,
        fault_plan=chaos._chaos_plan().with_kv_errors(0.02),  # noqa: SLF001
        tracer=tracer,
    )
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
    return cloud, tracer, executor


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

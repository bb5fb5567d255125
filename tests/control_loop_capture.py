"""The hourly control loop pinned in ``golden/control_loop.json``.

A :class:`ServiceEngine` fleet of three apps is onboarded to
``MONITORING`` at seed 5, then serves 13 virtual hours of diurnal
open-loop traffic while every :class:`DeploymentManager` checks once an
hour.  The traffic is sized so that each of the ledger's four record
lists holds at least eight 512-record chunks before the last checks,
so those checks' one-hour windows sit deep inside a long history.

For every check of every workflow the golden holds:

* every :class:`CheckReport` field;
* the bucket's ``tokens_g`` after the check and the realised saving the
  check earned from (``_realized_savings``' return value);
* the manager's ``metrics.version`` after the check;
* the digest of each hour's plan in the plan set the check solved.

The golden was captured before the ledger grew an index behind
``group`` and before the Metrics Manager learned its distributions in
one pass; every value must stay equal ever after.  ``python -m
tests.golden diff control_loop`` shows what a change moves (see
``tests/golden.py``).
"""

import dataclasses
import functools
from typing import Dict, List, Tuple

import numpy as np

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.trigger import TriggerSettings
from repro.data.workload import OpenLoopInjector, WorkloadSpec, generate_trace
from repro.service import MONITORING, MemoryJobStore, ServiceEngine

APPS = ("dna_visualization", "image_processing", "text2speech_censoring")
SEED = 5
HOURS = 13
#: Per workflow, before the diurnal profile: plan-routed traffic, and
#: home-pinned traffic that gives the realised-savings query a baseline.
RATE_PER_S = 0.02
HOME_RATE_PER_S = 0.004
#: One check an hour, exactly.
TRIGGER = TriggerSettings(min_check_period_s=3600.0, max_check_period_s=3600.0)
KINDS = ("executions", "transmissions", "messages", "kv_accesses")


@dataclasses.dataclass
class FleetRun:
    engine: ServiceEngine
    cloud: SimulatedCloud
    #: workflow -> one row per check, in check order.
    checks: Dict[str, List[dict]]
    #: workflow -> the ``(since_s, until_s)`` window of each check's
    #: realised-savings query, in check order.
    windows: Dict[str, List[Tuple[float, float]]]


def _record(manager, rows: List[dict], windows: List[Tuple[float, float]]) -> None:
    """Wrap one manager's ``check`` (and the realised-savings query it
    makes) to append a row per check."""
    check, realized_savings = manager.check, manager._realized_savings
    realized: List[float] = []

    def recording_realized(since_s: float, until_s: float) -> float:
        windows.append((since_s, until_s))
        realized.append(realized_savings(since_s, until_s))
        return realized[-1]

    def recording_check():
        report = check()
        plan_set = manager.plan_history[-1][1] if report.solved else None
        rows.append({
            "report": dataclasses.asdict(report),
            "tokens_g": manager.bucket.tokens_g,
            "realized_g": realized[-1],
            "metrics_version": manager.metrics.version,
            "plan_digests": None if plan_set is None else [
                [hour, plan_set.plan_for_hour(hour).digest()]
                for hour in plan_set.hours
            ],
        })
        return report

    manager._realized_savings = recording_realized
    manager.check = recording_check


@functools.lru_cache(maxsize=1)
def fleet_run() -> FleetRun:
    """Onboard the fleet, then serve ``HOURS`` of traffic with hourly
    checks.  Cached: the golden and the differential tests read one run."""
    cloud = SimulatedCloud(seed=SEED)
    engine = ServiceEngine(cloud, MemoryJobStore(), trigger_settings=TRIGGER)
    checks: Dict[str, List[dict]] = {}
    windows: Dict[str, List[Tuple[float, float]]] = {}
    register = engine.fleet.register

    def recording_register(deployed, executor):
        manager = register(deployed, executor)
        _record(
            manager,
            checks.setdefault(deployed.name, []),
            windows.setdefault(deployed.name, []),
        )
        return manager

    engine.fleet.register = recording_register
    for name in APPS:
        engine.submit(name, "small")
    engine.run(max_steps=4 * len(APPS))
    assert [job.state for job in engine.jobs()] == [MONITORING] * len(APPS)

    start_s = cloud.now()
    for k, job in enumerate(engine.jobs()):
        app = get_app(job.app)
        for j, (rate, force_home) in enumerate(
            ((RATE_PER_S, False), (HOME_RATE_PER_S, True))
        ):
            spec = WorkloadSpec(
                base_rate_per_s=rate,
                duration_s=HOURS * 3600.0,
                profile="diurnal",
                start_s=start_s,
            )
            OpenLoopInjector(
                engine.fleet._entries[job.job_id].executor,
                generate_trace(spec, np.random.default_rng([SEED, k, j])),
                payload_factory=lambda i, app=app: app.make_input("small"),
                force_home=force_home,
            ).start()
    cloud.env.run(until=start_s + HOURS * 3600.0)
    for name in checks:  # unwrap: later queries are not checks
        manager = engine.fleet.manager_for(name)
        del manager.check, manager._realized_savings
    return FleetRun(engine, cloud, checks, windows)


def capture() -> dict:
    run = fleet_run()
    return {
        "checks": run.checks,
        "ledger_lengths": {
            kind: len(getattr(run.cloud.ledger, kind)) for kind in KINDS
        },
    }

"""The deploy -> warm-up -> solve -> migrate lifecycle pinned in
``golden/lifecycle.json``.

Three callers take a workflow from deployment to a live plan, and each
is pinned here for ``text2speech_censoring`` and ``video_analytics`` at
seed 3:

* ``caribou solve --solver hbss|coarse|exact``: the printed plan set
  and ``solver stats:`` line, byte for byte;
* ``caribou fleet-report --json``: a fleet warmed up and checked once;
* one :class:`ServiceEngine` job driven to ``MONITORING``: its persisted
  ``plan_set`` artifact and the engine's :class:`SolverStats`;
* three :meth:`DeploymentManager.check` calls with ``use_forecast`` on
  and three with it off, traffic in between: every plan set, every
  :class:`CheckReport` field and the manager's :class:`SolverStats`
  after each check.

The golden was captured before the lifecycle steps moved into
``repro.core``; every value must stay equal ever after.  ``python -m
tests.golden diff lifecycle`` shows what a change moves (see
``tests/golden.py``).
"""

import contextlib
import dataclasses
import io

from repro.apps import get_app
from repro.cli import main
from repro.cloud.provider import SimulatedCloud
from repro.core.lifecycle import deploy_benchmark, warm_up
from repro.core.manager import DeploymentManager
from repro.core.solver import SolverSettings
from repro.metrics.carbon import TransmissionScenario
from repro.service import MONITORING, MemoryJobStore, ServiceEngine

APPS = ("text2speech_censoring", "video_analytics")
SOLVERS = ("hbss", "coarse", "exact")
SEED = 3
#: The service loop's cheap fidelity: the checks pin wiring, not quality.
CHECK_SETTINGS = SolverSettings(batch_size=30, max_samples=60, cov_threshold=0.2)
CHECKS = 3
#: Virtual time between checks: the third check lands on a new day, so
#: the forecast manager refits once more.
CHECK_GAP_S = 12 * 3600.0
REQUESTS_PER_GAP = 4


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--seed", str(SEED)])
    assert code == 0
    return out.getvalue()


def engine_job(app_name: str) -> dict:
    cloud = SimulatedCloud(seed=SEED)
    engine = ServiceEngine(cloud, MemoryJobStore())
    record = engine.submit(app_name)
    engine.run(max_steps=10)
    final = engine.job(record.job_id)
    assert final.state == MONITORING, final.state
    return {
        "plan_set": final.artifacts["plan_set"],
        "solver_stats": dataclasses.asdict(engine.solver_stats),
    }


def manager_checks(app_name: str, use_forecast: bool) -> list:
    """Three checks of one manager; 24-hour solves with forecasts on,
    six-plan solves (the hour-subset and warm-start path) with them off."""
    cloud = SimulatedCloud(seed=SEED)
    app = get_app(app_name)
    deployed, executor, utility = deploy_benchmark(app, cloud)
    warm_up(executor, app, "small", n=6)
    manager = DeploymentManager(
        deployed,
        executor,
        utility,
        scenario=TransmissionScenario.best_case(),
        solver_settings=CHECK_SETTINGS,
        use_token_bucket=False,
        use_forecast=use_forecast,
        fixed_granularity=24 if use_forecast else 6,
    )
    checks = []
    for _ in range(CHECKS):
        report = manager.check()
        checks.append({
            "report": dataclasses.asdict(report),
            "plan_set": manager.plan_history[-1][1].to_dict(),
            "solver_stats": dataclasses.asdict(manager.solver_stats),
        })
        start = cloud.now()
        step = CHECK_GAP_S / REQUESTS_PER_GAP
        for i in range(REQUESTS_PER_GAP):
            cloud.env.schedule_at(
                start + (i + 0.5) * step,
                lambda p=app.make_input("small"): executor.invoke(p),
            )
        cloud.env.run(until=start + CHECK_GAP_S)
    return checks


def capture_case(name: str):
    """One golden entry, by ``kind:app[:variant]`` name."""
    kind, app_name, *variant = name.split(":")
    if kind == "solve":
        return cli_stdout("solve", app_name, "--solver", variant[0])
    if kind == "fleet":
        return cli_stdout("fleet-report", app_name, "--json")
    if kind == "engine":
        return engine_job(app_name)
    return manager_checks(app_name, use_forecast=variant[0] == "forecast")


CASES = (
    [f"solve:{app}:{solver}" for app in APPS for solver in SOLVERS]
    + [f"fleet:{app}" for app in APPS]
    + [f"engine:{app}" for app in APPS]
    + [f"manager:{app}:{mode}" for app in APPS for mode in ("forecast", "history")]
)

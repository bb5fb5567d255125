"""Request paths of the four engines pinned in ``golden/executor_paths.json``.

One wrapper protocol (route each successor, annotate its edge, invoke a
sync node when Eq. 4.1 first holds) drives four engines: Caribou's
proxy path (``invoke``), its direct-to-home path (``invoke_direct``),
the plain-SNS baseline and the Step Functions baseline.  Each case runs
one engine on one input in a fresh traced cloud and records

* the sha256 of every ledger record and of the trace JSONL;
* ``join_order`` and ``request_status`` per request;
* ``reliability()`` and the Step Functions ``transitions`` count.

Inputs: the five Table-1 apps at both sizes (Caribou routes a plan that
spreads the nodes over the four evaluation regions), text2speech's
profanity-free input (its conditional edge is skipped), random DAG
shapes with random conditional outcomes drawn once from
``test_executor_properties.dag_with_decisions`` with a fixed seed
(stored in the golden, so they are replayed, not redrawn), one request
that outlives ``request_timeout_s`` and a home-region outage whose
messages dead-letter.

The golden was captured before the executor and the baselines were
rebuilt over one route table and one join rule.  Regenerate (only for
a declared behaviour change) with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_executor_paths.py
"""

import dataclasses
import hashlib
import json
import pathlib

from hypothesis import Phase, given, seed, settings

from repro.apps import ALL_APPS, get_app
from repro.apps.text2speech import make_input as t2s_input
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.core.api import Payload, Workflow
from repro.core.baselines import SnsOrchestrator, StepFunctionsOrchestrator
from repro.core.deployer import DeploymentUtility
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.core.migrator import DeploymentMigrator
from repro.core.lifecycle import deploy_benchmark
from repro.model.config import WorkflowConfig
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.trace import Tracer
from tests.chaos_capture import _ledger_text
from tests.test_executor_properties import dag_with_decisions

GOLDEN = pathlib.Path(__file__).parent / "golden" / "executor_paths.json"
ENGINES = ("invoke", "invoke_direct", "sns", "stepfunctions")
REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")
HOME = "us-east-1"
SEED = 7
N_REQUESTS = 3
#: Requests overlap: their annotation items and watchdogs interleave.
REQUEST_SPACING_S = 0.5
N_SHAPES = 24


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- shapes -------------------------------------------------------------------
def draw_shapes(n: int = N_SHAPES) -> list:
    """``n`` distinct shapes from ``dag_with_decisions``, deterministic
    for a fixed seed, as JSON-ready dicts."""
    drawn: list = []

    @seed(20241017)
    @settings(max_examples=200, database=None, phases=[Phase.generate],
              deadline=None)
    @given(dag_with_decisions())
    def collect(case):
        dag, decisions = case
        shape = {
            "nodes": list(dag.node_names),
            "edges": [[e.src, e.dst, e.conditional] for e in dag.edges],
            "decisions": sorted(
                [src, dst, taken] for (src, dst), taken in decisions.items()
            ),
        }
        if shape not in drawn and len(dag) >= 3:
            drawn.append(shape)

    collect()
    return drawn[:n]


def shape_dag(shape: dict):
    dag = WorkflowDAG("prop")
    for name in shape["nodes"]:
        dag.add_node(Node(name, name))
    for src, dst, conditional in shape["edges"]:
        dag.add_edge(Edge(src, dst, conditional=conditional))
    dag.validate()
    decisions = {(src, dst): taken for src, dst, taken in shape["decisions"]}
    return dag, decisions


def _deploy_shape(cloud: SimulatedCloud, shape: dict):
    """The shape as a deployed workflow with table-driven handlers (the
    DAG is authoritative; no static analysis)."""
    dag, decisions = shape_dag(shape)
    workflow = Workflow(dag.name)

    def make_handler(node_name: str):
        def handler(event):
            if dag.is_sync_node(node_name):
                workflow.get_predecessor_data()
            for edge in dag.out_edges(node_name):
                workflow.invoke_serverless_function(
                    Payload(content=node_name, size_bytes=2048.0),
                    edge.dst,
                    decisions.get((edge.src, edge.dst), True),
                )
        return handler

    for node in dag.nodes:
        workflow.serverless_function(
            name=node.name, entry_point=(node.name == dag.start_node)
        )(make_handler(node.name))
    config = WorkflowConfig(home_region=HOME, benchmarking_fraction=0.0)
    deployed = DeployedWorkflow(
        workflow=workflow, dag=dag, config=config, cloud=cloud, kv_region=HOME
    )
    executor = CaribouExecutor(deployed)
    utility = DeploymentUtility(cloud)
    for spec in workflow.functions:
        cloud.registry.push(HOME, f"{dag.name}/{spec.name}", "0.1", 1e6)
        utility.deploy_function(deployed, executor, spec, HOME)
    cloud.run_until_idle()
    return deployed, executor


# -- one run ------------------------------------------------------------------
def _spread_plan(deployed, executor, utility) -> None:
    plan = DeploymentPlan(
        {name: REGIONS[i % len(REGIONS)]
         for i, name in enumerate(deployed.dag.node_names)}
    )
    report = DeploymentMigrator(utility, deployed, executor).migrate(
        HourlyPlanSet.daily(plan, created_at_s=deployed.cloud.now())
    )
    assert report.activated, report.error


def _submit(engine: str, deployed, executor):
    if engine == "invoke":
        return executor.invoke, executor
    if engine == "invoke_direct":
        return executor.invoke_direct, executor
    if engine == "sns":
        sns = SnsOrchestrator(deployed)
        sns.setup()
        return sns.invoke, sns
    sf = StepFunctionsOrchestrator(deployed)
    return sf.invoke, None


def _run(cloud, tracer, deployed, executor, engine, payloads) -> dict:
    submit, tracked = _submit(engine, deployed, executor)
    rids: list = []
    start = cloud.now()
    for i, payload in enumerate(payloads):
        cloud.env.schedule_at(
            start + i * REQUEST_SPACING_S,
            lambda p=payload: rids.append(submit(p)),
        )
    cloud.run_until_idle()
    out = {
        "ledger": _sha(_ledger_text(cloud.ledger)),
        "trace": _sha(tracer.to_jsonl()),
        "final_time_s": cloud.now(),
        "events": cloud.env.events_executed,
        "transitions": cloud.stepfunctions(HOME).transitions,
        "regions": sorted({r.region for r in cloud.ledger.executions}),
    }
    if tracked is not None:
        out["join_order"] = {r: [list(a) for a in tracked.join_order(r)] for r in rids}
        out["request_status"] = {r: tracked.request_status(r) for r in rids}
        out["reliability"] = dataclasses.asdict(tracked.reliability())
    return out


def app_case(app_name: str, size: str, engine: str, with_profanity=True) -> dict:
    tracer = Tracer()
    cloud = SimulatedCloud(seed=SEED, regions=REGIONS, tracer=tracer)
    app = get_app(app_name)
    deployed, executor, utility = deploy_benchmark(app, cloud)
    if engine in ("invoke", "invoke_direct"):
        _spread_plan(deployed, executor, utility)
    if with_profanity:
        payloads = [app.make_input(size) for _ in range(N_REQUESTS)]
    else:
        payloads = [t2s_input(size, with_profanity=False) for _ in range(N_REQUESTS)]
    return _run(cloud, tracer, deployed, executor, engine, payloads)


def shape_case(shape: dict, engine: str) -> dict:
    tracer = Tracer()
    cloud = SimulatedCloud(seed=SEED, regions=(HOME,), tracer=tracer)
    deployed, executor = _deploy_shape(cloud, shape)
    payloads = [Payload(content=f"r{i}") for i in range(N_REQUESTS)]
    return _run(cloud, tracer, deployed, executor, engine, payloads)


def timeout_case(engine: str) -> dict:
    """A cold-start spike outlives the 60 s watchdog."""
    tracer = Tracer()
    cloud = SimulatedCloud(
        seed=SEED, regions=REGIONS, tracer=tracer,
        fault_plan=FaultPlan().with_cold_start_spike(1e9),
    )
    app = get_app("text2speech_censoring")
    config = WorkflowConfig(
        home_region=HOME, benchmarking_fraction=0.0, request_timeout_s=60.0
    )
    deployed, executor, _ = deploy_benchmark(app, cloud, config=config)
    return _run(cloud, tracer, deployed, executor, engine,
                [app.make_input("small")])


def outage_case(engine: str) -> dict:
    """The home region goes down after deployment: every request's
    first message dead-letters and the request fails."""
    tracer = Tracer()
    cloud = SimulatedCloud(
        seed=SEED, regions=REGIONS, tracer=tracer,
        fault_plan=FaultPlan().with_region_outage(HOME, start_s=10_000.0),
    )
    app = get_app("image_processing")
    deployed, executor, _ = deploy_benchmark(app, cloud)
    cloud.env.schedule_at(10_001.0, lambda: None)
    cloud.run_until_idle()
    return _run(cloud, tracer, deployed, executor, engine,
                [app.make_input("small") for _ in range(N_REQUESTS)])


# -- the golden -----------------------------------------------------------------
def case_names(shapes: list) -> list:
    names = [
        f"app/{app}/{size}/{engine}"
        for app in sorted(ALL_APPS)
        for size in ("small", "large")
        for engine in ENGINES
    ]
    names += [f"clean/text2speech_censoring/small/{e}" for e in ENGINES]
    names += [f"shape/{i:02d}/{e}" for i in range(len(shapes)) for e in ENGINES]
    names += [f"timeout/{e}" for e in ("invoke", "invoke_direct")]
    names += [f"outage/{e}" for e in ("invoke", "invoke_direct")]
    return names


def capture_case(name: str, shapes: list) -> dict:
    kind, *rest = name.split("/")
    if kind == "app":
        app, size, engine = rest
        return app_case(app, size, engine)
    if kind == "clean":
        app, size, engine = rest
        return app_case(app, size, engine, with_profanity=False)
    if kind == "shape":
        index, engine = rest
        return shape_case(shapes[int(index)], engine)
    if kind == "timeout":
        return timeout_case(rest[0])
    return outage_case(rest[0])


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def capture_all(shapes=None) -> dict:
    shapes = shapes if shapes is not None else draw_shapes()
    return {
        "shapes": shapes,
        "cases": {name: capture_case(name, shapes) for name in case_names(shapes)},
    }


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(capture_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

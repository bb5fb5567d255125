"""Workflow front-end output pinned in ``golden/front_end.json``.

Both ways of declaring a workflow — Listing-1 handlers recovered by
static analysis, and the ``@task`` / ``workflow(...)`` builder — must
lower to the same DAG facts ever after:

* for the five apps' ``analyze_workflow`` DAGs and for six builder
  shapes (chain, diamond, branch after branch, fan-in then fan-out,
  wide, region-constrained): node tuples, the sorted edge set with
  ``conditional``, per-node in/out edge order, sync and start nodes,
  topological order and ``subgraph_signature``;
* for each builder shape's ``Workflow``: every function's name, memory,
  work profile, constraints, entry-point flag and instance count;
* the builder diamond driven through ``ServiceEngine`` (seed 9) to
  MONITORING: the job's ``nodes`` and ``plan_set`` artifacts and the
  sha256 of every ledger record.

The global ``dag.edges`` order is deliberately not pinned: only a
frozenset and the conditional-edge enumeration read it, and it is the
one fact in which the two lowerings differ (branch after branch).  The
golden was captured while the builder still built its own DAG (``lower``
then read ``build().workflow`` and ``build().dag``), before it started
lowering through ``analyze_workflow``.  ``python -m tests.golden diff
front_end`` shows what a change moves (see ``tests/golden.py``).

:func:`dag_structure` (``golden/dag_structure.json``) pins every
structure query of the same DAGs: node order, each node's in- and
out-edge keys in order, topological order, start and sync nodes,
guaranteed nodes, each node's descendants and ``subgraph_signature``.
It was captured while ``WorkflowDAG`` still sat on networkx, so the
stdlib core that replaced it answers every query as networkx did.
"""

import dataclasses
import json

from repro.apps import ALL_APPS, get_app
from repro.cloud.functions import WorkProfile
from repro.cloud.provider import SimulatedCloud
from repro.core.analysis import analyze_workflow
from repro.core.api import Payload
from repro.service import MONITORING, MemoryJobStore, ServiceEngine, task, workflow
from tests import golden

LEDGER_KINDS = ("executions", "transmissions", "messages", "kv_accesses")


@task(memory_mb=512, profile=WorkProfile(base_seconds=0.8, seconds_per_mb=0.05))
def source(event):
    return event


@task()
def step_a(payload):
    return payload


@task(memory_mb=3008)
def step_b(payload):
    return payload


@task(profile=WorkProfile(base_seconds=1.2, cpu_utilization=0.9))
def step_c(payload):
    return payload


@task()
def gather(payloads):
    return Payload(content=payloads, size_bytes=4096.0)


@task()
def gather_too(payloads):
    return payloads


@task()
def step_d(payload):
    return payload


@task()
def step_e(payload):
    return payload


@task(allowed_regions=["us-east-1", "us-west-1"])
def pinned(event):
    return event


@task(disallowed_regions=["ca-central-1"])
def excluded(payload):
    return payload


@task(name="both_rules", allowed_regions=["us-west-2", "us-east-1"],
      disallowed_regions=["us-west-2"])
def constrained(payload):
    return payload


def _wide_tasks():
    def make(i):
        @task(name=f"shard_{i}", memory_mb=1024 + 128 * i)
        def shard(payload):
            return payload

        return shard

    return [make(i) for i in range(6)]


def shapes() -> dict:
    """Builder declarations, by shape name."""
    return {
        "chain": workflow("chain").then(source).then(step_a).then(step_b),
        "diamond": workflow("diamond").then(source).branch(step_a, step_b).join(gather),
        "branch_after_branch": (
            workflow("bab").then(source).branch(step_a, step_b).branch(gather, gather_too)
        ),
        "fan_in_fan_out": (
            workflow("fifo", version="2.0")
            .then(source).branch(step_a, step_b, step_c).then(gather).branch(step_d, step_e)
        ),
        "wide": workflow("wide").then(source).branch(*_wide_tasks()).join(gather),
        "constrained": workflow("pinned-wf").then(pinned).then(excluded).then(constrained),
    }


def lower(builder):
    """The builder's ``Workflow`` and its ``WorkflowDAG``."""
    wf = builder.build()
    return wf, analyze_workflow(wf)


def dag_facts(dag) -> dict:
    return {
        "name": dag.name,
        "nodes": [[n.name, n.function, n.memory_mb] for n in dag.nodes],
        "edges": sorted([e.src, e.dst, e.conditional] for e in dag.edges),
        "in_edges": {n: [e.key for e in dag.in_edges(n)] for n in dag.node_names},
        "out_edges": {n: [e.key for e in dag.out_edges(n)] for n in dag.node_names},
        "sync_nodes": list(dag.sync_nodes),
        "start_node": dag.start_node,
        "topological_order": dag.topological_order(),
        "subgraph_signature": dag.subgraph_signature(),
    }


def dag_structure_facts(dag) -> dict:
    return {
        "nodes": list(dag.node_names),
        "in_edges": {n: [e.key for e in dag.in_edges(n)] for n in dag.node_names},
        "out_edges": {n: [e.key for e in dag.out_edges(n)] for n in dag.node_names},
        "topological_order": dag.topological_order(),
        "start_node": dag.start_node,
        "sync_nodes": list(dag.sync_nodes),
        "guaranteed_nodes": sorted(dag.guaranteed_nodes()),
        "descendants": {n: sorted(dag.descendants(n)) for n in dag.node_names},
        "subgraph_signature": dag.subgraph_signature(),
    }


def dag_structure() -> dict:
    """Every structure query of the five apps' and the builder shapes' DAGs."""
    apps = {
        name: dag_structure_facts(analyze_workflow(get_app(name).build_workflow()))
        for name in sorted(ALL_APPS)
    }
    builder = {name: dag_structure_facts(lower(declared)[1])
               for name, declared in shapes().items()}
    return {"apps": apps, "builder": builder}


def _constraints(c):
    if c is None:
        return None
    allowed = None if c.allowed_regions is None else sorted(c.allowed_regions)
    return [allowed, sorted(c.disallowed_regions)]


def workflow_facts(wf) -> dict:
    return {
        "name": wf.name,
        "version": wf.version,
        "entry": wf.entry_function.name,
        "functions": [
            [
                spec.name,
                spec.memory_mb,
                list(dataclasses.astuple(spec.profile)),
                _constraints(spec.constraints),
                spec.entry_point,
                spec.max_instances,
            ]
            for spec in wf.functions
        ],
    }


def engine_run() -> dict:
    """The builder diamond through the service pipeline, seed 9."""
    cloud = SimulatedCloud(seed=9)
    engine = ServiceEngine(cloud, MemoryJobStore())
    engine.register_workflow(shapes()["diamond"])
    record = engine.submit("diamond")
    engine.run(max_steps=10)
    final = engine.job(record.job_id)
    assert final.state == MONITORING, final.state
    records = [
        [kind, [list(dataclasses.astuple(r)) for r in getattr(cloud.ledger, kind)]]
        for kind in LEDGER_KINDS
    ]
    text = json.dumps(records, separators=(",", ":"))
    return {
        "job_id": final.job_id,
        "nodes": final.artifacts["nodes"],
        "plan_set": final.artifacts["plan_set"],
        "ledger_records": sum(len(kinds) for _kind, kinds in records),
        "ledger_sha256": golden.digest(text),
    }


def capture() -> dict:
    """Everything the golden stores."""
    apps = {
        name: dag_facts(analyze_workflow(get_app(name).build_workflow()))
        for name in sorted(ALL_APPS)
    }
    builder = {}
    for name, declared in shapes().items():
        wf, dag = lower(declared)
        builder[name] = {"dag": dag_facts(dag), "workflow": workflow_facts(wf)}
    return {"apps": apps, "builder": builder, "engine": engine_run()}

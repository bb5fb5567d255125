"""Property-based tests of the execution runtime's core invariant.

For *any* valid workflow DAG and *any* assignment of conditional-edge
outcomes, running through the Caribou executor must execute exactly the
semantic closure of the DAG — a node runs iff at least one incoming
edge is taken from a node that ran — with every sync node either firing
exactly once (Eq. 4.1) or (when all its in-edges die) never, and no
message ever dead-lettering.  This covers the §4 conditional-DAG and
synchronisation semantics against shapes no hand-written test would
think of.
"""

from typing import Dict, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import SimulatedCloud
from repro.core.api import Payload, Workflow
from repro.core.deployer import DeploymentUtility
from repro.core.executor import CaribouExecutor, DeployedWorkflow
from repro.model.config import WorkflowConfig
from repro.model.dag import Edge, Node, WorkflowDAG


@st.composite
def dag_with_decisions(draw):
    """A random valid DAG plus outcomes for its conditional edges."""
    n = draw(st.integers(min_value=2, max_value=7))
    names = [f"n{i}" for i in range(n)]
    dag = WorkflowDAG("prop")
    for name in names:
        dag.add_node(Node(name, name))
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        dag.add_edge(Edge(names[j], names[i],
                          conditional=draw(st.booleans())))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        if not dag.has_edge(names[a], names[b]):
            dag.add_edge(Edge(names[a], names[b],
                              conditional=draw(st.booleans())))
    dag.validate()
    decisions = {
        (e.src, e.dst): draw(st.booleans())
        for e in dag.edges if e.conditional
    }
    return dag, decisions


def expected_executed(dag: WorkflowDAG, decisions: Dict[Tuple[str, str], bool]):
    """The semantic closure the runtime must reproduce."""
    executed = {dag.start_node}
    for node in dag.topological_order():
        if node == dag.start_node:
            continue
        for edge in dag.in_edges(node):
            taken = decisions.get((edge.src, edge.dst), True)
            if edge.src in executed and taken:
                executed.add(node)
                break
    return executed


def build_runtime(dag: WorkflowDAG, decisions, seed: int):
    """Materialise the DAG as a deployed workflow with table-driven
    handlers (bypassing static analysis — the DAG is authoritative)."""
    cloud = SimulatedCloud(seed=seed, regions=("us-east-1",))
    workflow = Workflow(dag.name)

    def make_handler(node_name: str):
        def handler(event):
            if dag.is_sync_node(node_name):
                workflow.get_predecessor_data()
            for edge in dag.out_edges(node_name):
                taken = decisions.get((edge.src, edge.dst), True)
                workflow.invoke_serverless_function(
                    Payload(content=node_name, size_bytes=2048.0),
                    edge.dst,
                    taken,
                )
        return handler

    start = dag.start_node
    for node in dag.nodes:
        workflow.serverless_function(
            name=node.name, entry_point=(node.name == start)
        )(make_handler(node.name))

    config = WorkflowConfig(home_region="us-east-1", benchmarking_fraction=0.0)
    deployed = DeployedWorkflow(
        workflow=workflow, dag=dag, config=config, cloud=cloud,
    )
    executor = CaribouExecutor(deployed)
    utility = DeploymentUtility(cloud)
    for spec in workflow.functions:
        cloud.registry.push("us-east-1", f"{dag.name}/{spec.name}", "0.1", 1e6)
        utility.deploy_function(deployed, executor, spec, "us-east-1")
    return cloud, deployed, executor


class TestExecutionClosureProperty:
    @given(dag_with_decisions())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_executed_set_matches_semantic_closure(self, case):
        dag, decisions = case
        cloud, deployed, executor = build_runtime(dag, decisions, seed=1)
        rid = executor.invoke(Payload(content="go"), force_home=True)
        cloud.run_until_idle()

        ran = {e.node for e in cloud.ledger.executions_for(dag.name, rid)}
        assert ran == expected_executed(dag, decisions)
        assert not cloud.pubsub.dead_letters

    @given(dag_with_decisions())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_node_runs_at_most_once(self, case):
        dag, decisions = case
        cloud, deployed, executor = build_runtime(dag, decisions, seed=2)
        rid = executor.invoke(Payload(content="go"), force_home=True)
        cloud.run_until_idle()
        nodes = [e.node for e in cloud.ledger.executions_for(dag.name, rid)]
        assert len(nodes) == len(set(nodes))

    @given(dag_with_decisions(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_concurrent_requests_isolated(self, case, n_requests):
        dag, decisions = case
        cloud, deployed, executor = build_runtime(dag, decisions, seed=3)
        rids = [
            executor.invoke(Payload(content=f"r{i}"), force_home=True)
            for i in range(n_requests)
        ]
        cloud.run_until_idle()
        expected = expected_executed(dag, decisions)
        for rid in rids:
            ran = {e.node for e in cloud.ledger.executions_for(dag.name, rid)}
            assert ran == expected

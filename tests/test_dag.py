"""Tests for the workflow DAG model (§4)."""

import pytest

from repro.common.errors import WorkflowDefinitionError
from repro.model.dag import Edge, Node, WorkflowDAG


def build(nodes, edges, name="wf"):
    dag = WorkflowDAG(name)
    for n in nodes:
        dag.add_node(Node(name=n, function=n))
    for e in edges:
        dag.add_edge(Edge(*e) if len(e) == 2 else Edge(e[0], e[1], conditional=e[2]))
    return dag


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            WorkflowDAG("")

    def test_duplicate_node_rejected(self):
        dag = WorkflowDAG("wf")
        dag.add_node(Node("a", "a"))
        with pytest.raises(WorkflowDefinitionError, match="duplicate"):
            dag.add_node(Node("a", "a"))

    def test_edge_to_unknown_node_rejected(self):
        dag = WorkflowDAG("wf")
        dag.add_node(Node("a", "a"))
        with pytest.raises(WorkflowDefinitionError, match="unknown"):
            dag.add_edge(Edge("a", "ghost"))

    def test_self_loop_rejected(self):
        dag = build(["a"], [])
        with pytest.raises(WorkflowDefinitionError, match="self-loop"):
            dag.add_edge(Edge("a", "a"))

    def test_duplicate_edge_rejected(self):
        dag = build(["a", "b"], [("a", "b")])
        with pytest.raises(WorkflowDefinitionError, match="duplicate"):
            dag.add_edge(Edge("a", "b"))

    def test_invalid_node_memory(self):
        with pytest.raises(WorkflowDefinitionError):
            Node("a", "a", memory_mb=0)


class TestValidation:
    def test_cycle_detected(self):
        dag = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")])
        with pytest.raises(WorkflowDefinitionError, match="cycle"):
            dag.validate()

    def test_exactly_one_start_node(self):
        dag = build(["a", "b", "c"], [("a", "c"), ("b", "c")])
        with pytest.raises(WorkflowDefinitionError, match="start node"):
            dag.validate()

    def test_empty_dag_invalid(self):
        with pytest.raises(WorkflowDefinitionError, match="no nodes"):
            WorkflowDAG("wf").validate()

    def test_disconnected_node_rejected_as_extra_start(self):
        # A disconnected node is an extra in-degree-0 root: rejected by
        # the single-start rule (which subsumes reachability in a DAG).
        dag = build(["a", "b", "c"], [("a", "b")])
        with pytest.raises(WorkflowDefinitionError, match="start node"):
            dag.validate()

    def test_valid_diamond(self, diamond_dag):
        assert diamond_dag.start_node == "a"


class TestQueries:
    def test_sync_node_detection(self, diamond_dag):
        assert diamond_dag.sync_nodes == ("d",)
        assert diamond_dag.is_sync_node("d")
        assert not diamond_dag.is_sync_node("b")

    def test_terminal_nodes(self, diamond_dag):
        assert diamond_dag.terminal_nodes == ("d",)

    def test_in_out_edges(self, diamond_dag):
        assert {e.src for e in diamond_dag.in_edges("d")} == {"b", "c"}
        assert {e.dst for e in diamond_dag.out_edges("a")} == {"b", "c"}

    def test_conditional_flag(self, diamond_dag):
        assert diamond_dag.edge("a", "c").conditional
        assert not diamond_dag.edge("a", "b").conditional
        assert diamond_dag.has_conditional_edges

    def test_topological_order(self, diamond_dag):
        order = diamond_dag.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_topological_order_deterministic(self, diamond_dag):
        assert diamond_dag.topological_order() == diamond_dag.topological_order()

    def test_descendants(self, diamond_dag):
        assert diamond_dag.descendants("a") == {"b", "c", "d"}
        assert diamond_dag.descendants("d") == frozenset()

    def test_paths_between(self, diamond_dag):
        paths = diamond_dag.paths_between("a", "d")
        assert sorted(paths) == [["a", "b", "d"], ["a", "c", "d"]]

    def test_downstream_sync_nodes(self, diamond_dag):
        assert diamond_dag.downstream_sync_nodes("b") == ("d",)
        assert diamond_dag.downstream_sync_nodes("d") == ()

    def test_unknown_node_query(self, diamond_dag):
        with pytest.raises(KeyError):
            diamond_dag.node("ghost")
        with pytest.raises(KeyError):
            diamond_dag.edge("a", "ghost")

    def test_critical_path(self, diamond_dag):
        weights = {"a": 1.0, "b": 5.0, "c": 1.0, "d": 1.0}
        path, length = diamond_dag.critical_path(weights)
        assert path == ["a", "b", "d"]
        assert length == pytest.approx(7.0)

    def test_signature_stable_and_distinct(self, diamond_dag, chain_dag):
        assert diamond_dag.subgraph_signature() == diamond_dag.subgraph_signature()
        assert diamond_dag.subgraph_signature() != chain_dag.subgraph_signature()

    def test_len(self, diamond_dag):
        assert len(diamond_dag) == 4


class TestGuaranteedNodes:
    """The one guaranteed-execution analysis, shared by the lower-bound
    tables (what may enter a bound) and the Monte-Carlo kernel (what
    needs no mask)."""

    def test_diamond(self, diamond_dag):
        # a -> b is unconditional, a -> c conditional; d joins both.
        assert diamond_dag.guaranteed_nodes() == {"a", "b", "d"}
        # c -> d is unconditional but not *always active*: its source
        # may not run.
        edge = diamond_dag.edge("c", "d")
        assert not edge.conditional
        assert edge.src not in diamond_dag.guaranteed_nodes()

    def test_chain_is_all_guaranteed(self, chain_dag):
        assert chain_dag.guaranteed_nodes() == {"a", "b", "c"}

    def test_everything_behind_a_conditional_edge_is_not(self):
        dag = build("abcd", [("a", "b", True), ("b", "c"), ("a", "d")])
        assert dag.guaranteed_nodes() == {"a", "d"}

    @pytest.mark.parametrize(
        "app_name",
        ["dna_visualization", "image_processing", "rag_ingestion",
         "text2speech_censoring", "video_analytics"],
    )
    def test_every_node_of_the_table1_apps(self, app_name):
        from repro.apps import ALL_APPS
        from repro.core.analysis import analyze_workflow

        dag = analyze_workflow(ALL_APPS[app_name].build_workflow())
        # Text2Speech's one conditional edge (profanity_detection ->
        # censoring) does not matter: censoring is also reached
        # unconditionally via conversion.  Only that edge keeps its mask.
        assert dag.guaranteed_nodes() == set(dag.node_names)
        conditional = [e.key for e in dag.edges if e.conditional]
        assert conditional == (
            ["profanity_detection->censoring"]
            if app_name == "text2speech_censoring" else []
        )

    def test_cached_and_dropped_on_mutation(self):
        dag = build("ab", [("a", "b", True)])
        first = dag.guaranteed_nodes()
        assert first == {"a"}
        assert dag.guaranteed_nodes() is first
        dag.add_node(Node(name="c", function="c"))
        dag.add_edge(Edge("a", "c"))
        assert dag.guaranteed_nodes() == {"a", "c"}

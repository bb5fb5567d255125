"""Tests for the workflow DAG model (§4)."""

import ast

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkflowDefinitionError
from repro.model.dag import Edge, Node, WorkflowDAG
from tests import front_end_capture, golden


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

    def test_unknown_node_query(self, diamond_dag):
        with pytest.raises(KeyError):
            diamond_dag.node("ghost")
        with pytest.raises(KeyError):
            diamond_dag.edge("a", "ghost")

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


def cycle_named(error: WorkflowDefinitionError) -> list:
    """The ``(src, dst)`` edges a "contains a cycle" error names."""
    return ast.literal_eval(str(error).split("contains a cycle: ", 1)[1])


def assert_is_cycle(dag: WorkflowDAG, edges: list) -> None:
    assert edges and all(dag.has_edge(u, v) for u, v in edges)
    assert [v for _u, v in edges] == [u for u, _v in edges[1:] + edges[:1]]
    assert len({u for u, _v in edges}) == len(edges)


@st.composite
def graphs(draw):
    """``(names, edges)`` in insertion order: a random DAG over names
    whose lexical order is not their rank, sometimes given one start
    node, and sometimes with back edges that close cycles."""
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=2),
                          min_size=1, max_size=9, unique=True))
    rank = draw(st.permutations(names))
    pairs = [(rank[i], rank[j]) for i in range(len(rank)) for j in range(i + 1, len(rank))]
    edges = [p for p in pairs if draw(st.booleans())]
    if draw(st.booleans()):  # one start node: the first rank feeds every other root
        heads = {v for _u, v in edges}
        edges += [(rank[0], v) for v in rank[1:] if v not in heads]
    if len(rank) > 1 and draw(st.booleans()):
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs),
                                                   min_size=1, max_size=3, unique=True))]
    return draw(st.permutations(names)), draw(st.permutations(edges))


def build_both(names, edges):
    dag, oracle = build(names, edges), nx.DiGraph()
    oracle.add_nodes_from(names)
    oracle.add_edges_from(edges)
    return dag, oracle


class TestNetworkxDifferential:
    """The stdlib core answers every structure query as the networkx
    graph it replaced does (networkx is the oracle, not a dependency)."""

    @settings(max_examples=400)
    @given(graphs())
    def test_queries_match_networkx(self, graph):
        dag, oracle = build_both(*graph)
        for n in dag.node_names:
            assert [e.key for e in dag.in_edges(n)] == [f"{u}->{v}" for u, v in oracle.in_edges(n)]
            assert [e.key for e in dag.out_edges(n)] == [
                f"{u}->{v}" for u, v in oracle.out_edges(n)]
            assert dag.descendants(n) == nx.descendants(oracle, n)
        starts = [n for n in oracle if oracle.in_degree(n) == 0]
        if not nx.is_directed_acyclic_graph(oracle):
            with pytest.raises(WorkflowDefinitionError, match="contains a cycle") as info:
                dag.validate()
            assert_is_cycle(dag, cycle_named(info.value))
        elif len(starts) != 1:
            with pytest.raises(WorkflowDefinitionError, match="exactly one start node"):
                dag.validate()
        else:
            assert dag.topological_order() == list(nx.lexicographical_topological_sort(oracle))
            assert dag.start_node == starts[0]

    @settings(max_examples=200)
    @given(graphs(), st.data())
    def test_memo_dropped_on_mutation(self, graph, data):
        dag, oracle = build_both(*graph)
        assume(nx.is_directed_acyclic_graph(oracle))
        assume(sum(d == 0 for _n, d in oracle.in_degree()) == 1)
        first = dag.topological_order()
        first.append("caller's own")
        assert dag.topological_order() == list(nx.lexicographical_topological_sort(oracle))
        # An edge between existing nodes that keeps the graph acyclic.
        free = [(u, v) for u in oracle for v in oracle
                if u != v and not oracle.has_edge(u, v) and u not in nx.descendants(oracle, v)]
        if free:
            u, v = data.draw(st.sampled_from(free))
            oracle.add_edge(u, v)
            dag.add_edge(Edge(u, v))
            assert dag.topological_order() == list(nx.lexicographical_topological_sort(oracle))
        # A new node is a second root until an edge reaches it.
        dag.add_node(Node(name="b0", function="b0"))
        with pytest.raises(WorkflowDefinitionError, match="start node"):
            dag.topological_order()
        src = data.draw(st.sampled_from(list(oracle)))
        oracle.add_edge(src, "b0")
        dag.add_edge(Edge(src, "b0"))
        assert dag.topological_order() == list(nx.lexicographical_topological_sort(oracle))
        assert dag.descendants(src) == nx.descendants(oracle, src)

    def test_the_cycle_check_comes_before_the_start_node_check(self):
        # Roots a and d, and a cycle b -> c -> b that no root reaches.
        dag = build("abcd", [("a", "b"), ("b", "c"), ("c", "b")])
        with pytest.raises(WorkflowDefinitionError, match="contains a cycle") as info:
            dag.validate()
        assert_is_cycle(dag, cycle_named(info.value))
        assert sorted(cycle_named(info.value)) == [("b", "c"), ("c", "b")]

    def test_ties_go_to_the_smallest_name_not_the_first_inserted(self):
        dag = build(["r", "z", "m", "a"], [("r", "z"), ("r", "m"), ("r", "a")])
        assert dag.topological_order() == ["r", "a", "m", "z"]

    def test_edges_keep_insertion_order(self):
        dag = build(["s", "c", "b", "a", "t"],
                    [("s", "c"), ("s", "a"), ("s", "b"), ("c", "t"), ("a", "t"), ("b", "t")])
        assert [e.dst for e in dag.out_edges("s")] == ["c", "a", "b"]
        assert [e.src for e in dag.in_edges("t")] == ["c", "a", "b"]


@pytest.mark.parametrize("section", ["apps", "builder"])
def test_dag_structure_matches_the_capture(section):
    """Every structure query of the apps' and builder shapes' DAGs, as
    captured on the networkx core (``tests/front_end_capture.py``)."""
    golden.check("dag_structure", front_end_capture.dag_structure()[section], section)

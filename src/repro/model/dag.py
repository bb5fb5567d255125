"""Workflow DAG representation (paper §4).

A workflow is a DAG ``G = (N, E)``.  Edges carry execution dependencies;
an edge may be *conditional* (taken or not per invocation, ``C: E ->
{0,1}``).  A node with more than one incoming edge is a *synchronisation
node*: it runs once all its incoming edges have resolved (taken or
explicitly skipped) and at least one was taken — Eq. 4.1:

    (forall e_ij in E_in(n_j): C(e_ij) != empty)  and
    (exists e_kj in E_in(n_j): C(e_kj) = 1)

Workflows have exactly one start node ("the most common structure",
§4).  Each source-code function can back multiple execution stages; to
keep the graph acyclic every stage is its own node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import networkx as nx

from repro.common.errors import WorkflowDefinitionError


@dataclass(frozen=True)
class Node:
    """One execution stage.

    Attributes:
        name: Unique stage id within the workflow.
        function: Source-code function backing this stage (several
            stages may share one function, §4).
        memory_mb: Configured memory size for the stage.
    """

    name: str
    function: str
    memory_mb: int = 1769

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowDefinitionError("node name must be non-empty")
        if self.memory_mb <= 0:
            raise WorkflowDefinitionError(
                f"node {self.name}: memory_mb must be positive, got {self.memory_mb}"
            )


@dataclass(frozen=True)
class Edge:
    """An execution dependency from ``src`` to ``dst``.

    ``conditional`` marks edges whose trigger condition is evaluated at
    runtime; unconditional edges are always taken.
    """

    src: str
    dst: str
    conditional: bool = False

    @property
    def key(self) -> str:
        return f"{self.src}->{self.dst}"


class WorkflowDAG:
    """Validated, immutable-after-freeze workflow graph with queries.

    Built incrementally (by the static analyser or by hand in tests),
    then :meth:`validate` checks the §4 structural rules.  All query
    methods validate lazily so read-only use is cheap.
    """

    def __init__(self, name: str):
        if not name:
            raise WorkflowDefinitionError("workflow name must be non-empty")
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[Tuple[str, str], Edge] = {}
        self._graph = nx.DiGraph()
        self._validated = False
        # Memoised per-node edge tuples: the executor asks for the same
        # in/out edges on every message of every request, and walking
        # the networkx views per call is measurable at open-loop rates.
        self._in_edges_memo: Dict[str, Tuple[Edge, ...]] = {}
        self._out_edges_memo: Dict[str, Tuple[Edge, ...]] = {}
        self._guaranteed_memo: Optional[FrozenSet[str]] = None

    # -- construction -------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.name in self._nodes:
            raise WorkflowDefinitionError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._graph.add_node(node.name)
        self._validated = False
        self._in_edges_memo.clear()
        self._out_edges_memo.clear()
        self._guaranteed_memo = None

    def add_edge(self, edge: Edge) -> None:
        if edge.src not in self._nodes:
            raise WorkflowDefinitionError(
                f"edge {edge.key}: unknown source node {edge.src!r}"
            )
        if edge.dst not in self._nodes:
            raise WorkflowDefinitionError(
                f"edge {edge.key}: unknown destination node {edge.dst!r}"
            )
        if (edge.src, edge.dst) in self._edges:
            raise WorkflowDefinitionError(f"duplicate edge {edge.key}")
        if edge.src == edge.dst:
            raise WorkflowDefinitionError(f"self-loop on {edge.src!r}")
        self._edges[(edge.src, edge.dst)] = edge
        self._graph.add_edge(edge.src, edge.dst)
        self._validated = False
        self._in_edges_memo.clear()
        self._out_edges_memo.clear()
        self._guaranteed_memo = None

    def validate(self) -> None:
        """Check the §4 structural rules; raise on violation."""
        if not self._nodes:
            raise WorkflowDefinitionError(f"workflow {self.name!r} has no nodes")
        if not nx.is_directed_acyclic_graph(self._graph):
            cycle = nx.find_cycle(self._graph)
            raise WorkflowDefinitionError(
                f"workflow {self.name!r} contains a cycle: {cycle}"
            )
        starts = [n for n in self._nodes if self._graph.in_degree(n) == 0]
        if len(starts) != 1:
            # This also covers reachability: in an acyclic graph with
            # exactly one in-degree-0 node, every node is reachable from
            # it (any unreachable node would introduce another root).
            raise WorkflowDefinitionError(
                f"workflow {self.name!r} must have exactly one start node, "
                f"found {sorted(starts)}"
            )
        self._validated = True

    def _ensure_valid(self) -> None:
        if not self._validated:
            self.validate()

    # -- basic queries --------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        return tuple(self._nodes.values())

    @property
    def node_names(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges.values())

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(
                f"workflow {self.name!r} has no node {name!r}"
            ) from None

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise KeyError(
                f"workflow {self.name!r} has no edge {src}->{dst}"
            ) from None

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def __len__(self) -> int:
        return len(self._nodes)

    # -- structure queries ------------------------------------------------------
    @property
    def start_node(self) -> str:
        self._ensure_valid()
        return next(n for n in self._nodes if self._graph.in_degree(n) == 0)

    @property
    def terminal_nodes(self) -> Tuple[str, ...]:
        """Nodes with no outgoing edges."""
        return tuple(n for n in self._nodes if self._graph.out_degree(n) == 0)

    def in_edges(self, node: str) -> Tuple[Edge, ...]:
        cached = self._in_edges_memo.get(node)
        if cached is None:
            self.node(node)
            cached = self._in_edges_memo[node] = tuple(
                self._edges[(u, v)] for u, v in self._graph.in_edges(node)
            )
        return cached

    def out_edges(self, node: str) -> Tuple[Edge, ...]:
        cached = self._out_edges_memo.get(node)
        if cached is None:
            self.node(node)
            cached = self._out_edges_memo[node] = tuple(
                self._edges[(u, v)] for u, v in self._graph.out_edges(node)
            )
        return cached

    def predecessors(self, node: str) -> Tuple[str, ...]:
        self.node(node)
        return tuple(self._graph.predecessors(node))

    def successors(self, node: str) -> Tuple[str, ...]:
        self.node(node)
        return tuple(self._graph.successors(node))

    def is_sync_node(self, node: str) -> bool:
        """A node with more than one incoming edge (§4)."""
        return len(self.in_edges(node)) > 1

    @property
    def sync_nodes(self) -> Tuple[str, ...]:
        return tuple(n for n in self._nodes if self.is_sync_node(n))

    @property
    def has_conditional_edges(self) -> bool:
        return any(e.conditional for e in self._edges.values())

    def topological_order(self) -> List[str]:
        self._ensure_valid()
        # lexicographic tie-break for determinism
        return list(nx.lexicographical_topological_sort(self._graph))

    def guaranteed_nodes(self) -> FrozenSet[str]:
        """Nodes that run in *every* invocation: the start node, and any
        node with an unconditional in-edge from a guaranteed node.

        An edge is correspondingly *always active* iff it is
        unconditional and its source is guaranteed.  A property of the
        graph alone (no probabilities): the lower-bound tables may only
        price guaranteed work, and the Monte-Carlo kernel needs no
        execution mask for it.
        """
        if self._guaranteed_memo is None:
            guaranteed: Set[str] = set()
            for name in self.topological_order():
                ins = self.in_edges(name)
                if not ins or any(
                    not e.conditional and e.src in guaranteed for e in ins
                ):
                    guaranteed.add(name)
            self._guaranteed_memo = frozenset(guaranteed)
        return self._guaranteed_memo

    def descendants(self, node: str) -> FrozenSet[str]:
        self.node(node)
        return frozenset(nx.descendants(self._graph, node))

    def paths_between(self, src: str, dst: str) -> List[List[str]]:
        """All simple paths from ``src`` to ``dst``."""
        self.node(src)
        self.node(dst)
        return [list(p) for p in nx.all_simple_paths(self._graph, src, dst)]

    def downstream_sync_nodes(self, node: str) -> Tuple[str, ...]:
        """Sync nodes reachable from ``node`` (used by the conditional-
        DAG skip-propagation rule, §4)."""
        reach = self.descendants(node)
        return tuple(n for n in self.topological_order() if n in reach and self.is_sync_node(n))

    def critical_path(self, node_weights: Dict[str, float]) -> Tuple[List[str], float]:
        """Longest start-to-terminal path under per-node weights.

        Edge costs can be folded into the destination node's weight by
        callers (the Monte-Carlo estimator does its own richer version;
        this helper serves structural analyses and tests).
        """
        self._ensure_valid()
        order = self.topological_order()
        dist: Dict[str, float] = {}
        prev: Dict[str, Optional[str]] = {}
        for n in order:
            w = node_weights.get(n, 0.0)
            preds = list(self._graph.predecessors(n))
            if not preds:
                dist[n] = w
                prev[n] = None
            else:
                best = max(preds, key=lambda p: dist[p])
                dist[n] = dist[best] + w
                prev[n] = best
        end = max(dist, key=lambda n: dist[n])
        path: List[str] = []
        cur: Optional[str] = end
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        return list(reversed(path)), dist[end]

    def subgraph_signature(self) -> str:
        """Stable structural fingerprint (used to key solver caches)."""
        parts = [f"n:{n.name}:{n.function}:{n.memory_mb}" for n in self.nodes]
        parts += [
            f"e:{e.src}->{e.dst}:{'c' if e.conditional else 'u'}"
            for e in sorted(self._edges.values(), key=lambda e: e.key)
        ]
        return "|".join(sorted(parts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkflowDAG({self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )

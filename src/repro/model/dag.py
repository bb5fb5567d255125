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

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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

    ``_succ`` / ``_pred`` hold each node's out- and in-edges in
    edge-insertion order, which is the order :meth:`out_edges` and
    :meth:`in_edges` return them in.
    """

    def __init__(self, name: str):
        if not name:
            raise WorkflowDefinitionError("workflow name must be non-empty")
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[Tuple[str, str], Edge] = {}
        self._succ: Dict[str, Tuple[Edge, ...]] = {}
        self._pred: Dict[str, Tuple[Edge, ...]] = {}
        # The topological order of the last successful validate(); None
        # until then and after any mutation.
        self._order: Optional[Tuple[str, ...]] = None
        self._guaranteed_memo: Optional[FrozenSet[str]] = None

    # -- construction -------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.name in self._nodes:
            raise WorkflowDefinitionError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = self._pred[node.name] = ()
        self._order = None
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
        self._succ[edge.src] += (edge,)
        self._pred[edge.dst] += (edge,)
        self._order = None
        self._guaranteed_memo = None

    def validate(self) -> None:
        """Check the §4 structural rules; raise on violation."""
        if not self._nodes:
            raise WorkflowDefinitionError(f"workflow {self.name!r} has no nodes")
        # Kahn's algorithm, ready nodes popped smallest name first: a
        # deterministic order independent of insertion order.
        indegree = {n: len(ins) for n, ins in self._pred.items()}
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for edge in self._succ[name]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    heapq.heappush(ready, edge.dst)
        if len(order) < len(self._nodes):
            raise WorkflowDefinitionError(
                f"workflow {self.name!r} contains a cycle: {self._cycle(indegree)}"
            )
        starts = [n for n, ins in self._pred.items() if not ins]
        if len(starts) != 1:
            # This also covers reachability: in an acyclic graph with
            # exactly one in-degree-0 node, every node is reachable from
            # it (any unreachable node would introduce another root).
            raise WorkflowDefinitionError(
                f"workflow {self.name!r} must have exactly one start node, "
                f"found {sorted(starts)}"
            )
        self._order = tuple(order)

    def _cycle(self, indegree: Dict[str, int]) -> List[Tuple[str, str]]:
        """The edges of one cycle among the nodes Kahn's pass left
        unordered (``indegree > 0``).  Each of those has an unordered
        predecessor, so walking back from one must repeat a node."""
        node = next(n for n in self._nodes if indegree[n])
        walked: Dict[str, None] = {}
        while node not in walked:
            walked[node] = None
            node = next(e.src for e in self._pred[node] if indegree[e.src])
        back = list(walked)
        cycle = back[back.index(node):][::-1]
        return list(zip(cycle, cycle[1:] + cycle[:1]))

    def _ensure_valid(self) -> None:
        if self._order is None:
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
        return next(n for n, ins in self._pred.items() if not ins)

    def in_edges(self, node: str) -> Tuple[Edge, ...]:
        edges = self._pred.get(node)
        if edges is None:
            self.node(node)  # raises KeyError naming the workflow
        return edges

    def out_edges(self, node: str) -> Tuple[Edge, ...]:
        edges = self._succ.get(node)
        if edges is None:
            self.node(node)
        return edges

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
        return list(self._order)

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
        seen, stack = {node}, [node]
        while stack:
            for edge in self._succ[stack.pop()]:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        seen.discard(node)
        return frozenset(seen)

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

"""Test oracle: the module-level join helpers the executor and the Step
Functions baseline used before both read one compiled
:class:`repro.core.executor.JoinRule`, kept verbatim.

* :func:`propagate_dead` — fixed-point deadness over the
  annotation-class subgraph, walking the DAG on every call;
* :func:`sync_condition_met` — Eq. 4.1 for one sync node.

``tests/test_join_rule.py`` requires ``JoinRule.apply`` to agree with
them on every annotation sequence Hypothesis draws.  Not shipped:
nothing under ``src/`` imports it.
"""

from typing import Dict, FrozenSet, List, Tuple

from repro.model.dag import WorkflowDAG


def propagate_dead(
    dag: WorkflowDAG,
    annotated_edges: FrozenSet[Tuple[str, str]],
    ann: Dict,
    topo_order: List[str],
) -> None:
    """Fixed-point deadness over the annotation-class subgraph.

    A node is dead iff all its annotation-class in-edges are annotated 0
    or originate from dead nodes; dead nodes' annotation-class out-edges
    are annotated 0 in turn (in-place on ``ann``).  This is the exact
    semantics behind the paper's §4 skip-propagation rule.
    """
    dead: set = set()
    start = dag.start_node
    for n in topo_order:
        if n == start:
            continue
        in_edges = [e for e in dag.in_edges(n) if (e.src, e.dst) in annotated_edges]
        if not in_edges:
            continue  # fed by non-annotated edges: cannot judge, assume live
        if all(
            ann.get(f"{e.src}->{e.dst}") == 0 or e.src in dead for e in in_edges
        ):
            dead.add(n)
    for n in dead:
        for e in dag.out_edges(n):
            if (e.src, e.dst) in annotated_edges:
                ann.setdefault(f"{e.src}->{e.dst}", 0)


def sync_condition_met(dag: WorkflowDAG, ann: Dict, sync_node: str) -> bool:
    """Eq. 4.1: all in-edges annotated, at least one taken."""
    values = [ann.get(f"{e.src}->{e.dst}") for e in dag.in_edges(sync_node)]
    return all(v is not None for v in values) and any(v == 1 for v in values)

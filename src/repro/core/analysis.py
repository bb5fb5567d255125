"""Static code analysis: source code -> workflow DAG (paper §6.1 step 1).

"The structure of a workflow is implicitly defined by a developer using
our API and a workflow is then extracted from the source code through
static code analysis at initial deployment" (§4).  The analyser parses
each registered handler's source with :mod:`ast` and recovers:

* DAG edges — every ``invoke_serverless_function(data, target, [cond])``
  call site, with the edge marked *conditional* when the third argument
  is present and not literally ``True``;
* fan-out — any call site to a function declaring ``max_instances`` > 1
  targets all of its stages (each execution stage is a separate DAG
  node, §4); at runtime the k-th call of one execution runs on stage
  ``f:k`` (:func:`intent_stage`);
* synchronisation nodes — handlers calling ``get_predecessor_data``.

Each handler's source is parsed once per process (:func:`_parse`, keyed
by the code object ``inspect.getsource`` reads, which every fresh
``build_workflow()`` closure shares); each analysis then resolves the
parsed targets against its own workflow's functions.  A handler that
carries a declared ``_caribou_analysis`` (the
:mod:`repro.service.builder` front-end generates such handlers) is not
parsed: its declared call sites are lowered exactly like parsed ones.
The resulting :class:`~repro.model.dag.WorkflowDAG` is validated against
the §4 structural rules (single start node, acyclic, sync nodes declare
fan-in intent).
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import WorkflowDefinitionError
from repro.core.api import FunctionSpec, Workflow
from repro.model.dag import Edge, Node, WorkflowDAG


@dataclass(frozen=True)
class CallSite:
    """One discovered ``invoke_serverless_function`` call."""

    target: str
    conditional: bool


@dataclass(frozen=True)
class FunctionAnalysis:
    """Static facts about one handler."""

    name: str
    call_sites: Tuple[CallSite, ...]
    uses_predecessor_data: bool


class _HandlerVisitor(ast.NodeVisitor):
    """Walks a handler body collecting API call sites, each as its
    unresolved ``(target name, conditional)``."""

    def __init__(self) -> None:
        self.call_sites: List[Tuple[str, bool]] = []
        self.uses_predecessor_data = False

    def visit_Call(self, node: ast.Call) -> None:
        name = self._called_name(node)
        if name == "invoke_serverless_function":
            self._handle_invoke(node)
        elif name == "get_predecessor_data":
            self.uses_predecessor_data = True
        self.generic_visit(node)

    @staticmethod
    def _called_name(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None

    def _handle_invoke(self, node: ast.Call) -> None:
        self.call_sites.append(
            (self._target_name(node), self._is_conditional(node))
        )

    @staticmethod
    def _target_name(node: ast.Call) -> str:
        target_expr: Optional[ast.expr] = None
        if len(node.args) >= 2:
            target_expr = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "next_function":
                    target_expr = kw.value
        if target_expr is None:
            raise WorkflowDefinitionError(
                "invoke_serverless_function call without a target function"
            )
        if isinstance(target_expr, ast.Constant) and isinstance(
            target_expr.value, str
        ):
            return target_expr.value
        if isinstance(target_expr, ast.Name):
            return target_expr.id
        if isinstance(target_expr, ast.Attribute):
            return target_expr.attr
        raise WorkflowDefinitionError(
            "invoke_serverless_function target must be a name or string "
            f"literal, got {ast.dump(target_expr)}"
        )

    @staticmethod
    def _is_conditional(node: ast.Call) -> bool:
        cond_expr: Optional[ast.expr] = None
        if len(node.args) >= 3:
            cond_expr = node.args[2]
        else:
            for kw in node.keywords:
                if kw.arg == "conditional":
                    cond_expr = kw.value
        if cond_expr is None:
            return False  # edge always taken
        if isinstance(cond_expr, ast.Constant) and cond_expr.value is True:
            return False  # literally always true
        return True  # dynamically evaluated at runtime


@functools.lru_cache(maxsize=None)
def _parse(code) -> Tuple[Tuple[Tuple[str, bool], ...], bool]:
    """The unresolved call sites of the source behind ``code`` and
    whether it calls ``get_predecessor_data``, parsed once per process."""
    visitor = _HandlerVisitor()
    visitor.visit(ast.parse(textwrap.dedent(inspect.getsource(code))))
    return tuple(visitor.call_sites), visitor.uses_predecessor_data


def analyze_function(spec: FunctionSpec, known: Dict[str, str]) -> FunctionAnalysis:
    """Run static analysis over one handler's source, or return the
    analysis the handler declares (``handler._caribou_analysis``).

    ``known`` maps both spec names and handler ``__name__``s to spec
    names; every call site's target must be one of them.
    """
    declared = getattr(spec.handler, "_caribou_analysis", None)
    if declared is not None:
        return declared
    # What inspect.getsource reads; a handler without one (a builtin, a
    # callable object, a class) is passed as is and fails or parses as
    # it always did.
    code = getattr(inspect.unwrap(spec.handler), "__code__", spec.handler)
    try:
        sites, uses_predecessor_data = _parse(code)
    except (OSError, TypeError) as exc:
        raise WorkflowDefinitionError(
            f"cannot retrieve source of handler {spec.name!r} for static "
            f"analysis: {exc}"
        ) from exc
    call_sites = []
    for target, conditional in sites:
        if target not in known:
            raise WorkflowDefinitionError(
                f"invoke_serverless_function targets unknown function "
                f"{target!r}"
            )
        call_sites.append(CallSite(target=known[target], conditional=conditional))
    return FunctionAnalysis(
        name=spec.name,
        call_sites=tuple(call_sites),
        uses_predecessor_data=uses_predecessor_data,
    )


def stage_names(spec: FunctionSpec) -> Tuple[str, ...]:
    """DAG node names for one function: one per declared instance."""
    if spec.max_instances == 1:
        return (spec.name,)
    return tuple(f"{spec.name}:{i}" for i in range(spec.max_instances))


def intent_stage(spec: FunctionSpec, call_index: int) -> str:
    """DAG node run by the ``call_index``-th invocation of ``spec`` in one
    execution: stage ``f:k`` for call k of a multi-instance function."""
    if spec.max_instances == 1:
        if call_index > 0:
            raise WorkflowDefinitionError(
                f"function {spec.name!r} invoked {call_index + 1} "
                "times in one execution but declares max_instances=1"
            )
        return spec.name
    if call_index >= spec.max_instances:
        raise WorkflowDefinitionError(
            f"function {spec.name!r} fan-out exceeded its declared "
            f"max_instances={spec.max_instances}"
        )
    return f"{spec.name}:{call_index}"


def analyze_workflow(workflow: Workflow) -> WorkflowDAG:
    """Extract and validate the full workflow DAG.

    Raises :class:`WorkflowDefinitionError` on structural violations:
    no/multiple entry points, cycles, fan-in without
    ``get_predecessor_data``, or fan-out into a multi-instance entry
    point.
    """
    specs = workflow.functions
    if not specs:
        raise WorkflowDefinitionError(
            f"workflow {workflow.name!r} has no registered functions"
        )
    known: Dict[str, str] = {}
    for spec in specs:
        known[spec.name] = spec.name
        known[spec.handler.__name__] = spec.name

    analyses = {spec.name: analyze_function(spec, known) for spec in specs}
    entry = workflow.entry_function
    if entry.max_instances != 1:
        raise WorkflowDefinitionError(
            f"entry point {entry.name!r} cannot declare max_instances > 1"
        )

    dag = WorkflowDAG(workflow.name)
    for spec in specs:
        for stage in stage_names(spec):
            dag.add_node(
                Node(name=stage, function=spec.name, memory_mb=spec.memory_mb)
            )

    for spec in specs:
        analysis = analyses[spec.name]
        src_stages = stage_names(spec)
        seen_targets: Dict[Tuple[str, bool], None] = {}
        for site in analysis.call_sites:
            key = (site.target, site.conditional)
            if key in seen_targets:
                continue  # several call sites to the same target == one edge set
            seen_targets[key] = None
            dst_stages = stage_names(workflow.function(site.target))
            for src in src_stages:
                for dst in dst_stages:
                    if not dag.has_edge(src, dst):
                        dag.add_edge(
                            Edge(src=src, dst=dst, conditional=site.conditional)
                        )

    dag.validate()

    # Sync nodes must have declared fan-in intent (§8).
    for node_name in dag.sync_nodes:
        function = dag.node(node_name).function
        if not analyses[function].uses_predecessor_data:
            raise WorkflowDefinitionError(
                f"node {node_name!r} has multiple incoming edges but its "
                f"handler never calls get_predecessor_data()"
            )

    if dag.start_node != stage_names(entry)[0]:
        raise WorkflowDefinitionError(
            f"workflow start node {dag.start_node!r} does not match the "
            f"declared entry point {entry.name!r}"
        )
    return dag

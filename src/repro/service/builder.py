"""Decorator/builder developer API: plain-Python DAG declarations.

The explicit counterpart of the paper's Listing 1: declare tasks with
:func:`task`, chain them with ``then`` / ``branch`` / ``join``, and
``build()`` a plain :class:`~repro.core.api.Workflow` — the object
Listing 1 produces, deployed the same way::

    wf = workflow("pipeline").then(fetch).branch(left, right).join(merge).build()
    deployed, executor = DeploymentUtility(cloud).deploy(wf, default_config())

Generated handlers call the normal runtime API (``invoke_serverless_function``,
``get_predecessor_data`` at fan-ins) and declare their call sites as a
``_caribou_analysis``: :func:`~repro.core.analysis.analyze_workflow` lowers
those like the ones it parses from Listing-1 source, and parses nothing here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.functions import WorkProfile
from repro.common.errors import WorkflowDefinitionError
from repro.core.analysis import CallSite, FunctionAnalysis
from repro.core.api import Payload, Workflow

TaskFn = Callable[[Any], Any]


def task(
    name: Optional[str] = None,
    *,
    memory_mb: int = 1769,
    profile: Optional[WorkProfile] = None,
    allowed_regions: Optional[Sequence[str]] = None,
    disallowed_regions: Sequence[str] = (),
) -> Callable[[TaskFn], TaskFn]:
    """Declare a plain function as a workflow task: it stays a normal
    callable carrying its ``Workflow.serverless_function`` arguments.  At
    runtime it receives the upstream payload content (a list of contents
    at fan-ins) and returns the downstream payload (a
    :class:`~repro.core.api.Payload` to set ``size_bytes``)."""
    rules: Dict[str, List[Dict[str, str]]] = {}
    if allowed_regions is not None:
        rules["allowed_regions"] = [{"region": r} for r in allowed_regions]
    if disallowed_regions:
        rules["disallowed_regions"] = [{"region": r} for r in disallowed_regions]

    def decorator(fn: TaskFn) -> TaskFn:
        fn._caribou_task = dict(  # type: ignore[attr-defined]
            name=name or fn.__name__, memory_mb=memory_mb, profile=profile,
            regions_and_providers=rules or None,
        )
        return fn

    return decorator


class WorkflowBuilder:
    """Fluent DAG construction over ``@task`` functions: ``branch(a, b,
    ...)`` wires every current tail into each task, which become the new
    tails; ``then(t)`` / ``join(t)`` is ``branch(t)`` (a sync node when
    several tails feed it).  The first task is the entry point."""

    def __init__(self, name: str, version: str = "0.1"):
        if not name:
            raise WorkflowDefinitionError("workflow name must be non-empty")
        self.name = name
        self.version = version
        #: task name -> (function, ``serverless_function`` arguments)
        self._tasks: Dict[str, Tuple[TaskFn, Dict[str, Any]]] = {}
        self._edges: List[Tuple[str, str]] = []
        self._tails: List[str] = []

    def then(self, task_fn: TaskFn) -> "WorkflowBuilder":
        return self.branch(task_fn)

    join = then  # spelled for readability at fan-ins

    def branch(self, *task_fns: TaskFn) -> "WorkflowBuilder":
        if not task_fns:
            raise WorkflowDefinitionError("branch() needs at least one task")
        tails, self._tails = self._tails, []
        for task_fn in task_fns:
            if not callable(task_fn):  # un-decorated callables take the defaults
                raise WorkflowDefinitionError(f"{task_fn!r} is not a @task-declared function")
            kwargs = getattr(task_fn, "_caribou_task", {"name": task_fn.__name__})
            name = kwargs["name"]
            if name in self._tasks:
                raise WorkflowDefinitionError(f"workflow {self.name!r}: duplicate task {name!r}")
            self._tasks[name] = (task_fn, kwargs)
            self._edges.extend((tail, name) for tail in tails)
            self._tails.append(name)
        return self

    def make_input(self, size: str) -> Payload:
        """A warm-up request: tasks declare no input shapes, so every
        size is the default payload."""
        return Payload()

    def build(self) -> Workflow:
        """A fresh runtime ``Workflow`` (new handlers on every call)."""
        if not self._tasks:
            raise WorkflowDefinitionError(f"workflow {self.name!r} declares no tasks")
        wf = Workflow(self.name, version=self.version)
        entry = next(iter(self._tasks))
        for name, (fn, kwargs) in self._tasks.items():
            targets = tuple(dst for src, dst in self._edges if src == name)
            fan_in = sum(dst == name for _src, dst in self._edges) > 1
            handler = _make_handler(wf, fn, name, targets, fan_in)
            wf.serverless_function(entry_point=name == entry, **kwargs)(handler)
        return wf


def _make_handler(
    wf: Workflow, fn: TaskFn, name: str, targets: Tuple[str, ...], fan_in: bool
) -> Callable[[Any], None]:
    """``fn`` as a handler invoking every target unconditionally with its result."""

    def handler(event: Any) -> None:
        if fan_in:
            event = [p.content for p in wf.get_predecessor_data()]
        result = fn(event)
        payload = result if isinstance(result, Payload) else Payload(content=result)
        for target in targets:
            wf.invoke_serverless_function(payload, target)

    handler.__name__ = f"{name}_handler"
    sites = tuple(CallSite(target, conditional=False) for target in targets)
    handler._caribou_analysis = FunctionAnalysis(name, sites, fan_in)  # type: ignore[attr-defined]
    return handler


def workflow(name: str, version: str = "0.1") -> WorkflowBuilder:
    """Start a fluent workflow declaration (``workflow(...).then(...)``)."""
    return WorkflowBuilder(name, version=version)

"""Structured tracing over virtual time.

A :class:`Span` is one operation with a virtual-time interval
``[t0, t1]`` and a link to its parent.  The hierarchy follows the
request lifecycle the executor already tracks:

* one ``request`` root span per tracked request (opened at
  ``invoke()``, closed at the terminal state);
* operation spans — ``invocation``, ``publish``, ``kv``, ``transfer`` —
  are children of their request's root.  A span created *synchronously
  inside* another traced scope (e.g. the network transfer a publish
  performs) becomes that scope's child instead, giving a genuine tree;
* control-plane spans — ``solve`` / ``solver_hour`` /
  ``solver_iteration`` and ``migration`` / ``deploy`` — carry no
  request id and form their own trees.

Design constraints, both load-bearing for the test suite:

**Determinism.**  Span ids are a simple monotonic counter, timestamps
come from the shared :class:`~repro.common.clock.VirtualClock`, and
JSONL serialisation uses sorted keys and compact separators — two runs
with the same seed produce *byte-identical* traces.

**Zero cost when disabled.**  Services default to :data:`NULL_TRACER`,
whose methods are no-ops that allocate nothing, never read the clock,
never draw randomness, and never schedule events.  Callers guard
attribute-dict construction behind ``tracer.enabled`` so a disabled run
pays only a boolean check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.clock import VirtualClock

#: The span taxonomy.  ``attrs`` may refine a kind (e.g. a ``kv`` span's
#: ``op``), but every span's ``kind`` is one of these.
SPAN_KINDS = (
    "request",  # one per tracked end-user request (the root)
    "invocation",  # one function execution window [start_s, end_s]
    "publish",  # pub/sub publish-to-delivery-handoff window
    "kv",  # one key-value store operation
    "transfer",  # one network transfer
    "sync_gate",  # a sync-node invocation condition completing (Eq. 4.1)
    "solve",  # one solver run over a set of hours
    "solver_hour",  # one per-hour HBSS search
    "solver_iteration",  # one HBSS candidate evaluation
    "migration",  # one migrator rollout attempt
    "deploy",  # one function materialisation within a migration
)


@dataclass(slots=True)
class Span:
    """One traced operation over a virtual-time interval.

    Slotted: span construction sits on the traced hot path (one span
    per simulated operation), and slots cut both per-span memory and
    attribute-access cost versus a ``__dict__``-backed dataclass.
    """

    span_id: int
    kind: str
    name: str
    t0: float
    t1: Optional[float] = None  # None while still open
    parent_id: Optional[int] = None
    workflow: str = ""
    request_id: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Closed interval length (0.0 while the span is open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "parent_id": self.parent_id,
            "workflow": self.workflow,
            "request_id": self.request_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Span":
        return cls(**raw)


class _SpanScope:
    """Context manager making a span the parent of synchronous children.

    ``end_at`` sets the span's virtual end time, which may lie in the
    future (a publish span ends when the message is handed to the
    subscriber, long after the synchronous ``publish()`` call returns).
    Without an explicit end the span closes at the clock's current time
    on scope exit.  An exception closes the span immediately and tags it
    with the error type.
    """

    __slots__ = ("_tracer", "span", "_end_at")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._end_at: Optional[float] = None

    def end_at(self, t1: float) -> None:
        self._end_at = t1

    def set(self, **attrs: Any) -> None:
        self.span.attrs.update(attrs)

    def __enter__(self) -> "_SpanScope":
        self._tracer._stack.append(self.span)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self._tracer._stack.pop()
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
            self.span.t1 = self._tracer._now()
        else:
            self.span.t1 = (
                self._end_at if self._end_at is not None else self._tracer._now()
            )
        return False  # never swallow


class _DropScope:
    """Scope for a span suppressed by request sampling.

    Mirrors :class:`_SpanScope`'s surface but records nothing, and
    counts scope depth on its tracer so *synchronous children* created
    inside it (which carry no request id of their own — e.g. the
    transfer a publish performs) are suppressed too instead of being
    recorded as orphan roots.
    """

    __slots__ = ("_tracer",)
    span = None

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def end_at(self, t1: float) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_DropScope":
        self._tracer._drop_depth += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer._drop_depth -= 1
        return False


class Tracer:
    """Collects spans against a bound virtual clock.

    ``sample_every=N`` keeps every N-th tracked request (the first,
    then every N-th after it, by ``open_request`` order) and drops all
    spans of the others — root, children, and synchronous descendants
    alike.  Request order is deterministic under the virtual clock, so
    a sampled trace is still byte-identical across same-seed runs;
    control-plane spans (solver, migration) are never sampled away.
    The default ``1`` records everything, preserving existing traces.
    """

    enabled = True

    def __init__(
        self, clock: Optional[VirtualClock] = None, sample_every: int = 1
    ):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self._clock = clock
        self._sample_every = sample_every
        self.spans: List[Span] = []
        self._next_id = 0
        self._stack: List[Span] = []  # synchronous parenting scopes
        self._request_roots: Dict[str, Span] = {}
        self._finalized = False
        self._request_seq = 0
        self._dropped_requests: set = set()
        self._drop_depth = 0
        self._drop_scope = _DropScope(self)

    # -- wiring --------------------------------------------------------------
    def bind_clock(self, clock: VirtualClock) -> None:
        """Attach the simulation's clock (done by ``SimulatedCloud``)."""
        self._clock = clock

    def _now(self) -> float:
        if self._clock is None:
            raise RuntimeError(
                "Tracer is not bound to a clock; pass it to SimulatedCloud "
                "or call bind_clock() first"
            )
        return self._clock.now()

    # -- span creation -------------------------------------------------------
    def _new_span(
        self,
        kind: str,
        name: str,
        t0: Optional[float],
        workflow: str,
        request_id: str,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> Span:
        if parent_id is None:
            if self._stack:
                parent_id = self._stack[-1].span_id
            elif request_id and request_id in self._request_roots:
                parent_id = self._request_roots[request_id].span_id
        span = Span(
            span_id=self._next_id,
            kind=kind,
            name=name,
            t0=self._now() if t0 is None else t0,
            parent_id=parent_id,
            workflow=workflow,
            request_id=request_id,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._finalized = False
        return span

    def _suppressed(self, request_id: str) -> bool:
        return self._drop_depth > 0 or (
            bool(request_id) and request_id in self._dropped_requests
        )

    def record(
        self,
        kind: str,
        name: str,
        *,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        workflow: str = "",
        request_id: str = "",
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Record a closed span in one shot (defaults to a point in
        time).  Returns ``None`` when request sampling drops the span.
        """
        if self._suppressed(request_id):
            return None
        span = self._new_span(kind, name, t0, workflow, request_id, parent_id, attrs)
        span.t1 = t1 if t1 is not None else span.t0
        return span

    def span(
        self,
        kind: str,
        name: str,
        *,
        t0: Optional[float] = None,
        workflow: str = "",
        request_id: str = "",
        parent_id: Optional[int] = None,
        **attrs: Any,
    ):
        """Open a span as a context manager; synchronous children nest.
        Sampled-away requests get a no-op scope that also suppresses
        synchronous descendants."""
        if self._suppressed(request_id):
            return self._drop_scope
        span = self._new_span(kind, name, t0, workflow, request_id, parent_id, attrs)
        return _SpanScope(self, span)

    # -- request lifecycle ----------------------------------------------------
    def open_request(self, request_id: str, workflow: str = "") -> Optional[Span]:
        """Open the root span for a tracked request.

        With sampling active, a request outside the kept stride returns
        ``None`` and every subsequent span carrying its id is dropped.
        """
        self._request_seq += 1
        if (self._request_seq - 1) % self._sample_every != 0:
            self._dropped_requests.add(request_id)
            return None
        span = self._new_span(
            "request", request_id, None, workflow, request_id, None, {}
        )
        self._request_roots[request_id] = span
        return span

    def close_request(self, request_id: str, status: str) -> None:
        """Record the request's terminal state on its root span.

        The root's ``t1`` is still extended over any child that models
        work past this point (a terminal invocation's execution window
        ends after the completion is registered) — see :meth:`finalize`.
        """
        root = self._request_roots.get(request_id)
        if root is None or root.t1 is not None:
            return
        root.t1 = self._now()
        root.attrs["status"] = status

    # -- export ---------------------------------------------------------------
    def finalize(self) -> None:
        """Close open spans and make every parent cover its children.

        Safe to call repeatedly; recording new spans re-arms it.
        Children are always created after their parent, so one reverse
        pass propagates interval ends bottom-up.
        """
        if self._finalized:
            return
        by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        for span in self.spans:
            if span.t1 is None:
                span.t1 = self._now()
                if span.kind == "request" and "status" not in span.attrs:
                    span.attrs["status"] = "pending"
        for span in reversed(self.spans):
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                if parent.t1 is not None and span.t1 > parent.t1:
                    parent.t1 = span.t1
        self._finalized = True

    def to_jsonl(self) -> str:
        """Serialise all spans as JSON Lines, one span per line.

        Sorted keys + compact separators + sequential ids make the
        output byte-identical across same-seed runs.
        """
        self.finalize()
        lines = [
            json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
            for span in self.spans
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def export(self, destination) -> None:
        """Write the JSONL trace to a path or file object."""
        text = self.to_jsonl()
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                fh.write(text)

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shares the :class:`Tracer` surface so call sites need no branches
    beyond the ``enabled`` guard they use to skip attribute building.
    """

    enabled = False
    spans: tuple = ()

    class _NullScope:
        __slots__ = ()
        span = None

        def end_at(self, t1: float) -> None:
            pass

        def set(self, **attrs: Any) -> None:
            pass

        def __enter__(self) -> "NullTracer._NullScope":
            return self

        def __exit__(self, *exc_info) -> bool:
            return False

    _SCOPE = _NullScope()

    def bind_clock(self, clock: VirtualClock) -> None:
        pass

    def record(self, kind: str, name: str, **kwargs: Any) -> None:
        return None

    def span(self, kind: str, name: str, **kwargs: Any) -> "NullTracer._NullScope":
        return self._SCOPE

    def open_request(self, request_id: str, workflow: str = "") -> None:
        return None

    def close_request(self, request_id: str, status: str) -> None:
        pass

    def finalize(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def export(self, destination) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared no-op tracer every service defaults to.
NULL_TRACER = NullTracer()


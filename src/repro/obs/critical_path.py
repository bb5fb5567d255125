"""Critical-path attribution over request span trees (Dapper-style).

Given a trace (a live :class:`~repro.obs.trace.Tracer` or the spans of
a loaded run bundle), this module answers the question the paper's
latency model poses (§7.1, Eq. 7.3–7.5): *where did this request's
end-to-end latency go?*

For each tracked request the analyzer

* reconstructs the request's span tree and sweeps **backwards** through
  virtual time from the request's end: at every point the gating span is
  the latest-finishing piece of work (invocation / publish / transfer /
  kv) whose completion enabled what followed; gaps between gating spans
  are attributed to ``wait`` (delivery overheads, event-loop hand-offs).
  The resulting segments *tile* the request interval exactly, so their
  durations sum to the end-to-end virtual latency by construction;
* attributes each segment to a DAG node (an invocation's ``node`` attr,
  or the destination node of an ``src->dst`` edge label) so latency can
  be read per node as well as per segment kind;
* reports every synchronisation barrier's gating branch from the
  executor's ``sync_gate`` spans — which upstream edge completed the
  invocation condition (Eq. 4.1) last, and how far it straggled behind
  the first arrival — directly validating the paper's §4 join semantics.

:mod:`repro.obs.views` renders what it finds.  Everything here is a
pure function of the span list: no clock, no RNG, no simulation state.
Analysis of the same trace is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.trace import Span, Tracer

#: Span kinds that represent gating work on a request's path.
WORK_KINDS = ("invocation", "publish", "transfer", "kv")

#: Segment kind for un-attributed time (scheduling/delivery hand-offs).
WAIT = "wait"

#: Bucket for segments that cannot be pinned to a DAG node.
FRAMEWORK_NODE = "(framework)"


def _as_spans(source: Union[Tracer, Sequence[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        source.finalize()
        return list(source.spans)
    return list(source)


def node_of_span(span: Span) -> str:
    """Best-effort DAG-node attribution for one work span.

    Invocations carry an explicit ``node`` attr.  Publishes and
    transfers are labelled with the DAG edge they serve (``a->b``,
    ``$input->a``, ``syncload:s``, ``external:n``); the receiving node
    is charged.  KV operations and unlabelled framework traffic fall
    into :data:`FRAMEWORK_NODE`.
    """
    if span.kind == "invocation":
        return str(span.attrs.get("node") or span.name)
    name = span.name
    if "->" in name:
        return name.rsplit("->", 1)[1]
    if name.startswith(("syncload:", "external:")):
        return name.split(":", 1)[1]
    return FRAMEWORK_NODE


@dataclass(frozen=True)
class PathSegment:
    """One tiled slice of a request's end-to-end interval."""

    t0: float
    t1: float
    kind: str  # WORK_KINDS member or "wait"
    name: str
    node: str
    span_id: Optional[int] = None  # None for wait segments

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class SyncGateReport:
    """One sync barrier's join outcome for one request."""

    sync_node: str
    #: The edge annotation that completed the invocation condition.
    gate_edge: str
    #: In-edge -> annotation arrival time (directly annotated edges
    #: only; deadness-propagated edges never arrive on their own).
    arrivals: Dict[str, float]
    #: Virtual time the barrier opened.
    t: float

    @property
    def straggle_s(self) -> float:
        """How long the barrier waited between the first arrival and
        the gating one (0.0 when only one edge ever arrived)."""
        if len(self.arrivals) < 2:
            return 0.0
        times = sorted(self.arrivals.values())
        return times[-1] - times[0]


@dataclass
class RequestPath:
    """Critical-path decomposition of one tracked request."""

    request_id: str
    workflow: str
    status: str
    t0: float
    t1: float
    segments: List[PathSegment] = field(default_factory=list)
    sync_gates: List[SyncGateReport] = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        return self.t1 - self.t0

    def by_kind(self) -> Dict[str, float]:
        """Seconds on the critical path per segment kind (incl. wait)."""
        return _seconds_by((seg.kind, seg.duration_s) for seg in self.segments)

    def by_node(self) -> Dict[str, float]:
        """Seconds on the critical path per attributed DAG node."""
        return _seconds_by((seg.node, seg.duration_s) for seg in self.segments)


def _seconds_by(pairs) -> Dict[str, float]:
    """``(key, seconds)`` pairs summed per key, in key order."""
    out: Dict[str, float] = {}
    for key, seconds in pairs:
        out[key] = out.get(key, 0.0) + seconds
    return dict(sorted(out.items()))


def compute_critical_path(
    source: Union[Tracer, Sequence[Span]], request_id: str
) -> RequestPath:
    """Decompose one request's latency into tiled gating segments.

    Raises ``KeyError`` when the trace has no root span for
    ``request_id``.
    """
    spans = _as_spans(source)
    root: Optional[Span] = None
    work: List[Span] = []
    gates: List[Span] = []
    for span in spans:
        if span.request_id != request_id:
            continue
        if span.kind == "request":
            root = span
        elif span.kind == "sync_gate":
            gates.append(span)
        elif span.kind in WORK_KINDS:
            work.append(span)
    if root is None:
        raise KeyError(f"trace has no request root for {request_id!r}")
    t_end = root.t1 if root.t1 is not None else root.t0

    path = RequestPath(
        request_id=request_id,
        workflow=root.workflow,
        status=str(root.attrs.get("status", "open")),
        t0=root.t0,
        t1=t_end,
        sync_gates=[
            SyncGateReport(
                sync_node=str(g.attrs.get("sync_node", g.name)),
                gate_edge=str(g.attrs.get("gate", "")),
                arrivals=dict(g.attrs.get("arrivals", {})),
                t=g.t0,
            )
            for g in gates
        ],
    )

    # Backward sweep.  ``used`` guards against re-picking zero-length
    # spans that would otherwise stall the cursor.
    segments: List[PathSegment] = []
    used: set = set()
    cursor = t_end
    while cursor > root.t0:
        best: Optional[Span] = None
        for span in work:
            if span.span_id in used:
                continue
            end = span.t1 if span.t1 is not None else span.t0
            if end > cursor or end <= root.t0:
                continue
            if best is None:
                best = span
                continue
            b_end = best.t1 if best.t1 is not None else best.t0
            if (end, span.t0, span.span_id) > (b_end, best.t0, best.span_id):
                best = span
        if best is None:
            segments.append(PathSegment(root.t0, cursor, WAIT, WAIT, FRAMEWORK_NODE))
            cursor = root.t0
            break
        used.add(best.span_id)
        b_end = best.t1 if best.t1 is not None else best.t0
        if b_end < cursor:
            segments.append(PathSegment(b_end, cursor, WAIT, WAIT, FRAMEWORK_NODE))
            cursor = b_end
        start = max(best.t0, root.t0)
        if start < cursor:
            segments.append(PathSegment(start, cursor, best.kind, best.name,
                                        node_of_span(best), span_id=best.span_id))
            cursor = start
        # else: zero-length gating span; ``used`` ensures progress.
    segments.reverse()
    path.segments = segments
    return path


@dataclass
class TraceAnalysis:
    """Critical paths of every tracked request in one trace."""

    requests: List[RequestPath]

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def total_latency_s(self) -> float:
        return sum(r.latency_s for r in self.requests)

    def by_kind(self) -> Dict[str, Dict[str, float]]:
        """Aggregate seconds and share per segment kind across requests."""
        return self._shares(RequestPath.by_kind)

    def by_node(self) -> Dict[str, Dict[str, float]]:
        """Aggregate seconds and share per attributed DAG node."""
        return self._shares(RequestPath.by_node)

    def _shares(self, per_request) -> Dict[str, Dict[str, float]]:
        seconds = _seconds_by(
            pair for req in self.requests for pair in per_request(req).items()
        )
        total = self.total_latency_s()
        return {
            key: {"seconds": secs, "share": (secs / total) if total > 0 else 0.0}
            for key, secs in seconds.items()
        }

    def sync_gates(self) -> Dict[str, Dict[str, Any]]:
        """Per sync node: how often each branch gated the barrier, and
        the mean straggle between first and gating arrival."""
        out: Dict[str, Dict[str, Any]] = {}
        for req in self.requests:
            for gate in req.sync_gates:
                entry = out.setdefault(
                    gate.sync_node,
                    {"gated_by": {}, "n": 0, "total_straggle_s": 0.0},
                )
                entry["n"] += 1
                entry["total_straggle_s"] += gate.straggle_s
                by = entry["gated_by"]
                by[gate.gate_edge] = by.get(gate.gate_edge, 0) + 1
        result: Dict[str, Dict[str, Any]] = {}
        for node in sorted(out):
            entry = out[node]
            result[node] = {
                "n": entry["n"],
                "gated_by": dict(sorted(entry["gated_by"].items())),
                "mean_straggle_s": (
                    entry["total_straggle_s"] / entry["n"] if entry["n"] else 0.0
                ),
            }
        return result

    def aggregate(self) -> Dict[str, Any]:
        """Sorted-key JSON-serialisable digest (the report's critical path)."""
        latencies = sorted(r.latency_s for r in self.requests)
        return {
            "by_kind": self.by_kind(),
            "by_node": self.by_node(),
            "mean_latency_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "n_requests": self.n_requests,
            "p95_latency_s": _percentile(latencies, 0.95),
            "sync_gates": self.sync_gates(),
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def analyze_trace(source: Union[Tracer, Sequence[Span]]) -> TraceAnalysis:
    """Critical-path decomposition of every tracked request, in
    first-seen request order."""
    spans = _as_spans(source)
    # One pass partitions the trace, so each request's sweep reads only
    # its own spans (in trace order) instead of the whole trace.
    by_request: Dict[str, List[Span]] = {}
    for span in spans:
        by_request.setdefault(span.request_id, []).append(span)
    order = dict.fromkeys(s.request_id for s in spans if s.kind == "request")
    return TraceAnalysis(
        requests=[compute_critical_path(by_request[rid], rid) for rid in order]
    )

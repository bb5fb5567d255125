"""Trace rendering and offline-analysis helpers.

Turns a span list (live :class:`~repro.obs.trace.Tracer` or a JSONL
file re-loaded with :func:`load_jsonl`) into:

* a per-kind summary table (:func:`render_trace_summary`) — span
  counts, total/mean virtual duration — plus request terminal states;
* an indented span tree (:func:`render_span_tree`) following
  parent/child links, optionally scoped to one request.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.common.errors import MalformedInputError
from repro.obs.trace import Span, Tracer


def _spans_of(source: Union[Tracer, Sequence[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        source.finalize()
        return list(source.spans)
    return list(source)


def load_jsonl(source) -> List[Span]:
    """Load spans from a JSONL path, file object, or string;
    :class:`MalformedInputError` on a line that is not a span."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text and text.endswith(".jsonl"):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
    spans = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line:
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise MalformedInputError(
                    f"not a trace (line {number} is not a span: {exc})"
                ) from None
    return spans


def render_trace_summary(source: Union[Tracer, Sequence[Span]]) -> str:
    """Aggregate view: per-kind counts and durations, request outcomes."""
    spans = _spans_of(source)
    if not spans:
        return "(empty trace)"
    by_kind: "OrderedDict[str, List[Span]]" = OrderedDict()
    for span in spans:
        by_kind.setdefault(span.kind, []).append(span)

    lines = [f"{len(spans)} spans"]
    lines.append(f"{'kind':18s} {'count':>7s} {'total_s':>12s} {'mean_s':>12s}")
    for kind, group in by_kind.items():
        total = sum(s.duration_s for s in group)
        lines.append(
            f"{kind:18s} {len(group):7d} {total:12.3f} {total / len(group):12.4f}"
        )

    requests = by_kind.get("request", [])
    if requests:
        outcomes: Dict[str, int] = {}
        for span in requests:
            status = str(span.attrs.get("status", "open"))
            outcomes[status] = outcomes.get(status, 0) + 1
        summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        lines.append(f"requests: {summary}")
    return "\n".join(lines)


def render_span_tree(
    source: Union[Tracer, Sequence[Span]],
    request_id: Optional[str] = None,
    max_spans: int = 200,
) -> str:
    """Indented tree of spans (depth-first, creation order).

    Args:
        source: Tracer or span sequence.
        request_id: Restrict to one request's tree.
        max_spans: Truncate huge traces (a note marks the cut).
    """
    spans = _spans_of(source)
    if request_id is not None:
        spans = [s for s in spans if s.request_id == request_id]
    if not spans:
        return "(no spans)"

    ids = {s.span_id for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)

    lines: List[str] = []
    truncated = False

    def walk(parent: Optional[int], depth: int) -> None:
        nonlocal truncated
        for span in children.get(parent, ()):
            if len(lines) >= max_spans:
                truncated = True
                return
            end = span.t1 if span.t1 is not None else span.t0
            extra = ""
            if span.kind == "request":
                extra = f" [{span.attrs.get('status', 'open')}]"
            elif "error" in span.attrs:
                extra = f" [error={span.attrs['error']}]"
            lines.append(
                f"{'  ' * depth}{span.kind}:{span.name}"
                f" ({span.t0:.3f}..{end:.3f}, {end - span.t0:.4f}s){extra}"
            )
            walk(span.span_id, depth + 1)

    walk(None, 0)
    if truncated:
        lines.append(f"... truncated at {max_spans} spans")
    return "\n".join(lines)


def spans_by_kind(
    source: Union[Tracer, Sequence[Span]], kind: str
) -> List[Span]:
    """All spans of one kind (test/analysis convenience)."""
    return [s for s in _spans_of(source) if s.kind == kind]


def requests_in(source: Union[Tracer, Sequence[Span]]) -> List[str]:
    """Distinct request ids in first-seen order."""
    seen: "OrderedDict[str, None]" = OrderedDict()
    for span in _spans_of(source):
        if span.request_id:
            seen.setdefault(span.request_id, None)
    return list(seen)


def group_by_request(
    source: Union[Tracer, Sequence[Span]],
) -> Dict[str, List[Span]]:
    """request id -> its spans (roots included), creation order."""
    grouped: Dict[str, List[Span]] = {}
    for span in _spans_of(source):
        if span.request_id:
            grouped.setdefault(span.request_id, []).append(span)
    return grouped


def iter_lines(spans: Iterable[Span]) -> Iterable[str]:
    """JSONL lines for an arbitrary span iterable."""
    for span in spans:
        yield json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))

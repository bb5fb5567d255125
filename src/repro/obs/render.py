"""Trace loading and the summary renderer behind ``caribou report``.

Turns a span list (live :class:`~repro.obs.trace.Tracer` or a JSONL
file re-loaded with :func:`load_jsonl`) into a per-kind summary table
(:func:`render_trace_summary`) — span counts, total/mean virtual
duration — plus request terminal states.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Sequence, Union

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


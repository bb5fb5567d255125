"""Run-to-run comparison: `caribou diff A B`.

Aligns two runs — JSON :class:`RunReport` documents and/or
``caribou.series/v1`` JSONL dumps, auto-detected per file — and emits a
markdown delta table: per metric (and, for series, per window), with
absolute and relative change and regression highlighting.  "Worse" is
direction-aware: carbon, cost, latency, failures, and burn metrics
regress *upward*; completions and throughput regress *downward*.

Everything is pure data-in/markdown-out so the comparator works on
artifacts from any two runs (different seeds, different strategies,
different commits) with no live simulation state.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import MalformedInputError
from repro.obs.report import RunReport
from repro.obs.timeseries import SERIES_SCHEMA, load_series_jsonl

#: Substrings marking metrics where a *decrease* is the improvement.
_LOWER_IS_BETTER = (
    "carbon", "cost", "latency", "duration", "fail", "timed_out", "expired",
    "dead_letter", "retr", "fallback", "burn", "violation", "service_time",
    "cold_start", "bytes", "p50", "p90", "p95", "p99", "mean", "max",
)

#: Substrings marking metrics where an *increase* is the improvement.
_HIGHER_IS_BETTER = ("completed", "throughput", "events_per_s", "compliance")

#: Relative change below which a delta is reported but not flagged.
REGRESSION_REL_THRESHOLD = 0.01


def regression_direction(metric: str) -> int:
    """+1 if the metric regresses when it increases, -1 when it
    decreases, 0 if direction is unknown (never flagged)."""
    lowered = metric.lower()
    for marker in _HIGHER_IS_BETTER:
        if marker in lowered:
            return -1
    for marker in _LOWER_IS_BETTER:
        if marker in lowered:
            return 1
    return 0


# ------------------------------------------------------------------ loading
def load_run_artifact(path: str) -> Tuple[str, Any]:
    """Load ``path`` as ``("report", doc)`` or ``("series", (points, w))``.

    Detection: a first line carrying the series schema header is a
    series dump; anything else must be a :class:`RunReport` document
    (:class:`MalformedInputError` otherwise).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = text.splitlines()[0] if text.strip() else ""
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        header = None
    if isinstance(header, dict) and header.get("schema") == SERIES_SCHEMA:
        return "series", load_series_jsonl(text)
    try:
        return "report", RunReport.from_json(text).doc
    except MalformedInputError as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


# ------------------------------------------------------------------ flattening
def flatten_report(doc: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Flatten a nested report into dotted-path -> numeric value."""
    flat: Dict[str, float] = {}
    for key in sorted(doc):
        value = doc[key]
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_report(value, path))
        elif isinstance(value, bool):
            flat[path] = float(value)
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
    return flat


def flatten_series(
    points: Sequence[Dict[str, Any]],
) -> Dict[Tuple[str, float], float]:
    """Series points -> ``(metric-or-metric.stat, window) -> value``."""
    flat: Dict[Tuple[str, float], float] = {}
    for p in points:
        window = float(p["window"])
        if p.get("type") == "histogram":
            for stat in ("count", "sum", "p50", "p95", "p99"):
                if stat in p:
                    flat[(f"{p['metric']}.{stat}", window)] = float(p[stat])
        else:
            flat[(p["metric"], window)] = float(p["value"])
    return flat


# ------------------------------------------------------------------ deltas
def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _delta_row(
    name: str, a: Optional[float], b: Optional[float]
) -> Tuple[List[str], bool]:
    """One table row; second element flags a regression."""
    if a is None:
        return [name, "—", _fmt(b), "—", "new"], False
    if b is None:
        return [name, _fmt(a), "—", "—", "gone"], False
    delta = b - a
    rel = delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))
    direction = regression_direction(name)
    regressed = (
        direction != 0
        and delta * direction > 0
        and abs(rel) >= REGRESSION_REL_THRESHOLD
    )
    rel_s = "inf" if rel == float("inf") else f"{rel * 100:+.1f}%"
    note = "**regression**" if regressed else ""
    return [name, _fmt(a), _fmt(b), f"{_fmt(delta)} ({rel_s})", note], regressed


def _render_table(
    header: List[str], rows: Sequence[List[str]]
) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def diff_reports(
    a: Dict[str, Any],
    b: Dict[str, Any],
    label_a: str = "A",
    label_b: str = "B",
    only_changed: bool = True,
) -> str:
    """Markdown delta table for two flattened RunReports."""
    flat_a = flatten_report(a)
    flat_b = flatten_report(b)
    rows: List[List[str]] = []
    n_regressions = 0
    for name in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(name), flat_b.get(name)
        if only_changed and va == vb:
            continue
        row, regressed = _delta_row(name, va, vb)
        n_regressions += regressed
        rows.append(row)
    lines = [f"## Report diff: {label_a} vs {label_b}", ""]
    if not rows:
        lines.append("No numeric differences.")
        return "\n".join(lines) + "\n"
    lines.extend(_render_table(["metric", label_a, label_b, "Δ", ""], rows))
    lines.append("")
    lines.append(
        f"{len(rows)} metric(s) changed, {n_regressions} flagged as "
        "regressions."
    )
    return "\n".join(lines) + "\n"


def diff_series(
    a: Sequence[Dict[str, Any]],
    b: Sequence[Dict[str, Any]],
    label_a: str = "A",
    label_b: str = "B",
    only_changed: bool = True,
) -> str:
    """Markdown delta table for two series dumps, per metric per window."""
    flat_a = flatten_series(a)
    flat_b = flatten_series(b)
    rows: List[List[str]] = []
    n_regressions = 0
    for metric, window in sorted(
        set(flat_a) | set(flat_b), key=lambda k: (k[1], k[0])
    ):
        va = flat_a.get((metric, window))
        vb = flat_b.get((metric, window))
        if only_changed and va == vb:
            continue
        row, regressed = _delta_row(metric, va, vb)
        row.insert(1, _fmt(window))
        n_regressions += regressed
        rows.append(row)
    lines = [f"## Series diff: {label_a} vs {label_b}", ""]
    if not rows:
        lines.append("No per-window differences.")
        return "\n".join(lines) + "\n"
    lines.extend(
        _render_table(["metric", "window", label_a, label_b, "Δ", ""], rows)
    )
    lines.append("")
    lines.append(
        f"{len(rows)} point(s) changed, {n_regressions} flagged as "
        "regressions."
    )
    return "\n".join(lines) + "\n"


def diff_runs(path_a: str, path_b: str) -> str:
    """Diff two run artifacts (auto-detecting report vs series)."""
    kind_a, data_a = load_run_artifact(path_a)
    kind_b, data_b = load_run_artifact(path_b)
    if kind_a != kind_b:
        raise MalformedInputError(
            f"cannot diff {kind_a} ({path_a}) against {kind_b} ({path_b})"
        )
    if kind_a == "series":
        return diff_series(
            data_a[0], data_b[0], label_a=path_a, label_b=path_b
        )
    return diff_reports(data_a, data_b, label_a=path_a, label_b=path_b)

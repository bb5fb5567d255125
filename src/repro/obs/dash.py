"""Offline terminal dashboard: sparklines over windowed series.

``caribou dash run.jsonl`` renders the per-window telemetry of a
finished run's bundle as unicode sparklines — per-workflow / per-region
carbon, cost, request latency (p95), and SLO budget burn — so a fleet
sweep can be eyeballed without leaving the terminal or shipping data
anywhere.
Pure function of the loaded series (plus optional SLO results), so the
output is deterministic and safe to pin in tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import parse_key
from repro.obs.report import _real

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 0) -> str:
    """Render values as a block-character sparkline.

    Scales to the series' own min/max (a flat series renders as all-low
    blocks); ``width`` > 0 downsamples long series by bucket-maximum,
    so short spikes stay visible after compression.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width and len(vals) > width:
        # Bucket-maximum downsampling: never hide a spike.
        bucketed = []
        for i in range(width):
            lo = i * len(vals) // width
            hi = max(lo + 1, (i + 1) * len(vals) // width)
            bucketed.append(max(vals[lo:hi]))
        vals = bucketed
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(vals)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[int((v - lo) / span * top + 0.5)] for v in vals
    )


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _collect(
    points: Sequence[Dict[str, Any]],
    metric_name: str,
    group_label: str,
    stat: Optional[str] = None,
) -> Tuple[List[float], Dict[str, Dict[float, float]]]:
    """Group a metric's points by one label dimension.

    Returns ``(sorted windows, {label value -> {window -> value}})``;
    points missing the label fall under ``"-"``.
    """
    windows: set = set()
    groups: Dict[str, Dict[float, float]] = {}
    for p in points:
        name, labels = parse_key(p["metric"])
        if name != metric_name:
            continue
        value = p.get(stat) if stat else p.get("value")
        if value is None:
            continue
        group = labels.get(group_label, "-")
        windows.add(float(p["window"]))
        series = groups.setdefault(group, {})
        series[float(p["window"])] = series.get(float(p["window"]), 0.0) + value
    return sorted(windows), groups


def _section(
    title: str,
    unit: str,
    windows: List[float],
    groups: Dict[str, Dict[float, float]],
    width: int,
) -> List[str]:
    if not groups:
        return []
    lines = [f"### {title}"]
    name_w = max(len(g) for g in groups)
    for group in sorted(groups):
        series = groups[group]
        values = [series.get(w, 0.0) for w in windows]
        total = sum(values)
        peak = max(values) if values else 0.0
        lines.append(
            f"  {group:<{name_w}}  {sparkline(values, width)}  "
            f"sum={_fmt(total)}{unit} peak={_fmt(peak)}{unit}"
        )
    lines.append("")
    return lines


def render_dashboard(
    points: Sequence[Dict[str, Any]],
    slo_results: Optional[Sequence[Dict[str, Any]]] = None,
    window_s: float = 3600.0,
    width: int = 48,
) -> str:
    """Render the full dashboard for one run's series.

    Sections (each skipped when its metric is absent): carbon by region
    and by workflow, cost by region, request p95 latency by workflow,
    request volume by workflow, and — when SLO results are supplied —
    one budget-burn line per objective.
    """
    all_windows = sorted({float(p["window"]) for p in points})
    lines = [
        "# Caribou run dashboard",
        f"{len(all_windows)} window(s) x {_fmt(window_s)}s virtual time, "
        f"{len(points)} series point(s)",
        "",
    ]

    w, g = _collect(points, "ledger.carbon_g", "region")
    lines += _section("Carbon by region (g)", "g", w, g, width)
    w, g = _collect(points, "ledger.carbon_g", "workflow")
    if len(g) > 1:  # single-workflow runs: the region view already covers it
        lines += _section("Carbon by workflow (g)", "g", w, g, width)
    w, g = _collect(points, "ledger.cost_usd", "region")
    lines += _section("Cost by region (USD)", "$", w, g, width)
    w, g = _collect(
        points, "executor.request_latency_s", "workflow", stat="p95"
    )
    lines += _section("Request latency p95 by workflow (s)", "s", w, g, width)
    w, g = _collect(points, "executor.requests", "workflow")
    lines += _section("Requests by workflow", "", w, g, width)

    if slo_results:
        lines.append("### SLO budget")
        for result in slo_results:
            status = "OK " if result.get("met") else "MISS"
            spent = _real(result.get("budget_spent")) or 0.0
            bar_n = min(int(spent * 10 + 0.5), 20)
            bar = "#" * bar_n + "." * max(0, 10 - bar_n)
            lines.append(
                f"  [{status}] {result.get('name')}  budget [{bar}] "
                f"{spent * 100:.0f}% spent, "
                f"{result.get('violations', 0)}/{result.get('windows', 0)} "
                f"window(s) violating, {len(result.get('alerts', []))} "
                "alert(s)"
            )
        lines.append("")

    return "\n".join(lines).rstrip("\n") + "\n"

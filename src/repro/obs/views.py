"""Every text view of a run: what ``caribou`` prints from a loaded bundle,
a report document, a fleet rollup or spans.

* :func:`report_markdown` — ``report [--requests]``: the report, then
  each request's :func:`request_path`;
* :func:`span_summary` — ``run --report``: spans per kind, outcomes;
* :func:`dashboard` — ``dash``: sparklines of the series, SLO budgets;
* :func:`diff` — ``diff``: report and series delta tables;
* :func:`fleet_markdown` — ``fleet-report``: the fleet rollup.

They share one markdown table (:func:`_table`), one formatter family
(:func:`_fixed`, :func:`_pct`, :func:`_num`; ``-`` wherever a loaded
document holds no finite number) and one reader of series points
(:func:`_readings`).  Every view is a pure function of its input.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.critical_path import RequestPath, analyze_trace
from repro.obs.metrics import parse_key
from repro.obs.report import RunBundle, _real
from repro.obs.trace import Span


# ------------------------------------------------------------------ primitives
def _fixed(value: Any, spec: str = ".3") -> str:
    """Fixed point under ``spec`` (``[width].digits``), ``-`` for
    anything that is not a finite number."""
    value = _real(value)
    return "-" if value is None else f"{value:{spec}f}"


def _pct(value: Any, spec: str = ".1") -> str:
    """A fraction as a percentage under ``spec``, ``-`` as :func:`_fixed`."""
    value = _real(value)
    return "-" if value is None else f"{value:{spec}%}"


def _num(value: float, sig: int = 6) -> str:
    """An integral value as an int, any other to ``sig`` significant digits."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.{sig}g}"


def _row(cells: Sequence[Any]) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


def _table(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """A markdown table: the header, its rule, one line per row."""
    rule = "|" + "|".join("---" for _ in header) + "|"
    return [_row(header), rule, *map(_row, rows)]


#: The histogram statistics the views read from a series point.
_HIST_STATS = ("count", "sum", "p50", "p95", "p99")


def _readings(points: Sequence[Dict[str, Any]]) -> Iterator[tuple]:
    """Every value of every series point, in point order, as ``(metric,
    stat, window, value)``: ``stat`` is None for a counter or gauge and
    each of :data:`_HIST_STATS` the point has for a histogram."""
    for p in points:
        window = float(p["window"])
        if p.get("type") == "histogram":
            for stat in _HIST_STATS:
                if stat in p:
                    yield p["metric"], stat, window, float(p[stat])
        else:
            yield p["metric"], None, window, float(p["value"])


# ------------------------------------------------------------------ report
def _mg(grams: Any) -> Optional[float]:
    return None if _real(grams) is None else grams * 1000.0


def _bullets(section: Dict[str, Any]) -> List[str]:
    return [f"- **{key}**: {value}" for key, value in sorted(section.items())]


def fleet_markdown(fleet: Dict[str, Any]) -> str:
    """A fleet rollup (:meth:`~repro.core.fleet.FleetManager.fleet_report`):
    the fleet totals, then the per-workflow table."""
    lines = ["## Fleet", "", *_bullets(
        {k: v for k, v in fleet.items() if k != "per_workflow"})]
    per_workflow = fleet.get("per_workflow") or {}
    if per_workflow:
        lines += ["", *_table(
            ["workflow", "checks", "solves", "migrations", "invocations",
             "tokens g"],
            [[name, w.get("checks"), w.get("solves"), w.get("migrations"),
              w.get("invocations_observed"), _fixed(w.get("tokens_g"))]
             for name, w in sorted(per_workflow.items())])]
    return "\n".join(lines) + "\n"


def _share_table(column: str, rows) -> List[str]:
    return _table([column, "seconds", "share"], [
        [name, _fixed(e.get("seconds")), _pct(e.get("share"))]
        for name, e in rows])


def _critical_path_lines(cp: Dict[str, Any]) -> List[str]:
    lines = [
        "", "## Critical path", "",
        f"- **requests analyzed**: {cp.get('n_requests')}",
        f"- **mean latency**: {_fixed(cp.get('mean_latency_s'))} s"
        f" (p95 {_fixed(cp.get('p95_latency_s'))} s)",
        "", *_share_table("segment kind", (cp.get("by_kind") or {}).items()),
    ]
    ranked = sorted((cp.get("by_node") or {}).items(),
                    key=lambda kv: -(_real(kv[1].get("seconds")) or 0.0))
    if ranked:
        lines += ["", *_share_table("node", ranked[:10])]
    gates = cp.get("sync_gates") or {}
    if gates:
        lines += ["", "### Sync barriers", "", *_table(
            ["sync node", "joins", "gated by", "mean straggle s"],
            [[node, g.get("n"),
              ", ".join(f"{edge} ×{count}"
                        for edge, count in (g.get("gated_by") or {}).items()),
              _fixed(g.get("mean_straggle_s"))]
             for node, g in sorted(gates.items())])]
    return lines


def report_markdown(doc: Dict[str, Any], spans: Sequence[Span] = ()) -> str:
    """A report document as GitHub-flavoured markdown, then the
    critical path of every request in ``spans``."""
    run = doc.get("run", {})
    lines = [
        f"# Run report — {run.get('label', '?')}",
        "",
        f"- **app**: {run.get('app')} ({run.get('input_size')})",
        f"- **invocations**: {run.get('n_invocations')}",
        f"- **mean service time**: {_fixed(run.get('mean_service_time_s'))} s"
        f" (p95 {_fixed(run.get('p95_service_time_s'))} s)",
        f"- **regions used**: "
        f"{', '.join(map(str, run.get('regions_used', []))) or '-'}",
    ]
    scenarios = doc.get("scenarios") or {}
    if scenarios:
        lines += ["", "## Carbon & cost (per invocation)", "", *_table(
            ["scenario", "carbon mg", "exec mg", "trans mg", "cost $"],
            [[name, _fixed(_mg(s.get("mean_carbon_g"))),
              _fixed(_mg(s.get("mean_exec_carbon_g"))),
              _fixed(_mg(s.get("mean_trans_carbon_g"))),
              _fixed(s.get("mean_cost_usd"), ".6")]
             for name, s in sorted(scenarios.items())])]
    for scenario, regions in sorted((doc.get("per_region") or {}).items()):
        lines += ["", f"## Per-region usage — {scenario}", "", *_table(
            ["region", "execs", "exec s", "carbon g", "cost $", "egress MB"],
            [[region, _fixed(r.get("n_executions", 0), ".0"),
              _fixed(r.get("exec_seconds")), _fixed(r.get("carbon_g"), ".4"),
              _fixed(r.get("cost_usd"), ".6"),
              _fixed((_real(r.get("bytes_out")) or 0.0) / 1e6)]
             for region, r in sorted(regions.items())])]
    if doc.get("critical_path"):
        lines += _critical_path_lines(doc["critical_path"])
    if doc.get("reliability"):
        lines += ["", "## Reliability", "", *_bullets({
            key: (", ".join(f"{k}={v}" for k, v in sorted(value.items()))
                  or "none") if isinstance(value, dict) else value
            for key, value in doc["reliability"].items()})]
    if doc.get("solver"):
        lines += ["", "## Solver", "", *_bullets(doc["solver"])]
    if doc.get("fleet"):
        lines += ["", fleet_markdown(doc["fleet"]).rstrip("\n")]
    if doc.get("slo"):
        lines += ["", "## SLOs", "", *_table(
            ["objective", "windows", "violations", "compliance",
             "budget spent", "alerts", "met"],
            [[f"`{e.get('name')}`", e.get("windows"), e.get("violations"),
              _pct(e.get("compliance")), _pct(e.get("budget_spent")),
              len(e.get("alerts") or []), "yes" if e.get("met") else "**no**"]
             for e in doc["slo"]])]
    metrics = doc.get("metrics") or {}
    if metrics:
        lines += ["", "## Metrics", "", f"{len(metrics)} instruments", "", "```"]
        for key, value in sorted(metrics.items()):
            if isinstance(value, dict):
                lines.append(f"{key}: n={value.get('count')} "
                             f"mean={_fixed(value.get('mean'), '.6')} "
                             f"max={_fixed(value.get('max'), '.6')}")
            else:
                lines.append(f"{key}: {_fixed(value, '.6')}")
        lines.append("```")
    return "\n".join(lines) + "\n" + "".join(
        request_path(path) + "\n" for path in analyze_trace(spans).requests
    )


# ------------------------------------------------------------------ spans
#: Segments :func:`request_path` lists before it elides the rest.
MAX_SEGMENTS = 50


def request_path(path: RequestPath) -> str:
    """One request's critical path: each segment's interval, duration,
    share and node, then each sync barrier's gating edge."""
    lines = [
        f"request {path.request_id} [{path.status}] "
        f"{_fixed(path.latency_s, '.4')}s end-to-end"
    ]
    for seg in path.segments[:MAX_SEGMENTS]:
        share = seg.duration_s / path.latency_s if path.latency_s > 0 else 0.0
        lines.append(
            f"  {_fixed(seg.t0, '12.3')}..{_fixed(seg.t1, '12.3')}  "
            f"{_fixed(seg.duration_s, '9.4')}s {_pct(share, '6.1')}  "
            f"{seg.kind:10s} {seg.name} [{seg.node}]"
        )
    if len(path.segments) > MAX_SEGMENTS:
        lines.append(f"  ... {len(path.segments) - MAX_SEGMENTS} more segments")
    for gate in path.sync_gates:
        lines.append(
            f"  sync {gate.sync_node}: gated by {gate.gate_edge} "
            f"at {_fixed(gate.t)} (straggle {_fixed(gate.straggle_s, '.4')}s)"
        )
    return "\n".join(lines)


def span_summary(spans: Sequence[Span]) -> str:
    """Per-kind span counts and durations, then request outcomes."""
    if not spans:
        return "(empty trace)"
    by_kind: Dict[str, List[Span]] = {}
    for span in spans:
        by_kind.setdefault(span.kind, []).append(span)
    lines = [
        f"{len(spans)} spans",
        f"{'kind':18s} {'count':>7s} {'total_s':>12s} {'mean_s':>12s}",
    ]
    for kind, group in by_kind.items():
        total = sum(s.duration_s for s in group)
        lines.append(
            f"{kind:18s} {len(group):7d} {_fixed(total, '12.3')} "
            f"{_fixed(total / len(group), '12.4')}"
        )
    outcomes = Counter(str(span.attrs.get("status", "open"))
                       for span in by_kind.get("request", []))
    if outcomes:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
        lines.append(f"requests: {summary}")
    return "\n".join(lines)


# ------------------------------------------------------------------ dashboard
#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 0) -> str:
    """Values as block characters scaled to their own min/max (a flat
    series is all-low); ``width`` > 0 downsamples a longer series by
    bucket maximum, so short spikes stay visible."""
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


def _by_label(points: Sequence[Dict[str, Any]], name: str, label: str,
              stat: Optional[str]) -> Tuple[List[float], Dict[str, dict]]:
    """One metric's values summed per window and per value of one label
    (``-`` where a point lacks it): ``(sorted windows, {group: {window:
    value}})``."""
    windows: set = set()
    groups: Dict[str, Dict[float, float]] = {}
    for metric, point_stat, window, value in _readings(points):
        metric_name, labels = parse_key(metric)
        if metric_name != name or point_stat != stat:
            continue
        windows.add(window)
        series = groups.setdefault(labels.get(label, "-"), {})
        series[window] = series.get(window, 0.0) + value
    return sorted(windows), groups


#: The dashboard's sparkline sections: title, unit, metric, label,
#: histogram statistic, and the fewest groups that earn the section
#: (carbon by workflow needs two: for one, carbon by region covers it).
_DASH_SECTIONS = (
    ("Carbon by region (g)", "g", "ledger.carbon_g", "region", None, 1),
    ("Carbon by workflow (g)", "g", "ledger.carbon_g", "workflow", None, 2),
    ("Cost by region (USD)", "$", "ledger.cost_usd", "region", None, 1),
    ("Request latency p95 by workflow (s)", "s",
     "executor.request_latency_s", "workflow", "p95", 1),
    ("Requests by workflow", "", "executor.requests", "workflow", None, 1),
)


def dashboard(bundle: RunBundle, width: int = 48) -> str:
    """The offline terminal dashboard of one run: one sparkline per
    group of each of :data:`_DASH_SECTIONS` whose metric the series
    holds, then one budget line per objective of the report's SLOs."""
    points = bundle.points
    lines = [
        "# Caribou run dashboard",
        f"{len({float(p['window']) for p in points})} window(s) x "
        f"{_num(bundle.window_s, 4)}s virtual time, "
        f"{len(points)} series point(s)",
        "",
    ]
    for title, unit, name, label, stat, fewest in _DASH_SECTIONS:
        windows, groups = _by_label(points, name, label, stat)
        if len(groups) < fewest:
            continue
        lines.append(f"### {title}")
        name_w = max(len(g) for g in groups)
        for group, series in sorted(groups.items()):
            values = [series.get(w, 0.0) for w in windows]
            lines.append(
                f"  {group:<{name_w}}  {sparkline(values, width)}  "
                f"sum={_num(sum(values), 4)}{unit} "
                f"peak={_num(max(values), 4)}{unit}"
            )
        lines.append("")

    slo = bundle.report.get("slo")
    if slo:
        lines.append("### SLO budget")
        for result in slo:
            status = "OK " if result.get("met") else "MISS"
            spent = _real(result.get("budget_spent")) or 0.0
            bar_n = min(int(spent * 10 + 0.5), 20)
            bar = "#" * bar_n + "." * max(0, 10 - bar_n)
            lines.append(
                f"  [{status}] {result.get('name')}  budget [{bar}] "
                f"{_pct(spent, '.0')} spent, "
                f"{result.get('violations', 0)}/{result.get('windows', 0)} "
                f"window(s) violating, {len(result.get('alerts', []))} "
                "alert(s)"
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ------------------------------------------------------------------ diff
#: Substrings marking metrics where a *decrease* is the improvement.
_LOWER_IS_BETTER = (
    "carbon", "cost", "latency", "duration", "fail", "timed_out", "expired",
    "dead_letter", "retr", "fallback", "burn", "violation", "service_time",
    "cold_start", "bytes", "p50", "p90", "p95", "p99", "mean", "max",
    "budget_spent",
)

#: Substrings marking metrics where an *increase* is the improvement.
_HIGHER_IS_BETTER = ("completed", "throughput", "events_per_s", "compliance")

#: Relative change below which a delta is reported but not flagged.
REGRESSION_REL_THRESHOLD = 0.01


def regression_direction(metric: str) -> int:
    """+1 if the metric regresses when it increases, -1 when it
    decreases, 0 if direction is unknown (never flagged)."""
    lowered = metric.lower()
    if any(marker in lowered for marker in _HIGHER_IS_BETTER):
        return -1
    return 1 if any(marker in lowered for marker in _LOWER_IS_BETTER) else 0


#: The outcomes of each SLO a diff compares, under ``slo.<objective>``.
_SLO_FIELDS = ("budget_spent", "compliance", "violations")


def flatten_report(doc: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Flatten a nested report into dotted-path -> numeric value; the
    ``slo`` list flattens by objective name."""
    flat: Dict[str, float] = {}
    for key in sorted(doc):
        value = doc[key]
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_report(value, path))
        elif isinstance(value, (int, float)):
            flat[path] = float(value)
        elif path == "slo" and isinstance(value, list):
            for entry in value:
                outcomes = {k: entry[k] for k in _SLO_FIELDS if k in entry}
                flat.update(flatten_report(outcomes, f"slo.{entry.get('name')}"))
    return flat


def flatten_series(points: Sequence[Dict[str, Any]]) -> Dict[tuple, float]:
    """Series points -> ``(window, metric or metric.stat) -> value``."""
    return {
        (window, metric if stat is None else f"{metric}.{stat}"): value
        for metric, stat, window, value in _readings(points)
    }


def _delta_cells(metric: str, a: Optional[float],
                 b: Optional[float]) -> Tuple[List[str], bool]:
    """The A, B, Δ and flag cells of one row, and whether it regressed."""
    if a is None:
        return ["—", _num(b), "—", "new"], False
    if b is None:
        return [_num(a), "—", "—", "gone"], False
    delta = b - a
    rel = delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))
    regressed = (delta * regression_direction(metric) > 0
                 and abs(rel) >= REGRESSION_REL_THRESHOLD)
    rel_s = "inf" if rel == float("inf") else _pct(rel, "+.1")
    note = "**regression**" if regressed else ""
    return [_num(a), _num(b), f"{_num(delta)} ({rel_s})", note], regressed


def _delta_table(title: str, noun: str, empty: str, columns: Sequence[str],
                 flats: Tuple[dict, dict], labels: Tuple[str, str]) -> str:
    """The changed values of two flattened runs, keyed ``(*columns,
    metric)``, as one markdown table in key order."""
    flat_a, flat_b = flats
    rows: List[List[str]] = []
    n_regressions = 0
    for key in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(key), flat_b.get(key)
        if va == vb:
            continue
        *where, metric = key
        cells, regressed = _delta_cells(metric, va, vb)
        n_regressions += regressed
        rows.append([metric, *map(_num, where), *cells])
    lines = [f"## {title} diff: {labels[0]} vs {labels[1]}", ""]
    if not rows:
        return "\n".join(lines + [empty]) + "\n"
    lines += _table(["metric", *columns, *labels, "Δ", ""], rows)
    lines += ["", f"{len(rows)} {noun}(s) changed, {n_regressions} flagged "
                  "as regressions."]
    return "\n".join(lines) + "\n"


def diff(a: RunBundle, b: RunBundle, label_a: str = "A",
         label_b: str = "B") -> str:
    """Two loaded runs: the report delta table, then the series one per
    metric per window.  "Worse" is direction-aware: carbon, cost,
    latency, failures and burn regress upward; completions and
    throughput regress downward."""
    labels = (label_a, label_b)
    reports = tuple({(name,): value for name, value
                     in flatten_report(run.report).items()} for run in (a, b))
    series = (flatten_series(a.points), flatten_series(b.points))
    return "\n".join((
        _delta_table("Report", "metric", "No numeric differences.", (),
                     reports, labels),
        _delta_table("Series", "point", "No per-window differences.",
                     ("window",), series, labels),
    ))

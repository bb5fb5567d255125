"""Observability layer: structured tracing and a metrics registry.

The execution logs feeding the paper's models (§6.2 -> §7.1) are only
trustworthy if one can see *why* a run produced its numbers.  This
package provides that visibility without perturbing the simulation:

* :class:`~repro.obs.trace.Tracer` — structured, virtual-clock-stamped
  spans (request, invocation, publish, KV op, network transfer, solver
  iteration, migration) with parent/child links, exportable as
  deterministic JSONL;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms the cloud services and the Caribou runtime report into;
* :mod:`~repro.obs.render` — JSONL trace loading and the summary
  renderer behind ``caribou report``;
* :mod:`~repro.obs.timeseries` — windowed virtual-time sampling of the
  registry into per-window series, with Prometheus/JSONL exporters;
* :mod:`~repro.obs.slo` — declarative per-window SLOs with
  error-budget burn-rate alerting over those series;
* :mod:`~repro.obs.diffrun` / :mod:`~repro.obs.dash` — run-to-run
  delta tables and the offline sparkline dashboard.

Everything is inert by default: services hold the no-op
:data:`~repro.obs.trace.NULL_TRACER`, which never allocates spans,
never touches the RNG, and never schedules events — a run with tracing
disabled is byte-identical (ledger and all) to one built before this
package existed.

Every timestamp here is virtual: nothing under ``src/`` reads the host
clock, and host time is measured from outside by ``bench/run.py``.
"""

from repro.obs.critical_path import (
    RequestPath,
    SyncGateReport,
    TraceAnalysis,
    analyze_trace,
    compute_critical_path,
    render_critical_path,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.render import (
    load_jsonl,
    render_trace_summary,
)
from repro.obs.dash import render_dashboard, sparkline
from repro.obs.diffrun import diff_reports, diff_runs, diff_series
from repro.obs.report import (
    REPORT_SCHEMA,
    RunReport,
    build_run_report,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloResult,
    SloSpec,
    SloTracker,
    evaluate_slos,
    parse_slo,
)
from repro.obs.timeseries import (
    DEFAULT_WINDOW_S,
    SERIES_SCHEMA,
    TelemetryConfig,
    WindowedSampler,
    ledger_series,
    load_series_jsonl,
    merge_series,
    render_prometheus,
    series_to_jsonl,
)
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_KINDS,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "DEFAULT_WINDOW_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullTracer",
    "REPORT_SCHEMA",
    "RequestPath",
    "RunReport",
    "SERIES_SCHEMA",
    "SPAN_KINDS",
    "SloResult",
    "SloSpec",
    "SloTracker",
    "Span",
    "SyncGateReport",
    "TelemetryConfig",
    "TraceAnalysis",
    "Tracer",
    "WindowedSampler",
    "analyze_trace",
    "build_run_report",
    "compute_critical_path",
    "diff_reports",
    "diff_runs",
    "diff_series",
    "evaluate_slos",
    "ledger_series",
    "load_jsonl",
    "load_series_jsonl",
    "merge_series",
    "parse_slo",
    "render_critical_path",
    "render_dashboard",
    "render_prometheus",
    "render_trace_summary",
    "series_to_jsonl",
    "sparkline",
]

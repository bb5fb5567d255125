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
* :mod:`~repro.obs.critical_path` — per-request critical paths;
* :mod:`~repro.obs.report` — the run report and the ``caribou.run/v1``
  run bundle, read by one loader, :func:`~repro.obs.report.load_bundle`;
* :mod:`~repro.obs.timeseries` — windowed virtual-time sampling of the
  registry into per-window series, and the Prometheus exporter;
* :mod:`~repro.obs.slo` — declarative per-window SLOs with
  error-budget burn-rate alerting over those series;
* :mod:`~repro.obs.views` — every text view of a run: the report and
  fleet markdown, critical paths, the span summary, the sparkline
  dashboard and run-to-run delta tables.

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
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    BUNDLE_SCHEMA,
    REPORT_SCHEMA,
    RunBundle,
    build_run_report,
    load_bundle,
    report_json,
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
    TelemetryConfig,
    WindowedSampler,
    ledger_series,
    merge_series,
    render_prometheus,
)
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_KINDS,
    NullTracer,
    Span,
    Tracer,
)
from repro.obs.views import (
    dashboard,
    diff,
    fleet_markdown,
    report_markdown,
    request_path,
    span_summary,
)

__all__ = [
    "BUNDLE_SCHEMA",
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
    "RunBundle",
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
    "dashboard",
    "diff",
    "evaluate_slos",
    "fleet_markdown",
    "ledger_series",
    "load_bundle",
    "merge_series",
    "parse_slo",
    "render_prometheus",
    "report_json",
    "report_markdown",
    "request_path",
    "span_summary",
]

"""Windowed virtual-time telemetry: per-window series over the registry.

End-of-run aggregates (one ``MetricsRegistry.snapshot()``, one
``RunReport``) cannot show carbon dropping *when* the migrator shifts a
workflow or a flash crowd blowing a latency SLO mid-run.  This module
samples every registry instrument into per-window points keyed by
``(metric, labels, window_start)`` on a configurable virtual-time window
(default 3600 s, matching the solver's hourly plan granularity):

* **counters** become per-window deltas;
* **gauges** become last-value-in-window samples;
* **histograms** become per-window bucket deltas plus count/sum and
  interpolated quantiles of the *window's* distribution.

Collection is driven by a simulator-scheduled flush event, so sampling
happens at exact virtual-time window boundaries and is bit-reproducible
across both event loops: the virtual clock never advances during a
solve, so every instrument delta lands in the same window however long
the solve took on the wall clock.  A run without a sampler attached schedules nothing and is
byte-identical to today (the :data:`~repro.obs.trace.NULL_TRACER`
contract, extended to time series).

The per-operation families are folded from the ledger at each flush
(:class:`~repro.cloud.ledger.LedgerMetrics`).  Post-run,
:func:`ledger_series` prices that ledger into the same point shape —
per-window, per-region, per-workflow carbon/cost/traffic under one
transmission scenario — which per-hour emission timelines plot.

The points go into the run bundle (:class:`~repro.obs.report.RunBundle`);
:func:`render_prometheus` exports a registry's cumulative state as
Prometheus text.  Both are byte-deterministic for same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, format_bound, parse_key

#: Default sampling window: one virtual hour, the solver's plan granularity.
DEFAULT_WINDOW_S = 3600.0

#: Quantiles precomputed per histogram window (keys ``p50`` .. ``p99``).
WINDOW_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _qkey(q: float) -> str:
    """The key a histogram point stores quantile ``q`` under (``p95``)."""
    return "p" + format(q * 100, "g")


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Quantile of a *windowed* (delta) histogram.

    Linear interpolation within the winning bucket; a window delta has
    no min/max, so the first bucket's lower bound is 0 and the overflow
    bucket collapses to the last finite bound (the classic Prometheus
    ``histogram_quantile`` convention).
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for i, n in enumerate(counts):
        prev_seen = seen
        seen += n
        if seen >= target and n:
            if i >= len(bounds):  # overflow bucket
                return float(bounds[-1]) if bounds else 0.0
            lo = 0.0 if i == 0 else float(bounds[i - 1])
            hi = float(bounds[i])
            return lo + (hi - lo) * (target - prev_seen) / n
    return float(bounds[-1]) if bounds else 0.0


def _point_sort_key(point: Dict[str, Any]) -> Tuple[float, str]:
    return (point["window"], point["metric"])


class WindowedSampler:
    """Samples a :class:`MetricsRegistry` into per-window series points.

    Attach to a :class:`~repro.cloud.simulator.SimulationEnvironment`
    and the sampler drives one flush per window boundary through a
    :class:`~repro.cloud.simulator.RepeatingEvent` (grid-aligned to
    absolute multiples of ``window_s``).  Each flush emits the delta of
    every instrument since the previous flush; the repeating event
    parks itself when the queue drains, so telemetry never keeps
    ``run_until_idle`` alive on its own.  Call :meth:`close` after the
    run drains to capture the final partial window.

    Points are plain sorted-key dicts (see module docstring for the
    shapes); within a window they are emitted in sorted metric order,
    so two same-seed runs produce byte-identical series.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        window_s: float = DEFAULT_WINDOW_S,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.registry = registry
        self.window_s = float(window_s)
        self.points: List[Dict[str, Any]] = []
        self.windows_flushed = 0
        self._env = None
        self._repeating = None
        self._last_flush_t = 0.0
        self._last_counters: Dict[str, float] = {}
        self._last_gauges: Dict[str, float] = {}
        # key -> (count, total, bucket_counts tuple) at last flush
        self._last_hists: Dict[str, Tuple[int, float, Tuple[int, ...]]] = {}

    # -- wiring ---------------------------------------------------------------
    def attach(self, env) -> None:
        """Bind to a simulation environment and start flushing.

        The window grid is aligned to absolute virtual time (windows
        start at integer multiples of ``window_s``); instrument state at
        attach time becomes the baseline, so activity before ``attach``
        never leaks into the first window.
        """
        self._env = env
        now = env.now()
        self._last_flush_t = (now // self.window_s) * self.window_s
        self._baseline()
        self._repeating = env.every(self.window_s, self._flush)

    def close(self) -> None:
        """Flush the final (possibly partial) window and detach."""
        if self._env is None:
            return
        if self._repeating is not None:
            self._repeating.stop()
            self._repeating = None
        now = self._env.now()
        if now > self._last_flush_t:
            self._flush(now)

    # -- sampling -------------------------------------------------------------
    def _baseline(self) -> None:
        reg = self.registry
        for key, counter in reg.iter_counters():
            self._last_counters[key] = counter.value
        for key, gauge in reg.iter_gauges():
            self._last_gauges[key] = gauge.value
        for key, hist in reg.iter_histograms():
            self._last_hists[key] = (
                hist.count, hist.total, tuple(hist.bucket_counts)
            )

    def _flush(self, boundary: float) -> None:
        """Emit one point per instrument that changed in the window
        ``[self._last_flush_t, boundary)``; quiet instruments emit
        nothing, keeping the series sparse."""
        window = self._last_flush_t
        self._last_flush_t = boundary
        self.windows_flushed += 1
        reg = self.registry
        out: List[Dict[str, Any]] = []

        for key, counter in reg.iter_counters():
            delta = counter.value - self._last_counters.get(key, 0.0)
            if delta != 0.0:
                self._last_counters[key] = counter.value
                out.append(
                    {"metric": key, "window": window, "type": "counter",
                     "value": delta}
                )

        for key, gauge in reg.iter_gauges():
            value = gauge.value
            if key not in self._last_gauges or value != self._last_gauges[key]:
                self._last_gauges[key] = value
                out.append(
                    {"metric": key, "window": window, "type": "gauge",
                     "value": value}
                )

        for key, hist in reg.iter_histograms():
            prev = self._last_hists.get(key)
            if prev is None:
                prev = (0, 0.0, (0,) * len(hist.bucket_counts))
            d_count = hist.count - prev[0]
            if d_count == 0:
                continue
            d_sum = hist.total - prev[1]
            d_buckets = tuple(
                n - p for n, p in zip(hist.bucket_counts, prev[2])
            )
            self._last_hists[key] = (
                hist.count, hist.total, tuple(hist.bucket_counts)
            )
            buckets = {
                format_bound(b): d_buckets[i]
                for i, b in enumerate(hist.bounds)
                if d_buckets[i]
            }
            if d_buckets[len(hist.bounds)]:
                buckets["+Inf"] = d_buckets[len(hist.bounds)]
            point: Dict[str, Any] = {
                "metric": key, "window": window, "type": "histogram",
                "count": d_count, "sum": d_sum, "buckets": buckets,
            }
            for q in WINDOW_QUANTILES:
                point[_qkey(q)] = bucket_quantile(hist.bounds, d_buckets, q)
            out.append(point)

        out.sort(key=lambda p: p["metric"])
        self.points.extend(out)


# ------------------------------------------------------------------ ledger series
def ledger_series(
    ledger,
    accountant,
    window_s: float = DEFAULT_WINDOW_S,
    workflow: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Per-window, per-region carbon/cost/traffic series from the ledger.

    Groups every metering record by the virtual-time window of its
    start timestamp, its region and its workflow
    (:meth:`~repro.cloud.ledger.MeteringLedger.group`) and prices each
    group through the given
    :class:`~repro.metrics.accounting.CarbonAccountant`'s ``price`` (i.e.
    under *one* transmission scenario), the same path per-request
    pricing takes.  Emitted metrics:

    * ``ledger.carbon_g{region=..,workflow=..}`` — total carbon/window;
    * ``ledger.cost_usd{...}`` — total cost/window;
    * ``ledger.exec_seconds{...}`` — billed execution seconds/window;
    * ``ledger.requests{workflow=..}`` — requests *started*/window
      (distinct request ids by first execution).

    Deterministic: windows ascend, metrics sort within a window — the
    same ordering contract as :class:`WindowedSampler` points, so the
    two series merge cleanly.
    """

    def wstart(t: float) -> float:
        return (t // window_s) * window_s

    groups = ledger.group(lambda start_s, region, wf: (wstart(start_s), region, wf), workflow)
    first_exec: Dict[str, Tuple[float, str]] = {}
    for rid, start_s, wf in ledger.executions.select(workflow).fields(
        "request_id", "start_s", "workflow"
    ):
        seen = first_exec.get(rid)
        if seen is None or start_s < seen[0]:
            first_exec[rid] = (start_s, wf)

    requests: Dict[Tuple[float, str], int] = {}
    for t, wf in first_exec.values():
        key = (wstart(t), wf)
        requests[key] = requests.get(key, 0) + 1

    points: List[Dict[str, Any]] = []
    for (window, region, wf), group in groups.items():
        fp = accountant.price(group)
        labels = f"{{region={region},workflow={wf}}}"
        points.append(
            {"metric": f"ledger.carbon_g{labels}", "window": window,
             "type": "counter", "value": fp.carbon_g}
        )
        points.append(
            {"metric": f"ledger.cost_usd{labels}", "window": window,
             "type": "counter", "value": fp.cost_usd}
        )
        points.append(
            {"metric": f"ledger.exec_seconds{labels}", "window": window,
             "type": "counter", "value": fp.exec_seconds}
        )
    for (window, wf), n in requests.items():
        points.append(
            {"metric": f"ledger.requests{{workflow={wf}}}", "window": window,
             "type": "counter", "value": float(n)}
        )
    points.sort(key=_point_sort_key)
    return points


def merge_series(*series: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge point lists into one window-then-metric sorted series."""
    merged: List[Dict[str, Any]] = []
    for s in series:
        merged.extend(s)
    merged.sort(key=_point_sort_key)
    return merged


# ------------------------------------------------------------------ Prometheus
def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    return "caribou_" + "".join(out)


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fnum(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of a registry's cumulative state.

    Counters and gauges expose one sample per label set; histograms
    expose Prometheus-style *cumulative* ``_bucket{le=..}`` samples
    plus ``_sum``/``_count``.  Families sort by name, samples by label
    set — the output is byte-deterministic (the golden snapshot test
    pins the quickstart exposition).
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str, ftype: str) -> List[str]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = {"type": ftype, "samples": []}
        return entry["samples"]

    for key, counter in registry.iter_counters():
        name, labels = parse_key(key)
        pname = _prom_name(name)
        family(pname, "counter").append(
            f"{pname}{_prom_labels(labels)} {_fnum(counter.value)}"
        )
    for key, gauge in registry.iter_gauges():
        name, labels = parse_key(key)
        pname = _prom_name(name)
        family(pname, "gauge").append(
            f"{pname}{_prom_labels(labels)} {_fnum(gauge.value)}"
        )
    for key, hist in registry.iter_histograms():
        name, labels = parse_key(key)
        pname = _prom_name(name)
        samples = family(pname, "histogram")
        cumulative = 0
        for i, bound in enumerate(hist.bounds):
            cumulative += hist.bucket_counts[i]
            le = _prom_labels(labels, f'le="{format_bound(bound)}"')
            samples.append(f"{pname}_bucket{le} {cumulative}")
        le = _prom_labels(labels, 'le="+Inf"')
        samples.append(f"{pname}_bucket{le} {hist.count}")
        samples.append(f"{pname}_sum{_prom_labels(labels)} {_fnum(hist.total)}")
        samples.append(f"{pname}_count{_prom_labels(labels)} {hist.count}")

    lines: List[str] = []
    for name in sorted(families):
        entry = families[name]
        lines.append(f"# TYPE {name} {entry['type']}")
        lines.extend(sorted(entry["samples"]) if entry["type"] != "histogram"
                     else entry["samples"])
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------------ config
@dataclass(frozen=True)
class TelemetryConfig:
    """Harness-level switch for windowed telemetry on one run.

    ``slos`` are :class:`~repro.obs.slo.SloSpec` objects evaluated over
    the merged (sampler + ledger) series after the run; the ledger
    series is priced under the run's first transmission scenario.
    """

    window_s: float = DEFAULT_WINDOW_S
    slos: Tuple = ()

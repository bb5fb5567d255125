"""Unified run reports: one deterministic document per experiment run.

:func:`build_run_report` merges everything the repo already measures
about one run — the harness's per-invocation means, the ledger's
per-region carbon/cost, the :class:`~repro.obs.metrics.MetricsRegistry`
snapshot, :class:`~repro.cloud.faults.ReliabilityStats`, solver
counters, and (when the run was traced) the critical-path aggregates of
:mod:`repro.obs.critical_path` — into a single sorted-key JSON document.

A :class:`RunBundle` is the one file a run writes (``caribou run
--report``): a ``caribou.run/v1`` header, the report, the spans and the
series points as JSON lines.  :func:`load_bundle` is the one reader of
it, and :mod:`repro.obs.views` renders what it loads.

Determinism is a hard requirement (the golden-report regression test
pins the quickstart report byte-for-byte), and nothing here reads the
host clock: every float in the document derives from the virtual
simulation alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.common.errors import MalformedInputError
from repro.obs.critical_path import analyze_trace
from repro.obs.trace import Span, Tracer

#: Schema identifier embedded in (and validated from) every report.
REPORT_SCHEMA = "caribou.run_report/v1"

#: Schema identifier of the run bundle's header line.
BUNDLE_SCHEMA = "caribou.run/v1"

#: Top-level keys every report document carries, in sorted order.
REPORT_KEYS = ("critical_path", "fleet", "metrics", "per_region",
               "reliability", "run", "scenarios", "schema", "slo", "solver")


def _real(value: Any) -> Optional[float]:
    """``value`` when it is a finite number (not a bool), else None: a
    loaded document may hold anything where a number belongs."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return value if real and math.isfinite(value) else None


def _sanitize(obj: Any) -> Any:
    """JSON-safe containers and numbers: NaN/inf become None (strict
    JSON has neither)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def report_json(doc: Dict[str, Any]) -> str:
    """A report document's canonical serialisation: sorted keys, 2-space
    indent, LF."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def build_run_report(
    outcome, trace: Optional[Union[Tracer, Sequence[Span]]] = None
) -> Dict[str, Any]:
    """Assemble the report document for one harness :class:`RunOutcome`.

    ``trace`` (a live tracer or reloaded span list) enables the
    critical-path section; without it the section is ``None`` and the
    run itself is untouched — reporting never perturbs a simulation.
    The SLO section is the outcome's own evaluated objectives; no run
    writes the fleet section, which stays ``None``.
    """
    run = {
        "app": outcome.app_name,
        "input_size": outcome.input_size,
        "label": outcome.label,
        "mean_service_time_s": outcome.mean_service_time_s,
        "n_invocations": outcome.n_invocations,
        "p95_service_time_s": outcome.p95_service_time_s,
        "regions_used": list(outcome.regions_used),
    }
    scenarios = {
        name: {
            "mean_carbon_g": stats.mean_carbon_g,
            "mean_cost_usd": stats.mean_cost_usd,
            "mean_exec_carbon_g": stats.mean_exec_carbon_g,
            "mean_trans_carbon_g": stats.mean_trans_carbon_g,
        }
        for name, stats in (outcome.per_scenario or {}).items()
    }

    reliability = None
    if outcome.reliability is not None:
        stats = outcome.reliability
        reliability = {
            "completed_requests": stats.completed_requests,
            "dead_letters": stats.dead_letters,
            "failed_requests": stats.failed_requests,
            "home_fallbacks": stats.home_fallbacks,
            "injected": dict(sorted(stats.injected.items())),
            "retries": stats.retries,
            "timed_out_requests": stats.timed_out_requests,
        }

    solver = None
    if outcome.solver_stats is not None:
        s = outcome.solver_stats
        solver = {
            "estimate_cache_hits": s.estimate_cache_hits,
            "estimates_computed": s.estimates_computed,
            "profile_cache_hits": s.profile_cache_hits,
            "profiles_built": s.profiles_built,
            "samples_drawn": s.samples_drawn,
            "simulations_run": s.simulations_run,
        }

    critical_path = None
    if trace is not None:
        critical_path = analyze_trace(trace).aggregate()

    doc = _sanitize(
        {
            "critical_path": critical_path,
            "fleet": None,
            "metrics": outcome.metrics or {},
            "per_region": outcome.per_region or {},
            "reliability": reliability,
            "run": run,
            "scenarios": scenarios,
            "schema": REPORT_SCHEMA,
            "slo": list(outcome.slo) if outcome.slo else None,
            "solver": solver,
        }
    )
    return doc


# ------------------------------------------------------------------ the bundle
def _line(record: Dict[str, Any]) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass
class RunBundle:
    """One run's artifact: its report, its spans and its series points.

    Serialised as ``caribou.run/v1`` JSON lines: the header
    ``{"schema":"caribou.run/v1","window_s":W}``, then one
    ``{"report":{…}}`` record, one ``{"span":{…}}`` record per span in
    trace order and one ``{"point":{…}}`` record per series point in
    series order.  Records are one-key objects because points already
    use a ``"type"`` key.
    """

    report: Dict[str, Any]
    spans: List[Span]
    points: List[Dict[str, Any]]
    window_s: float

    def to_jsonl(self) -> str:
        """Compact sorted-key lines, byte-identical for same-seed runs."""
        lines = [_line({"schema": BUNDLE_SCHEMA, "window_s": self.window_s})]
        lines.append(_line({"report": self.report}))
        lines.extend(_line({"span": span.to_dict()}) for span in self.spans)
        lines.extend(_line({"point": point}) for point in self.points)
        return "\n".join(lines) + "\n"


def _tables(value: Any, depth: int) -> bool:
    """True when ``value`` is an object whose values are objects,
    ``depth`` levels down (``depth=0``: just an object)."""
    if not isinstance(value, dict):
        return False
    return depth == 0 or all(_tables(v, depth - 1) for v in value.values())


def _check_report(doc: Any) -> Optional[str]:
    """Why ``doc`` is not a report the views can render, or None.

    Checks every container the markdown, dashboard and diff views walk;
    leaves may hold anything, since the views format them totally.
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != REPORT_SCHEMA:
        return f"report schema {schema!r}, expected {REPORT_SCHEMA!r}"
    for key in ("run", "scenarios", "per_region", "metrics"):
        if not isinstance(doc.get(key), dict):
            return f"report section {key!r} is not an object"
    for key in ("critical_path", "reliability", "solver", "fleet"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            return f"report section {key!r} is not an object or null"
    slo = doc.get("slo")
    if slo is not None and not isinstance(slo, list):
        return "report section 'slo' is not a list or null"
    cp = doc.get("critical_path") or {}
    fleet = doc.get("fleet") or {}
    nested = (
        isinstance(doc["run"].get("regions_used", []), list)
        and _tables(doc["scenarios"], 1)
        and _tables(doc["per_region"], 2)
        and all(_tables(cp.get(k) or {}, 1)
                for k in ("by_kind", "by_node", "sync_gates"))
        and all(_tables(g.get("gated_by") or {}, 0)
                for g in (cp.get("sync_gates") or {}).values())
        and _tables(fleet.get("per_workflow") or {}, 1)
        and all(isinstance(e, dict) and isinstance(e.get("alerts", []), list)
                for e in slo or ())
    )
    return None if nested else "report sections nest the wrong types"


def _check_span(body: Any) -> Optional[str]:
    """Why ``body`` is not a span the critical-path views can walk."""
    if not isinstance(body, dict):
        return "span is not an object"
    try:
        span = Span.from_dict(body)
    except TypeError as exc:
        return f"not a span ({exc})"
    if _real(span.t0) is None or (span.t1 is not None and _real(span.t1) is None):
        return "span t0/t1 are not numbers"
    strings = (span.kind, span.name, span.workflow, span.request_id)
    if not all(isinstance(v, str) for v in strings):
        return "span kind/name/workflow/request_id are not strings"
    arrivals = span.attrs.get("arrivals", {}) if isinstance(span.attrs, dict) else None
    if type(span.span_id) is not int or not _tables(arrivals, 0) or any(
        _real(t) is None for t in arrivals.values()
    ):
        return "span id, attrs or arrivals have the wrong type"
    return None


#: Point types and the numeric fields each one must carry.
_POINT_FIELDS = {
    "counter": ("window", "value"),
    "gauge": ("window", "value"),
    "histogram": ("window", "count", "sum"),
}


def _check_point(body: Any) -> Optional[str]:
    """Why ``body`` is not a series point, or None."""
    if not isinstance(body, dict) or not isinstance(body.get("metric"), str):
        return "point has no string 'metric'"
    kind = body.get("type")
    fields = _POINT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        return "point type is not counter, gauge or histogram"
    if not all(k in body for k in fields) or any(
        _real(v) is None for k, v in body.items()
        if k not in ("metric", "type", "buckets")
    ):
        return f"point needs numeric {', '.join(fields)}"
    if body["type"] == "histogram" and not isinstance(body.get("buckets"), dict):
        return "histogram point 'buckets' is not an object"
    return None


_CHECKS = {"report": _check_report, "span": _check_span, "point": _check_point}


def load_bundle(path: str) -> RunBundle:
    """Read the ``caribou.run/v1`` file at ``path``.

    Every defect is a :class:`MalformedInputError` that names ``path``
    and the line, so the views of a loaded bundle see only the shapes
    they render.  A missing file is the caller's ``OSError``.
    """
    number = 1

    def malformed(why: str) -> MalformedInputError:
        return MalformedInputError(
            f"{path}: not a {BUNDLE_SCHEMA} bundle (line {number}: {why})"
        )

    records: Dict[str, List[Any]] = {"report": [], "span": [], "point": []}
    header = None
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                record = json.loads(raw)
            except (ValueError, RecursionError):
                raise malformed("not JSON") from None
            if header is None:
                header = record if isinstance(record, dict) else {}
                if header.get("schema") != BUNDLE_SCHEMA:
                    raise malformed(f"header schema {header.get('schema')!r}, "
                                    f"expected {BUNDLE_SCHEMA!r}")
                window_s = _real(header.get("window_s"))
                if window_s is None or window_s <= 0:
                    raise malformed("header window_s is not a positive number")
                continue
            if not isinstance(record, dict) or len(record) != 1:
                raise malformed("not a one-key record")
            [(kind, body)] = record.items()
            if kind not in _CHECKS:
                raise malformed(f"unknown record {kind!r}")
            why = _CHECKS[kind](body)
            if why is not None:
                raise malformed(why)
            if kind == "report" and records["report"]:
                raise malformed("a second report record")
            records[kind].append(body)
    if header is None:
        raise malformed("empty file, expected the header")
    if not records["report"]:
        raise malformed("no report record")
    return RunBundle(
        report=records["report"][0],
        spans=[Span.from_dict(body) for body in records["span"]],
        points=records["point"],
        window_s=float(window_s),
    )

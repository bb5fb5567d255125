"""Unified run reports: one deterministic document per experiment run.

A :class:`RunReport` merges everything the repo already measures about
one run — the harness's per-invocation means, the ledger's per-region
carbon/cost, the :class:`~repro.obs.metrics.MetricsRegistry` snapshot,
:class:`~repro.cloud.faults.ReliabilityStats`, solver counters, and
(when the run was traced) the critical-path aggregates of
:mod:`repro.obs.critical_path` — into a single sorted-key JSON document
plus a markdown rendering.

Determinism is a hard requirement (the golden-report regression test
pins the quickstart report byte-for-byte), and nothing here reads the
host clock: every float in the document derives from the virtual
simulation alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Union

from repro.common.errors import MalformedInputError
from repro.obs.critical_path import analyze_trace
from repro.obs.trace import Span, Tracer

#: Schema identifier embedded in (and validated from) every report.
REPORT_SCHEMA = "caribou.run_report/v1"

#: Top-level keys every report document carries, in sorted order.
REPORT_KEYS = (
    "critical_path",
    "fleet",
    "metrics",
    "per_region",
    "reliability",
    "run",
    "scenarios",
    "schema",
    "slo",
    "solver",
)


def _finite(value: Any) -> Any:
    """JSON-safe numbers: NaN/inf become None (strict JSON has neither)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return _finite(obj)


@dataclass
class RunReport:
    """One run's merged observability document."""

    doc: Dict[str, Any]

    def to_json(self) -> str:
        """Canonical serialisation: sorted keys, 2-space indent, LF."""
        return json.dumps(
            self.doc, sort_keys=True, indent=2, allow_nan=False
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Parse a report; :class:`MalformedInputError` if ``text`` is
        not JSON, not an object, or carries another schema."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise MalformedInputError("not a run report (not JSON)") from None
        if not isinstance(doc, dict):
            raise MalformedInputError("not a run report (not a JSON object)")
        if doc.get("schema") != REPORT_SCHEMA:
            raise MalformedInputError(
                f"not a run report (schema={doc.get('schema')!r}, "
                f"expected {REPORT_SCHEMA!r})"
            )
        return cls(doc)

    def export(self, destination) -> None:
        text = self.to_json()
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                fh.write(text)

    # -- rendering -----------------------------------------------------------
    def to_markdown(self) -> str:
        """Human-readable report (GitHub-flavoured markdown)."""
        doc = self.doc
        run = doc.get("run", {})
        lines = [
            f"# Run report — {run.get('label', '?')}",
            "",
            f"- **app**: {run.get('app')} ({run.get('input_size')})",
            f"- **invocations**: {run.get('n_invocations')}",
            f"- **mean service time**: {_fmt(run.get('mean_service_time_s'))} s"
            f" (p95 {_fmt(run.get('p95_service_time_s'))} s)",
            f"- **regions used**: {', '.join(run.get('regions_used', [])) or '-'}",
        ]

        scenarios = doc.get("scenarios") or {}
        if scenarios:
            lines += [
                "",
                "## Carbon & cost (per invocation)",
                "",
                "| scenario | carbon mg | exec mg | trans mg | cost $ |",
                "|---|---|---|---|---|",
            ]
            for name in sorted(scenarios):
                s = scenarios[name]
                lines.append(
                    f"| {name} | {_fmt(_mg(s.get('mean_carbon_g')))} "
                    f"| {_fmt(_mg(s.get('mean_exec_carbon_g')))} "
                    f"| {_fmt(_mg(s.get('mean_trans_carbon_g')))} "
                    f"| {_fmt(s.get('mean_cost_usd'), 6)} |"
                )

        per_region = doc.get("per_region") or {}
        for scenario in sorted(per_region):
            regions = per_region[scenario]
            lines += [
                "",
                f"## Per-region usage — {scenario}",
                "",
                "| region | execs | exec s | carbon g | cost $ | egress MB |",
                "|---|---|---|---|---|---|",
            ]
            for region in sorted(regions):
                r = regions[region]
                lines.append(
                    f"| {region} | {int(r.get('n_executions', 0))} "
                    f"| {_fmt(r.get('exec_seconds'))} "
                    f"| {_fmt(r.get('carbon_g'), 4)} "
                    f"| {_fmt(r.get('cost_usd'), 6)} "
                    f"| {_fmt((r.get('bytes_out') or 0.0) / 1e6)} |"
                )

        cp = doc.get("critical_path")
        if cp:
            lines += [
                "",
                "## Critical path",
                "",
                f"- **requests analyzed**: {cp.get('n_requests')}",
                f"- **mean latency**: {_fmt(cp.get('mean_latency_s'))} s"
                f" (p95 {_fmt(cp.get('p95_latency_s'))} s)",
                "",
                "| segment kind | seconds | share |",
                "|---|---|---|",
            ]
            for kind, entry in (cp.get("by_kind") or {}).items():
                lines.append(
                    f"| {kind} | {_fmt(entry.get('seconds'))} "
                    f"| {_pct(entry.get('share'))} |"
                )
            nodes = cp.get("by_node") or {}
            if nodes:
                lines += ["", "| node | seconds | share |", "|---|---|---|"]
                ranked = sorted(
                    nodes.items(),
                    key=lambda kv: -(kv[1].get("seconds") or 0.0),
                )
                for node, entry in ranked[:10]:
                    lines.append(
                        f"| {node} | {_fmt(entry.get('seconds'))} "
                        f"| {_pct(entry.get('share'))} |"
                    )
            gates = cp.get("sync_gates") or {}
            if gates:
                lines += [
                    "",
                    "### Sync barriers",
                    "",
                    "| sync node | joins | gated by | mean straggle s |",
                    "|---|---|---|---|",
                ]
                for node in sorted(gates):
                    g = gates[node]
                    gated = ", ".join(
                        f"{edge} ×{count}"
                        for edge, count in (g.get("gated_by") or {}).items()
                    )
                    lines.append(
                        f"| {node} | {g.get('n')} | {gated} "
                        f"| {_fmt(g.get('mean_straggle_s'))} |"
                    )

        reliability = doc.get("reliability")
        if reliability:
            lines += ["", "## Reliability", ""]
            for key in sorted(reliability):
                value = reliability[key]
                if isinstance(value, dict):
                    value = (
                        ", ".join(
                            f"{k}={v}" for k, v in sorted(value.items())
                        )
                        or "none"
                    )
                lines.append(f"- **{key}**: {value}")

        solver = doc.get("solver")
        if solver:
            lines += ["", "## Solver", ""]
            for key in sorted(solver):
                lines.append(f"- **{key}**: {solver[key]}")

        fleet = doc.get("fleet")
        if fleet:
            lines += fleet_markdown_lines(fleet)

        slo = doc.get("slo")
        if slo:
            lines += [
                "",
                "## SLOs",
                "",
                "| objective | windows | violations | compliance "
                "| budget spent | alerts | met |",
                "|---|---|---|---|---|---|---|",
            ]
            for entry in slo:
                met = "yes" if entry.get("met") else "**no**"
                lines.append(
                    f"| `{entry.get('name')}` | {entry.get('windows')} "
                    f"| {entry.get('violations')} "
                    f"| {_pct(entry.get('compliance'))} "
                    f"| {_pct(entry.get('budget_spent'))} "
                    f"| {len(entry.get('alerts') or [])} | {met} |"
                )

        metrics = doc.get("metrics") or {}
        if metrics:
            lines += [
                "",
                "## Metrics",
                "",
                f"{len(metrics)} instruments",
                "",
                "```",
            ]
            for key in sorted(metrics):
                value = metrics[key]
                if isinstance(value, dict):
                    lines.append(
                        f"{key}: n={value.get('count')} "
                        f"mean={_fmt(value.get('mean'), 6)} "
                        f"max={_fmt(value.get('max'), 6)}"
                    )
                else:
                    lines.append(f"{key}: {_fmt(value, 6)}")
            lines.append("```")

        return "\n".join(lines) + "\n"


def fleet_markdown_lines(fleet: Dict[str, Any]) -> list:
    """Markdown lines for a fleet rollup: fleet totals plus the
    per-workflow breakdown table.  Shared by :meth:`RunReport.to_markdown`
    and the ``caribou fleet-report`` subcommand."""
    lines = ["", "## Fleet", ""]
    for key in sorted(fleet):
        if key == "per_workflow":
            continue
        lines.append(f"- **{key}**: {fleet[key]}")
    per_workflow = fleet.get("per_workflow") or {}
    if per_workflow:
        lines += [
            "",
            "| workflow | checks | solves | migrations "
            "| invocations | tokens g |",
            "|---|---|---|---|---|---|",
        ]
        for name in sorted(per_workflow):
            w = per_workflow[name]
            lines.append(
                f"| {name} | {w.get('checks')} | {w.get('solves')} "
                f"| {w.get('migrations')} "
                f"| {w.get('invocations_observed')} "
                f"| {_fmt(w.get('tokens_g'))} |"
            )
    return lines


def _mg(grams: Optional[float]) -> Optional[float]:
    return None if grams is None else grams * 1000.0


def _fmt(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not math.isfinite(value):
        return "-"
    return f"{value:.{digits}f}"


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:.1f}%"


def build_run_report(
    outcome,
    trace: Optional[Union[Tracer, Sequence[Span]]] = None,
    fleet: Optional[Dict[str, Any]] = None,
    slo: Optional[Sequence[Dict[str, Any]]] = None,
) -> RunReport:
    """Assemble the report for one harness :class:`RunOutcome`.

    ``trace`` (a live tracer or reloaded span list) enables the
    critical-path section; without it the section is ``None`` and the
    run itself is untouched — reporting never perturbs a simulation.
    ``fleet`` (a :meth:`~repro.core.fleet.FleetManager.fleet_report`
    rollup) enables the fleet section for sweep runs.  ``slo`` (per-SLO
    evaluation dicts) defaults to the outcome's own ``slo`` attribute
    when a telemetered run already evaluated its objectives.
    """
    if slo is None:
        slo = getattr(outcome, "slo", None)
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
            "fleet": fleet,
            "metrics": outcome.metrics or {},
            "per_region": outcome.per_region or {},
            "reliability": reliability,
            "run": run,
            "scenarios": scenarios,
            "schema": REPORT_SCHEMA,
            "slo": list(slo) if slo else None,
            "solver": solver,
        }
    )
    return RunReport(doc)

"""Declarative SLOs evaluated over windowed telemetry series.

An :class:`SloSpec` names a per-window objective — a latency quantile
ceiling, an error-rate ceiling, a carbon-per-request ceiling — and the
:class:`SloTracker` evaluates it against the per-window points produced
by :mod:`repro.obs.timeseries`.  Because every point is keyed to the
*virtual* clock, evaluating post-run over the finished series is
exactly equivalent to evaluating live at each flush: one code path,
deterministic output.

On top of per-window pass/fail the tracker keeps SRE-style error-budget
accounting: the budget is the tolerated fraction of bad windows
(``1 - target``), and the burn rate over a trailing window span is

    burn = (violating windows / windows in span) / budget

A burn rate of 1.0 spends the budget exactly; the classic fast/slow
alert pair (e.g. 14.4x over 1h + 6x over 6h, scaled here to window
counts) fires on the *rising edge* and is recorded as a structured
event dict, ready for ``RunReport`` embedding or JSONL export.

Spec strings (accepted by ``caribou run --slo``)::

    p95(executor.request_latency_s)<=0.8
    rate(executor.requests_expired/executor.requests)<=0.01
    ratio(ledger.carbon_g/ledger.requests)<=0.5

Label filters select series: ``p95(executor.request_latency_s{workflow=a})<=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import parse_key
from repro.obs.timeseries import _qkey

#: Default multi-window burn-rate alert thresholds, (windows, burn).
#: Mirrors the SRE fast-burn/slow-burn pair: a short span catching
#: budget-torching incidents and a long span catching slow leaks.
DEFAULT_BURN_ALERTS: Tuple[Tuple[int, float], ...] = ((1, 14.4), (6, 6.0))


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective evaluated per window.

    Attributes:
        name: Stable identifier used in reports and alert events.
        kind: ``"quantile"`` (histogram percentile ceiling), ``"rate"``
            or ``"ratio"`` (both ``numerator/denominator <= threshold``;
            ``rate`` treats a missing numerator window as 0 violations,
            the idiom for error counters that stay silent when healthy).
        metric: Instrument name, optionally with ``{label=value}``
            filters; matched against series point keys.
        threshold: Upper bound for the windowed value.
        quantile: For ``kind="quantile"``: which precomputed window
            quantile to read (0.5/0.9/0.95/0.99).
        denominator: For rate/ratio kinds.
        target: Fraction of windows that must meet the objective
            (error budget is ``1 - target``).
    """

    name: str
    kind: str
    metric: str
    threshold: float
    quantile: float = 0.95
    denominator: str = ""
    target: float = 0.99

    @property
    def budget(self) -> float:
        return max(1.0 - self.target, 1e-9)


def parse_slo(text: str, target: float = 0.99) -> SloSpec:
    """Parse a ``caribou run --slo`` spec string into an :class:`SloSpec`.

    Grammar: ``<fn>(<metric>[/<denominator>])<=<threshold>[@<target>]``
    where ``fn`` is ``p50|p90|p95|p99|rate|ratio``.
    """
    spec = text.strip()
    if "@" in spec:
        spec, _, target_s = spec.rpartition("@")
        target = float(target_s)
    if "<=" not in spec:
        raise ValueError(f"SLO spec needs '<=': {text!r}")
    head, _, threshold_s = spec.partition("<=")
    threshold = float(threshold_s)
    head = head.strip()
    open_p = head.find("(")
    if open_p < 0 or not head.endswith(")"):
        raise ValueError(f"SLO spec needs 'fn(metric)': {text!r}")
    fn = head[:open_p].strip().lower()
    inner = head[open_p + 1 : -1].strip()
    if fn in ("rate", "ratio"):
        num, sep, den = inner.partition("/")
        if not sep:
            raise ValueError(f"{fn}() needs 'numerator/denominator': {text!r}")
        return SloSpec(
            name=spec.replace(" ", ""), kind=fn, metric=num.strip(),
            threshold=threshold, denominator=den.strip(), target=target,
        )
    if fn.startswith("p"):
        q = float(fn[1:]) / 100.0
        if not 0.0 < q < 1.0:
            raise ValueError(f"bad quantile in SLO spec: {text!r}")
        return SloSpec(
            name=spec.replace(" ", ""), kind="quantile", metric=inner,
            threshold=threshold, quantile=q, target=target,
        )
    raise ValueError(f"unknown SLO function {fn!r} in {text!r}")


def _metric_matches(selector: str, key: str) -> bool:
    """True if a point's metric key matches a spec selector.

    A bare name matches any label set of that name; a labelled selector
    requires every selector label to be present with the same value.
    """
    sel_name, sel_labels = parse_key(selector)
    name, labels = parse_key(key)
    if name != sel_name:
        return False
    return all(labels.get(k) == v for k, v in sel_labels.items())


@dataclass
class SloWindowResult:
    """Evaluation of one spec over one window."""

    window: float
    value: float
    ok: bool


@dataclass
class SloResult:
    """Evaluation of one spec over a whole series."""

    spec: SloSpec
    windows: List[SloWindowResult] = field(default_factory=list)
    alerts: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def n_violations(self) -> int:
        return sum(1 for w in self.windows if not w.ok)

    @property
    def compliance(self) -> float:
        if not self.windows:
            return 1.0
        return 1.0 - self.n_violations / len(self.windows)

    @property
    def budget_spent(self) -> float:
        """Fraction of the error budget consumed (>1 = blown)."""
        if not self.windows:
            return 0.0
        return (self.n_violations / len(self.windows)) / self.spec.budget

    @property
    def met(self) -> bool:
        return self.compliance >= self.spec.target

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "metric": self.spec.metric,
            "threshold": self.spec.threshold,
            "target": self.spec.target,
            "windows": self.n_windows,
            "violations": self.n_violations,
            "compliance": self.compliance,
            "budget_spent": self.budget_spent,
            "met": self.met,
            "alerts": self.alerts,
        }


class SloTracker:
    """Evaluates a set of :class:`SloSpec` over a windowed series."""

    def __init__(
        self,
        specs: Sequence[SloSpec],
        burn_alerts: Sequence[Tuple[int, float]] = DEFAULT_BURN_ALERTS,
    ):
        self.specs = list(specs)
        self.burn_alerts = tuple(burn_alerts)

    # -- per-window value extraction ------------------------------------------
    def _window_value(
        self, spec: SloSpec, window: float,
        by_window: Dict[float, List[Dict[str, Any]]],
    ) -> Optional[float]:
        points = by_window.get(window, [])
        if spec.kind == "quantile":
            qk = _qkey(spec.quantile)
            worst: Optional[float] = None
            for p in points:
                if p.get("type") == "histogram" and _metric_matches(
                    spec.metric, p["metric"]
                ):
                    v = p.get(qk)
                    if v is not None and (worst is None or v > worst):
                        worst = v
            return worst
        # rate / ratio: sum matching numerator and denominator values.
        num = 0.0
        den = 0.0
        saw_num = False
        saw_den = False
        for p in points:
            value = p.get("value")
            if value is None:
                value = p.get("count")
            if value is None:
                continue
            if _metric_matches(spec.metric, p["metric"]):
                num += value
                saw_num = True
            if _metric_matches(spec.denominator, p["metric"]):
                den += value
                saw_den = True
        if not saw_den or den == 0.0:
            return None
        if not saw_num:
            if spec.kind == "rate":
                num = 0.0  # quiet error counter == zero errors
            else:
                return None
        return num / den

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, points: Sequence[Dict[str, Any]]) -> List[SloResult]:
        """Evaluate every spec over the series; deterministic output.

        Windows with no matching data are skipped (they neither spend
        nor restore budget).  Burn-rate alerts fire on the rising edge:
        one event per (spec, span) excursion above its threshold.
        """
        by_window: Dict[float, List[Dict[str, Any]]] = {}
        for p in points:
            by_window.setdefault(p["window"], []).append(p)
        windows = sorted(by_window)

        results: List[SloResult] = []
        for spec in self.specs:
            result = SloResult(spec=spec)
            for w in windows:
                value = self._window_value(spec, w, by_window)
                if value is None:
                    continue
                result.windows.append(
                    SloWindowResult(
                        window=w, value=value, ok=value <= spec.threshold
                    )
                )
            self._burn_alerts(result)
            results.append(result)
        return results

    def _burn_alerts(self, result: SloResult) -> None:
        flags = [0 if w.ok else 1 for w in result.windows]
        budget = result.spec.budget
        for span, threshold in self.burn_alerts:
            firing = False
            for i in range(len(flags)):
                lo = max(0, i + 1 - span)
                frac = sum(flags[lo : i + 1]) / (i + 1 - lo)
                burn = frac / budget
                if burn >= threshold and not firing:
                    firing = True
                    result.alerts.append(
                        {
                            "type": "slo_burn",
                            "slo": result.spec.name,
                            "window": result.windows[i].window,
                            "span_windows": span,
                            "burn_rate": burn,
                            "threshold": threshold,
                        }
                    )
                elif burn < threshold:
                    firing = False


def evaluate_slos(
    specs: Sequence[SloSpec], points: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One-shot helper: evaluate ``specs`` and return report-ready dicts."""
    return [r.to_dict() for r in SloTracker(specs).evaluate(points)]


#: Objectives applied when ``--slo`` is passed without spec strings:
#: request p95 under a second, failure/timeout rate under 1%, and
#: carbon per request under half a gram (tuned to the quickstart scale).
DEFAULT_SLOS: Tuple[SloSpec, ...] = (
    parse_slo("p95(executor.request_latency_s)<=1.0"),
    parse_slo(
        "rate(executor.requests_finished{status=failed}/executor.requests)"
        "<=0.01"
    ),
    parse_slo(
        "rate(executor.requests_finished{status=timed_out}/executor.requests)"
        "<=0.01"
    ),
    parse_slo("ratio(ledger.carbon_g/ledger.requests)<=0.5"),
)

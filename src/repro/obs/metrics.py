"""Lightweight metrics registry (counters, gauges, histograms).

Operational metrics, kept as aggregates.  The families that restate a
ledger row (``faas.invocations``/``cold_starts``/``duration_s``,
``network.transfers``/``egress_bytes``/``transfer_latency_s``/
``transfer_bytes``, ``pubsub.publishes``, ``kv.reads``/``writes``) are
folded from a simulated cloud's ledger before every read
(:class:`~repro.cloud.ledger.LedgerMetrics`); the rest are updated live.

Instruments are identified by a name plus optional labels; repeated
lookups return the same instrument.  A registry built with
``enabled=False`` (or the shared :data:`NULL_METRICS`) hands out no-op
instruments, making instrumentation free where observability is off.
All state is plain dict/float bookkeeping — no RNG, no clock, no
events — so recording metrics can never perturb a simulation.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

#: Default histogram bucket upper bounds (seconds-oriented; byte-sized
#: histograms pass their own).  The terminal +inf bucket is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)


def format_bound(bound: float) -> str:
    """Canonical string form of a histogram bucket bound (``"0.001"``,
    ``"5"``, ...); the overflow bucket is spelled ``"+Inf"`` by callers."""
    return format(bound, "g")


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`_key`: ``"name{k=v,k2=v2}" -> ("name", {...})``.

    Used by the exporters and the windowed sampler, which need the
    label dimensions (workflow, region, status) back out of the flat
    instrument keys the registry stores.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name = key[:brace]
    inner = key[brace + 1 : -1]
    labels: Dict[str, str] = {}
    if inner:
        for part in inner.split(","):
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def _key(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    if len(labels) == 1:
        # The overwhelmingly common shape (one region= or workflow=
        # label) — skip the sort/join machinery on the hot path.
        [(k, v)] = labels.items()
        return f"{name}{{{k}={v}}}"
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Streaming distribution summary: count/sum/min/max + buckets.

    Buckets hold counts of observations ``<= bound``; an implicit final
    bucket catches the rest.  No raw samples are retained.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _NullInstrument:
    """Stands in for every instrument type when the registry is off."""

    __slots__ = ()
    name = "<disabled>"
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Hands out named instruments and snapshots their state."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Run before every read: a simulated cloud's ledger fold.
        self._read_hook: Callable[[], None] = lambda: None

    # -- instrument accessors (get-or-create) --------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        key = _key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(key)
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        key = _key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(key)
        return inst

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        key = _key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                key, tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
            )
        return inst

    # -- iteration (sorted, for deterministic export) --------------------------
    def iter_counters(self) -> Iterable[Tuple[str, Counter]]:
        self._read_hook()
        for key in sorted(self._counters):
            yield key, self._counters[key]

    def iter_gauges(self) -> Iterable[Tuple[str, Gauge]]:
        for key in sorted(self._gauges):
            yield key, self._gauges[key]

    def iter_histograms(self) -> Iterable[Tuple[str, Histogram]]:
        self._read_hook()
        for key in sorted(self._histograms):
            yield key, self._histograms[key]

    # -- export ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Flat, sorted, JSON-serialisable view of every instrument.

        Histogram entries carry the summary stats plus a ``buckets``
        mapping of upper bound (``"0.001"`` .. ``"+Inf"``, formatted
        with :func:`format_bound`) to cumulative-within-run count per
        bucket — the windowed sampler and the Prometheus exporter need
        the full distribution, not just mean/quantiles.  The summary
        keys (``count``/``sum``/``mean``/``min``/``max``) are stable;
        ``buckets`` is purely additive.
        """
        out: Dict[str, Any] = {key: c.value for key, c in self.iter_counters()}
        out.update((key, g.value) for key, g in self.iter_gauges())
        for key, h in self.iter_histograms():
            buckets = {
                format_bound(b): h.bucket_counts[i]
                for i, b in enumerate(h.bounds)
            }
            buckets["+Inf"] = h.bucket_counts[len(h.bounds)]
            out[key] = {
                "count": h.count,
                "sum": h.total,
                "mean": h.mean,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
                "buckets": buckets,
            }
        return out

    def __len__(self) -> int:
        return len(self.snapshot())


#: Shared disabled registry for call sites that want a hard no-op.
NULL_METRICS = MetricsRegistry(enabled=False)

"""The Metrics Manager (MM) component (paper §7.2, Fig. 4).

Responsibilities reproduced from the paper:

* **Learning from past invocations** — logs from all function executions
  are aggregated per workflow invocation.  The MM keeps "at most ... the
  5,000 latest workflow executions" within a 30-day window; beyond the
  cap it "starts selectively forgetting the oldest invocations: only
  invocations representing DAG information (e.g., region-to-region
  latency) not present in new data are maintained, and others are
  removed in a FIFO manner".
* **Insights telemetry** — per-function average vCPU utilisation comes
  from the runtime's ``cpu_total_time`` (Lambda Insights substitute).
* **External data** — carbon intensity, prices, and RTT estimates are
  pulled from the synthetic sources.
* **Forecasting** — daily Holt-Winters fits over the previous week's
  hourly carbon produce the intensities used for future-hour plans.

The MM also implements the :class:`~repro.metrics.montecarlo.WorkflowModelData`
protocol, making it directly consumable by the Monte-Carlo estimator.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.cloud.ledger import MeteringLedger
from repro.common.clock import SECONDS_PER_DAY
from repro.data.carbon import CarbonIntensitySource
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.forecast import HoltWintersForecaster
from repro.model.config import WorkflowConfig
from repro.model.dag import WorkflowDAG

#: Retention limits from §7.2.
MAX_INVOCATIONS = 5000
RETENTION_DAYS = 30
#: The ledger fields ``collect`` reads, in the order the ``_ingest_*``
#: methods take them.
EXECUTION_FIELDS = (
    "request_id", "start_s", "node", "region", "duration_s", "n_vcpu", "cpu_total_time_s",
)
TRANSMISSION_FIELDS = (
    "request_id", "edge", "start_s", "src_region", "dst_region", "size_bytes",
)


@dataclass
class InvocationSummary:
    """Everything the MM retains about one workflow invocation."""

    request_id: str
    first_start_s: float
    # node -> (region, duration_s)
    node_executions: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    # (src, dst) -> (src_region, dst_region, size_bytes)
    edge_transfers: Dict[Tuple[str, str], Tuple[str, str, float]] = field(
        default_factory=dict
    )
    # End-user input payload size (client -> start node), if observed.
    input_bytes: Optional[float] = None

    def info_keys(self) -> List[Tuple]:
        """The "DAG information" keys this invocation represents:
        (node, region) execution pairs and (src_region, dst_region)
        latency pairs (§7.2's selective-forgetting criterion)."""
        keys: List[Tuple] = [
            ("exec", node, region)
            for node, (region, _dur) in self.node_executions.items()
        ]
        keys += [
            ("route", src_region, dst_region)
            for (_s, _d), (src_region, dst_region, _size) in self.edge_transfers.items()
        ]
        return keys


class _Learned:
    """What the invocation store teaches at one version, learned in one
    pass over it in invocation order.  A distribution is built on its
    first read (building checks its samples finite, so a bad sample
    raises on its own key's read only) and kept for the version."""

    def __init__(self, invocations: Iterable[InvocationSummary]):
        #: (node, region) -> durations; node -> durations in any region,
        #: one per invocation the node ran in.
        self.durations: Dict[Tuple[str, str], List[float]] = {}
        self.pooled: Dict[str, List[float]] = {}
        self.sizes: Dict[Tuple[str, str], List[float]] = {}
        #: Invocations each edge was taken in (tagged data crossed it)
        #: while its source ran.
        self.taken: Dict[Tuple[str, str], int] = {}
        inputs: List[float] = []
        for s in invocations:
            for n, (r, dur) in s.node_executions.items():
                self.durations.setdefault((n, r), []).append(dur)
                self.pooled.setdefault(n, []).append(dur)
            for edge, (_sr, _dr, size) in s.edge_transfers.items():
                self.sizes.setdefault(edge, []).append(size)
                if edge[0] in s.node_executions:
                    self.taken[edge] = self.taken.get(edge, 0) + 1
            if s.input_bytes is not None:
                inputs.append(s.input_bytes)
        # No observed client inputs (e.g. model built from partial
        # telemetry): a zero-size input keeps the estimator total.
        self.inputs = inputs or [0.0]
        self._dists: Dict[Tuple, EmpiricalDistribution] = {}

    def dist(self, key: Tuple, samples: List[float]) -> EmpiricalDistribution:
        dist = self._dists.get(key)
        if dist is None:
            dist = self._dists[key] = EmpiricalDistribution(samples)
        return dist


class CarbonForecastProvider:
    """Holt-Winters forecasts per grid region, refit daily (§7.2)."""

    def __init__(self, carbon_source: CarbonIntensitySource):
        self._source = carbon_source
        self._forecasters: Dict[str, HoltWintersForecaster] = {}
        self._fit_hour: Dict[str, int] = {}
        #: Bumped on every successful refit; consumers holding derived
        #: state (e.g. the solver's EvaluationCache) compare it to
        #: detect that forecast-priced values went stale.
        self.version = 0

    def refit(self, region: str, now_hour: int) -> bool:
        """Fit on the previous week of hourly data ending at ``now_hour``.

        Returns False (leaving any previous fit in place) when less than
        a week of history exists yet.
        """
        if now_hour < 24 * 7:
            return False
        history = [
            self._source.intensity_at_hour(region, h)
            for h in range(now_hour - 24 * 7, now_hour)
        ]
        forecaster = HoltWintersForecaster()
        forecaster.fit(history)
        self._forecasters[region] = forecaster
        self._fit_hour[region] = now_hour
        self.version += 1
        return True

    def maybe_refit(self, region: str, now_hour: int) -> bool:
        """Refit only when the existing fit is from an earlier day.

        The dedup that makes one provider shareable across a fleet: 200
        Deployment Managers each request a daily refit, but the grid
        search behind :class:`~repro.metrics.forecast.HoltWintersForecaster`
        is the expensive part of a check cycle, and for a given region
        and day every manager would fit the *same* week of history.  The
        first caller of the day pays; the rest see a same-day fit and
        return immediately.
        """
        fit_hour = self._fit_hour.get(region)
        if fit_hour is not None and fit_hour // 24 == now_hour // 24:
            return False
        return self.refit(region, now_hour)

    def forecast_at(self, region: str, hour: int) -> float:
        """Forecast intensity for absolute ``hour``.

        Requires a prior :meth:`refit`; hours at/before the fit point
        return the actual value (they are known history).
        """
        if region not in self._forecasters:
            raise RuntimeError(f"no forecast fitted for region {region}")
        fit_hour = self._fit_hour[region]
        if hour < fit_hour:
            return self._source.intensity_at_hour(region, hour)
        horizon = hour - fit_hour + 1
        return float(self._forecasters[region].forecast(horizon)[-1])

    def has_forecast(self, region: str) -> bool:
        return region in self._forecasters


class MetricsManager:
    """Aggregates telemetry for one workflow and serves model data."""

    def __init__(
        self,
        dag: WorkflowDAG,
        config: WorkflowConfig,
        ledger: MeteringLedger,
        carbon_source: CarbonIntensitySource,
        max_invocations: int = MAX_INVOCATIONS,
        retention_days: int = RETENTION_DAYS,
        forecasts: Optional[CarbonForecastProvider] = None,
    ):
        self._dag = dag
        self._config = config
        self._ledger = ledger
        self._carbon = carbon_source
        self._max_invocations = max_invocations
        self._retention_s = retention_days * SECONDS_PER_DAY
        # Forecasts are per *grid region*, not per workflow, so a fleet
        # passes one shared provider here and every manager prices
        # future hours off the same daily Holt-Winters fits.
        self.forecasts = (
            forecasts
            if forecasts is not None
            else CarbonForecastProvider(carbon_source)
        )

        self._invocations: "OrderedDict[str, InvocationSummary]" = OrderedDict()
        # Cursors into the append-only ledger.
        self._exec_cursor = 0
        self._trans_cursor = 0
        # Lambda-Insights style utilisation aggregation per node.
        self._util_sum: Dict[str, float] = {}
        self._util_n: Dict[str, int] = {}
        # Declared fixed external data per node: node -> (region, bytes).
        self._external: Dict[str, Tuple[str, float]] = {}
        # What the store teaches at this version, learned on the first
        # read after it changed (a collect with new records, expiry,
        # eviction) and dropped when it changes again.
        self._snapshot: Optional[_Learned] = None
        #: Bumped whenever the learned model data changes (any event
        #: that drops the snapshot); see
        #: :attr:`CarbonForecastProvider.version` for the pattern.
        self.version = 0

    # -- configuration -------------------------------------------------------
    def declare_external_data(self, node: str, region: str, size_bytes: float) -> None:
        """Register a node's fixed external data dependency (§9.1)."""
        self._dag.node(node)
        self._external[node] = (region, float(size_bytes))

    def declare_function_external_data(self, functions) -> None:
        """Declare each function spec's ``external_data`` (when it has
        one) on every DAG node that function backs."""
        for spec in functions:
            if spec.external_data is None:
                continue
            for node in self._dag.node_names:
                if self._dag.node(node).function == spec.name:
                    self.declare_external_data(
                        node,
                        spec.external_data.region,
                        spec.external_data.size_bytes,
                    )

    # -- ingestion ------------------------------------------------------------
    def collect(self, now_s: float) -> int:
        """Pull new ledger records into the invocation store.

        Called by the Deployment Manager when a token check is due
        (Fig. 6 "Collect Metrics").  Returns the number of new execution
        records ingested.
        """
        workflow = self._dag.name
        executions = self._ledger.executions
        new_executions = executions.select(workflow, from_row=self._exec_cursor)
        self._exec_cursor = len(executions)
        transmissions = self._ledger.transmissions
        new_transmissions = [
            fields[1:]
            for fields in transmissions.select(workflow, from_row=self._trans_cursor).fields(
                "kind", *TRANSMISSION_FIELDS
            )
            if fields[0] == "data"
        ]
        self._trans_cursor = len(transmissions)
        for fields in new_executions.fields(*EXECUTION_FIELDS):
            self._ingest_execution(*fields)
        nodes = frozenset(self._dag.node_names)
        for fields in new_transmissions:
            self._ingest_transmission(*fields, nodes)
        self._expire(now_s)
        self._evict_to_cap()
        if new_executions or new_transmissions:
            self._snapshot = None
            self.version += 1
        return len(new_executions)

    def _summary_for(self, request_id: str, start_s: float) -> InvocationSummary:
        if request_id not in self._invocations:
            self._invocations[request_id] = InvocationSummary(
                request_id=request_id, first_start_s=start_s
            )
        return self._invocations[request_id]

    def _ingest_execution(
        self, request_id: str, start_s: float, node: str, region: str,
        duration_s: float, n_vcpu: float, cpu_total_time_s: float,
    ) -> None:
        if not request_id:
            return
        summary = self._summary_for(request_id, start_s)
        summary.first_start_s = min(summary.first_start_s, start_s)
        summary.node_executions[node] = (region, duration_s)
        # Insights utilisation.
        if duration_s > 0 and n_vcpu > 0:
            util = cpu_total_time_s / (duration_s * n_vcpu)
            self._util_sum[node] = self._util_sum.get(node, 0.0) + util
            self._util_n[node] = self._util_n.get(node, 0) + 1

    def _ingest_transmission(
        self, request_id: str, edge: str, start_s: float, src_region: str,
        dst_region: str, size_bytes: float, nodes: FrozenSet[str],
    ) -> None:
        if not request_id or "->" not in edge:
            return
        src, dst = edge.split("->", 1)
        if src == "$input":
            # Client -> start-node transfer: learn the input-size
            # distribution (the entry stage pays it when shifted).
            summary = self._summary_for(request_id, start_s)
            summary.input_bytes = size_bytes
            return
        if src not in nodes or dst not in nodes:
            return
        summary = self._summary_for(request_id, start_s)
        summary.edge_transfers[(src, dst)] = (src_region, dst_region, size_bytes)

    def _expire(self, now_s: float) -> None:
        """Hard 30-day retention window (§7.2)."""
        cutoff = now_s - self._retention_s
        stale = [
            rid
            for rid, s in self._invocations.items()
            if s.first_start_s < cutoff
        ]
        for rid in stale:
            self._remove(rid)

    def _evict_to_cap(self) -> None:
        """Selective forgetting beyond the 5,000-invocation cap (§7.2).

        Walk from the oldest invocation; remove it unless it is the sole
        representative of some DAG information key, in which case it is
        retained and the walk continues.  The keys are counted over the
        store once, when it is over the cap; each removal counts down
        its keys before the next invocation is judged, and a key one
        invocation holds several times (two edges over one region pair)
        needs a representative outside it.
        """
        if len(self._invocations) <= self._max_invocations:
            return
        counts = Counter(
            key
            for summary in self._invocations.values()
            for key in summary.info_keys()
        )
        for rid, summary in list(self._invocations.items()):
            if len(self._invocations) <= self._max_invocations:
                break
            held = Counter(summary.info_keys())
            if all(counts[k] > n for k, n in held.items()):
                counts.subtract(held)
                self._remove(rid)

    def _remove(self, request_id: str) -> None:
        del self._invocations[request_id]
        self._snapshot = None
        self.version += 1

    # -- workflow-level statistics (token bucket inputs, §5.2) --------------
    @property
    def invocation_count(self) -> int:
        return len(self._invocations)

    def invocations_since(self, since_s: float) -> int:
        return sum(
            1 for s in self._invocations.values() if s.first_start_s >= since_s
        )

    def average_runtime_s(self, since_s: float = 0.0) -> float:
        """Mean total node-execution seconds per invocation."""
        totals = [
            sum(dur for _r, dur in s.node_executions.values())
            for s in self._invocations.values()
            if s.first_start_s >= since_s
        ]
        return float(np.mean(totals)) if totals else 0.0

    # -- WorkflowModelData protocol -------------------------------------------
    def _learned(self) -> _Learned:
        if self._snapshot is None:
            self._snapshot = _Learned(self._invocations.values())
        return self._snapshot

    def execution_time_dist(self, node: str, region: str) -> EmpiricalDistribution:
        learned = self._learned()
        samples = learned.durations.get((node, region))
        if samples:
            return learned.dist(("exec", node, region), samples)
        # §7.1: fall back to the home region's distribution.
        home = self._config.home_region
        if region != home:
            return self.execution_time_dist(node, home)
        # A long fully-shifted run leaves no home sample in the window:
        # pool what the node did record elsewhere, in invocation order
        # like the per-region samples.
        pooled = learned.pooled.get(node)
        if not pooled:
            raise ValueError(
                f"no execution history for node {node!r} "
                f"in any region (home {home!r})"
            )
        return learned.dist(("pooled", node), pooled)

    def edge_probability(self, src: str, dst: str) -> float:
        if not self._dag.edge(src, dst).conditional:
            return 1.0
        learned = self._learned()
        src_ran = len(learned.pooled.get(src, ()))
        return learned.taken.get((src, dst), 0) / src_ran if src_ran else 0.0

    def edge_size_dist(self, src: str, dst: str) -> EmpiricalDistribution:
        learned = self._learned()
        samples = learned.sizes.get((src, dst))
        if not samples:
            raise ValueError(f"no payload-size history for edge {src}->{dst}")
        return learned.dist(("edge", src, dst), samples)

    def node_memory_mb(self, node: str) -> int:
        return self._dag.node(node).memory_mb

    def node_vcpu(self, node: str) -> float:
        from repro.cloud.functions import MEMORY_MB_PER_VCPU

        return self._dag.node(node).memory_mb / MEMORY_MB_PER_VCPU

    def node_cpu_utilization(self, node: str) -> float:
        n = self._util_n.get(node, 0)
        if n == 0:
            return 0.7  # neutral default until Insights data arrives
        return min(1.0, self._util_sum[node] / n)

    def node_external_bytes(self, node: str) -> Tuple[Optional[str], float]:
        if node in self._external:
            return self._external[node]
        return None, 0.0

    def input_size_dist(self) -> EmpiricalDistribution:
        learned = self._learned()
        return learned.dist(("input",), learned.inputs)

    # -- carbon accessors -------------------------------------------------------
    def carbon_for_hour(
        self, region: str, hour: int, use_forecast: bool = True
    ) -> float:
        """Intensity for planning ``hour`` — forecast when available."""
        if use_forecast and self.forecasts.has_forecast(region):
            return self.forecasts.forecast_at(region, hour)
        return self._carbon.intensity_at_hour(region, hour)

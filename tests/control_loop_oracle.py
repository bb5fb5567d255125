"""Test oracle: the control loop's history scans, kept verbatim.

Before the ledger grew an index behind ``group`` and the Metrics
Manager learned its distributions in one pass per metrics version, an
hourly check scanned whole histories:

* :func:`realized_savings` is ``DeploymentManager._realized_savings``
  as it was: it priced the window through ``price_by_request`` and then
  classified each request by walking ``ledger.executions`` from record
  0;
* :class:`ScanMetricsManager` is a ``MetricsManager`` whose four
  learned-data accessors (``execution_time_dist``, ``edge_size_dist``,
  ``edge_probability``, ``input_size_dist``) are the per-key builders
  as they were: one pass over the invocation store per key, with the
  home and pooled fallbacks and a per-key cache of its own (dropped
  whenever the store changes), and whose ``collect`` walks the ledger
  one record at a time (moving the version on any new execution or
  data transmission, as production does).

``tests/test_control_loop.py`` requires production's saving to equal
:func:`realized_savings` with ``==`` on every check of the capture run;
``tests/test_metrics_manager.py::TestLearnedDistributionsDifferential``
runs a production manager and a :class:`ScanMetricsManager` over the
same ledger and requires equal stores and every accessor's answer (a
support, a probability, or the error) to be equal.
``tests/ledger_pricing_oracle.py`` stays the oracle for ``group``
itself.  Not shipped: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cloud.ledger import TransmissionRecord
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.manager import EXECUTION_FIELDS, MetricsManager


def realized_savings(manager, since_s: float, until_s: float) -> float:
    """Measured carbon saved vs the home baseline over a period."""
    self = manager
    ledger = self._cloud.ledger
    home_region = self._d.config.home_region
    footprints = self._accountant.price_by_request(
        ledger, self._d.name, since_s=since_s, until_s=until_s
    )
    if not footprints:
        return 0.0
    # Classify each invocation by where its executions ran (one
    # ledger pass; matches the footprint grouping above).
    regions_by_rid: Dict[str, set] = {}
    for rec in ledger.executions:
        if rec.workflow == self._d.name and since_s <= rec.start_s < until_s:
            regions_by_rid.setdefault(rec.request_id, set()).add(rec.region)
    home_carbons: List[float] = []
    routed_carbons: List[float] = []
    for rid, fp in footprints.items():
        regions = regions_by_rid.get(rid)
        if not regions:
            continue
        if regions == {home_region}:
            home_carbons.append(fp.carbon_g)
        else:
            routed_carbons.append(fp.carbon_g)
    if not home_carbons or not routed_carbons:
        return 0.0
    saving_per_inv = float(np.mean(home_carbons) - np.mean(routed_carbons))
    return max(0.0, saving_per_inv * len(routed_carbons))


class ScanMetricsManager(MetricsManager):
    """A :class:`MetricsManager` whose learned distributions and edge
    probabilities are built by one store pass per key, as they were
    (per-key cache and all), and whose ``collect`` is the record-at-a-
    time cursor walk it was."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scan_cache: Dict[Tuple, object] = {}

    def _remove(self, request_id: str) -> None:
        super()._remove(request_id)
        self._scan_cache.clear()

    def collect(self, now_s: float) -> int:
        new_execs = 0
        workflow = self._dag.name
        executions = self._ledger.executions
        while self._exec_cursor < len(executions):
            rec = executions[self._exec_cursor]
            self._exec_cursor += 1
            if rec.workflow != workflow:
                continue
            self._ingest_execution(*(getattr(rec, name) for name in EXECUTION_FIELDS))
            new_execs += 1
        transmissions = self._ledger.transmissions
        new_trans = 0
        while self._trans_cursor < len(transmissions):
            rec = transmissions[self._trans_cursor]
            self._trans_cursor += 1
            if rec.workflow != workflow or rec.kind != "data":
                continue
            self._ingest_transmission(rec)
            new_trans += 1
        self._expire(now_s)
        self._evict_to_cap()
        if new_execs or new_trans:
            self._scan_cache.clear()
            self.version += 1
        return new_execs

    def _ingest_transmission(self, rec: TransmissionRecord) -> None:  # type: ignore[override]
        if not rec.request_id or "->" not in rec.edge:
            return
        src, dst = rec.edge.split("->", 1)
        if src == "$input":
            # Client -> start-node transfer: learn the input-size
            # distribution (the entry stage pays it when shifted).
            summary = self._summary_for(rec.request_id, rec.start_s)
            summary.input_bytes = rec.size_bytes
            return
        if src not in self._dag.node_names or dst not in self._dag.node_names:
            return
        summary = self._summary_for(rec.request_id, rec.start_s)
        key = (src, dst)
        if key not in summary.edge_transfers:
            self._bump(("route", rec.src_region, rec.dst_region), +1)
        else:
            old = summary.edge_transfers[key]
            if (old[0], old[1]) != (rec.src_region, rec.dst_region):
                self._bump(("route", old[0], old[1]), -1)
                self._bump(("route", rec.src_region, rec.dst_region), +1)
        summary.edge_transfers[key] = (rec.src_region, rec.dst_region, rec.size_bytes)

    def execution_time_dist(self, node: str, region: str) -> EmpiricalDistribution:
        key = ("exec_dist", node, region)
        cached = self._scan_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        samples = [
            dur
            for s in self._invocations.values()
            for n, (r, dur) in s.node_executions.items()
            if n == node and r == region
        ]
        if samples:
            dist = EmpiricalDistribution(samples)
        else:
            # §7.1: fall back to the home region's distribution.
            home = self._config.home_region
            if region != home:
                dist = self.execution_time_dist(node, home)
            else:
                # A long fully-shifted run leaves no home sample in the
                # window: pool what the node did record elsewhere, in
                # invocation order like the per-region samples above.
                pooled = [
                    dur
                    for s in self._invocations.values()
                    for n, (_r, dur) in s.node_executions.items()
                    if n == node
                ]
                if not pooled:
                    raise ValueError(
                        f"no execution history for node {node!r} "
                        f"in any region (home {home!r})"
                    )
                dist = EmpiricalDistribution(pooled)
        self._scan_cache[key] = dist
        return dist

    def edge_size_dist(self, src: str, dst: str) -> EmpiricalDistribution:
        key = ("edge_size", src, dst)
        cached = self._scan_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        samples = [
            size
            for s in self._invocations.values()
            for (a, b), (_sr, _dr, size) in s.edge_transfers.items()
            if (a, b) == (src, dst)
        ]
        if samples:
            dist = EmpiricalDistribution(samples)
        else:
            raise ValueError(f"no payload-size history for edge {src}->{dst}")
        self._scan_cache[key] = dist
        return dist

    def edge_probability(self, src: str, dst: str) -> float:
        key = ("edge_prob", src, dst)
        cached = self._scan_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        src_ran = 0
        taken = 0
        for s in self._invocations.values():
            if src in s.node_executions:
                src_ran += 1
                # The edge was exercised iff tagged data crossed it.
                if (src, dst) in s.edge_transfers:
                    taken += 1
        if src_ran == 0:
            prob = 0.0 if self._dag.edge(src, dst).conditional else 1.0
        elif not self._dag.edge(src, dst).conditional:
            prob = 1.0
        else:
            prob = taken / src_ran
        self._scan_cache[key] = prob
        return prob

    def input_size_dist(self) -> EmpiricalDistribution:
        key = ("input_size",)
        cached = self._scan_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        samples = [
            s.input_bytes
            for s in self._invocations.values()
            if s.input_bytes is not None
        ]
        if samples:
            dist = EmpiricalDistribution(samples)
        else:
            # No observed client inputs (e.g. model built from partial
            # telemetry): a zero-size input keeps the estimator total.
            dist = EmpiricalDistribution([0.0])
        self._scan_cache[key] = dist
        return dist

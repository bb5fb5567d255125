"""Test oracle: ledger grouping and pricing as four separate scans.

Production groups records in one place, ``MeteringLedger.group`` (the
only code that knows a transmission belongs to its source region), and
prices a group in one place, ``CarbonAccountant.price(group)``;
``price_by_request``, ``price_workflow``, ``usage_by_region`` and
``obs.timeseries.ledger_series`` compose the two.  These are the scans
they replaced, kept verbatim: each filtered, grouped and priced the
ledger on its own.  ``tests/test_accounting.py::TestLedgerPricingDifferential``
requires production to equal them with ``==``, key order included.

:class:`ScanAccountant` is a :class:`CarbonAccountant` whose ``price``
takes the four record lists and whose ``price_by_request`` and
``price_workflow`` are the old loops; :func:`usage_by_region` and
:func:`ledger_series` are module functions over a ledger.  Not shipped:
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cloud.ledger import (
    ExecutionRecord,
    KvAccessRecord,
    MessagingRecord,
    MeteringLedger,
    RecordGroup,
    TransmissionRecord,
)
from repro.metrics.accounting import CarbonAccountant, InvocationFootprint
from repro.obs.timeseries import DEFAULT_WINDOW_S, _point_sort_key


class ScanAccountant(CarbonAccountant):
    """A :class:`CarbonAccountant` pricing by the per-caller scans."""

    def price(  # type: ignore[override]
        self,
        executions: Sequence[ExecutionRecord] = (),
        transmissions: Sequence[TransmissionRecord] = (),
        messages: Sequence[MessagingRecord] = (),
        kv_accesses: Sequence[KvAccessRecord] = (),
    ) -> InvocationFootprint:
        fp = InvocationFootprint()
        for rec in executions:
            carbon = self.execution_carbon_g(rec)
            fp.exec_carbon_g += carbon
            fp.carbon_g += carbon
            fp.exec_seconds += rec.duration_s
            fp.n_executions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.execution_cost(
                    rec.region, rec.duration_s, rec.memory_mb
                )
        for rec in transmissions:
            carbon = self.transmission_carbon_g(rec)
            fp.trans_carbon_g += carbon
            fp.carbon_g += carbon
            fp.bytes_moved += rec.size_bytes
            fp.n_transmissions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.transmission_cost(
                    rec.src_region, rec.dst_region, rec.size_bytes
                )
        if self._cost is not None:
            for msg in messages:
                fp.cost_usd += self._cost.messaging_cost(msg.region)
            for access in kv_accesses:
                fp.cost_usd += self._cost.kv_cost(
                    access.region,
                    n_reads=0 if access.write else 1,
                    n_writes=1 if access.write else 0,
                )
        return fp

    def price_by_request(
        self,
        ledger: MeteringLedger,
        workflow: str,
        since_s: float = float("-inf"),
        until_s: float = float("inf"),
    ) -> Dict[str, InvocationFootprint]:
        groups: Dict[str, InvocationFootprint] = {}

        def fp_for(rid: str) -> InvocationFootprint:
            if rid not in groups:
                groups[rid] = InvocationFootprint()
            return groups[rid]

        for rec in ledger.executions:
            if rec.workflow != workflow or not (since_s <= rec.start_s < until_s):
                continue
            fp = fp_for(rec.request_id)
            carbon = self.execution_carbon_g(rec)
            fp.exec_carbon_g += carbon
            fp.carbon_g += carbon
            fp.exec_seconds += rec.duration_s
            fp.n_executions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.execution_cost(
                    rec.region, rec.duration_s, rec.memory_mb
                )
        for rec in ledger.transmissions:
            if rec.workflow != workflow or not (since_s <= rec.start_s < until_s):
                continue
            if not rec.request_id:
                continue
            fp = fp_for(rec.request_id)
            carbon = self.transmission_carbon_g(rec)
            fp.trans_carbon_g += carbon
            fp.carbon_g += carbon
            fp.bytes_moved += rec.size_bytes
            fp.n_transmissions += 1
            if self._cost is not None:
                fp.cost_usd += self._cost.transmission_cost(
                    rec.src_region, rec.dst_region, rec.size_bytes
                )
        if self._cost is not None:
            for msg in ledger.messages:
                if msg.workflow != workflow or not (
                    since_s <= msg.start_s < until_s
                ):
                    continue
                fp_for(msg.request_id).cost_usd += self._cost.messaging_cost(
                    msg.region
                )
            for access in ledger.kv_accesses:
                if access.workflow != workflow or not (
                    since_s <= access.start_s < until_s
                ):
                    continue
                fp_for(access.request_id).cost_usd += self._cost.kv_cost(
                    access.region,
                    n_reads=0 if access.write else 1,
                    n_writes=1 if access.write else 0,
                )
        groups.pop("", None)
        return groups

    def price_workflow(
        self,
        ledger: MeteringLedger,
        workflow: str,
        request_id: Optional[str] = None,
        since_s: float = float("-inf"),
        until_s: float = float("inf"),
    ) -> InvocationFootprint:
        def in_window(start: float) -> bool:
            return since_s <= start < until_s

        return self.price(
            executions=[
                r
                for r in ledger.executions_for(workflow, request_id)
                if in_window(r.start_s)
            ],
            transmissions=[
                r
                for r in ledger.transmissions_for(workflow, request_id)
                if in_window(r.start_s)
            ],
            messages=[
                r
                for r in ledger.messages_for(workflow, request_id)
                if in_window(r.start_s)
            ],
            kv_accesses=[
                r
                for r in ledger.kv_accesses_for(workflow, request_id)
                if in_window(r.start_s)
            ],
        )


def usage_by_region(
    ledger: MeteringLedger, workflow: Optional[str] = None
) -> Dict[str, RecordGroup]:
    usage: Dict[str, RecordGroup] = {}

    def bucket(region: str) -> RecordGroup:
        if region not in usage:
            usage[region] = RecordGroup()
        return usage[region]

    for rec in ledger.executions:
        if workflow is None or rec.workflow == workflow:
            bucket(rec.region).executions.append(rec)
    for trans in ledger.transmissions:
        if workflow is None or trans.workflow == workflow:
            bucket(trans.src_region).transmissions.append(trans)
    for msg in ledger.messages:
        if workflow is None or msg.workflow == workflow:
            bucket(msg.region).messages.append(msg)
    for access in ledger.kv_accesses:
        if workflow is None or access.workflow == workflow:
            bucket(access.region).kv_accesses.append(access)
    return {region: usage[region] for region in sorted(usage)}


def ledger_series(
    ledger,
    accountant: ScanAccountant,
    window_s: float = DEFAULT_WINDOW_S,
    workflow: Optional[str] = None,
) -> List[Dict[str, Any]]:
    def wstart(t: float) -> float:
        return (t // window_s) * window_s

    groups: Dict[Tuple[float, str, str], Dict[str, list]] = {}

    def bucket(t: float, region: str, wf: str) -> Dict[str, list]:
        key = (wstart(t), region, wf)
        if key not in groups:
            groups[key] = {
                "executions": [], "transmissions": [],
                "messages": [], "kv_accesses": [],
            }
        return groups[key]

    first_exec: Dict[str, Tuple[float, str]] = {}
    for rec in ledger.executions:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.region, rec.workflow)["executions"].append(rec)
        seen = first_exec.get(rec.request_id)
        if seen is None or rec.start_s < seen[0]:
            first_exec[rec.request_id] = (rec.start_s, rec.workflow)
    for rec in ledger.transmissions:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.src_region, rec.workflow)[
            "transmissions"
        ].append(rec)
    for rec in ledger.messages:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.region, rec.workflow)["messages"].append(rec)
    for rec in ledger.kv_accesses:
        if workflow is not None and rec.workflow != workflow:
            continue
        bucket(rec.start_s, rec.region, rec.workflow)["kv_accesses"].append(rec)

    requests: Dict[Tuple[float, str], int] = {}
    for t, wf in first_exec.values():
        key = (wstart(t), wf)
        requests[key] = requests.get(key, 0) + 1

    points: List[Dict[str, Any]] = []
    for (window, region, wf), recs in groups.items():
        fp = accountant.price(
            executions=recs["executions"],
            transmissions=recs["transmissions"],
            messages=recs["messages"],
            kv_accesses=recs["kv_accesses"],
        )
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

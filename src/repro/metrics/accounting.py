"""Carbon/cost accounting over raw ledger records.

The simulator's ledger stores *measurements* (durations, bytes, CPU
time); this module prices them into gCO2eq and USD using the paper's
models (§7.1) and the carbon intensity that prevailed at each record's
timestamp.  Because pricing is separate from simulation, one simulated
run can be re-priced under both the best- and worst-case transmission
scenarios (§9.1 fairness rule 4) without re-running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.ledger import (
    ExecutionRecord,
    MeteringLedger,
    RecordGroup,
    TransmissionRecord,
)
from repro.data.carbon import CarbonIntensitySource
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel


@dataclass
class InvocationFootprint:
    """Priced totals for one workflow invocation (or any record group)."""

    carbon_g: float = 0.0
    exec_carbon_g: float = 0.0
    trans_carbon_g: float = 0.0
    cost_usd: float = 0.0
    exec_seconds: float = 0.0
    bytes_moved: float = 0.0
    n_executions: int = 0
    n_transmissions: int = 0


class CarbonAccountant:
    """Prices ledger records under one transmission scenario.

    Grouping is the ledger's job (:meth:`MeteringLedger.group`); pricing
    a group is :meth:`price`'s.  :meth:`price_by_request` and
    :meth:`price_workflow` compose the two.
    """

    def __init__(
        self,
        carbon_source: CarbonIntensitySource,
        carbon_model: CarbonModel,
        cost_model: CostModel,
    ):
        self._source = carbon_source
        self._carbon = carbon_model
        self._cost = cost_model

    def with_scenario(self, scenario: TransmissionScenario) -> "CarbonAccountant":
        return CarbonAccountant(
            self._source, self._carbon.with_scenario(scenario), self._cost
        )

    # -- single records ---------------------------------------------------------
    def execution_carbon_g(self, record: ExecutionRecord) -> float:
        intensity = self._source.intensity_at(record.region, record.start_s)
        return self._carbon.execution_carbon_g(
            grid_intensity=intensity,
            duration_s=record.duration_s,
            memory_mb=record.memory_mb,
            n_vcpu=record.n_vcpu,
            cpu_total_time_s=record.cpu_total_time_s,
        )

    def transmission_carbon_g(self, record: TransmissionRecord) -> float:
        intensity = self._source.route_intensity_at(
            record.src_region, record.dst_region, record.start_s
        )
        return self._carbon.transmission_carbon_g(
            route_intensity=intensity,
            size_bytes=record.size_bytes,
            intra_region=record.intra_region,
        )

    # -- aggregation ----------------------------------------------------------------
    def price(self, group: RecordGroup) -> InvocationFootprint:
        """Carbon and cost of one record group, each record at the
        intensity of its own start time: executions, transmissions,
        messages, then KV accesses, each in ledger order."""
        fp = InvocationFootprint()
        cost = self._cost
        for rec in group.executions:
            carbon = self.execution_carbon_g(rec)
            fp.exec_carbon_g += carbon
            fp.carbon_g += carbon
            fp.exec_seconds += rec.duration_s
            fp.n_executions += 1
            fp.cost_usd += cost.execution_cost(rec.region, rec.duration_s, rec.memory_mb)
        for rec in group.transmissions:
            carbon = self.transmission_carbon_g(rec)
            fp.trans_carbon_g += carbon
            fp.carbon_g += carbon
            fp.bytes_moved += rec.size_bytes
            fp.n_transmissions += 1
            fp.cost_usd += cost.transmission_cost(rec.src_region, rec.dst_region, rec.size_bytes)
        for msg in group.messages:
            fp.cost_usd += cost.messaging_cost(msg.region)
        for access in group.kv_accesses:
            fp.cost_usd += cost.kv_cost(
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
        """Price every invocation of a workflow started in the window,
        in one ledger pass, keyed by request id in first-seen order.
        Framework traffic (empty request id) belongs to no invocation
        and is left out."""
        groups = ledger.group(lambda rec, region: rec.request_id, workflow, since_s, until_s)
        groups.pop("", None)
        return {rid: self.price(group) for rid, group in groups.items()}

    def price_workflow(
        self,
        ledger: MeteringLedger,
        workflow: str,
        request_id: Optional[str] = None,
        since_s: float = float("-inf"),
        until_s: float = float("inf"),
    ) -> InvocationFootprint:
        """Price every record of a workflow (optionally one invocation,
        optionally restricted to a time window)."""
        wanted = ledger.group(
            lambda rec, region: request_id is None or rec.request_id == request_id,
            workflow, since_s, until_s,
        )
        return self.price(wanted.get(True, RecordGroup()))

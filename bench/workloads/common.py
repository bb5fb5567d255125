"""What the four workloads share: input generation, verification, and the
virtual-time outcomes read back from the ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.cloud.provider import SimulatedCloud
from repro.common.rng import derive_seed
from repro.core.solver import ExactSolver, PlanEvaluator
from repro.data import workload
from repro.data.carbon import GRID_PROFILES, generate_carbon_trace
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.model.plan import HourlyPlanSet

#: Virtual seconds per traffic slice (one workload step where traffic runs).
SLICE_S = 600.0
#: Hours of the day the HBSS-vs-exact comparison is made at.
EXACT_HOURS = (3, 15)
#: Requests whose ``ledger.service_time`` is recomputed as a cross-check.
SERVICE_TIME_SAMPLES = 20

SCENARIO = TransmissionScenario.best_case()


def carbon_week() -> Mapping[str, np.ndarray]:
    """The one carbon week every run is priced against.

    The grid data is part of the fixed input, like the paper's
    2023-10-15..21 window; ``--seed`` varies what the system is asked to
    do, not the world it runs in, so carbon per request is comparable
    across seeds.  Generated afresh by every set-up, as any input is.
    """
    return {zone: generate_carbon_trace(zone, 24 * 7, seed=0) for zone in GRID_PROFILES}


def derive(seed: int, label: str) -> int:
    """A 32-bit seed for one generated input."""
    return derive_seed(seed, label) % 2**32


def diurnal_trace(rate_per_s: float, duration_s: float, trace_seed: int):
    """One open-loop Poisson arrival trace anchored at t=0."""
    spec = workload.WorkloadSpec(
        base_rate_per_s=rate_per_s, duration_s=duration_s, profile="diurnal"
    )
    return workload.generate_trace(spec, np.random.default_rng(trace_seed))


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Outcome:
    """What a workload hands back after its timed phase."""

    tally: Tally
    #: Verified operations (what ``ops_per_s`` counts).
    ops: int
    #: Virtual seconds the phase advanced (planned, for ``solve_cold``).
    virtual_s: float
    carbon_g_per_request: float
    sim_latency_p95_s: float
    hbss_carbon_vs_exact_pct: float
    events_per_request: float
    #: Per-layer counts read from public accessors after the phase.
    layer_counts: Dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------- verification
def check_requests(tally: Tally, executor, rids: Iterable[str]) -> int:
    """Every request terminal and completed, none left pending; returns
    the number that completed."""
    done = 0
    for rid in rids:
        status = executor.request_status(rid)
        done += tally.expect(status == "completed", f"request {rid} is {status}")
    pending = executor.pending_requests()
    if pending:
        tally.expect(False, f"{executor.deployed.name}: {len(pending)} requests pending")
    return done


def check_region_sums(tally: Tally, cloud: SimulatedCloud, workflow: str) -> None:
    """Per-region usage adds back up to the workflow's ledger totals."""
    ledger = cloud.ledger
    usage = ledger.usage_by_region(workflow).values()
    executions = ledger.executions_for(workflow)
    transmissions = ledger.transmissions_for(workflow)
    same = (
        sum(u.n_executions for u in usage) == len(executions)
        and sum(len(u.transmissions) for u in usage) == len(transmissions)
        and math.isclose(
            sum(u.exec_seconds for u in usage),
            sum(e.duration_s for e in executions), rel_tol=1e-9)
        and math.isclose(
            sum(u.bytes_out for u in usage),
            sum(t.size_bytes for t in transmissions), rel_tol=1e-9)
    )
    tally.expect(same, f"{workflow}: per-region usage does not sum to the totals")


def check_plan_set(
    tally: Tally, evaluator: PlanEvaluator, plan_set: HourlyPlanSet, what: str
) -> int:
    """Every hour of the day has a compliant plan covering the DAG;
    returns the number of hours that do."""
    good = 0
    for hour in range(24):
        plan = plan_set.plan_for_hour(hour)
        ok = plan.covers(evaluator.dag) and evaluator.is_plan_compliant(plan)
        good += tally.expect(ok, f"{what}: hour {hour} has no compliant plan")
    return good


def check_reports(tally: Tally, workflow: str, reports: Sequence) -> int:
    """Every manager check solved and activated its migration."""
    good = 0
    for i, report in enumerate(reports):
        ok = report.solved and report.migration is not None and report.migration.activated
        good += tally.expect(ok, f"{workflow}: check {i} did not solve and activate")
    return good


def hbss_vs_exact(
    evaluator: PlanEvaluator, plan_set: HourlyPlanSet
) -> Tuple[List[float], int]:
    """HBSS carbon as a percentage of the exact optimum's on one shared
    evaluator (100 = optimal), per :data:`EXACT_HOURS`, plus the
    branch-and-bound expansions that took."""
    exact = ExactSolver(evaluator)
    before = evaluator.stats.bnb_nodes_expanded
    ratios = []
    for hour in EXACT_HOURS:
        _plan, best = exact.solve_hour(hour)
        ours = evaluator.estimate(plan_set.plan_for_hour(hour), hour)
        ratios.append(ours.mean_carbon_g / best.mean_carbon_g * 100.0)
    return ratios, evaluator.stats.bnb_nodes_expanded - before


# ------------------------------------------------------- ledger read-back
def service_times(cloud: SimulatedCloud, since_s: float) -> Dict[Tuple[str, str], float]:
    """``ledger.service_time`` of every request that started at or after
    ``since_s``, in one pass over the ledger (the per-request accessor
    rescans it each call)."""
    spans: Dict[Tuple[str, str], List[float]] = {}
    for rec in cloud.ledger.executions:
        key = (rec.workflow, rec.request_id)
        span = spans.get(key)
        if span is None:
            spans[key] = [rec.start_s, rec.end_s]
        else:
            span[0] = min(span[0], rec.start_s)
            span[1] = max(span[1], rec.end_s)
    return {k: end - start for k, (start, end) in spans.items() if start >= since_s}


def ledger_outcomes(
    tally: Tally,
    cloud: SimulatedCloud,
    workflows: Sequence[str],
    since_s: float,
    times: Dict[Tuple[str, str], float],
) -> Tuple[float, float]:
    """(carbon g per request, p95 service time) of the requests served
    since ``since_s`` (``times`` = their :func:`service_times`), best-case
    transmission accounting."""
    accountant = CarbonAccountant(
        cloud.carbon_source, CarbonModel(SCENARIO), CostModel(cloud.pricing_source)
    )
    carbon = 0.0
    served = 0
    for name in workflows:
        footprints = accountant.price_by_request(cloud.ledger, name, since_s=since_s)
        carbon += sum(fp.carbon_g for fp in footprints.values())
        served += len(footprints)
    for (name, rid) in list(times)[:SERVICE_TIME_SAMPLES]:
        tally.expect(
            cloud.ledger.service_time(name, rid) == times[(name, rid)],
            f"service time of {rid} disagrees with the ledger accessor",
        )
    p95 = float(np.percentile(list(times.values()), 95)) if times else 0.0
    return (carbon / served if served else 0.0), p95


def cloud_layer_counts(clouds: Sequence[SimulatedCloud], executors: Sequence) -> Dict[str, float]:
    """Counts the wrappers cannot see, read from public accessors."""
    reliability = [e.reliability() for e in executors]
    return {
        "cloud.simulator.compactions": sum(c.env.compactions for c in clouds),
        "core.executor.timeouts": sum(r.timed_out_requests for r in reliability),
        "cloud.pubsub.retries": sum(r.retries for r in reliability),
    }

"""Deterministic fault injection for the simulated cloud.

The paper's reliability mechanisms — pub/sub at-least-once redelivery
(§6.2), home-region fallback for unmaterialised deployments, and
rollback of failed migrations (§6.1) — only matter when something goes
wrong.  This module makes "something going wrong" a first-class,
*reproducible* experiment input: a :class:`FaultPlan` declares faults
per (workflow, function, region) and per virtual-time window, and a
:class:`FaultInjector` — seeded from the experiment's RNG registry —
decides, deterministically, when each fault fires.

Injectable fault kinds:

* ``invocation_failure`` / ``invocation_timeout`` — a function
  invocation crashes (or hits its execution deadline) before the
  handler's effects occur; pub/sub redelivers with backoff.
* ``cold_start_spike`` — cold-start provisioning delays are multiplied
  by ``factor`` (co-tenant pressure, image-pull slowdowns).
* ``region_outage`` — an entire region is dark: its functions refuse
  deployments and invocations, its pub/sub topics accept no deliveries,
  and a KV store hosted there errors out.
* ``kv_error`` / ``kv_latency`` — individual KV operations fail, or all
  accesses to a store are slowed by ``factor``.
* ``network_partition`` — transfers between two regions fail (in both
  directions) while the window is open.

Everything is inert by default: an empty plan never touches the RNG and
never changes behaviour, so no-fault runs remain byte-identical to a
cloud built without any fault machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.cloud.simulator import SimulationEnvironment

#: Every fault kind a rule may declare.
FAULT_KINDS = (
    "invocation_failure",
    "invocation_timeout",
    "cold_start_spike",
    "region_outage",
    "kv_error",
    "kv_latency",
    "network_partition",
)


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault, scoped by target and time window.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        region: Target region (outages, KV faults, invocation faults);
            ``None`` matches every region.
        workflow / function: Scope invocation-level faults; ``None``
            matches everything.
        src_region / dst_region: Endpoints of a network partition (the
            partition is symmetric; either orientation matches).
        start_s / end_s: Half-open virtual-time window ``[start, end)``
            the rule is active in.
        probability: Chance the fault fires at each opportunity; 1.0
            fires always and consumes no randomness.
        factor: Multiplier for ``cold_start_spike`` / ``kv_latency``.
    """

    kind: str
    region: Optional[str] = None
    workflow: Optional[str] = None
    function: Optional[str] = None
    src_region: Optional[str] = None
    dst_region: Optional[str] = None
    start_s: float = 0.0
    end_s: float = math.inf
    probability: float = 1.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.factor <= 0.0:
            raise ValueError(f"factor must be positive, got {self.factor}")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"empty fault window [{self.start_s}, {self.end_s})"
            )
        if self.kind == "network_partition" and (
            self.src_region is None or self.dst_region is None
        ):
            raise ValueError("network_partition needs src_region and dst_region")

    def active(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s

    def matches(
        self,
        workflow: Optional[str] = None,
        function: Optional[str] = None,
        region: Optional[str] = None,
    ) -> bool:
        """Scope check: a ``None`` field on the rule matches anything."""
        if self.workflow is not None and workflow != self.workflow:
            return False
        if self.function is not None and function != self.function:
            return False
        if self.region is not None and region != self.region:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault rules.

    The default plan is empty (no faults).  ``with_*`` builders return a
    new plan with one more rule, so chaos scenarios read declaratively::

        plan = (FaultPlan()
                .with_region_outage("us-west-2", start_s=day, end_s=2 * day)
                .with_invocation_failures(0.05)
                .with_kv_latency(3.0))
    """

    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def of_kind(self, kind: str) -> Tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.kind == kind)

    def with_rule(self, rule: FaultRule) -> "FaultPlan":
        return replace(self, rules=self.rules + (rule,))

    # -- declarative builders ------------------------------------------------
    def with_invocation_failures(
        self,
        probability: float,
        workflow: Optional[str] = None,
        function: Optional[str] = None,
        region: Optional[str] = None,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="invocation_failure", probability=probability,
            workflow=workflow, function=function, region=region,
            start_s=start_s, end_s=end_s,
        ))

    def with_invocation_timeouts(
        self,
        probability: float,
        workflow: Optional[str] = None,
        function: Optional[str] = None,
        region: Optional[str] = None,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="invocation_timeout", probability=probability,
            workflow=workflow, function=function, region=region,
            start_s=start_s, end_s=end_s,
        ))

    def with_cold_start_spike(
        self,
        factor: float,
        region: Optional[str] = None,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="cold_start_spike", factor=factor, region=region,
            start_s=start_s, end_s=end_s,
        ))

    def with_region_outage(
        self, region: str, start_s: float = 0.0, end_s: float = math.inf
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="region_outage", region=region, start_s=start_s, end_s=end_s,
        ))

    def with_kv_errors(
        self,
        probability: float,
        region: Optional[str] = None,
        workflow: Optional[str] = None,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="kv_error", probability=probability, region=region,
            workflow=workflow, start_s=start_s, end_s=end_s,
        ))

    def with_kv_latency(
        self,
        factor: float,
        region: Optional[str] = None,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="kv_latency", factor=factor, region=region,
            start_s=start_s, end_s=end_s,
        ))

    def with_network_partition(
        self,
        region_a: str,
        region_b: str,
        start_s: float = 0.0,
        end_s: float = math.inf,
    ) -> "FaultPlan":
        return self.with_rule(FaultRule(
            kind="network_partition", src_region=region_a, dst_region=region_b,
            start_s=start_s, end_s=end_s,
        ))


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the simulation clock.

    Services ask the injector whether a fault applies to the operation
    they are about to perform; probabilistic rules draw from a dedicated
    ``"faults"`` RNG stream so chaos experiments never perturb the
    workload's own sampling.  Fired faults are tallied in
    :attr:`injected` (per kind) for the reliability counters.
    """

    def __init__(self, plan: FaultPlan, env: SimulationEnvironment):
        self._plan = plan
        self._env = env
        self._rng = env.rng.get("faults") if plan else None
        self._by_kind: Dict[str, Tuple[FaultRule, ...]] = {
            kind: plan.of_kind(kind) for kind in FAULT_KINDS
        }
        self.injected: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return bool(self._plan)

    def record(self, kind: str) -> None:
        """Tally one fired fault of ``kind`` (services call this at the
        moment a fault actually blocks an operation)."""
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def snapshot(self) -> Dict[str, int]:
        return dict(self.injected)

    # -- internals -----------------------------------------------------------
    def _fires(self, rule: FaultRule) -> bool:
        if rule.probability >= 1.0:
            return True
        return float(self._rng.random()) < rule.probability

    def _active(self, kind: str) -> Tuple[FaultRule, ...]:
        rules = self._by_kind[kind]
        if not rules:
            return ()
        now = self._env.now()
        return tuple(r for r in rules if r.active(now))

    # -- queries (one per fault site) ---------------------------------------
    def region_down(self, region: str) -> bool:
        """Whether an outage window currently covers ``region``.

        Pure query — callers :meth:`record` when the outage actually
        blocks an operation.
        """
        if not self._by_kind["region_outage"]:
            # Hot path: every invocation/KV op asks; skip the generator
            # machinery entirely when the plan has no outage rules.
            return False
        return any(r.matches(region=region) for r in self._active("region_outage"))

    def invocation_fault(
        self, workflow: str, function: str, region: str
    ) -> Optional[str]:
        """``"failure"``/``"timeout"`` when an invocation fault fires, else
        ``None``.  Fired faults are recorded here."""
        for kind, outcome in (
            ("invocation_failure", "failure"),
            ("invocation_timeout", "timeout"),
        ):
            if not self._by_kind[kind]:
                continue
            for rule in self._active(kind):
                if rule.matches(workflow, function, region) and self._fires(rule):
                    self.record(kind)
                    return outcome
        return None

    def cold_start_multiplier(
        self, workflow: str, function: str, region: str
    ) -> float:
        """Combined cold-start delay multiplier (1.0 when no spike)."""
        if not self._by_kind["cold_start_spike"]:
            return 1.0
        multiplier = 1.0
        for rule in self._active("cold_start_spike"):
            if rule.matches(workflow, function, region) and self._fires(rule):
                multiplier *= rule.factor
        if multiplier != 1.0:
            self.record("cold_start_spike")
        return multiplier

    def kv_error(self, region: str, workflow: str = "") -> bool:
        """Whether an injected KV error fires for one operation."""
        if not self._by_kind["kv_error"]:
            return False
        for rule in self._active("kv_error"):
            if rule.matches(workflow=workflow or None, region=region) and self._fires(rule):
                self.record("kv_error")
                return True
        return False

    def kv_latency_factor(self, region: str) -> float:
        """Latency multiplier for KV accesses to a store in ``region``."""
        if not self._by_kind["kv_latency"]:
            return 1.0
        factor = 1.0
        for rule in self._active("kv_latency"):
            if rule.matches(region=region) and self._fires(rule):
                factor *= rule.factor
        if factor != 1.0:
            self.record("kv_latency")
        return factor

    def partitioned(self, region_a: str, region_b: str) -> bool:
        """Whether a partition currently separates the two regions.

        Pure query — callers :meth:`record` when a transfer is refused.
        """
        if region_a == region_b or not self._by_kind["network_partition"]:
            return False
        pair = {region_a, region_b}
        return any(
            {r.src_region, r.dst_region} == pair
            for r in self._active("network_partition")
        )


@dataclass
class ReliabilityStats:
    """Per-workflow reliability counters for one simulated run.

    Mirrors how PR 1 surfaced ``SolverStats``: accumulated by the
    executor + cloud services, snapshotted into
    :class:`~repro.experiments.harness.RunOutcome` and printed by the
    CLI.
    """

    #: Fired faults per kind (from :attr:`FaultInjector.injected`).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Pub/sub redelivery attempts for this workflow's messages.
    retries: int = 0
    #: Messages (or acked-then-failed continuations) given up on.
    dead_letters: int = 0
    #: Publishes rerouted to the home region (§6.1 fallback).
    home_fallbacks: int = 0
    #: Requests that reached a terminal DAG node.
    completed_requests: int = 0
    #: Requests explicitly failed (dead-lettered / undeliverable).
    failed_requests: int = 0
    #: Requests cut off by the end-to-end watchdog.
    timed_out_requests: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def summary(self) -> str:
        injected = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
            or "none"
        )
        return (
            f"requests {self.completed_requests} ok / "
            f"{self.failed_requests} failed / "
            f"{self.timed_out_requests} timed out; "
            f"retries={self.retries}, dead_letters={self.dead_letters}, "
            f"home_fallbacks={self.home_fallbacks}; injected: {injected}"
        )

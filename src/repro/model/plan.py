"""Deployment plans (the mapping ``psi: N -> R``, §4/§5.1).

A :class:`DeploymentPlan` assigns every DAG node a region.  The solver
produces an :class:`HourlyPlanSet` — up to 24 plans per solve, one per
hour of the day, to track diurnal carbon patterns (§5.1); with a small
carbon budget the granularity can degrade to a single daily plan (§5.2).
Plans expire (§5.2) so stale decisions never route traffic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.model.dag import WorkflowDAG


@dataclass(frozen=True)
class DeploymentPlan:
    """An immutable node-to-region mapping with bookkeeping metadata.

    Attributes:
        assignments: node name -> region name for every DAG node.
        version: Monotonic plan version (assigned by the manager).
        created_at_s: Virtual time the plan was generated.
        expires_at_s: Virtual time after which traffic falls back to the
            home region (§5.2: "when a check is due and a pre-determined
            deployment exists that deployment is expired").
    """

    assignments: Mapping[str, str]
    version: int = 0
    created_at_s: float = 0.0
    expires_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", dict(self.assignments))

    def region_of(self, node: str) -> str:
        try:
            return self.assignments[node]
        except KeyError:
            raise KeyError(f"plan has no assignment for node {node!r}") from None

    @property
    def regions_used(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.assignments.values())))

    def is_single_region(self) -> bool:
        return len(set(self.assignments.values())) == 1

    def digest(self) -> str:
        """Stable content hash of the node-to-region mapping.

        Covers only :attr:`assignments` (what evaluation depends on),
        never the bookkeeping metadata, so re-versioned or re-stamped
        copies of the same placement share cache entries.  Memoized —
        the solver calls this on every evaluator lookup.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = ";".join(
                f"{node}={region}"
                for node, region in sorted(self.assignments.items())
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def is_expired(self, now_s: float) -> bool:
        return self.expires_at_s is not None and now_s >= self.expires_at_s

    def covers(self, dag: WorkflowDAG) -> bool:
        """Whether every DAG node has an assignment."""
        return set(self.assignments) >= set(dag.node_names)

    def with_metadata(
        self,
        version: Optional[int] = None,
        created_at_s: Optional[float] = None,
        expires_at_s: Optional[float] = None,
    ) -> "DeploymentPlan":
        return DeploymentPlan(
            assignments=self.assignments,
            version=self.version if version is None else version,
            created_at_s=self.created_at_s if created_at_s is None else created_at_s,
            expires_at_s=self.expires_at_s if expires_at_s is None else expires_at_s,
        )

    def moved_nodes(self, other: "DeploymentPlan") -> Tuple[str, ...]:
        """Nodes whose region differs between this plan and ``other``."""
        return tuple(
            sorted(
                n
                for n in self.assignments
                if other.assignments.get(n) != self.assignments[n]
            )
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialise for storage in the distributed key-value store."""
        return {
            "assignments": dict(self.assignments),
            "version": self.version,
            "created_at_s": self.created_at_s,
            "expires_at_s": self.expires_at_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DeploymentPlan":
        return cls(
            assignments=dict(data["assignments"]),  # type: ignore[arg-type]
            version=int(data.get("version", 0)),  # type: ignore[arg-type]
            created_at_s=float(data.get("created_at_s", 0.0)),  # type: ignore[arg-type]
            expires_at_s=data.get("expires_at_s"),  # type: ignore[arg-type]
        )

    @classmethod
    def single_region(
        cls, dag: WorkflowDAG, region: str, **metadata: object
    ) -> "DeploymentPlan":
        """The coarse-grained plan: every node in one region."""
        return cls(
            assignments={n: region for n in dag.node_names}, **metadata  # type: ignore[arg-type]
        )

    def __hash__(self) -> int:
        # Memoized like :meth:`digest`: HBSS hashes every candidate
        # into its per-hour memo of examined deployments.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(sorted(self.assignments.items())))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # String hashes are per-process (PYTHONHASHSEED), so a memoized
        # hash must not travel with a pickled plan.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeploymentPlan):
            return NotImplemented
        return dict(self.assignments) == dict(other.assignments)


class HourlyPlanSet:
    """Per-hour deployment plans from one solve (§5.1: "24 plans are
    generated per solve — one for each hour, given sufficient carbon
    budget").

    Coarser granularities (§5.2) are expressed by repeating one plan
    across several hours; :meth:`daily` builds the single-plan case.
    """

    def __init__(
        self,
        plans_by_hour: Mapping[int, DeploymentPlan],
        created_at_s: float = 0.0,
        expires_at_s: Optional[float] = None,
    ):
        if not plans_by_hour:
            raise ConfigurationError("HourlyPlanSet needs at least one plan")
        for hour in plans_by_hour:
            if not 0 <= hour <= 23:
                raise ConfigurationError(f"hour {hour} out of range 0..23")
        self._plans = dict(plans_by_hour)
        self.created_at_s = created_at_s
        self.expires_at_s = expires_at_s

    @classmethod
    def daily(
        cls,
        plan: DeploymentPlan,
        created_at_s: float = 0.0,
        expires_at_s: Optional[float] = None,
    ) -> "HourlyPlanSet":
        """A single daily-granularity plan applied to every hour."""
        return cls({0: plan}, created_at_s=created_at_s, expires_at_s=expires_at_s)

    def plan_for_hour(self, hour_of_day: int) -> DeploymentPlan:
        """The plan in force at ``hour_of_day`` (0-23).

        Hours without an explicit plan inherit the most recent earlier
        hour's plan (wrapping), so sparse sets behave like step
        functions over the day.
        """
        if not 0 <= hour_of_day <= 23:
            raise ValueError(f"hour_of_day {hour_of_day} out of range 0..23")
        for delta in range(24):
            candidate = (hour_of_day - delta) % 24
            if candidate in self._plans:
                return self._plans[candidate]
        raise AssertionError("unreachable: plan set is non-empty")

    @property
    def hours(self) -> Tuple[int, ...]:
        return tuple(sorted(self._plans))

    @property
    def granularity(self) -> int:
        """Number of distinct hourly slots in this set."""
        return len(self._plans)

    def distinct_plans(self) -> Tuple[DeploymentPlan, ...]:
        seen = []
        for hour in sorted(self._plans):
            plan = self._plans[hour]
            if plan not in seen:
                seen.append(plan)
        return tuple(seen)

    def is_expired(self, now_s: float) -> bool:
        return self.expires_at_s is not None and now_s >= self.expires_at_s

    def all_regions_used(self) -> Tuple[str, ...]:
        regions = set()
        for plan in self._plans.values():
            regions.update(plan.regions_used)
        return tuple(sorted(regions))

    def to_dict(self) -> Dict[str, object]:
        return {
            "plans_by_hour": {
                str(h): p.to_dict() for h, p in self._plans.items()
            },
            "created_at_s": self.created_at_s,
            "expires_at_s": self.expires_at_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HourlyPlanSet":
        raw = data["plans_by_hour"]
        return cls(
            {int(h): DeploymentPlan.from_dict(p) for h, p in raw.items()},  # type: ignore[union-attr]
            created_at_s=float(data.get("created_at_s", 0.0)),  # type: ignore[arg-type]
            expires_at_s=data.get("expires_at_s"),  # type: ignore[arg-type]
        )

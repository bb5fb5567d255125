"""AWS Step Functions substitute (centralised orchestration service).

Fig. 12 compares Caribou against AWS Step Functions, the first-party
orchestrator.  Step Functions is faster than SNS-based chaining because
state transitions happen inside one service in one region with
proprietary optimisations (§9.6) — there is no publish + topic + delivery
round trip per edge, and synchronisation (fan-in) is tracked centrally
rather than through a distributed key-value store.

The service here provides exactly those primitives: a cheap per-edge
``transition`` delay and free central synchronisation state.  The actual
traversal logic lives in :mod:`repro.core.baselines`, which drives the
same applications through this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cloud.simulator import SimulationEnvironment

#: Per-state-transition overhead, seconds.  Calibrated so that SNS-based
#: chaining is ~12.8 % slower on small inputs (Fig. 12): an SNS hop costs
#: publish + delivery overheads (~125 ms) versus this.
TRANSITION_OVERHEAD_S = 0.025


@dataclass
class _ExecutionState:
    """Central bookkeeping for one state-machine execution."""

    arrived: Dict[str, int] = field(default_factory=dict)
    done: bool = False


class StepFunctionsService:
    """Centralised state-machine execution bookkeeping.

    The orchestrator lives in one region; every transition adds the
    service overhead but no cross-region messaging (the paper's Fig. 12
    baseline runs single-region).
    """

    def __init__(self, env: SimulationEnvironment, region: str):
        self._env = env
        self.region = region
        self._executions: Dict[str, _ExecutionState] = {}
        self._transitions = 0

    @property
    def transitions(self) -> int:
        """Total transitions performed (for overhead accounting)."""
        return self._transitions

    def start_execution(self, execution_id: str) -> None:
        if execution_id in self._executions:
            raise ValueError(f"execution {execution_id!r} already exists")
        self._executions[execution_id] = _ExecutionState()

    def transition_delay(self) -> float:
        """Charge one state transition and return its latency."""
        self._transitions += 1
        return TRANSITION_OVERHEAD_S

    def record_arrival(self, execution_id: str, node: str) -> int:
        """Count a predecessor arrival at a fan-in state.

        Returns the number of arrivals seen so far for ``node`` —
        central synchronisation, no KV store round trips.
        """
        state = self._require(execution_id)
        state.arrived[node] = state.arrived.get(node, 0) + 1
        return state.arrived[node]

    def arrivals(self, execution_id: str, node: str) -> int:
        return self._require(execution_id).arrived.get(node, 0)

    def finish_execution(self, execution_id: str) -> None:
        self._require(execution_id).done = True

    def is_finished(self, execution_id: str) -> bool:
        return self._require(execution_id).done

    def _require(self, execution_id: str) -> _ExecutionState:
        try:
            return self._executions[execution_id]
        except KeyError:
            raise KeyError(f"unknown execution {execution_id!r}") from None

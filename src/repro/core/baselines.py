"""Orchestration baselines for the overhead study (paper §9.6, Fig. 12).

* :class:`SnsOrchestrator` — "basic orchestration via SNS to invoke
  subsequent functions": the same pub/sub chaining Caribou uses, but
  single-region with no deployment-plan machinery (no DP fetch, no DP
  piggybacked on messages).  SNS alone "does not support
  synchronization", so fan-in still goes through the KV store exactly as
  in Caribou — the delta to Caribou isolates the framework's overhead.
* :class:`StepFunctionsOrchestrator` — the first-party centralised
  orchestrator: per-edge state transitions inside one service, central
  (free) synchronisation state, and no per-hop publish/delivery
  overheads, which is why it is the fastest of the three.

Both walk the same :class:`~repro.core.executor.RouteTable` and apply
the same :class:`~repro.core.executor.JoinRule` as Caribou.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.core.api import ExecutionContext, Payload
from repro.core.executor import (
    CaribouExecutor,
    DeployedWorkflow,
    _encode,
    _NodeRunner,
    topic_name,
)
from repro.model.plan import DeploymentPlan


class SnsOrchestrator(CaribouExecutor):
    """Plain SNS function chaining in the home region.

    Reuses the executor machinery with three differences: its own topic
    namespace (so it can coexist with a Caribou deployment of the same
    workflow), messages without the piggybacked DP, and a client that
    never consults the KV store for a plan.
    """

    TOPIC_PREFIX = "sns-baseline"

    def __init__(self, deployed: DeployedWorkflow):
        super().__init__(deployed)
        self._plan_entries = 0  # no DP piggyback

    def setup(self) -> None:
        """Create the baseline's own topics + subscriptions (home only)."""
        for spec in self._d.workflow.functions:
            topic = self._topic_for(spec.name)
            self._cloud.pubsub.create_topic(topic, self._home)
            self._cloud.pubsub.subscribe(
                topic, self._home, self.make_subscriber(spec.name, self._home)
            )

    def invoke(
        self,
        payload: Payload,
        plan: Optional[DeploymentPlan] = None,
        force_home: bool = False,
        request_id: Optional[str] = None,
    ) -> str:
        """Direct invocation: no plan fetch, no benchmarking sampling."""
        self._request_counter += 1
        rid = request_id or f"{self._name}-sns-r{self._request_counter:06d}"
        self._send(self._start, rid, dict(self.home_plan().assignments),
                   [_encode(payload)], False, payload.size_bytes, self._home, "")
        return rid

    def _topic_for(self, function: str) -> str:
        return f"{self.TOPIC_PREFIX}:{self._d.name}.{function}"


class StepFunctionsOrchestrator(_NodeRunner):
    """Centralised state-machine execution of the same workflow.

    The orchestrator holds all control state in the Step Functions
    service (home region): each taken edge is a cheap state transition,
    as is each sync state a skip releases; fan-in payloads are buffered
    centrally, and conditional skips are resolved in memory — no
    pub/sub hops and no KV round trips.  An execution finishes, and its
    state is dropped, when its last scheduled state has handed off.
    """

    def __init__(self, deployed: DeployedWorkflow):
        super().__init__(deployed, partial(topic_name, deployed.name))
        self._sf = deployed.cloud.stepfunctions(self._home)
        # Per-execution central state: annotations, buffered sync data
        # and the number of states scheduled but not yet handed off.
        self._ann: Dict[str, Dict] = {}
        self._sync_buffers: Dict[str, Dict[str, List[Payload]]] = {}
        self._outstanding: Dict[str, int] = {}

    def invoke(self, payload: Payload, request_id: Optional[str] = None) -> str:
        self._request_counter += 1
        rid = request_id or f"{self._name}-sf-r{self._request_counter:06d}"
        self._sf.start_execution(rid)
        self._ann[rid] = {}
        self._sync_buffers[rid] = {}
        self._outstanding[rid] = 0
        self._schedule(
            self._sf.transition_delay(), self._d.dag.start_node, [payload], rid
        )
        return rid

    # -- internals --------------------------------------------------------------
    def _schedule(self, delay: float, node: str, payloads: List[Payload], rid: str) -> None:
        self._outstanding[rid] += 1
        self._env.schedule(
            delay, partial(self._execute_node, node, self._home, payloads, {"request_id": rid})
        )

    def _guarded(self, rid: str, fn: Callable[..., None], *args: Any) -> Callable[[], None]:
        return partial(fn, *args)  # faults propagate: no failure tracking

    def _hand_off_all(self, route, ctx: ExecutionContext, faas_ctx, body: Dict) -> None:
        self._env.schedule_at(faas_ctx.end_s, partial(self._hand_off, ctx, body["request_id"]))

    def _hand_off(self, ctx: ExecutionContext, rid: str) -> None:
        """Resolve every out-edge of a finished state centrally."""
        ann = self._ann[rid]
        buffers = self._sync_buffers[rid]
        for hop, payload in self._routes.resolve(ctx.node, ctx.intents):
            if payload is not None:
                # Payload passes through the orchestrator: one intra-region hop.
                transfer = self._cloud.network.transfer(
                    self._home,
                    self._home,
                    payload.size_bytes,
                    workflow=self._name,
                    request_id=rid,
                    kind="data",
                    edge=hop.key,
                )
                delay = transfer.latency_s + self._sf.transition_delay()
                if hop.sync:
                    buffers.setdefault(hop.dst, []).append(payload)
                    self._sf.record_arrival(rid, hop.dst)
                else:
                    self._schedule(delay, hop.dst, [payload], rid)
            if hop.annotated:
                for sync_node in self._join.apply(ann, {hop.key: int(payload is not None)}):
                    if payload is None:  # a skip moves no data: one transition
                        delay = self._sf.transition_delay()
                    self._schedule(delay, sync_node, buffers.get(sync_node, []), rid)
        self._outstanding[rid] -= 1
        if not self._outstanding[rid]:
            self._sf.finish_execution(rid)
            del self._ann[rid], self._sync_buffers[rid], self._outstanding[rid]

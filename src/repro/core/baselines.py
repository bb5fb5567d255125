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
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.analysis import intent_stage
from repro.core.api import ExecutionContext, Payload
from repro.core.executor import (
    HEADER_BYTES,
    CaribouExecutor,
    DeployedWorkflow,
    propagate_dead,
    sync_condition_met,
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
        self._home = deployed.config.home_region

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
        rid = request_id or f"{self._d.name}-sns-r{self._request_counter:06d}"
        start = self._dag.start_node
        body = {
            "node": start,
            "request_id": rid,
            "plan": dict(self.home_plan().assignments),
            "payloads": [self._encode_payload(payload)],
            "benchmark": False,
        }
        self._publish_to_node(
            node=start,
            body=body,
            payload_bytes=payload.size_bytes,
            source_region=self._home,
            request_id=rid,
            edge_label="",
        )
        return rid

    # -- hooks ------------------------------------------------------------------
    def _topic_for(self, function: str) -> str:
        return f"{self.TOPIC_PREFIX}:{self._d.name}.{function}"

    def _message_bytes(self, payload_bytes: float) -> float:
        return payload_bytes + HEADER_BYTES  # no DP piggyback


class StepFunctionsOrchestrator:
    """Centralised state-machine execution of the same workflow.

    The orchestrator holds all control state in the Step Functions
    service (home region): each edge is a cheap state transition, fan-in
    payloads are buffered centrally, and conditional skips are resolved
    in memory — no pub/sub hops and no KV round trips.
    """

    def __init__(self, deployed: DeployedWorkflow):
        self._d = deployed
        self._dag = deployed.dag
        self._wf = deployed.workflow
        self._cloud = deployed.cloud
        self._home = deployed.config.home_region
        self._sf = deployed.cloud.stepfunctions(self._home)
        self._topo = self._dag.topological_order()
        from repro.core.executor import annotation_class_edges

        self._annotated = annotation_class_edges(self._dag)
        self._spec_of_node = {
            n.name: self._wf.function(n.function) for n in self._dag.nodes
        }
        self._request_counter = 0
        # Per-execution central state: annotations + buffered sync data.
        self._ann: Dict[str, Dict] = {}
        self._sync_buffers: Dict[str, Dict[str, List[Payload]]] = {}

    def invoke(self, payload: Payload, request_id: Optional[str] = None) -> str:
        self._request_counter += 1
        rid = request_id or f"{self._d.name}-sf-r{self._request_counter:06d}"
        self._sf.start_execution(rid)
        self._ann[rid] = {}
        self._sync_buffers[rid] = {}
        delay = self._sf.transition_delay()
        self._cloud.env.schedule(
            delay, lambda: self._run_node(self._dag.start_node, [payload], rid)
        )
        return rid

    # -- internals --------------------------------------------------------------
    def _run_node(self, node: str, payloads: List[Payload], rid: str) -> None:
        spec = self._spec_of_node[node]
        input_bytes = sum(p.size_bytes for p in payloads)

        # Fixed external data reads (same fairness rule as Caribou).
        if spec.external_data is not None:
            self._cloud.network.transfer(
                spec.external_data.region,
                self._home,
                spec.external_data.size_bytes,
                workflow=self._d.name,
                request_id=rid,
                kind="data",
                edge=f"external:{node}",
            )

        ctx = ExecutionContext(node=node, request_id=rid, predecessor_data=payloads)

        def wrapped(event: Any, faas_ctx) -> Any:
            self._wf.push_context(ctx)
            try:
                spec.handler(event)
            finally:
                self._wf.pop_context()
            self._cloud.env.schedule_at(
                faas_ctx.end_s, lambda: self._process_intents(ctx, node, rid)
            )
            total_out = sum(i.payload.size_bytes for i in ctx.intents)
            return Payload(content=None, size_bytes=total_out)

        event = payloads[0].content if payloads else None
        if self._dag.is_sync_node(node):
            event = None
        self._cloud.functions.invoke(
            workflow=self._d.name,
            function=spec.name,
            region=self._home,
            body=event,
            payload_bytes=input_bytes,
            node=node,
            request_id=rid,
            handler_override=wrapped,
        )

    def _process_intents(self, ctx: ExecutionContext, node: str, rid: str) -> None:
        covered: set = set()
        for intent in ctx.intents:
            dst = intent_stage(
                self._wf.function(intent.target_function), intent.call_index
            )
            covered.add(dst)
            if not intent.conditional_value:
                self._mark_skip(node, dst, rid)
            else:
                self._route(node, dst, intent.payload, rid)
        for edge in self._dag.out_edges(node):
            if edge.dst not in covered:
                self._mark_skip(node, edge.dst, rid)

    def _route(self, src: str, dst: str, payload: Payload, rid: str) -> None:
        # Payload passes through the orchestrator: one intra-region hop.
        transfer = self._cloud.network.transfer(
            self._home,
            self._home,
            payload.size_bytes,
            workflow=self._d.name,
            request_id=rid,
            kind="data",
            edge=f"{src}->{dst}",
        )
        delay = transfer.latency_s + self._sf.transition_delay()
        ann = self._ann[rid]
        if self._dag.is_sync_node(dst):
            self._sync_buffers[rid].setdefault(dst, []).append(payload)
            self._sf.record_arrival(rid, dst)
            if (src, dst) in self._annotated:
                ann[f"{src}->{dst}"] = 1
            self._check_sync(dst, rid, delay)
        else:
            if (src, dst) in self._annotated:
                ann[f"{src}->{dst}"] = 1
            self._cloud.env.schedule(
                delay, lambda: self._run_node(dst, [payload], rid)
            )

    def _mark_skip(self, src: str, dst: str, rid: str) -> None:
        if (src, dst) not in self._annotated:
            return
        ann = self._ann[rid]
        ann[f"{src}->{dst}"] = 0
        propagate_dead(self._dag, self._annotated, ann, self._topo)
        for sync_node in self._dag.sync_nodes:
            self._check_sync(sync_node, rid, self._sf.transition_delay())

    def _check_sync(self, sync_node: str, rid: str, delay: float) -> None:
        ann = self._ann[rid]
        flag = f"__invoked__:{sync_node}"
        if ann.get(flag):
            return
        if sync_condition_met(self._dag, ann, sync_node):
            ann[flag] = True
            payloads = self._sync_buffers[rid].get(sync_node, [])
            self._cloud.env.schedule(
                delay, lambda: self._run_node(sync_node, payloads, rid)
            )

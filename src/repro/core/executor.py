"""Cross-regional workflow execution and traffic routing (paper §6.2).

All cross-regional complexity is hidden in the function *wrapper*: user
handlers run unchanged while the wrapper

* fetches the active deployment plan (DP) and routes each successor
  invocation to the region the plan assigns, by publishing to that
  function's pub/sub topic there — piggybacking the DP on the message so
  every node can locate itself and its successors in the DAG;
* implements the synchronisation-node protocol (§4): predecessors store
  intermediate data in the distributed KV store and atomically update
  the edge annotation; whoever completes the invocation condition
  (Eq. 4.1) last invokes the sync node, which then loads the fan-in
  data from the store;
* implements conditional-DAG semantics: an edge whose condition
  evaluates false is marked ``C(e)=0`` and the skip is propagated so
  downstream sync nodes are never deadlocked waiting for data that will
  never arrive;
* routes 10 % of invocations to execute fully at the home region for
  benchmarking and metric collection (§6.2).

Implementation note on skip propagation: the paper's path-based rule
(§4) can over-cancel edges whose source is also reachable via a live
path.  We implement the exact fixed point instead: a node is *dead* iff
every incoming edge is annotated 0 or originates from a dead node; dead
nodes' outgoing annotations are set to 0 transitively.  To support this,
every edge lying upstream of a synchronisation node is annotation-class
(recorded 1 when taken), bounding the extra KV writes to the sync-
relevant subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.cloud.faults import ReliabilityStats
from repro.cloud.provider import SimulatedCloud
from repro.cloud.pubsub import Message
from repro.cloud.simulator import EventHandle
from repro.common.errors import (
    CaribouError,
    KeyValueStoreError,
    RegionUnavailableError,
    WorkflowDefinitionError,
)
from repro.core.api import (
    ExecutionContext,
    FunctionSpec,
    InvocationIntent,
    Payload,
    Workflow,
)
from repro.model.config import WorkflowConfig
from repro.model.dag import WorkflowDAG
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER

#: Message envelope overhead (request id, node pointer, flags), bytes.
HEADER_BYTES = 512.0
#: Piggybacked DP size per DAG node, bytes (§6.2 "copies the DP ...
#: piggybacking it on the invocation's intermediate data").
PLAN_ENTRY_BYTES = 48.0

META_PLAN_KEY = "active_plan"


def topic_name(workflow: str, function: str) -> str:
    return f"{workflow}.{function}"


def message_size(payload_bytes: float, n_nodes: int) -> float:
    return payload_bytes + HEADER_BYTES + PLAN_ENTRY_BYTES * n_nodes


def annotation_class_edges(dag: WorkflowDAG) -> FrozenSet[Tuple[str, str]]:
    """Edges lying upstream of any synchronisation node.

    Only these edges need runtime annotations: their resolution state
    (taken / skipped) feeds sync-node invocation conditions (Eq. 4.1)
    and deadness propagation; all other edges can never deadlock a
    fan-in.
    """
    sync = set(dag.sync_nodes)
    return frozenset(
        (e.src, e.dst)
        for e in dag.edges
        if e.dst in sync or (dag.descendants(e.dst) & sync)
    )


def propagate_dead(
    dag: WorkflowDAG,
    annotated_edges: FrozenSet[Tuple[str, str]],
    ann: Dict,
    topo_order: List[str],
) -> None:
    """Fixed-point deadness over the annotation-class subgraph.

    A node is dead iff all its annotation-class in-edges are annotated 0
    or originate from dead nodes; dead nodes' annotation-class out-edges
    are annotated 0 in turn (in-place on ``ann``).  This is the exact
    semantics behind the paper's §4 skip-propagation rule.
    """
    dead: set = set()
    start = dag.start_node
    for n in topo_order:
        if n == start:
            continue
        in_edges = [e for e in dag.in_edges(n) if (e.src, e.dst) in annotated_edges]
        if not in_edges:
            continue  # fed by non-annotated edges: cannot judge, assume live
        if all(
            ann.get(f"{e.src}->{e.dst}") == 0 or e.src in dead for e in in_edges
        ):
            dead.add(n)
    for n in dead:
        for e in dag.out_edges(n):
            if (e.src, e.dst) in annotated_edges:
                ann.setdefault(f"{e.src}->{e.dst}", 0)


def sync_condition_met(dag: WorkflowDAG, ann: Dict, sync_node: str) -> bool:
    """Eq. 4.1: all in-edges annotated, at least one taken."""
    values = [ann.get(f"{e.src}->{e.dst}") for e in dag.in_edges(sync_node)]
    return all(v is not None for v in values) and any(v == 1 for v in values)


@dataclass
class DeployedWorkflow:
    """Everything the runtime needs about one deployed workflow.

    Produced by the Deployment Utility (§6.1); consumed by the executor,
    the migrator, and the Deployment Manager.
    """

    workflow: Workflow
    dag: WorkflowDAG
    config: WorkflowConfig
    cloud: SimulatedCloud
    kv_region: str

    @property
    def name(self) -> str:
        return self.workflow.name

    @property
    def meta_table(self) -> str:
        return f"meta:{self.name}"

    @property
    def annotation_table(self) -> str:
        return f"annot:{self.name}"

    @property
    def data_table(self) -> str:
        return f"syncdata:{self.name}"

    def kv(self):
        return self.cloud.kvstore(self.kv_region)


class CaribouExecutor:
    """Runtime wrapper + invocation client for one deployed workflow."""

    def __init__(self, deployed: DeployedWorkflow):
        self._d = deployed
        self._dag = deployed.dag
        self._wf = deployed.workflow
        self._cloud = deployed.cloud
        self._rng = deployed.cloud.env.rng.get(f"executor:{deployed.name}")
        self._request_counter = 0
        # Edges upstream of any sync node are annotation-class (see
        # module docstring).
        self._annotated_edges: FrozenSet[Tuple[str, str]] = annotation_class_edges(
            self._dag
        )
        self._topo = self._dag.topological_order()
        # node -> FunctionSpec
        self._spec_of_node: Dict[str, FunctionSpec] = {
            n.name: self._wf.function(n.function) for n in self._dag.nodes
        }
        # node -> pub/sub topic of its function (``_topic_for`` is a
        # subclass hook, but a pure function of the workflow).
        self._topic_of_node: Dict[str, str] = {
            node: self._topic_for(spec.name)
            for node, spec in self._spec_of_node.items()
        }
        # Precompiled deadness-propagation plan: the same semantics as
        # module-level :func:`propagate_dead` + Eq. 4.1 checks, but with
        # the per-node annotation-class edge lists and string keys built
        # once here instead of per annotation (``_annotate`` runs on
        # every skip/invoke message, so the walks dominate at open-loop
        # request rates).
        start = self._dag.start_node
        self._dead_plan: List[Tuple[str, Tuple[Tuple[str, str], ...]]] = []
        for n in self._topo:
            if n == start:
                continue
            ins = tuple(
                (e.src, f"{e.src}->{e.dst}")
                for e in self._dag.in_edges(n)
                if (e.src, e.dst) in self._annotated_edges
            )
            if ins:
                self._dead_plan.append((n, ins))
        self._dead_out: Dict[str, Tuple[str, ...]] = {
            n: tuple(
                f"{e.src}->{e.dst}"
                for e in self._dag.out_edges(n)
                if (e.src, e.dst) in self._annotated_edges
            )
            for n, _ins in self._dead_plan
        }
        self._sync_nodes: Tuple[str, ...] = self._dag.sync_nodes
        self._sync_set: FrozenSet[str] = frozenset(self._sync_nodes)
        self._sync_in_keys: Dict[str, Tuple[str, ...]] = {
            s: tuple(f"{e.src}->{e.dst}" for e in self._dag.in_edges(s))
            for s in self._sync_nodes
        }
        self._sync_flags: Dict[str, str] = {
            s: f"__invoked__:{s}" for s in self._sync_nodes
        }
        # -- observability --------------------------------------------------
        self._tracer = getattr(deployed.cloud, "tracer", NULL_TRACER)
        self._metrics = getattr(deployed.cloud, "metrics", NULL_METRICS)
        # -- reliability bookkeeping ---------------------------------------
        self._faults = getattr(deployed.cloud, "faults", None)
        # request id -> "pending" | "completed" | "failed" | "timed_out"
        self._requests: Dict[str, str] = {}
        # Ordered edge-annotation arrivals per request: (edge, value, t).
        # Pure bookkeeping for trace analysis, so only kept while a real
        # tracer is attached — untraced runs allocate nothing here.
        self._join_arrivals: Dict[str, List[Tuple[str, int, float]]] = {}
        self._watchdogs: Dict[str, EventHandle] = {}
        # Virtual-time admission stamp per in-flight request, feeding the
        # end-to-end latency histogram (cached: one instrument, hot path).
        self._request_t0: Dict[str, float] = {}
        self._latency_hist = self._metrics.histogram(
            "executor.request_latency_s", workflow=self._d.name
        )
        # The executor's counters, resolved on first use — a series
        # must not show in the exposition before its first update — and
        # reused from then on.
        self._counters: Dict[Tuple[str, str], Any] = {}
        self._completed = 0
        self._failed = 0
        self._timed_out = 0
        self._home_fallbacks = 0
        deployed.cloud.pubsub.add_dead_letter_listener(self._on_dead_letter)

    @property
    def deployed(self) -> DeployedWorkflow:
        """The deployment this executor serves."""
        return self._d

    # ------------------------------------------------------------------ client
    def invoke(
        self,
        payload: Payload,
        plan: Optional[DeploymentPlan] = None,
        force_home: bool = False,
        request_id: Optional[str] = None,
    ) -> str:
        """End-user invocation entry point (Fig. 5 right, blue arrows).

        Fetches the current DP from the distributed KV store unless one
        is given, samples the 10 % home-region benchmarking decision
        (§6.2), and publishes the start message.  Returns the request id;
        advance the simulation to let the workflow run.
        """
        self._request_counter += 1
        rid = request_id or f"{self._d.name}-r{self._request_counter:06d}"
        self._begin_request(rid)

        # Draw the benchmarking coin unconditionally: short-circuiting it
        # behind ``force_home`` would desynchronise the executor's RNG
        # stream between runs that warm up (force_home=True) and runs
        # that do not, breaking seed reproducibility.
        draw = self._rng.random()
        benchmark = force_home or draw < self._d.config.benchmarking_fraction
        if benchmark:
            active = self.home_plan()
        elif plan is not None:
            active = plan
        else:
            active = self.fetch_active_plan()

        start = self._dag.start_node
        body = {
            "node": start,
            "request_id": rid,
            "plan": dict(active.assignments),
            "payloads": [self._encode_payload(payload)],
            "benchmark": benchmark,
        }
        self._publish_to_node(
            node=start,
            body=body,
            payload_bytes=payload.size_bytes,
            source_region=self._d.config.home_region,
            request_id=rid,
            edge_label=f"$input->{start}",
        )
        return rid

    def invoke_direct(self, payload: Payload, request_id: Optional[str] = None) -> str:
        """§6.2's other entry path: "sending requests directly to the
        entry function in the home region, which is then automatically
        re-routed if required".

        The message carries no plan; the home-region wrapper fetches the
        DP on delivery and forwards the request to the planned region
        when the start node lives elsewhere — one extra hop versus the
        proxy path of :meth:`invoke`, which is the price of not running
        the CLI proxy.
        """
        self._request_counter += 1
        rid = request_id or f"{self._d.name}-r{self._request_counter:06d}"
        self._begin_request(rid)
        start = self._dag.start_node
        home = self._d.config.home_region
        body = {
            "node": start,
            "request_id": rid,
            "plan": None,  # resolved by the home-region wrapper
            "payloads": [self._encode_payload(payload)],
            "benchmark": False,
        }
        message = Message(
            body=body,
            size_bytes=self._message_bytes(payload.size_bytes),
            workflow=self._d.name,
            request_id=rid,
        )
        topic = self._topic_of_node[start]
        try:
            self._cloud.pubsub.publish(
                topic,
                home,
                message,
                source_region=home,
                edge_label=f"$input->{start}",
            )
        except CaribouError as exc:
            # Home region refused the publish (outage): the request is
            # explicitly failed, not silently lost.
            self._cloud.pubsub.dead_letter(topic, message, repr(exc))
        return rid

    def home_plan(self) -> DeploymentPlan:
        return DeploymentPlan.single_region(self._dag, self._d.config.home_region)

    def staged_plan_set(self, caller_region: str) -> Optional[HourlyPlanSet]:
        """The staged plan set as read from ``caller_region``, or ``None``
        when nothing is staged — the one reader of the staged item
        (wrapper, Deployment Manager and temporal shifter).

        Every call is a full simulated KV read; only the decoding is
        shared (:meth:`KeyValueStore.get` with ``decode``), so the
        returned object is the same for every reader until the item is
        rewritten and must not be mutated.  KV faults propagate.
        """
        plan_set, _lat = self._d.kv().get(
            self._d.meta_table,
            META_PLAN_KEY,
            caller_region=caller_region,
            workflow=self._d.name,
            decode=HourlyPlanSet.from_dict,
        )
        return plan_set

    def fetch_active_plan(self) -> DeploymentPlan:
        """Read the staged plan set from the KV store; fall back to the
        home region when none exists, it has expired (§5.2), or the
        store itself is unreachable (outage / injected KV error)."""
        try:
            plan_set = self.staged_plan_set(self._d.config.home_region)
        except (KeyValueStoreError, RegionUnavailableError):
            self._home_fallbacks += 1
            self._counter("executor.home_fallbacks").inc()
            return self.home_plan()
        now = self._cloud.now()
        if plan_set is None or plan_set.is_expired(now):
            return self.home_plan()
        hour_of_day = int(now // 3600.0) % 24
        plan = plan_set.plan_for_hour(hour_of_day)
        if not plan.covers(self._dag):
            return self.home_plan()
        return plan

    def stage_plan_set(self, plan_set: HourlyPlanSet) -> None:
        """Write a plan set as the active one (done by the migrator once
        all function re-deployments succeeded, §6.1)."""
        self._d.kv().put(
            self._d.meta_table,
            META_PLAN_KEY,
            plan_set.to_dict(),
            caller_region=self._d.config.home_region,
            workflow=self._d.name,
        )

    def clear_plan(self) -> None:
        self._d.kv().delete(
            self._d.meta_table,
            META_PLAN_KEY,
            caller_region=self._d.config.home_region,
            workflow=self._d.name,
        )

    # ------------------------------------------------------- wrapper plumbing
    def make_subscriber(
        self, function: str, region: str
    ) -> Callable[[Message], None]:
        """The pub/sub subscriber for (function, region): unpacks the
        message and dispatches to the wrapped execution."""

        def subscriber(message: Message) -> None:
            body = dict(message.body)
            node = body["node"]
            if body.get("plan") is None:
                # Direct-to-home request (§6.2): resolve the DP here and
                # re-route to the planned region when it is not us.
                plan = self.fetch_active_plan()
                body["plan"] = dict(plan.assignments)
                target = plan.region_of(node)
                if target != region:
                    payload_bytes = sum(
                        p["size_bytes"] for p in body["payloads"]
                    )
                    self._publish_to_node(
                        node=node,
                        body=body,
                        payload_bytes=payload_bytes,
                        source_region=region,
                        request_id=body["request_id"],
                        edge_label=f"$reroute->{node}",
                    )
                    return
            if node in self._sync_set:
                self._start_sync_node(node, region, body)
            else:
                payloads = [self._decode_payload(p) for p in body["payloads"]]
                self._execute_node(node, region, payloads, body)

        return subscriber

    def _start_sync_node(self, node: str, region: str, body: Dict) -> None:
        """Sync nodes first load fan-in data from the KV store (Fig. 5)."""
        rid = body["request_id"]
        stored, kv_latency = self._d.kv().get(
            self._d.data_table,
            f"{rid}:{node}",
            caller_region=region,
            workflow=self._d.name,
            request_id=rid,
        )
        payloads = [self._decode_payload(p) for p in (stored or [])]
        total = sum(p.size_bytes for p in payloads)
        transfer = self._cloud.network.transfer(
            self._d.kv_region,
            region,
            total,
            workflow=self._d.name,
            request_id=rid,
            kind="data",
            edge=f"syncload:{node}",
        )
        delay = kv_latency + transfer.latency_s
        self._cloud.env.schedule(
            delay,
            self._guarded(rid, lambda: self._execute_node(node, region, payloads, body)),
        )

    def _execute_node(
        self, node: str, region: str, payloads: List[Payload], body: Dict
    ) -> None:
        spec = self._spec_of_node[node]
        rid = body["request_id"]
        input_bytes = sum(p.size_bytes for p in payloads)

        # Fixed external data reads follow the node (§9.1 rule 1).
        external_delay = 0.0
        if spec.external_data is not None:
            transfer = self._cloud.network.transfer(
                spec.external_data.region,
                region,
                spec.external_data.size_bytes,
                workflow=self._d.name,
                request_id=rid,
                kind="data",
                edge=f"external:{node}",
            )
            external_delay = transfer.latency_s

        def run() -> None:
            ctx = ExecutionContext(
                node=node, request_id=rid, predecessor_data=payloads
            )

            def wrapped(event: Any, faas_ctx) -> Any:
                self._wf.push_context(ctx)
                try:
                    spec.handler(event)
                finally:
                    self._wf.pop_context()
                self._process_intents(ctx, faas_ctx, body)
                total_out = sum(i.payload.size_bytes for i in ctx.intents)
                return Payload(content=None, size_bytes=total_out)

            event = payloads[0].content if payloads else None
            if node in self._sync_set:
                event = None  # sync nodes read via get_predecessor_data()
            self._cloud.functions.invoke(
                workflow=self._d.name,
                function=spec.name,
                region=region,
                body=event,
                payload_bytes=input_bytes,
                node=node,
                request_id=rid,
                handler_override=wrapped,
            )

        if external_delay > 0:
            self._cloud.env.schedule(external_delay, self._guarded(rid, run))
        else:
            run()

    # --------------------------------------------------------- intent routing
    def _process_intents(self, ctx: ExecutionContext, faas_ctx, body: Dict) -> None:
        node = ctx.node
        rid = ctx.request_id
        region = faas_ctx.region
        end = faas_ctx.end_s

        covered: set = set()
        for intent in ctx.intents:
            dst = self._resolve_stage(intent)
            if not self._dag.has_edge(node, dst):
                raise WorkflowDefinitionError(
                    f"runtime invocation {node}->{dst} has no DAG edge; "
                    "static analysis and runtime behaviour diverge"
                )
            covered.add(dst)
            if not intent.conditional_value:
                self._schedule_skip(end, node, dst, region, rid, body)
            elif dst in self._sync_set:
                self._schedule_sync_send(
                    end, node, dst, region, rid, intent.payload, body
                )
            else:
                self._schedule_direct_send(
                    end, node, dst, region, rid, intent.payload, body
                )

        # Out-edges never invoked this execution are implicit skips
        # (smaller fan-out than declared, or an untriggered branch).
        for edge in self._dag.out_edges(node):
            if edge.dst not in covered:
                self._schedule_skip(end, node, edge.dst, region, rid, body)

        # A terminal node executing is the request reaching its end: mark
        # it completed.  Done synchronously (its execution record is
        # already written) rather than via an event at ``end`` — an extra
        # event there would extend the run's idle point and shift the
        # virtual clock relative to fault-free pre-tracking behaviour.
        # Guarded on tracked requests so baseline subclasses with their
        # own entry points are unaffected.
        if not self._dag.out_edges(node) and rid in self._requests:
            self._complete_request(rid)

    def _resolve_stage(self, intent: InvocationIntent) -> str:
        spec = self._wf.function(intent.target_function)
        if spec.max_instances == 1:
            if intent.call_index > 0:
                raise WorkflowDefinitionError(
                    f"function {spec.name!r} invoked {intent.call_index + 1} "
                    "times in one execution but declares max_instances=1"
                )
            return spec.name
        if intent.call_index >= spec.max_instances:
            raise WorkflowDefinitionError(
                f"function {spec.name!r} fan-out exceeded its declared "
                f"max_instances={spec.max_instances}"
            )
        return f"{spec.name}:{intent.call_index}"

    # -- direct edges ---------------------------------------------------------
    def _schedule_direct_send(
        self,
        at_s: float,
        src: str,
        dst: str,
        src_region: str,
        rid: str,
        payload: Payload,
        body: Dict,
    ) -> None:
        def send() -> None:
            if (src, dst) in self._annotated_edges:
                self._annotate(rid, src_region, {f"{src}->{dst}": 1})
            new_body = {
                "node": dst,
                "request_id": rid,
                "plan": body["plan"],
                "payloads": [self._encode_payload(payload)],
                "benchmark": body.get("benchmark", False),
            }
            self._publish_to_node(
                node=dst,
                body=new_body,
                payload_bytes=payload.size_bytes,
                source_region=src_region,
                request_id=rid,
                edge_label=f"{src}->{dst}",
            )

        self._cloud.env.schedule_at(at_s, self._guarded(rid, send))

    # -- sync edges -------------------------------------------------------------
    def _schedule_sync_send(
        self,
        at_s: float,
        src: str,
        dst: str,
        src_region: str,
        rid: str,
        payload: Payload,
        body: Dict,
    ) -> None:
        def send() -> None:
            # Ship the intermediate data to the KV store region.
            transfer = self._cloud.network.transfer(
                src_region,
                self._d.kv_region,
                payload.size_bytes,
                workflow=self._d.name,
                request_id=rid,
                kind="data",
                edge=f"{src}->{dst}",
            )

            def store_and_check() -> None:
                kv = self._d.kv()
                encoded = self._encode_payload(payload)
                kv.update(
                    self._d.data_table,
                    f"{rid}:{dst}",
                    lambda cur: (cur or []) + [encoded],
                    caller_region=src_region,
                    workflow=self._d.name,
                    request_id=rid,
                )
                to_invoke = self._annotate(
                    rid, src_region, {f"{src}->{dst}": 1}
                )
                for sync_node in to_invoke:
                    self._invoke_sync_node(sync_node, src_region, rid, body)

            self._cloud.env.schedule(
                transfer.latency_s, self._guarded(rid, store_and_check)
            )

        self._cloud.env.schedule_at(at_s, self._guarded(rid, send))

    # -- skips ---------------------------------------------------------------------
    def _schedule_skip(
        self,
        at_s: float,
        src: str,
        dst: str,
        src_region: str,
        rid: str,
        body: Dict,
    ) -> None:
        if (src, dst) not in self._annotated_edges:
            return  # no sync node downstream: nothing can deadlock

        def skip() -> None:
            to_invoke = self._annotate(rid, src_region, {f"{src}->{dst}": 0})
            for sync_node in to_invoke:
                self._invoke_sync_node(sync_node, src_region, rid, body)

        self._cloud.env.schedule_at(at_s, self._guarded(rid, skip))

    # -- the atomic annotation + condition-check step ----------------------------
    def _annotate(
        self, rid: str, caller_region: str, marks: Dict[str, int]
    ) -> List[str]:
        """Atomically apply edge annotations, propagate deadness, and
        claim any sync nodes whose invocation condition (Eq. 4.1) just
        became true.  Returns the sync nodes this caller must invoke.
        """
        to_invoke: List[str] = []

        def mutate(current: Optional[Dict]) -> Dict:
            ann: Dict = dict(current or {})
            for key, value in marks.items():
                # Explicit marks always win over propagated ones.
                ann[key] = value
            # Inlined propagate_dead over the precompiled plan (see
            # __init__) — identical fixed-point semantics.  A node can
            # only be dead downstream of a 0-edge (the other values are
            # 1 and the ``True`` sync flags), so without one the walk
            # would find nothing.
            get = ann.get
            if 0 in ann.values():
                dead: set = set()
                for n, ins in self._dead_plan:
                    if all(get(k) == 0 or src in dead for src, k in ins):
                        dead.add(n)
                for n in dead:
                    for k in self._dead_out[n]:
                        ann.setdefault(k, 0)
            for s in self._sync_nodes:
                flag = self._sync_flags[s]
                if get(flag):
                    continue
                values = [get(k) for k in self._sync_in_keys[s]]
                if all(v is not None for v in values) and any(v == 1 for v in values):
                    ann[flag] = True
                    to_invoke.append(s)
            return ann

        self._d.kv().update(
            self._d.annotation_table,
            rid,
            mutate,
            caller_region=caller_region,
            workflow=self._d.name,
            request_id=rid,
        )
        if self._tracer.enabled:
            self._record_join(rid, marks, to_invoke)
        return to_invoke

    def _record_join(
        self, rid: str, marks: Dict[str, int], to_invoke: List[str]
    ) -> None:
        """Trace-side record of the join protocol: remember annotation
        arrival order and emit one ``sync_gate`` span per sync node whose
        invocation condition this annotation completed.  The gate edge is
        the explicit mark of the completing call (deadness-propagated
        edges carry no timed arrival of their own); ``arrivals`` maps
        each directly-annotated in-edge to its annotation time."""
        now = self._cloud.now()
        arrivals = self._join_arrivals.setdefault(rid, [])
        for edge, value in marks.items():
            arrivals.append((edge, value, now))
        if not to_invoke:
            return
        gate = next(iter(marks))
        for sync_node in to_invoke:
            in_edges = {
                f"{e.src}->{e.dst}" for e in self._dag.in_edges(sync_node)
            }
            arrived = {e: t for e, _v, t in arrivals if e in in_edges}
            self._tracer.record(
                "sync_gate",
                sync_node,
                workflow=self._d.name,
                request_id=rid,
                sync_node=sync_node,
                gate=gate,
                arrivals=arrived,
            )

    def join_order(self, rid: str) -> Tuple[Tuple[str, int, float], ...]:
        """Edge annotations of one request in arrival order, as
        ``(edge, value, time)`` triples.  Populated only while a tracer
        is attached (the data exists for trace verification)."""
        return tuple(self._join_arrivals.get(rid, ()))

    def _invoke_sync_node(
        self, sync_node: str, src_region: str, rid: str, body: Dict
    ) -> None:
        """The last predecessor publishes the (data-free) invocation
        message; the sync node loads data from the KV store itself."""
        new_body = {
            "node": sync_node,
            "request_id": rid,
            "plan": body["plan"],
            "payloads": [],
            "benchmark": body.get("benchmark", False),
        }
        self._publish_to_node(
            node=sync_node,
            body=new_body,
            payload_bytes=0.0,
            source_region=src_region,
            request_id=rid,
            edge_label="",
        )

    # -- publication helper ------------------------------------------------------
    def _publish_to_node(
        self,
        node: str,
        body: Dict,
        payload_bytes: float,
        source_region: str,
        request_id: str,
        edge_label: str,
    ) -> None:
        plan = body["plan"]
        target_region = plan[node]
        topic = self._topic_of_node[node]
        home = self._d.config.home_region

        # §6.1: if the planned deployment is not materialised (failed
        # migration) or its region is unreachable, fall back home.
        if target_region != home and self._unusable(
            topic, target_region, source_region
        ):
            self._home_fallbacks += 1
            self._counter("executor.home_fallbacks").inc()
            target_region = home
            body = dict(body)
            body["plan"] = dict(plan)
            body["plan"][node] = home
        message = Message(
            body=body,
            size_bytes=self._message_bytes(payload_bytes),
            workflow=self._d.name,
            request_id=request_id,
        )
        if self._unusable(topic, target_region, source_region):
            # The home region itself is unusable.  Raising here would
            # escape a scheduled callback and crash the event loop, so
            # dead-letter the message instead — the listener marks the
            # request failed.
            self._cloud.pubsub.dead_letter(
                topic,
                message,
                f"no deliverable region for node {node!r} "
                f"(home {home!r} unusable)",
            )
            return
        try:
            self._cloud.pubsub.publish(
                topic,
                target_region,
                message,
                source_region=source_region,
                edge_label=edge_label,
            )
        except CaribouError as exc:
            self._cloud.pubsub.dead_letter(topic, message, repr(exc))

    def _unusable(self, topic: str, region: str, source_region: str) -> bool:
        """Whether publishing to ``region`` cannot possibly succeed."""
        if not self._cloud.pubsub.topic_exists(topic, region):
            return True
        if self._faults is not None and self._faults.enabled:
            if self._faults.region_down(region):
                self._faults.record("region_outage")
                return True
            if self._faults.partitioned(source_region, region):
                self._faults.record("network_partition")
                return True
        return False

    def _counter(self, name: str, status: str = ""):
        counter = self._counters.get((name, status))
        if counter is None:
            labels = {"status": status} if status else {}
            counter = self._counters[(name, status)] = self._metrics.counter(
                name, workflow=self._d.name, **labels
            )
        return counter

    # -- request lifecycle -------------------------------------------------------
    def _begin_request(self, rid: str) -> None:
        """Track a request end to end: every tracked request finishes as
        completed, failed, or timed out — never silently lost."""
        self._requests[rid] = "pending"
        self._request_t0[rid] = self._cloud.env.now()
        self._tracer.open_request(rid, self._d.name)
        self._counter("executor.requests").inc()
        timeout = self._d.config.request_timeout_s
        if timeout is not None:
            self._watchdogs[rid] = self._cloud.env.schedule(
                timeout, lambda: self._expire_request(rid)
            )

    def _finish_request(self, rid: str, status: str) -> bool:
        """First terminal transition wins; cancels the watchdog so the
        no-fault event schedule is untouched by the timeout machinery."""
        if self._requests.get(rid) != "pending":
            return False
        self._requests[rid] = status
        handle = self._watchdogs.pop(rid, None)
        if handle is not None and handle.cancel():
            # One cancelled entry per finished request: at open-loop
            # arrival rates this is the simulator's dominant heap churn
            # (the compaction machinery exists for exactly this), so
            # keep it observable.
            self._counter("executor.watchdogs_cancelled").inc()
        self._tracer.close_request(rid, status)
        self._counter("executor.requests_finished", status).inc()
        t0 = self._request_t0.pop(rid, None)
        if t0 is not None:
            self._latency_hist.observe(self._cloud.env.now() - t0)
        return True

    def _complete_request(self, rid: str) -> None:
        if self._finish_request(rid, "completed"):
            self._completed += 1

    def _fail_request(self, rid: str) -> None:
        if self._finish_request(rid, "failed"):
            self._failed += 1

    def _expire_request(self, rid: str) -> None:
        if self._requests.get(rid) == "pending":
            self._requests[rid] = "timed_out"
            self._watchdogs.pop(rid, None)
            self._timed_out += 1
            t0 = self._request_t0.pop(rid, None)
            if t0 is not None:
                self._latency_hist.observe(self._cloud.env.now() - t0)
            self._tracer.close_request(rid, "timed_out")
            self._counter("executor.requests_finished", "timed_out").inc()

    def _on_dead_letter(self, topic: str, message: Message, error: str) -> None:
        """Pub/sub gave up on one of our messages: the request cannot
        finish normally, so mark it failed."""
        if message.workflow != self._d.name:
            return
        if message.request_id:
            self._fail_request(message.request_id)

    def _guarded(self, rid: str, fn: Callable[[], None]) -> Callable[[], None]:
        """Wrap a scheduled continuation so a framework fault marks the
        request failed instead of crashing the event loop (exceptions in
        scheduled callbacks are not retried by pub/sub)."""

        def run() -> None:
            try:
                fn()
            except CaribouError:
                self._fail_request(rid)

        return run

    def request_status(self, rid: str) -> Optional[str]:
        """``"pending"``/``"completed"``/``"failed"``/``"timed_out"``, or
        ``None`` for unknown request ids."""
        return self._requests.get(rid)

    def pending_requests(self) -> Tuple[str, ...]:
        return tuple(
            rid for rid, status in self._requests.items() if status == "pending"
        )

    def reliability(self) -> ReliabilityStats:
        """Reliability counters for this workflow's run so far.

        ``injected`` is the cloud-wide fault tally (the injector is
        shared across workflows); the remaining counters are scoped to
        this workflow.
        """
        pubsub = self._cloud.pubsub
        return ReliabilityStats(
            injected=self._faults.snapshot() if self._faults is not None else {},
            retries=pubsub.retry_count(self._d.name),
            dead_letters=pubsub.dead_letter_count(self._d.name),
            home_fallbacks=self._home_fallbacks,
            completed_requests=self._completed,
            failed_requests=self._failed,
            timed_out_requests=self._timed_out,
        )

    # -- subclass hooks (the plain-SNS baseline overrides these) --------------------
    def _topic_for(self, function: str) -> str:
        return topic_name(self._d.name, function)

    def _message_bytes(self, payload_bytes: float) -> float:
        return message_size(payload_bytes, len(self._dag))

    # -- payload codec -------------------------------------------------------------
    @staticmethod
    def _encode_payload(payload: Payload) -> Dict:
        return {"content": payload.content, "size_bytes": payload.size_bytes}

    @staticmethod
    def _decode_payload(raw: Dict) -> Payload:
        return Payload(content=raw["content"], size_bytes=raw["size_bytes"])

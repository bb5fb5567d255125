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

Everything the wrapper needs to know about a workflow is compiled once,
into a :class:`RouteTable` (per node: its function, topic, and the
successor hops keyed by the intent that takes them) and a
:class:`JoinRule` (Eq. 4.1 plus skip propagation).  Caribou, the plain-
SNS baseline and the Step Functions baseline all read these two.

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
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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
from repro.core.analysis import intent_stage
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


class JoinRule:
    """Eq. 4.1 and the deadness fixed point over one DAG, compiled once.

    ``apply`` is the whole atomic step of the join protocol: write the
    explicit marks, propagate deadness (a node is dead iff all its
    annotation-class in-edges are 0 or come from dead nodes; its
    annotation-class out-edges then default to 0), and claim every sync
    node whose in-edges are all annotated with at least one taken.
    """

    __slots__ = ("dead_plan", "dead_out", "in_keys", "flags")

    def __init__(self, dag: WorkflowDAG, annotated: FrozenSet[Tuple[str, str]]):
        start = dag.start_node
        plan = []
        for n in dag.topological_order():
            ins = tuple(
                (e.src, f"{e.src}->{e.dst}")
                for e in dag.in_edges(n)
                if (e.src, e.dst) in annotated
            )
            if n != start and ins:
                plan.append((n, ins))
        #: ``(node, ((src, edge key), ...))`` in topological order.
        self.dead_plan: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = tuple(plan)
        self.dead_out: Dict[str, Tuple[str, ...]] = {
            n: tuple(
                f"{e.src}->{e.dst}"
                for e in dag.out_edges(n)
                if (e.src, e.dst) in annotated
            )
            for n, _ins in plan
        }
        self.in_keys: Dict[str, Tuple[str, ...]] = {
            s: tuple(f"{e.src}->{e.dst}" for e in dag.in_edges(s))
            for s in dag.sync_nodes
        }
        #: The annotation item's "already invoked" flag per sync node.
        self.flags: Dict[str, str] = {s: f"__invoked__:{s}" for s in dag.sync_nodes}

    def apply(self, ann: Dict, marks: Dict[str, int]) -> List[str]:
        """Apply ``marks`` to ``ann`` in place; return the sync nodes
        whose invocation condition this made true, in DAG order."""
        ann.update(marks)  # explicit marks win over propagated ones
        get = ann.get
        # A node can only be dead downstream of a 0-edge (the other
        # values are 1 and the ``True`` flags): without one, skip the walk.
        if 0 in ann.values():
            dead: set = set()
            for n, ins in self.dead_plan:
                if all(get(k) == 0 or src in dead for src, k in ins):
                    dead.add(n)
            for n in dead:
                for k in self.dead_out[n]:
                    ann.setdefault(k, 0)
        fired = []
        for s, keys in self.in_keys.items():
            flag = self.flags[s]
            if get(flag):
                continue
            values = [get(k) for k in keys]
            # Values are None, 0 or 1: all annotated, at least one taken.
            if None not in values and 1 in values:
                ann[flag] = True
                fired.append(s)
        return fired


class Hop(NamedTuple):
    """One DAG edge as the wrapper hands it off."""

    dst: str
    key: str  # "src->dst": annotation key and transfer label
    annotated: bool
    sync: bool  # dst is a synchronisation node


class Route(NamedTuple):
    """One node: what runs there and where its intents lead."""

    spec: FunctionSpec
    topic: str
    sync: bool
    #: Out-edges in DAG order (uncovered ones are implicit skips).
    out: Tuple[Hop, ...]
    #: ``(target function, call index)`` of an intent -> its hop.
    hops: Dict[Tuple[str, int], Hop]


class RouteTable:
    """Per-node routes of one workflow, compiled once per engine."""

    def __init__(
        self, workflow: Workflow, dag: WorkflowDAG, topic_for: Callable[[str], str]
    ):
        self._wf = workflow
        annotated = annotation_class_edges(dag)
        self.join = JoinRule(dag, annotated)
        sync = frozenset(dag.sync_nodes)
        self.routes: Dict[str, Route] = {}
        for node in dag.nodes:
            spec = workflow.function(node.function)
            out = tuple(
                Hop(e.dst, f"{e.src}->{e.dst}", (e.src, e.dst) in annotated, e.dst in sync)
                for e in dag.out_edges(node.name)
            )
            hops = {}
            for hop in out:
                target = workflow.function(dag.node(hop.dst).function)
                for k in range(target.max_instances):
                    if intent_stage(target, k) == hop.dst:
                        hops[(target.name, k)] = hop
            self.routes[node.name] = Route(
                spec, topic_for(spec.name), node.name in sync, out, hops
            )

    def __getitem__(self, node: str) -> Route:
        return self.routes[node]

    def resolve(
        self, node: str, intents: List[InvocationIntent]
    ) -> List[Tuple[Hop, Optional[Payload]]]:
        """Each out-edge of ``node`` once, with the payload it carries or
        ``None`` for a skip: the intents in call order, then the out-edges
        no intent covered (smaller fan-out than declared, or an
        untriggered branch)."""
        route = self.routes[node]
        steps: List[Tuple[Hop, Optional[Payload]]] = []
        for intent in intents:
            hop = route.hops.get((intent.target_function, intent.call_index))
            if hop is None:
                dst = intent_stage(
                    self._wf.function(intent.target_function), intent.call_index
                )
                raise WorkflowDefinitionError(
                    f"runtime invocation {node}->{dst} has no DAG edge; "
                    "static analysis and runtime behaviour diverge"
                )
            steps.append((hop, intent.payload if intent.conditional_value else None))
        if len(steps) < len(route.out):
            covered = {hop for hop, _payload in steps}
            steps.extend((hop, None) for hop in route.out if hop not in covered)
        return steps


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


class _Request:
    """One tracked request.  ``status`` is ``"pending"`` until the one
    terminal transition (:meth:`CaribouExecutor._finish`), which clears
    ``t0`` and ``watchdog``; ``None`` marks an untracked request whose
    join arrivals are recorded for a tracer."""

    __slots__ = ("status", "t0", "watchdog", "arrivals")

    def __init__(self, status: Optional[str], t0: Optional[float] = None):
        self.status = status
        self.t0 = t0  # virtual admission time
        self.watchdog: Optional[EventHandle] = None
        #: Edge annotations in arrival order, ``(edge, value, t)``; kept
        #: only while a tracer is attached.
        self.arrivals: Optional[List[Tuple[str, int, float]]] = None


def _encode(payload: Payload) -> Dict:
    return {"content": payload.content, "size_bytes": payload.size_bytes}


def _decode(raw: Dict) -> Payload:
    return Payload(content=raw["content"], size_bytes=raw["size_bytes"])


class _NodeRunner:
    """Runs one node the way the wrapper does: the fixed external read
    first (§9.1 rule 1), then the user handler inside its execution
    context, then :meth:`_hand_off_all` at the handler's return.

    Engines provide ``_guarded(rid, fn, *args)`` (how a deferred step
    fails) and ``_hand_off_all(route, ctx, faas_ctx, body)``; ``body``
    carries at least the ``request_id``.
    """

    def __init__(self, deployed: DeployedWorkflow, topic_for: Callable[[str], str]):
        self._d = deployed
        self._name = deployed.name
        self._wf = deployed.workflow
        self._cloud = deployed.cloud
        self._env = deployed.cloud.env
        self._home = deployed.config.home_region
        self._request_counter = 0
        self._routes = RouteTable(self._wf, deployed.dag, topic_for)
        self._join = self._routes.join

    def _execute_node(
        self, node: str, region: str, payloads: List[Payload], body: Dict
    ) -> None:
        route = self._routes[node]
        spec = route.spec
        rid = body["request_id"]
        if spec.external_data is not None:
            transfer = self._cloud.network.transfer(
                spec.external_data.region,
                region,
                spec.external_data.size_bytes,
                workflow=self._name,
                request_id=rid,
                kind="data",
                edge=f"external:{node}",
            )
            if transfer.latency_s > 0:
                self._env.schedule(
                    transfer.latency_s,
                    self._guarded(rid, self._run, route, node, region, payloads, body),
                )
                return
        self._run(route, node, region, payloads, body)

    def _run(
        self, route: Route, node: str, region: str, payloads: List[Payload], body: Dict
    ) -> None:
        rid = body["request_id"]
        ctx = ExecutionContext(node=node, request_id=rid, predecessor_data=payloads)

        def wrapped(event: Any, faas_ctx) -> Any:
            self._wf.push_context(ctx)
            try:
                route.spec.handler(event)
            finally:
                self._wf.pop_context()
            self._hand_off_all(route, ctx, faas_ctx, body)
            out_bytes = sum([i.payload.size_bytes for i in ctx.intents])
            return Payload(content=None, size_bytes=out_bytes)

        # Sync nodes read their input via get_predecessor_data().
        event = payloads[0].content if payloads and not route.sync else None
        self._cloud.functions.invoke(
            workflow=self._name,
            function=route.spec.name,
            region=region,
            body=event,
            payload_bytes=sum([p.size_bytes for p in payloads]),
            node=node,
            request_id=rid,
            handler_override=wrapped,
        )


class CaribouExecutor(_NodeRunner):
    """Runtime wrapper + invocation client for one deployed workflow."""

    def __init__(self, deployed: DeployedWorkflow):
        super().__init__(deployed, self._topic_for)
        self._dag = deployed.dag
        self._pubsub = deployed.cloud.pubsub
        self._rng = deployed.cloud.env.rng.get(f"executor:{self._name}")
        self._start = self._dag.start_node
        self._input_label = f"$input->{self._start}"
        #: DP entries piggybacked on every message (0 for plain SNS).
        self._plan_entries = len(self._dag)
        self._annotation_table = deployed.annotation_table
        self._data_table = deployed.data_table
        # -- observability --------------------------------------------------
        self._tracer = getattr(deployed.cloud, "tracer", NULL_TRACER)
        self._metrics = getattr(deployed.cloud, "metrics", NULL_METRICS)
        # -- reliability bookkeeping ---------------------------------------
        self._faults = getattr(deployed.cloud, "faults", None)
        self._requests: Dict[str, _Request] = {}
        # Cached: one instrument on the hot path.
        self._latency_hist = self._metrics.histogram(
            "executor.request_latency_s", workflow=self._name
        )
        # The executor's counters, resolved on first use — a series
        # must not show in the exposition before its first update — and
        # reused from then on.
        self._counters: Dict[Tuple[str, str], Any] = {}
        self._finished = {"completed": 0, "failed": 0, "timed_out": 0}
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
        rid = self._begin_request(request_id)
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
        self._send(self._start, rid, dict(active.assignments), [_encode(payload)],
                   benchmark, payload.size_bytes, self._home, self._input_label)
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
        rid = self._begin_request(request_id)
        self._send(self._start, rid, None, [_encode(payload)], False,
                   payload.size_bytes, self._home, self._input_label)
        return rid

    def home_plan(self) -> DeploymentPlan:
        return DeploymentPlan.single_region(self._dag, self._home)

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
            workflow=self._name,
            decode=HourlyPlanSet.from_dict,
        )
        return plan_set

    def fetch_active_plan(self) -> DeploymentPlan:
        """Read the staged plan set from the KV store; fall back to the
        home region when none exists, it has expired (§5.2), or the
        store itself is unreachable (outage / injected KV error)."""
        try:
            plan_set = self.staged_plan_set(self._home)
        except (KeyValueStoreError, RegionUnavailableError):
            self._home_fallbacks += 1
            self._counter("executor.home_fallbacks").inc()
            return self.home_plan()
        now = self._env.now()
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
            caller_region=self._home,
            workflow=self._name,
        )

    def clear_plan(self) -> None:
        self._d.kv().delete(
            self._d.meta_table,
            META_PLAN_KEY,
            caller_region=self._home,
            workflow=self._name,
        )

    # ------------------------------------------------------- wrapper plumbing
    def make_subscriber(
        self, function: str, region: str
    ) -> Callable[[Message], None]:
        """The pub/sub subscriber for (function, region): unpacks the
        message and dispatches to the wrapped execution."""

        def subscriber(message: Message) -> None:
            body = message.body
            node = body["node"]
            if body["plan"] is None:
                # Direct-to-home request (§6.2): resolve the DP here and
                # re-route to the planned region when it is not us.
                plan = self.fetch_active_plan()
                body = dict(body, plan=dict(plan.assignments))
                if plan.region_of(node) != region:
                    self._send(node, body["request_id"], body["plan"],
                               body["payloads"], body["benchmark"],
                               sum([p["size_bytes"] for p in body["payloads"]]),
                               region, f"$reroute->{node}")
                    return
            if self._routes[node].sync:
                self._start_sync_node(node, region, body)
            else:
                self._execute_node(node, region, [_decode(p) for p in body["payloads"]], body)

        return subscriber

    def _start_sync_node(self, node: str, region: str, body: Dict) -> None:
        """Sync nodes first load fan-in data from the KV store (Fig. 5)."""
        rid = body["request_id"]
        stored, kv_latency = self._d.kv().get(
            self._data_table,
            f"{rid}:{node}",
            caller_region=region,
            workflow=self._name,
            request_id=rid,
        )
        payloads = [_decode(p) for p in (stored or [])]
        transfer = self._cloud.network.transfer(
            self._d.kv_region,
            region,
            sum([p.size_bytes for p in payloads]),
            workflow=self._name,
            request_id=rid,
            kind="data",
            edge=f"syncload:{node}",
        )
        self._env.schedule(
            kv_latency + transfer.latency_s,
            self._guarded(rid, self._execute_node, node, region, payloads, body),
        )

    # --------------------------------------------------------- intent routing
    def _hand_off_all(self, route: Route, ctx: ExecutionContext, faas_ctx, body: Dict) -> None:
        """Schedule every out-edge's hand-off at the node's end.  A skip
        of a non-annotated edge has no downstream sync node to release,
        so it costs nothing."""
        rid = ctx.request_id
        region = faas_ctx.region
        end = faas_ctx.end_s
        for hop, payload in self._routes.resolve(ctx.node, ctx.intents):
            if payload is None and not hop.annotated:
                continue
            step = self._ship if payload is not None and hop.sync else self._hand_off
            self._env.schedule_at(
                end, self._guarded(rid, step, rid, region, hop, payload, body)
            )
        # A terminal node executing is the request reaching its end: mark
        # it completed.  Done synchronously (its execution record is
        # already written) rather than via an event at ``end`` — an extra
        # event there would extend the run's idle point and shift the
        # virtual clock relative to fault-free pre-tracking behaviour.
        if not route.out:
            self._finish(rid, "completed", end)

    def _ship(self, rid: str, region: str, hop: Hop, payload: Payload, body: Dict) -> None:
        """A sync edge first ships its data to the KV store region."""
        transfer = self._cloud.network.transfer(
            region,
            self._d.kv_region,
            payload.size_bytes,
            workflow=self._name,
            request_id=rid,
            kind="data",
            edge=hop.key,
        )
        self._env.schedule(
            transfer.latency_s,
            self._guarded(rid, self._hand_off, rid, region, hop, payload, body),
        )

    def _hand_off(
        self, rid: str, region: str, hop: Hop, payload: Optional[Payload], body: Dict
    ) -> None:
        """One edge resolves: store fan-in data, annotate the edge (1
        taken, 0 skipped), then publish to the successor or to every
        sync node the annotation released."""
        if payload is not None and hop.sync:
            encoded = _encode(payload)
            self._d.kv().update(
                self._data_table,
                f"{rid}:{hop.dst}",
                lambda cur: (cur or []) + [encoded],
                caller_region=region,
                workflow=self._name,
                request_id=rid,
            )
        taken = int(payload is not None)
        fired = self._annotate(rid, region, {hop.key: taken}) if hop.annotated else ()
        plan = body["plan"]
        if payload is not None and not hop.sync:
            self._send(hop.dst, rid, plan, [_encode(payload)], body["benchmark"],
                       payload.size_bytes, region, hop.key)
        # The last predecessor publishes the (data-free) invocation; the
        # sync node loads its data from the KV store itself.
        for sync_node in fired:
            self._send(sync_node, rid, plan, [], body["benchmark"], 0.0, region, "")

    def _annotate(
        self, rid: str, caller_region: str, marks: Dict[str, int]
    ) -> List[str]:
        """Atomically apply edge annotations (:meth:`JoinRule.apply`
        inside one KV update) and return the sync nodes this caller
        must invoke."""
        fired: List[str] = []

        def mutate(current: Optional[Dict]) -> Dict:
            ann: Dict = dict(current or {})
            fired.extend(self._join.apply(ann, marks))
            return ann

        self._d.kv().update(
            self._annotation_table,
            rid,
            mutate,
            caller_region=caller_region,
            workflow=self._name,
            request_id=rid,
        )
        if self._tracer.enabled:
            self._record_join(rid, marks, fired)
        return fired

    def _record_join(
        self, rid: str, marks: Dict[str, int], fired: List[str]
    ) -> None:
        """Trace-side record of the join protocol: remember annotation
        arrival order and emit one ``sync_gate`` span per sync node whose
        invocation condition this annotation completed.  The gate edge is
        the explicit mark of the completing call (deadness-propagated
        edges carry no timed arrival of their own); ``arrivals`` maps
        each directly-annotated in-edge to its annotation time."""
        now = self._env.now()
        rec = self._requests.get(rid)
        if rec is None:
            rec = self._requests[rid] = _Request(None)
        if rec.arrivals is None:
            rec.arrivals = []
        arrivals = rec.arrivals
        for edge, value in marks.items():
            arrivals.append((edge, value, now))
        if not fired:
            return
        gate = next(iter(marks))
        for sync_node in fired:
            in_keys = self._join.in_keys[sync_node]
            self._tracer.record(
                "sync_gate",
                sync_node,
                workflow=self._name,
                request_id=rid,
                sync_node=sync_node,
                gate=gate,
                arrivals={e: t for e, _v, t in arrivals if e in in_keys},
            )

    def join_order(self, rid: str) -> Tuple[Tuple[str, int, float], ...]:
        """Edge annotations of one request in arrival order, as
        ``(edge, value, time)`` triples.  Populated only while a tracer
        is attached (the data exists for trace verification)."""
        rec = self._requests.get(rid)
        return tuple(rec.arrivals or ()) if rec is not None else ()

    # -- publication ---------------------------------------------------------------
    def _send(self, node: str, rid: str, plan: Optional[Dict[str, str]], payloads: List[Dict],
              benchmark: bool, payload_bytes: float, source_region: str, edge_label: str) -> None:
        """Publish one invocation of ``node`` — the only place a message
        body is built.  ``plan=None`` is a direct-to-home request whose
        plan the home wrapper resolves."""
        topic = self._routes[node].topic
        home = self._home
        target = home
        deliverable = True
        if plan is not None:
            target = plan[node]
            deliverable = not self._unusable(topic, target, source_region)
            # §6.1: if the planned deployment is not materialised (failed
            # migration) or its region is unreachable, fall back home.
            if not deliverable and target != home:
                self._home_fallbacks += 1
                self._counter("executor.home_fallbacks").inc()
                plan = dict(plan)
                plan[node] = target = home
                deliverable = not self._unusable(topic, home, source_region)
        message = Message(
            body={
                "node": node,
                "request_id": rid,
                "plan": plan,
                "payloads": payloads,
                "benchmark": benchmark,
            },
            size_bytes=message_size(payload_bytes, self._plan_entries),
            workflow=self._name,
            request_id=rid,
        )
        if not deliverable:
            # The home region itself is unusable.  Raising here would
            # escape a scheduled callback and crash the event loop, so
            # dead-letter the message instead — the listener marks the
            # request failed.
            self._pubsub.dead_letter(
                topic,
                message,
                f"no deliverable region for node {node!r} "
                f"(home {home!r} unusable)",
            )
            return
        try:
            self._pubsub.publish(
                topic,
                target,
                message,
                source_region=source_region,
                edge_label=edge_label,
            )
        except CaribouError as exc:
            self._pubsub.dead_letter(topic, message, repr(exc))

    def _unusable(self, topic: str, region: str, source_region: str) -> bool:
        """Whether publishing to ``region`` cannot possibly succeed."""
        if not self._pubsub.topic_exists(topic, region):
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
                name, workflow=self._name, **labels
            )
        return counter

    # -- request lifecycle -------------------------------------------------------
    def _begin_request(self, request_id: Optional[str]) -> str:
        """Track a request end to end: every tracked request finishes as
        completed, failed, or timed out — never silently lost."""
        self._request_counter += 1
        rid = request_id or f"{self._name}-r{self._request_counter:06d}"
        rec = self._requests[rid] = _Request("pending", self._env.now())
        self._tracer.open_request(rid, self._name)
        self._counter("executor.requests").inc()
        timeout = self._d.config.request_timeout_s
        if timeout is not None:
            rec.watchdog = self._env.schedule(
                timeout, lambda: self._finish(rid, "timed_out")
            )
        return rid

    def _finish(self, rid: str, status: str, end_s: Optional[float] = None) -> None:
        """The one terminal transition: the first of completion, failure
        or the watchdog wins.  Cancels the watchdog so the no-fault event
        schedule is untouched by the timeout machinery, and drops the
        request's in-flight state (its status stays readable).

        The latency ends at ``end_s``, else now: a completion is
        registered when the terminal node is *invoked*, so it passes
        that node's end."""
        rec = self._requests.get(rid)
        if rec is None or rec.status != "pending":
            return
        rec.status = status
        if rec.watchdog is not None and rec.watchdog.cancel():
            # One cancelled entry per finished request: at open-loop
            # arrival rates this is the simulator's dominant heap churn
            # (the compaction machinery exists for exactly this), so
            # keep it observable.
            self._counter("executor.watchdogs_cancelled").inc()
        self._tracer.close_request(rid, status)
        self._counter("executor.requests_finished", status).inc()
        self._latency_hist.observe((self._env.now() if end_s is None else end_s) - rec.t0)
        rec.t0 = rec.watchdog = None
        self._finished[status] += 1

    def _on_dead_letter(self, topic: str, message: Message, error: str) -> None:
        """Pub/sub gave up on one of our messages: the request cannot
        finish normally, so mark it failed."""
        if message.workflow == self._name and message.request_id:
            self._finish(message.request_id, "failed")

    def _guarded(self, rid: str, fn: Callable[..., None], *args: Any) -> Callable[[], None]:
        """Wrap a scheduled continuation so a framework fault marks the
        request failed instead of crashing the event loop (exceptions in
        scheduled callbacks are not retried by pub/sub)."""

        def run() -> None:
            try:
                fn(*args)
            except CaribouError:
                self._finish(rid, "failed")

        return run

    def request_status(self, rid: str) -> Optional[str]:
        """``"pending"``/``"completed"``/``"failed"``/``"timed_out"``, or
        ``None`` for unknown request ids."""
        rec = self._requests.get(rid)
        return rec.status if rec is not None else None

    def pending_requests(self) -> Tuple[str, ...]:
        return tuple(
            rid for rid, rec in self._requests.items() if rec.status == "pending"
        )

    def reliability(self) -> ReliabilityStats:
        """Reliability counters for this workflow's run so far.

        ``injected`` is the cloud-wide fault tally (the injector is
        shared across workflows); the remaining counters are scoped to
        this workflow.
        """
        return ReliabilityStats(
            injected=self._faults.snapshot() if self._faults is not None else {},
            retries=self._pubsub.retry_count(self._name),
            dead_letters=self._pubsub.dead_letter_count(self._name),
            home_fallbacks=self._home_fallbacks,
            completed_requests=self._finished["completed"],
            failed_requests=self._finished["failed"],
            timed_out_requests=self._finished["timed_out"],
        )

    # -- subclass hook (the plain-SNS baseline overrides it) ------------------------
    def _topic_for(self, function: str) -> str:
        return topic_name(self._name, function)

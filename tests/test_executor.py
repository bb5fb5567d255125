"""Tests for the cross-regional execution runtime (§6.2)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS, get_app
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.common.errors import CaribouError, ConfigurationError
from repro.core.api import Payload, Workflow
from repro.core.deployer import DeploymentUtility
from repro.core.executor import JoinRule, annotation_class_edges, message_size
from repro.core.lifecycle import deploy_benchmark
from repro.model.config import WorkflowConfig
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from tests import chaos_capture, golden, plan_fetch_oracle


@pytest.fixture
def t2s_deployment():
    cloud = SimulatedCloud(seed=11)
    app = get_app("text2speech_censoring")
    deployed, executor, utility = deploy_benchmark(app, cloud)
    return cloud, app, deployed, executor, utility


class TestInvocation:
    def test_all_nodes_execute_home(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        nodes = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert nodes == set(deployed.dag.node_names)

    def test_each_node_runs_exactly_once(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        execs = cloud.ledger.executions_for(deployed.name, rid)
        assert len(execs) == len(deployed.dag)

    def test_sync_node_runs_after_predecessors(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        execs = {e.node: e for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert execs["censoring"].start_s >= execs["conversion"].end_s
        assert execs["censoring"].start_s >= execs["profanity_detection"].end_s

    def test_conditional_false_still_fires_sync(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        from repro.apps.text2speech import make_input

        rid = executor.invoke(make_input("small", with_profanity=False),
                              force_home=True)
        cloud.run_until_idle()
        nodes = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert "censoring" in nodes  # Eq. 4.1: fires on the taken edge alone

    def test_plan_routing_across_regions(self, t2s_deployment):
        cloud, app, deployed, executor, utility = t2s_deployment
        # Deploy profanity detection to ca-central-1 and route it there.
        spec = deployed.workflow.function("profanity_detection")
        utility.deploy_function(deployed, executor, spec, "ca-central-1",
                                copy_image_from="us-east-1")
        assignments = {n: "us-east-1" for n in deployed.dag.node_names}
        assignments["profanity_detection"] = "ca-central-1"
        plan = DeploymentPlan(assignments)
        rid = executor.invoke(app.make_input("small"), plan=plan)
        cloud.run_until_idle()
        execs = {e.node: e.region
                 for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert execs["profanity_detection"] == "ca-central-1"
        assert execs["upload"] == "us-east-1"

    def test_missing_deployment_falls_back_home(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        # Plan routes to a region with no deployment/topic (§6.1 fallback).
        assignments = {n: "us-east-1" for n in deployed.dag.node_names}
        assignments["conversion"] = "us-west-2"
        rid = executor.invoke(app.make_input("small"),
                              plan=DeploymentPlan(assignments))
        cloud.run_until_idle()
        execs = {e.node: e.region
                 for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert execs["conversion"] == "us-east-1"

    def test_benchmarking_fraction_routes_home(self):
        cloud = SimulatedCloud(seed=5)
        app = get_app("dna_visualization")
        deployed, executor, utility = deploy_benchmark(
            app, cloud, benchmarking_fraction=1.0
        )
        # Even with a staged remote plan, every invocation goes home.
        spec = deployed.workflow.function("visualize")
        utility.deploy_function(deployed, executor, spec, "ca-central-1",
                                copy_image_from="us-east-1")
        executor.stage_plan_set(HourlyPlanSet.daily(
            DeploymentPlan.single_region(deployed.dag, "ca-central-1")
        ))
        rid = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        execs = cloud.ledger.executions_for(deployed.name, rid)
        assert all(e.region == "us-east-1" for e in execs)

    def test_expired_plan_falls_back_home(self):
        cloud = SimulatedCloud(seed=6)
        app = get_app("dna_visualization")
        deployed, executor, utility = deploy_benchmark(app, cloud)
        spec = deployed.workflow.function("visualize")
        utility.deploy_function(deployed, executor, spec, "ca-central-1",
                                copy_image_from="us-east-1")
        executor.stage_plan_set(HourlyPlanSet.daily(
            DeploymentPlan.single_region(deployed.dag, "ca-central-1"),
            expires_at_s=100.0,
        ))
        cloud.env.clock.advance(200.0)
        plan = executor.fetch_active_plan()
        assert plan.regions_used == ("us-east-1",)

    def test_service_time_positive_and_ordered(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        assert cloud.ledger.service_time(deployed.name, rid) > 0

    def test_edge_transfers_labelled_for_learning(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        edges = {r.edge for r in cloud.ledger.transmissions_for(deployed.name, rid)}
        assert "upload->text2speech" in edges
        assert "text2speech->conversion" in edges
        # Sync edges are labelled too (the src->kv hop).
        assert "conversion->censoring" in edges


class TestFanOut:
    def test_image_processing_all_transforms_run(self):
        cloud = SimulatedCloud(seed=8)
        app = get_app("image_processing")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        nodes = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert {f"transform:{i}" for i in range(5)} <= nodes
        assert "collect" in nodes

    def test_collect_receives_all_payloads(self, expired_items):
        cloud = SimulatedCloud(seed=8)
        app = get_app("image_processing")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        # The sync store held 5 intermediate payloads for collect until
        # the finished request's items expired.
        stored = expired_items[(deployed.data_table, f"{rid}:collect")]
        assert len(stored) == 5

    def test_partial_fanout_still_joins(self):
        # A fan-out smaller than max_instances leaves unreached stages;
        # implicit skips must still release the sync node.
        workflow = Workflow("partial")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            for i in range(int(event["n"])):
                workflow.invoke_serverless_function(Payload(content=i), w)

        @workflow.serverless_function(name="w", max_instances=4)
        def w(event):
            workflow.invoke_serverless_function(Payload(content=event), j)

        @workflow.serverless_function(name="j")
        def j(event):
            workflow.get_predecessor_data()

        cloud = SimulatedCloud(seed=9)
        utility = DeploymentUtility(cloud)
        deployed, executor = utility.deploy(
            workflow, WorkflowConfig(home_region="us-east-1",
                                     benchmarking_fraction=0.0)
        )
        rid = executor.invoke(Payload(content={"n": 2}), force_home=True)
        cloud.run_until_idle()
        execs = {e.node for e in cloud.ledger.executions_for("partial", rid)}
        assert execs == {"a", "w:0", "w:1", "j"}
        assert not cloud.pubsub.dead_letters

    def test_overflow_fanout_raises(self):
        workflow = Workflow("overflow")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            for i in range(5):
                workflow.invoke_serverless_function(Payload(content=i), w)

        @workflow.serverless_function(name="w", max_instances=2)
        def w(event):
            pass

        cloud = SimulatedCloud(seed=9)
        utility = DeploymentUtility(cloud)
        deployed, executor = utility.deploy(
            workflow, WorkflowConfig(home_region="us-east-1",
                                     benchmarking_fraction=0.0)
        )
        executor.invoke(Payload(content=None), force_home=True)
        cloud.run_until_idle()
        # The wrapper raised inside delivery -> message dead-lettered.
        assert cloud.pubsub.dead_letters


class TestSkipPropagationHelpers:
    def build_deep_dag(self):
        # a -> b(cond) -> c -> s ; a -> d -> s  (s = sync)
        dag = WorkflowDAG("deep")
        for n in ("a", "b", "c", "d", "s"):
            dag.add_node(Node(n, n))
        dag.add_edge(Edge("a", "b", conditional=True))
        dag.add_edge(Edge("b", "c"))
        dag.add_edge(Edge("c", "s"))
        dag.add_edge(Edge("a", "d"))
        dag.add_edge(Edge("d", "s"))
        dag.validate()
        return dag

    def test_annotation_class_covers_upstream_of_sync(self):
        dag = self.build_deep_dag()
        edges = annotation_class_edges(dag)
        assert ("a", "b") in edges  # b leads to sync s
        assert ("c", "s") in edges
        assert ("d", "s") in edges

    def test_transitive_dead_propagation(self):
        dag = self.build_deep_dag()
        rule = JoinRule(dag, annotation_class_edges(dag))
        ann = {}
        assert rule.apply(ann, {"a->b": 0}) == []  # conditional edge not taken
        # b dead -> c dead -> edge c->s annotated 0.
        assert ann["b->c"] == 0
        assert ann["c->s"] == 0

    def test_condition_requires_all_resolved(self):
        dag = self.build_deep_dag()
        rule = JoinRule(dag, annotation_class_edges(dag))
        assert rule.apply({}, {"d->s": 1}) == []
        assert rule.apply({}, {"d->s": 1, "c->s": 0}) == ["s"]
        assert rule.apply({}, {"d->s": 0, "c->s": 0}) == []

    def test_sync_node_fires_once(self):
        dag = self.build_deep_dag()
        rule = JoinRule(dag, annotation_class_edges(dag))
        ann = {}
        assert rule.apply(ann, {"c->s": 1}) == []
        assert rule.apply(ann, {"d->s": 1}) == ["s"]
        assert ann["__invoked__:s"] is True
        assert rule.apply(ann, {"d->s": 1}) == []

    def test_deep_skip_end_to_end(self):
        """A conditional skip two hops above a sync node releases it."""
        workflow = Workflow("deepskip")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            workflow.invoke_serverless_function(Payload(content=1), b, False)
            workflow.invoke_serverless_function(Payload(content=2), d)

        @workflow.serverless_function(name="b")
        def b(event):
            workflow.invoke_serverless_function(Payload(content=3), c)

        @workflow.serverless_function(name="c")
        def c(event):
            workflow.invoke_serverless_function(Payload(content=4), s)

        @workflow.serverless_function(name="d")
        def d(event):
            workflow.invoke_serverless_function(Payload(content=5), s)

        @workflow.serverless_function(name="s")
        def s(event):
            workflow.get_predecessor_data()

        cloud = SimulatedCloud(seed=10)
        utility = DeploymentUtility(cloud)
        deployed, executor = utility.deploy(
            workflow, WorkflowConfig(home_region="us-east-1",
                                     benchmarking_fraction=0.0)
        )
        rid = executor.invoke(Payload(content=None), force_home=True)
        cloud.run_until_idle()
        execs = {e.node for e in cloud.ledger.executions_for("deepskip", rid)}
        assert execs == {"a", "d", "s"}  # b and c skipped, s still fired
        assert not cloud.pubsub.dead_letters


class TestMessageSize:
    def test_grows_with_plan_entries(self):
        assert message_size(1000, 10) > message_size(1000, 2)
        assert message_size(0, 1) > 0


class TestRequestLifecycle:
    def test_completed_request_tracked(self, t2s_deployment):
        cloud, app, _, executor, _ = t2s_deployment
        rid = executor.invoke(app.make_input("small"), force_home=True)
        assert executor.request_status(rid) == "pending"
        assert rid in executor.pending_requests()
        cloud.run_until_idle()
        assert executor.request_status(rid) == "completed"
        assert executor.pending_requests() == ()
        stats = executor.reliability()
        assert stats.completed_requests == 1
        assert stats.failed_requests == 0
        assert stats.timed_out_requests == 0

    def test_unknown_request_has_no_status(self, t2s_deployment):
        _, _, _, executor, _ = t2s_deployment
        assert executor.request_status("no-such-request") is None

    def test_every_invocation_reaches_a_terminal_state(self, t2s_deployment):
        cloud, app, _, executor, _ = t2s_deployment
        rids = [executor.invoke(app.make_input("small")) for _ in range(5)]
        cloud.run_until_idle()
        assert executor.pending_requests() == ()
        for rid in rids:
            assert executor.request_status(rid) == "completed"

    def test_invoke_direct_tracked_too(self, t2s_deployment):
        cloud, app, _, executor, _ = t2s_deployment
        rid = executor.invoke_direct(app.make_input("small"))
        cloud.run_until_idle()
        assert executor.request_status(rid) == "completed"

    def test_no_watchdog_when_timeout_disabled(self):
        cloud = SimulatedCloud(seed=11)
        app = get_app("text2speech_censoring")
        config = WorkflowConfig(
            home_region="us-east-1",
            benchmarking_fraction=0.0,
            request_timeout_s=None,
        )
        deployed, executor, _ = deploy_benchmark(app, cloud, config=config)
        rid = executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        assert executor.request_status(rid) == "completed"
        assert executor.reliability().timed_out_requests == 0

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    def test_latency_ends_when_the_terminal_node_ends(self, app_name):
        """``executor.request_latency_s`` spans invocation to the end of
        the terminal node's execution, not to its arrival."""
        cloud = SimulatedCloud(seed=3)
        app = get_app(app_name)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        hist = cloud.metrics.histogram(
            "executor.request_latency_s", workflow=deployed.name
        )
        terminal = {n for n in deployed.dag.node_names if not deployed.dag.out_edges(n)}
        for _ in range(3):
            count, total, t0 = hist.count, hist.total, cloud.now()
            rid = executor.invoke(app.make_input("small"), force_home=True)
            cloud.run_until_idle()
            (end,) = [
                e.end_s for e in cloud.ledger.executions_for(deployed.name, rid)
                if e.node in terminal
            ]
            assert hist.count == count + 1
            assert hist.total - total == pytest.approx(end - t0, rel=1e-12)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(Exception, match="request_timeout_s"):
            WorkflowConfig(home_region="us-east-1", request_timeout_s=0.0)


def kv_writes(cloud, deployed):
    return sum(r.write for r in cloud.ledger.kv_accesses_for(deployed.name))


def kv_reads(cloud, deployed):
    return sum(not r.write for r in cloud.ledger.kv_accesses_for(deployed.name))


class TestStagedPlanSetIsDecodedOncePerWrite:
    """The plan read pays per request only for what varies per request:
    one simulated KV read per fetch, one decoding per staged plan set,
    and everything time-dependent re-evaluated on every call."""

    def daily(self, deployed, region, **kwargs):
        return HourlyPlanSet.daily(
            DeploymentPlan.single_region(deployed.dag, region), **kwargs
        )

    def test_next_fetch_sees_every_write(self, t2s_deployment):
        cloud, _app, deployed, executor, _ = t2s_deployment
        executor.stage_plan_set(self.daily(deployed, "us-west-2"))
        for _ in range(3):
            assert executor.fetch_active_plan().regions_used == ("us-west-2",)
        executor.stage_plan_set(self.daily(deployed, "ca-central-1"))
        assert executor.fetch_active_plan().regions_used == ("ca-central-1",)
        executor.clear_plan()
        assert executor.fetch_active_plan().regions_used == ("us-east-1",)
        # Another actor writing the item directly is seen as well.
        deployed.kv().put(
            deployed.meta_table, "active_plan",
            self.daily(deployed, "us-west-1").to_dict(),
        )
        assert executor.fetch_active_plan().regions_used == ("us-west-1",)

    def test_expiry_and_hour_are_evaluated_per_call(self, t2s_deployment):
        cloud, _app, deployed, executor, _ = t2s_deployment
        plans = {
            0: DeploymentPlan.single_region(deployed.dag, "us-west-2"),
            1: DeploymentPlan.single_region(deployed.dag, "ca-central-1"),
        }
        executor.stage_plan_set(HourlyPlanSet(plans, expires_at_s=2 * 3600.0))
        writes = kv_writes(cloud, deployed)
        assert executor.fetch_active_plan().regions_used == ("us-west-2",)
        cloud.env.clock.advance_to(3600.0 + 1.0)
        assert executor.fetch_active_plan().regions_used == ("ca-central-1",)
        cloud.env.clock.advance_to(2 * 3600.0)
        assert executor.fetch_active_plan().regions_used == ("us-east-1",)
        assert kv_writes(cloud, deployed) == writes  # no write in between

    def test_one_read_per_fetch_one_decoding_per_stage(
        self, t2s_deployment, monkeypatch
    ):
        cloud, _app, deployed, executor, _ = t2s_deployment
        decodings = []
        from_dict = HourlyPlanSet.from_dict
        monkeypatch.setattr(
            HourlyPlanSet, "from_dict",
            classmethod(lambda cls, data: decodings.append(1) or from_dict(data)),
        )
        for stage, region in enumerate(("us-west-2", "ca-central-1"), start=1):
            executor.stage_plan_set(self.daily(deployed, region))
            reads = kv_reads(cloud, deployed)
            first = executor.staged_plan_set("us-east-1")
            for n in range(1, 6):
                executor.fetch_active_plan()
                assert kv_reads(cloud, deployed) == reads + 1 + n
            assert executor.staged_plan_set("us-east-1") is first
            assert len(decodings) == stage

    def test_handed_out_plans_do_not_alias_message_bodies(self, t2s_deployment):
        cloud, app, deployed, executor, _ = t2s_deployment
        executor.stage_plan_set(self.daily(deployed, "us-east-1"))
        bodies = []
        publish = cloud.pubsub.publish
        cloud.pubsub.publish = lambda topic, region, message, **kw: (
            bodies.append(message.body), publish(topic, region, message, **kw)
        )[1]
        executor.invoke(app.make_input("small"))
        bodies[0]["plan"]["upload"] = "nowhere"  # a wrapper scribbling on its copy
        assert executor.fetch_active_plan().region_of("upload") == "us-east-1"

    def test_malformed_item_raises_as_before(self, t2s_deployment):
        _cloud, _app, deployed, executor, _ = t2s_deployment
        item = self.daily(deployed, "us-west-2").to_dict()
        item["plans_by_hour"] = {"99": item["plans_by_hour"]["0"]}
        deployed.kv().put(deployed.meta_table, "active_plan", item)
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                executor.fetch_active_plan()
        assert executor.reliability().home_fallbacks == 0

    def test_instruments_and_topics_are_resolved_once(self, t2s_deployment):
        cloud, app, _deployed, executor, _ = t2s_deployment
        lookups = []
        counter = cloud.metrics.counter
        cloud.metrics.counter = lambda name, **labels: (
            lookups.append(name), counter(name, **labels)
        )[1]
        executor._topic_for = None  # noqa: SLF001 — any per-message call would raise
        for _ in range(4):
            executor.invoke(app.make_input("small"))
        cloud.run_until_idle()
        ours = [name for name in lookups if name.startswith("executor.")]
        assert sorted(ours) == [
            "executor.requests",
            "executor.requests_finished",
            "executor.watchdogs_cancelled",
        ]
        assert executor.reliability().completed_requests == 4


PLAN_SET_BUILDERS = (
    lambda dag: HourlyPlanSet.daily(DeploymentPlan.single_region(dag, "us-west-2")),
    lambda dag: HourlyPlanSet(
        {
            h: DeploymentPlan.single_region(
                dag, ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")[h % 4]
            )
            for h in range(24)
        }
    ),
    lambda dag: HourlyPlanSet(
        {6: DeploymentPlan.single_region(dag, "ca-central-1")}
    ),
    # Covers only part of the DAG: the wrapper must fall back home.
    lambda dag: HourlyPlanSet.daily(
        DeploymentPlan({dag.start_node: "us-west-1"})
    ),
)

plan_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("stage"),
            st.integers(0, len(PLAN_SET_BUILDERS) - 1),
            st.one_of(st.none(), st.floats(1.0, 4 * 3600.0)),
        ),
        st.tuples(st.just("put_raw"), st.integers(0, len(PLAN_SET_BUILDERS) - 1)),
        st.tuples(st.just("put_malformed")),
        st.tuples(st.just("rewrite")),
        st.tuples(st.just("clear")),
        st.tuples(st.just("advance"), st.floats(0.5, 3 * 3600.0)),
        st.tuples(st.just("fetch")),
        st.tuples(st.just("invoke")),
    ),
    min_size=1,
    max_size=25,
)


class TestPlanFetchDifferential:
    """The decoded read against the former ``fetch_active_plan`` body
    (``tests/plan_fetch_oracle.py``) over twin same-seed clouds."""

    def world(self, seed, oracle):
        # KV errors start once the deployment itself is through.
        cloud = SimulatedCloud(
            seed=seed, fault_plan=FaultPlan().with_kv_errors(0.15, start_s=60.0)
        )
        app = get_app("text2speech_censoring")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        cloud.env.clock.advance_to(60.0)
        if oracle:
            executor.fetch_active_plan = (
                lambda: plan_fetch_oracle.fetch_active_plan(executor)
            )
        return cloud, app, deployed, executor

    def apply(self, world, op):
        cloud, app, deployed, executor = world
        kind = op[0]
        kv, table = deployed.kv(), deployed.meta_table
        try:
            if kind == "stage":
                plan_set = PLAN_SET_BUILDERS[op[1]](deployed.dag)
                plan_set.created_at_s = cloud.now()
                if op[2] is not None:
                    plan_set.expires_at_s = cloud.now() + op[2]
                executor.stage_plan_set(plan_set)
            elif kind == "put_raw":
                kv.put(table, "active_plan",
                       PLAN_SET_BUILDERS[op[1]](deployed.dag).to_dict())
            elif kind == "put_malformed":
                kv.put(table, "active_plan", {"plans_by_hour": {"99": {}}})
            elif kind == "rewrite":
                kv.update(table, "active_plan", lambda cur: cur)
            elif kind == "clear":
                executor.clear_plan()
            elif kind == "advance":
                cloud.env.clock.advance(op[1])
            elif kind == "fetch":
                return dict(executor.fetch_active_plan().assignments)
            elif kind == "invoke":
                rid = executor.invoke(app.make_input("small"))
                cloud.run_until_idle()
                return executor.request_status(rid)
        except (CaribouError, KeyError) as exc:
            return type(exc).__name__
        return None

    @settings(max_examples=60)
    @given(ops=plan_ops, seed=st.integers(0, 5))
    def test_interleavings_agree(self, ops, seed):
        new, old = self.world(seed, oracle=False), self.world(seed, oracle=True)
        for op in ops:
            assert self.apply(new, op) == self.apply(old, op), op
        (cloud_n, _, _, ex_n), (cloud_o, _, _, ex_o) = new, old
        assert list(cloud_n.ledger.kv_accesses) == list(cloud_o.ledger.kv_accesses)
        assert ex_n.reliability() == ex_o.reliability()
        assert cloud_n.metrics.snapshot() == cloud_o.metrics.snapshot()
        assert cloud_n.now() == cloud_o.now()
        assert cloud_n.faults._rng.random() == cloud_o.faults._rng.random()  # noqa: SLF001


class TestChaosCaptureDifferential:
    """A seeded chaos run serialises byte-equal to the capture taken on
    the parent commit (see ``tests/chaos_capture.py``)."""

    @pytest.mark.parametrize("app_name", chaos_capture.APPS)
    def test_ledger_trace_and_metrics_match_the_capture(self, app_name):
        golden.check("chaos_serve", chaos_capture.capture(app_name), app_name)


class TestAnnotateGuardDifferential:
    """``_annotate`` skips the deadness walk while no edge is annotated
    0; the former closure (``plan_fetch_oracle.annotate_mutate``) walked
    every time.  Both must produce the same annotation item and claim
    the same sync nodes from every state a request can reach — checked
    on a superset: every 0/1 marking of the annotation-class edges in
    every order where that is enumerable, a seeded sample otherwise."""

    EXHAUSTIVE_MAX_EDGES = 5
    SAMPLES = 250

    def sequences(self, keys):
        n = len(keys)
        if n <= self.EXHAUSTIVE_MAX_EDGES:
            for values in itertools.product((0, 1), repeat=n):
                for order in itertools.permutations(range(n)):
                    yield [(keys[i], values[i]) for i in order]
            return
        rng = random.Random(n)
        for i in range(self.SAMPLES):
            p_skip = (0.0, 0.1, 0.5)[i % 3]
            order = rng.sample(range(n), n)
            yield [(keys[j], int(rng.random() >= p_skip)) for j in order]

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    def test_guarded_walk_matches_unconditional_walk(self, app_name):
        cloud = SimulatedCloud(seed=4)
        deployed, executor, _ = deploy_benchmark(get_app(app_name), cloud)
        keys = sorted(
            f"{src}->{dst}" for src, dst in annotation_class_edges(deployed.dag)
        )
        kv, table = deployed.kv(), deployed.annotation_table
        guard_skipped = guard_walked = 0
        for n, marks in enumerate(self.sequences(keys)):
            rid = f"seq-{n}"
            state = None
            for key, value in marks:
                got_invoke = executor._annotate(rid, "us-east-1", {key: value})  # noqa: SLF001
                state, want_invoke = plan_fetch_oracle.annotate_mutate(
                    executor, state, {key: value}
                )
                assert kv.get(table, rid)[0] == state
                assert got_invoke == want_invoke
                if 0 in state.values():
                    guard_walked += 1
                else:
                    guard_skipped += 1
        if keys:  # both sides of the guard were exercised
            assert guard_skipped and guard_walked

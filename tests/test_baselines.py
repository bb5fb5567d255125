"""Tests for the orchestration baselines (§9.6, Fig. 12)."""

import pytest

from repro.apps import get_app
from repro.apps.base import default_config
from repro.cloud.provider import SimulatedCloud
from repro.common.errors import WorkflowDefinitionError
from repro.core.api import Payload, Workflow
from repro.core.baselines import SnsOrchestrator, StepFunctionsOrchestrator
from repro.core.deployer import DeploymentUtility
from repro.core.lifecycle import deploy_benchmark
from repro.model.dag import Edge, Node, WorkflowDAG
from tests.test_executor_properties import build_runtime


@pytest.fixture(params=["text2speech_censoring", "image_processing",
                        "video_analytics"])
def app_deployment(request):
    cloud = SimulatedCloud(seed=21)
    app = get_app(request.param)
    deployed, executor, utility = deploy_benchmark(app, cloud)
    return cloud, app, deployed, executor


class TestSnsOrchestrator:
    def test_runs_complete_workflow(self, app_deployment):
        cloud, app, deployed, _ = app_deployment
        sns = SnsOrchestrator(deployed)
        sns.setup()
        rid = sns.invoke(app.make_input("small"))
        cloud.run_until_idle()
        nodes = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert set(deployed.dag.node_names) == nodes
        assert not cloud.pubsub.dead_letters

    def test_stays_in_home_region(self, app_deployment):
        cloud, app, deployed, _ = app_deployment
        sns = SnsOrchestrator(deployed)
        sns.setup()
        rid = sns.invoke(app.make_input("small"))
        cloud.run_until_idle()
        regions = {e.region for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert regions == {"us-east-1"}

    def test_coexists_with_caribou_topics(self, app_deployment):
        cloud, app, deployed, executor = app_deployment
        sns = SnsOrchestrator(deployed)
        sns.setup()
        rid_sns = sns.invoke(app.make_input("small"))
        rid_caribou = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        assert cloud.ledger.service_time(deployed.name, rid_sns) > 0
        assert cloud.ledger.service_time(deployed.name, rid_caribou) > 0


class TestStepFunctionsOrchestrator:
    def test_runs_complete_workflow(self, app_deployment):
        cloud, app, deployed, _ = app_deployment
        sf = StepFunctionsOrchestrator(deployed)
        rid = sf.invoke(app.make_input("small"))
        cloud.run_until_idle()
        nodes = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert set(deployed.dag.node_names) == nodes

    def test_transitions_counted(self, app_deployment):
        cloud, app, deployed, _ = app_deployment
        sf = StepFunctionsOrchestrator(deployed)
        sf.invoke(app.make_input("small"))
        cloud.run_until_idle()
        assert cloud.stepfunctions("us-east-1").transitions >= len(
            deployed.dag.edges
        )

    def test_conditional_skip_handled_centrally(self):
        cloud = SimulatedCloud(seed=22)
        app = get_app("text2speech_censoring")
        deployed, _, _ = deploy_benchmark(app, cloud)
        sf = StepFunctionsOrchestrator(deployed)
        from repro.apps.text2speech import make_input

        rid = sf.invoke(make_input("small", with_profanity=False))
        cloud.run_until_idle()
        nodes = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert "censoring" in nodes  # sync fired on the audio path alone

    def test_duplicate_execution_id_rejected(self, app_deployment):
        cloud, app, deployed, _ = app_deployment
        sf = StepFunctionsOrchestrator(deployed)
        sf.invoke(app.make_input("small"), request_id="dup")
        with pytest.raises(ValueError):
            sf.invoke(app.make_input("small"), request_id="dup")

    def test_fan_out_overflow_raises_like_caribou(self):
        """Three calls to a ``max_instances=2`` function: both executors
        refuse the third stage with the same definition error (Caribou's
        subscriber raises it into the pub/sub dead-letter queue)."""
        wf = Workflow("ovf")

        @wf.serverless_function(name="a", entry_point=True)
        def a(event):
            for _ in range(3):
                wf.invoke_serverless_function(event, w)

        @wf.serverless_function(name="w", max_instances=2)
        def w(event):
            wf.invoke_serverless_function(event, join)

        @wf.serverless_function(name="join")
        def join(event):
            wf.get_predecessor_data()

        cloud = SimulatedCloud(seed=24)
        deployed, executor = DeploymentUtility(cloud).deploy(wf, default_config())
        error = "function 'w' fan-out exceeded its declared max_instances=2"
        StepFunctionsOrchestrator(deployed).invoke(Payload())
        with pytest.raises(WorkflowDefinitionError, match=error):
            cloud.run_until_idle()
        executor.invoke(Payload(), force_home=True)
        cloud.run_until_idle()
        [(topic, _message, reason)] = cloud.pubsub.dead_letters
        assert topic == "ovf.a"
        assert reason == repr(WorkflowDefinitionError(error))


class TestStepFunctionsAccounting:
    """Step Functions accounts for a request the way Caribou does."""

    @pytest.mark.parametrize("app_name", ["dna_visualization", "rag_ingestion",
                                          "text2speech_censoring", "video_analytics"])
    def test_waits_for_the_external_read(self, app_name):
        """A node with a fixed external read is invoked once the read
        lands; with warm containers it starts exactly then."""
        cloud = SimulatedCloud(seed=25)
        app = get_app(app_name)
        deployed, _, _ = deploy_benchmark(app, cloud)
        sf = StepFunctionsOrchestrator(deployed)
        sf.invoke(app.make_input("small"))  # warms every container
        cloud.run_until_idle()
        rid = sf.invoke(app.make_input("small"))
        cloud.run_until_idle()
        reads = {
            t.edge.split(":", 1)[1]: t.start_s + t.latency_s
            for t in cloud.ledger.transmissions_for(deployed.name, rid)
            if t.edge.startswith("external:")
        }
        assert reads  # the app declares external data
        for e in cloud.ledger.executions_for(deployed.name, rid):
            if e.node in reads:
                assert not e.cold_start
                assert e.start_s == reads[e.node]

    def test_one_transition_per_taken_edge_or_released_state(self):
        """a->b is skipped two hops above the sync node s: the skip
        releases nothing, so it costs no transition."""
        dag = WorkflowDAG("deep")
        for n in "abcds":
            dag.add_node(Node(n, n))
        for src, dst in ("ab", "bc", "cs", "ad", "ds"):
            dag.add_edge(Edge(src, dst, conditional=(src, dst) == ("a", "b")))
        dag.validate()
        cloud, deployed, _ = build_runtime(dag, {("a", "b"): False}, seed=26)
        sf = StepFunctionsOrchestrator(deployed)
        rid = sf.invoke(Payload(content="go"))
        cloud.run_until_idle()
        ran = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert ran == {"a", "d", "s"}
        # Start, a->d, d->s.
        assert cloud.stepfunctions("us-east-1").transitions == 3

    @pytest.mark.parametrize("with_profanity", [True, False])
    def test_executions_finish_and_drop_their_state(self, with_profanity):
        from repro.apps.text2speech import make_input

        cloud = SimulatedCloud(seed=27)
        deployed, _, _ = deploy_benchmark(get_app("text2speech_censoring"), cloud)
        sf = StepFunctionsOrchestrator(deployed)
        rids = [sf.invoke(make_input("small", with_profanity)) for _ in range(3)]
        cloud.run_until_idle()
        service = cloud.stepfunctions("us-east-1")
        assert all(service.is_finished(rid) for rid in rids)
        assert sf._ann == {} and sf._sync_buffers == {}  # noqa: SLF001

    def test_multi_sink_execution_finishes_after_its_last_state(self):
        dag = WorkflowDAG("sinks")
        for n in "abcd":
            dag.add_node(Node(n, n))
        for src, dst in ("ab", "ac", "cd"):
            dag.add_edge(Edge(src, dst))
        dag.validate()
        cloud, deployed, _ = build_runtime(dag, {}, seed=28)
        sf = StepFunctionsOrchestrator(deployed)
        rid = sf.invoke(Payload(content="go"))
        service = cloud.stepfunctions("us-east-1")
        finished_at = []
        while cloud.env.run(max_events=1):
            if not finished_at and service.is_finished(rid):
                finished_at.append(cloud.now())
        ends = [e.end_s for e in cloud.ledger.executions_for(deployed.name, rid)]
        assert len(ends) == 4
        assert finished_at == [max(ends)]


class TestOverheadOrdering:
    """The Fig. 12 shape: Step Functions < SNS <= Caribou."""

    def run_all(self, app_name, size, n=10):
        cloud = SimulatedCloud(seed=23)
        app = get_app(app_name)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        sns = SnsOrchestrator(deployed)
        sns.setup()
        sf = StepFunctionsOrchestrator(deployed)

        def mean_time(invoke):
            # Keep containers warm between invocations (interval below
            # the keep-alive) and drop the cold-start-dominated first
            # two samples so the comparison isolates orchestration.
            rids = []
            for i in range(n):
                cloud.env.schedule(
                    i * 300.0, lambda: rids.append(invoke(app.make_input(size)))
                )
            cloud.run_until_idle()
            times = [cloud.ledger.service_time(deployed.name, r)
                     for r in rids[2:]]
            return sum(times) / len(times)

        t_sf = mean_time(sf.invoke)
        t_sns = mean_time(sns.invoke)
        t_caribou = mean_time(
            lambda p: executor.invoke(p, force_home=True)
        )
        return t_sf, t_sns, t_caribou

    def test_step_functions_fastest(self):
        t_sf, t_sns, t_caribou = self.run_all("image_processing", "small")
        assert t_sf < t_sns
        assert t_sf < t_caribou

    def test_caribou_close_to_sns(self):
        # §9.6: Caribou adds <1 % (geometric mean) over SNS.  Allow some
        # slack for the small sample size here.
        t_sf, t_sns, t_caribou = self.run_all("video_analytics", "small")
        assert t_caribou < t_sns * 1.10

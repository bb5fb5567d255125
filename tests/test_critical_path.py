"""Critical-path analysis properties (ISSUE 4 acceptance criteria).

For a traced Text2Speech run — fault-free and under a chaos plan with a
region outage, a network partition, invocation failures, and KV
slowdown — every request's critical-path segments must tile its
end-to-end interval exactly (attributions sum to the virtual latency
within 1e-9), and every sync barrier's reported gating branch must
match the executor's actual join order, re-derived independently by
replaying the recorded annotation arrivals through the compiled join
rule (``JoinRule.apply``: deadness propagation plus Eq. 4.1).
"""

import math

import pytest

from repro.apps import get_app
from repro.cloud.faults import FaultPlan
from repro.cloud.provider import SimulatedCloud
from repro.common.clock import SECONDS_PER_DAY
from repro.core.executor import JoinRule, annotation_class_edges
from repro.core.lifecycle import deploy_benchmark
from repro.model.plan import DeploymentPlan, HourlyPlanSet
from repro.obs.critical_path import (
    WAIT,
    WORK_KINDS,
    analyze_trace,
    compute_critical_path,
)
from repro.obs.trace import Tracer
from repro.obs.views import request_path
from tests import chaos_capture

SEED = 11
N_REQUESTS = 8


def _chaos_plan() -> FaultPlan:
    return (
        FaultPlan()
        .with_invocation_failures(0.08)
        .with_region_outage(
            "us-west-2", start_s=0.1 * SECONDS_PER_DAY, end_s=0.6 * SECONDS_PER_DAY
        )
        .with_network_partition(
            ("us-east-1",),
            ("ca-central-1",),
            start_s=0.2 * SECONDS_PER_DAY,
            end_s=0.4 * SECONDS_PER_DAY,
        )
        .with_kv_latency(3.0, start_s=0.0, end_s=0.5 * SECONDS_PER_DAY)
    )


def _traced_text2speech(fault_plan):
    """Deploy Text2Speech across two regions, route half the requests
    through a cross-region plan, and keep the executor for join-order
    verification (the harness entry points discard it)."""
    tracer = Tracer()
    cloud = SimulatedCloud(seed=SEED, tracer=tracer, fault_plan=fault_plan)
    app = get_app("text2speech_censoring")
    deployed, executor, utility = deploy_benchmark(app, cloud)
    for spec in deployed.workflow.functions:
        utility.deploy_function(
            deployed, executor, spec, "us-west-2",
            copy_image_from=deployed.config.home_region,
        )
    assignments = dict(
        DeploymentPlan.single_region(deployed.dag, "us-east-1").assignments
    )
    # Put the straggler-feeding branch in another region so join order
    # is exercised across regions, not just at home.
    assignments["text2speech"] = "us-west-2"
    assignments["conversion"] = "us-west-2"
    executor.stage_plan_set(HourlyPlanSet.daily(DeploymentPlan(assignments)))
    rids = []
    step = 0.7 * SECONDS_PER_DAY / N_REQUESTS
    for i in range(N_REQUESTS):
        payload = app.make_input("small")
        cloud.env.schedule(
            i * step, lambda p=payload: rids.append(executor.invoke(p))
        )
    cloud.run_until_idle()
    tracer.finalize()
    return tracer, executor, rids


@pytest.fixture(scope="module", params=["fault_free", "chaos"])
def traced_run(request):
    plan = _chaos_plan() if request.param == "chaos" else None
    return _traced_text2speech(plan)


def _replay_gates(dag, arrivals):
    """Independent re-derivation of each sync node's gating edge from
    the executor's recorded annotation order, through a fresh copy of
    the join rule the runtime's atomic update applies."""
    rule = JoinRule(dag, annotation_class_edges(dag))
    ann = {}
    gates = {}
    for edge, value, _t in arrivals:
        for s in rule.apply(ann, {edge: value}):
            gates[s] = edge
    return gates


class TestCriticalPathProperties:
    def test_segments_tile_request_interval(self, traced_run):
        tracer, _executor, _rids = traced_run
        analysis = analyze_trace(tracer)
        assert analysis.n_requests > 0
        for path in analysis.requests:
            total = math.fsum(seg.duration_s for seg in path.segments)
            assert total == pytest.approx(path.latency_s, abs=1e-9)
            # Tiling: contiguous, ordered, inside the request window.
            cursor = path.t0
            for seg in path.segments:
                assert seg.t0 == pytest.approx(cursor, abs=1e-12)
                assert seg.t1 >= seg.t0
                cursor = seg.t1
            if path.segments:
                assert cursor == pytest.approx(path.t1, abs=1e-12)

    def test_segment_kinds_are_known(self, traced_run):
        tracer, _executor, _rids = traced_run
        for path in analyze_trace(tracer).requests:
            for seg in path.segments:
                assert seg.kind in WORK_KINDS + (WAIT,)

    def test_shares_sum_to_one_for_finished_requests(self, traced_run):
        tracer, _executor, _rids = traced_run
        for path in analyze_trace(tracer).requests:
            if path.latency_s <= 0:
                continue
            shares = [v / path.latency_s for v in path.by_kind().values()]
            assert math.fsum(shares) == pytest.approx(1.0, abs=1e-9)

    def test_sync_gates_match_executor_join_order(self, traced_run):
        tracer, executor, rids = traced_run
        dag = executor.deployed.dag
        checked = 0
        for rid in rids:
            arrivals = executor.join_order(rid)
            expected = _replay_gates(dag, arrivals)
            path = compute_critical_path(tracer, rid)
            reported = {g.sync_node: g.gate_edge for g in path.sync_gates}
            assert reported == expected
            checked += len(reported)
        # The workload must actually exercise the join protocol.
        assert checked > 0

    def test_gate_arrivals_are_ordered_and_bounded(self, traced_run):
        tracer, _executor, _rids = traced_run
        for path in analyze_trace(tracer).requests:
            for gate in path.sync_gates:
                for edge, t in gate.arrivals.items():
                    assert "->" in edge
                    assert t <= gate.t + 1e-9
                assert gate.straggle_s >= 0.0
                if gate.gate_edge in gate.arrivals:
                    assert gate.arrivals[gate.gate_edge] == pytest.approx(
                        max(gate.arrivals.values())
                    )

    def test_completed_requests_end_with_terminal_invocation(self, traced_run):
        tracer, executor, rids = traced_run
        dag = executor.deployed.dag
        terminal = {n for n in dag.node_names if not dag.out_edges(n)}
        for rid in rids:
            if executor.request_status(rid) != "completed":
                continue
            path = compute_critical_path(tracer, rid)
            last_work = [s for s in path.segments if s.kind == "invocation"]
            assert last_work, f"completed request {rid} has no invocation"
            assert last_work[-1].node in terminal


class TestAnalysisDeterminism:
    def test_same_trace_same_analysis(self, traced_run):
        tracer, _executor, _rids = traced_run
        a = analyze_trace(tracer).aggregate()
        b = analyze_trace(list(tracer.spans)).aggregate()
        assert a == b

    def test_jsonl_round_trip_preserves_analysis(self, traced_run, tmp_path):
        from repro.obs.report import load_bundle
        from tests.test_bundle import write_bundle

        tracer, _executor, _rids = traced_run
        tracer.finalize()
        reloaded = load_bundle(write_bundle(tmp_path / "run.jsonl", tracer.spans)).spans
        assert analyze_trace(reloaded).aggregate() == analyze_trace(
            tracer
        ).aggregate()

    def test_render_is_stable(self, traced_run):
        tracer, _executor, rids = traced_run
        path = compute_critical_path(tracer, rids[0])
        assert request_path(path) == request_path(path)
        assert path.request_id in request_path(path)


class TestEdgeCases:
    def test_unknown_request_raises(self, traced_run):
        tracer, _executor, _rids = traced_run
        with pytest.raises(KeyError):
            compute_critical_path(tracer, "no-such-request")

    def test_empty_trace_analyzes_to_nothing(self):
        analysis = analyze_trace([])
        assert analysis.n_requests == 0
        agg = analysis.aggregate()
        assert agg["n_requests"] == 0
        assert agg["by_kind"] == {}


class TestAnalyzeTraceDifferential:
    """``analyze_trace`` hands each request only its own spans; on the
    chaos capture's traces (retries, dead letters, fallbacks) it must
    give exactly what one whole-trace ``compute_critical_path`` call
    per request gives."""

    @pytest.mark.parametrize("app_name", chaos_capture.APPS)
    def test_equals_per_request_paths_on_the_chaos_capture(self, app_name):
        _cloud, tracer, _executor = chaos_capture.chaos_run(app_name)
        tracer.finalize()
        spans = list(tracer.spans)
        rids = list(dict.fromkeys(s.request_id for s in spans if s.kind == "request"))
        assert len(rids) > 1
        expected = [compute_critical_path(spans, rid) for rid in rids]
        assert analyze_trace(spans).requests == expected

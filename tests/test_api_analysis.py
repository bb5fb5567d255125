"""Tests for the developer API (Listing 1) and static analysis (§6.1)."""

import functools
import inspect

import pytest

from repro.apps import ALL_APPS
from repro.cloud.provider import SimulatedCloud
from repro.common.errors import WorkflowDefinitionError
from repro.core import analysis
from repro.core.analysis import analyze_workflow, stage_names
from repro.core.api import ExecutionContext, Payload, Workflow
from repro.core.lifecycle import deploy_benchmark
from tests.front_end_capture import dag_facts, dag_structure_facts


def simple_workflow():
    workflow = Workflow("simple")

    @workflow.serverless_function(name="start", entry_point=True)
    def start(event):
        workflow.invoke_serverless_function({"x": 1}, middle)

    @workflow.serverless_function(name="middle")
    def middle(event):
        workflow.invoke_serverless_function({"x": 2}, "end")

    @workflow.serverless_function(name="end")
    def end(event):
        return event

    return workflow


class TestWorkflowApi:
    def test_registration(self):
        workflow = simple_workflow()
        assert {f.name for f in workflow.functions} == {"start", "middle", "end"}
        assert workflow.entry_function.name == "start"

    def test_duplicate_function_rejected(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="f", entry_point=True)
        def f(event):
            pass

        with pytest.raises(WorkflowDefinitionError, match="duplicate"):
            @workflow.serverless_function(name="f")
            def g(event):
                pass

    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowDefinitionError):
            Workflow("")

    def test_missing_entry_point(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="f")
        def f(event):
            pass

        with pytest.raises(WorkflowDefinitionError, match="entry_point"):
            workflow.entry_function

    def test_region_constraints_parsed(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(
            name="f", entry_point=True,
            regions_and_providers={"allowed_regions": [{"region": "us-east-1"}]},
        )
        def f(event):
            pass

        constraints = workflow.function("f").constraints
        assert constraints.permits("us-east-1")
        assert not constraints.permits("ca-central-1")

    def test_api_outside_execution_raises(self):
        workflow = simple_workflow()
        with pytest.raises(RuntimeError, match="outside"):
            workflow.invoke_serverless_function({}, "middle")
        with pytest.raises(RuntimeError, match="outside"):
            workflow.get_predecessor_data()

    def test_intents_recorded_in_context(self):
        workflow = simple_workflow()
        ctx = ExecutionContext(node="start", request_id="r1")
        workflow.push_context(ctx)
        workflow.function("start").handler({})
        workflow.pop_context()
        assert len(ctx.intents) == 1
        assert ctx.intents[0].target_function == "middle"
        assert ctx.intents[0].conditional_value is True

    def test_intent_call_index_per_target(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="fan", entry_point=True)
        def fan(event):
            for i in range(3):
                workflow.invoke_serverless_function({"i": i}, worker)

        @workflow.serverless_function(name="worker", max_instances=3)
        def worker(event):
            pass

        ctx = ExecutionContext(node="fan", request_id="r1")
        workflow.push_context(ctx)
        workflow.function("fan").handler({})
        workflow.pop_context()
        assert [i.call_index for i in ctx.intents] == [0, 1, 2]

    def test_get_predecessor_data_returns_payloads(self):
        workflow = simple_workflow()
        payloads = [Payload(content=1), Payload(content=2)]
        ctx = ExecutionContext(node="end", request_id="r1",
                               predecessor_data=payloads)
        workflow.push_context(ctx)
        data = workflow.get_predecessor_data()
        workflow.pop_context()
        assert [p.content for p in data] == [1, 2]
        assert ctx.used_get_predecessor_data

    def test_unregistered_target_rejected_at_runtime(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="f", entry_point=True)
        def f(event):
            pass

        ctx = ExecutionContext(node="f", request_id="r1")
        workflow.push_context(ctx)
        with pytest.raises(WorkflowDefinitionError):
            workflow.invoke_serverless_function({}, "ghost")
        workflow.pop_context()

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            Payload(size_bytes=-1)

    def test_pop_empty_context_raises(self):
        with pytest.raises(RuntimeError):
            Workflow("wf").pop_context()


class TestStaticAnalysis:
    def test_simple_chain_extracted(self):
        dag = analyze_workflow(simple_workflow())
        assert dag.node_names == ("start", "middle", "end")
        assert dag.has_edge("start", "middle")
        assert dag.has_edge("middle", "end")  # string-literal target
        assert dag.start_node == "start"

    def test_conditional_edge_detected(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            found = bool(event)
            workflow.invoke_serverless_function({}, b, found)

        @workflow.serverless_function(name="b")
        def b(event):
            pass

        dag = analyze_workflow(workflow)
        assert dag.edge("a", "b").conditional

    def test_literal_true_is_unconditional(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            workflow.invoke_serverless_function({}, b, True)

        @workflow.serverless_function(name="b")
        def b(event):
            pass

        dag = analyze_workflow(workflow)
        assert not dag.edge("a", "b").conditional

    def test_fanout_expands_stages(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            for i in range(3):
                workflow.invoke_serverless_function({}, w)

        @workflow.serverless_function(name="w", max_instances=3)
        def w(event):
            workflow.invoke_serverless_function({}, join)

        @workflow.serverless_function(name="join")
        def join(event):
            workflow.get_predecessor_data()

        dag = analyze_workflow(workflow)
        assert set(dag.node_names) == {"a", "w:0", "w:1", "w:2", "join"}
        assert dag.is_sync_node("join")
        for i in range(3):
            assert dag.has_edge("a", f"w:{i}")
            assert dag.has_edge(f"w:{i}", "join")

    def test_stage_names_helper(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="multi", entry_point=True,
                                      max_instances=2)
        def multi(event):
            pass

        spec = workflow.function("multi")
        assert stage_names(spec) == ("multi:0", "multi:1")

    def test_sync_without_get_predecessor_data_rejected(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            workflow.invoke_serverless_function({}, c)
            workflow.invoke_serverless_function({}, b)

        @workflow.serverless_function(name="b")
        def b(event):
            workflow.invoke_serverless_function({}, c)

        @workflow.serverless_function(name="c")
        def c(event):
            pass  # fan-in but never calls get_predecessor_data

        with pytest.raises(WorkflowDefinitionError, match="get_predecessor_data"):
            analyze_workflow(workflow)

    def test_unknown_target_rejected(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            workflow.invoke_serverless_function({}, "ghost")

        with pytest.raises(WorkflowDefinitionError, match="unknown"):
            analyze_workflow(workflow)

    def test_no_functions_rejected(self):
        with pytest.raises(WorkflowDefinitionError, match="no registered"):
            analyze_workflow(Workflow("empty"))

    def test_multi_instance_entry_rejected(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True, max_instances=2)
        def a(event):
            pass

        with pytest.raises(WorkflowDefinitionError, match="max_instances"):
            analyze_workflow(workflow)

    def test_memory_propagated_to_nodes(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True, memory_mb=3538)
        def a(event):
            pass

        dag = analyze_workflow(workflow)
        assert dag.node("a").memory_mb == 3538


def caller_workflow(name, register_target):
    """A workflow whose entry handler invokes ``"helper"``; every call
    builds new closures over the same code objects."""
    workflow = Workflow(name)

    @workflow.serverless_function(name="start", entry_point=True)
    def start(event):
        workflow.invoke_serverless_function(event, "helper")

    if register_target:
        @workflow.serverless_function(name="helper")
        def helper(event):
            return event

    return workflow


def logged(fn):
    @functools.wraps(fn)
    def wrapper(event):
        return fn(event)

    return wrapper


class TestParseOnce:
    """Each handler's source is parsed once per process; every analysis
    resolves the parsed targets against its own workflow."""

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    def test_two_fresh_builds_give_equal_dags(self, app_name):
        first, second = (analyze_workflow(ALL_APPS[app_name].build_workflow())
                         for _ in range(2))
        assert dag_facts(first) == dag_facts(second)
        assert dag_structure_facts(first) == dag_structure_facts(second)

    def test_one_source_read_per_distinct_handler(self, monkeypatch):
        read = []
        getsource = inspect.getsource

        def spy(obj):
            read.append(obj)
            return getsource(obj)

        monkeypatch.setattr(inspect, "getsource", spy)
        analysis._parse.cache_clear()
        handlers = set()
        for _ in range(3):
            for app in ALL_APPS.values():
                deploy_benchmark(app, SimulatedCloud(seed=5))
                handlers |= {inspect.unwrap(spec.handler).__code__
                             for spec in app.build_workflow().functions}
        assert len(read) == len(set(read)) == len(handlers)
        assert set(read) == handlers

    def test_unknown_target_still_raises_on_the_cached_path(self):
        analysis._parse.cache_clear()
        assert analyze_workflow(caller_workflow("ok", True)).has_edge("start", "helper")
        with pytest.raises(WorkflowDefinitionError, match="targets unknown function 'helper'"):
            analyze_workflow(caller_workflow("missing", False))
        assert analysis._parse.cache_info().hits >= 1
        assert analyze_workflow(caller_workflow("ok_again", True)).has_edge("start", "helper")

    def test_wrapped_handler_is_analysed_from_the_wrapped_source(self):
        workflow = Workflow("wf")

        @workflow.serverless_function(name="a", entry_point=True)
        @logged
        def a(event):
            workflow.invoke_serverless_function(event, "b", event)

        @workflow.serverless_function(name="b")
        def b(event):
            return event

        for _ in range(2):
            dag = analyze_workflow(workflow)
            assert [(e.key, e.conditional) for e in dag.edges] == [("a->b", True)]

    def test_non_name_target_raises_every_time(self):
        workflow = Workflow("wf")
        targets = ["b"]

        @workflow.serverless_function(name="a", entry_point=True)
        def a(event):
            workflow.invoke_serverless_function(event, targets[0])

        for _ in range(2):
            with pytest.raises(WorkflowDefinitionError, match="must be a name or string literal"):
                analyze_workflow(workflow)

    def test_handler_without_source_raises_every_time(self):
        namespace = {}
        exec("def handler(event):\n    return event\n", namespace)
        workflow = Workflow("wf")
        workflow.serverless_function(name="a", entry_point=True)(namespace["handler"])
        for _ in range(2):
            with pytest.raises(WorkflowDefinitionError,
                               match="cannot retrieve source of handler 'a'"):
                analyze_workflow(workflow)

"""Tests for the five benchmark workflows (Table 1)."""

import pytest

from repro.apps import ALL_APPS, get_app
from repro.cloud.provider import SimulatedCloud
from repro.common.units import kb, mb
from repro.core.analysis import analyze_workflow
from repro.core.lifecycle import deploy_benchmark

TABLE_1 = {
    "dna_visualization": dict(sync=False, cond=False, stages=1,
                              small=kb(69), large=mb(1.1)),
    "rag_ingestion": dict(sync=False, cond=False, stages=2,
                          small=33 * kb(60), large=115 * kb(60)),
    "image_processing": dict(sync=True, cond=False, stages=7,
                             small=kb(222), large=mb(2.4)),
    "text2speech_censoring": dict(sync=True, cond=True, stages=5,
                                  small=kb(1), large=kb(12)),
    "video_analytics": dict(sync=True, cond=False, stages=6,
                            small=kb(206), large=mb(2.4)),
}


class TestRegistry:
    def test_all_five_registered(self):
        assert set(ALL_APPS) == set(TABLE_1)

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="known"):
            get_app("nope")


@pytest.mark.parametrize("name", sorted(TABLE_1))
class TestTable1Facts:
    def test_structure_matches_table1(self, name):
        app = get_app(name)
        facts = TABLE_1[name]
        assert app.has_sync == facts["sync"]
        assert app.has_conditional == facts["cond"]
        assert app.n_stages == facts["stages"]

    def test_input_sizes_match_table1(self, name):
        app = get_app(name)
        facts = TABLE_1[name]
        assert app.input_sizes["small"] == pytest.approx(facts["small"])
        assert app.input_sizes["large"] == pytest.approx(facts["large"])
        assert app.make_input("small").size_bytes == pytest.approx(facts["small"])
        assert app.make_input("large").size_bytes == pytest.approx(facts["large"])

    def test_dag_extraction_matches_declared_structure(self, name):
        app = get_app(name)
        dag = analyze_workflow(app.build_workflow())
        assert len(dag) == app.n_stages
        assert bool(dag.sync_nodes) == app.has_sync
        assert dag.has_conditional_edges == app.has_conditional

    def test_invalid_size_rejected(self, name):
        app = get_app(name)
        with pytest.raises(ValueError):
            app.make_input("medium")

    def test_fresh_workflow_instances_independent(self, name):
        app = get_app(name)
        wf1 = app.build_workflow()
        wf2 = app.build_workflow()
        assert wf1 is not wf2
        assert {f.name for f in wf1.functions} == {f.name for f in wf2.functions}

    @pytest.mark.parametrize("size", ["small", "large"])
    def test_end_to_end_execution(self, name, size):
        cloud = SimulatedCloud(seed=31)
        app = get_app(name)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rid = executor.invoke(app.make_input(size), force_home=True)
        cloud.run_until_idle()
        executed = {e.node for e in cloud.ledger.executions_for(deployed.name, rid)}
        assert executed == set(deployed.dag.node_names)
        assert not cloud.pubsub.dead_letters


class TestAppSemantics:
    def test_dna_computes_gc_content(self):
        from repro.apps.dna_visualization import _synthetic_sequence

        seq = _synthetic_sequence(100)
        assert len(seq) == 100
        assert set(seq) <= set("ACGT")

    def test_t2s_compliance_pins_upload_to_us(self):
        cloud = SimulatedCloud(seed=31)
        app = get_app("text2speech_censoring")
        deployed, _, _ = deploy_benchmark(app, cloud)
        assert not deployed.config.permits("upload", "ca-central-1")
        assert deployed.config.permits("upload", "us-west-2")
        assert deployed.config.permits("censoring", "ca-central-1")

    def test_t2s_audio_expansion(self):
        # Intermediate audio dwarfs the text input (critical for the
        # transmission-carbon trade-off).
        cloud = SimulatedCloud(seed=32)
        app = get_app("text2speech_censoring")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        edges = {
            r.edge: r.size_bytes
            for r in cloud.ledger.transmissions_for(deployed.name, rid)
        }
        assert edges["text2speech->conversion"] > 50 * kb(1)

    def test_video_analytics_chunk_fanout(self):
        cloud = SimulatedCloud(seed=33)
        app = get_app("video_analytics")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rid = executor.invoke(app.make_input("large"), force_home=True)
        cloud.run_until_idle()
        recognize_execs = [
            e for e in cloud.ledger.executions_for(deployed.name, rid)
            if e.node.startswith("recognize")
        ]
        assert len(recognize_execs) == 4
        # Each chunk carries ~1/4 of the clip.
        for e in recognize_execs:
            assert e.payload_bytes == pytest.approx(mb(2.4) / 4)

    def test_image_processing_results_collected(self):
        cloud = SimulatedCloud(seed=34)
        app = get_app("image_processing")
        deployed, executor, _ = deploy_benchmark(app, cloud)
        rid = executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
        stored, _ = deployed.kv().get(deployed.data_table, f"{rid}:collect")
        ops = sorted(p["content"]["op"] for p in stored)
        assert ops == ["blur", "flip", "grayscale", "resize", "rotate"]

    def test_external_data_declared_where_expected(self):
        # Apps that write results home must declare the dependency so
        # the solver models the return traffic (§9.1 rule 1).
        for name in ("dna_visualization", "rag_ingestion",
                     "text2speech_censoring", "video_analytics"):
            app = get_app(name)
            workflow = app.build_workflow()
            assert any(
                s.external_data is not None for s in workflow.functions
            ), name

"""Golden-trace regression tests.

A fixed-seed quickstart-style run must reproduce its committed JSONL
trace *byte for byte*.  Any intentional change to the span taxonomy,
timing model, or serialisation shows up here as a diff; regenerate the
snapshot with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py

and review the diff like any other code change.
"""

import json
import os
import pathlib

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.lifecycle import deploy_benchmark
from repro.obs.trace import SPAN_KINDS, Tracer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "quickstart_trace.jsonl"
SEED = 1234


def quickstart_trace() -> Tracer:
    """The reference scenario: two seeded invocations of the sync-node
    benchmark, routed entirely at the home region (no solver — its
    iteration spans would dwarf the snapshot)."""
    tracer = Tracer()
    cloud = SimulatedCloud(seed=SEED, tracer=tracer)
    app = get_app("text2speech_censoring")
    deployed, executor, _utility = deploy_benchmark(app, cloud)
    for _ in range(2):
        executor.invoke(app.make_input("small"), force_home=True)
        cloud.run_until_idle()
    tracer.finalize()
    return tracer


class TestGoldenTrace:
    def test_trace_matches_snapshot(self):
        tracer = quickstart_trace()
        produced = tracer.to_jsonl()
        if os.environ.get("UPDATE_GOLDEN"):
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(produced, encoding="utf-8")
        assert GOLDEN.exists(), (
            "golden trace missing; regenerate with UPDATE_GOLDEN=1"
        )
        expected = GOLDEN.read_text(encoding="utf-8")
        assert produced == expected, (
            "trace drifted from the golden snapshot; if intentional, "
            "regenerate with UPDATE_GOLDEN=1 and review the diff"
        )

    def test_two_runs_byte_identical(self):
        assert quickstart_trace().to_jsonl() == quickstart_trace().to_jsonl()

    def test_snapshot_is_valid_jsonl_with_known_kinds(self):
        for line in GOLDEN.read_text(encoding="utf-8").splitlines():
            span = json.loads(line)
            assert span["kind"] in SPAN_KINDS
            assert span["t1"] >= span["t0"]


class TestTracingIsPureObservation:
    def test_traced_and_untraced_ledgers_identical(self):
        def ledger_lines(tracer):
            cloud = SimulatedCloud(seed=SEED, tracer=tracer)
            app = get_app("text2speech_censoring")
            deployed, executor, _ = deploy_benchmark(app, cloud)
            executor.invoke(app.make_input("small"), force_home=True)
            cloud.run_until_idle()
            return [
                (r.node, r.region, r.start_s, r.end_s)
                for r in cloud.ledger.executions
            ], [
                (r.src_region, r.dst_region, r.size_bytes, r.latency_s)
                for r in cloud.ledger.transmissions
            ]

        assert ledger_lines(None) == ledger_lines(Tracer())

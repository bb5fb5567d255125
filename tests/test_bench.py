"""Benchmark-harness tests: profiler semantics, BENCH schema, and the
regression gate.

The actual workloads in ``scripts/bench.py`` are exercised end-to-end
by CI's perf-smoke job; here we pin the parts that must not drift —
the document schema, the gate arithmetic, and the phase profiler the
hot paths report into.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.profile import (
    NULL_PROFILER,
    Profiler,
    get_profiler,
    profiled_phase,
    set_profiler,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench", REPO_ROOT / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(autouse=True)
def _restore_profiler():
    """Never leak an installed profiler into other tests."""
    previous = get_profiler()
    yield
    set_profiler(previous)


# ------------------------------------------------------------------- profiler
class TestProfiler:
    def test_default_is_noop(self):
        assert get_profiler() is NULL_PROFILER
        assert not NULL_PROFILER.enabled
        with profiled_phase("anything"):
            pass
        assert NULL_PROFILER.snapshot() == {}
        assert NULL_PROFILER.total_s("anything") == 0.0

    def test_accumulates_calls_and_time(self):
        profiler = Profiler()
        set_profiler(profiler)
        for _ in range(3):
            with profiled_phase("work"):
                time.sleep(0.001)
        snap = profiler.snapshot()
        assert snap["work"]["calls"] == 3
        assert snap["work"]["total_s"] >= 0.003
        assert snap["work"]["self_s"] == pytest.approx(
            snap["work"]["total_s"]
        )

    def test_nested_phases_subtract_child_time(self):
        profiler = Profiler()
        set_profiler(profiler)
        with profiled_phase("outer"):
            time.sleep(0.001)
            with profiled_phase("inner"):
                time.sleep(0.002)
        snap = profiler.snapshot()
        assert snap["outer"]["total_s"] >= snap["inner"]["total_s"]
        assert snap["outer"]["self_s"] == pytest.approx(
            snap["outer"]["total_s"] - snap["inner"]["total_s"], abs=1e-4
        )

    def test_set_profiler_returns_previous_and_none_restores(self):
        profiler = Profiler()
        previous = set_profiler(profiler)
        assert get_profiler() is profiler
        set_profiler(None)
        assert get_profiler() is NULL_PROFILER
        set_profiler(previous)

    def test_reset_and_summary(self):
        profiler = Profiler()
        set_profiler(profiler)
        with profiled_phase("p"):
            pass
        assert "p" in profiler.summary()
        profiler.reset()
        assert profiler.snapshot() == {}
        assert NULL_PROFILER.summary() == "(profiling disabled)"

    def test_exception_still_recorded(self):
        profiler = Profiler()
        set_profiler(profiler)
        with pytest.raises(RuntimeError):
            with profiled_phase("boom"):
                raise RuntimeError("x")
        assert profiler.snapshot()["boom"]["calls"] == 1

    def test_hot_paths_report_phases(self):
        """The wired-up hot paths actually hit the profiler."""
        from repro.apps import get_app
        from repro.experiments.harness import run_coarse

        profiler = Profiler()
        set_profiler(profiler)
        run_coarse(
            get_app("text2speech_censoring"), "small", "us-east-1",
            seed=0, n_invocations=2,
        )
        assert profiler.total_s("sim.run") > 0.0


class TestProfilerThreads:
    """Nested-phase accounting when phases open on worker threads (an
    embedding caller's threads all reporting the same phase names into
    one shared profiler)."""

    def test_nesting_is_thread_local(self):
        import threading

        profiler = Profiler()
        set_profiler(profiler)
        n_workers = 4
        barrier = threading.Barrier(n_workers)

        def worker():
            with profiled_phase("outer"):
                barrier.wait()  # all workers inside "outer" at once
                with profiled_phase("inner"):
                    time.sleep(0.002)

        threads = [threading.Thread(target=worker) for _ in range(n_workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = profiler.snapshot()
        assert snap["outer"]["calls"] == n_workers
        assert snap["inner"]["calls"] == n_workers
        # Each worker's inner time subtracts from its OWN outer self
        # time — never from a sibling thread's: self stays >= 0 and
        # below total by at least the summed inner time.
        assert snap["outer"]["self_s"] >= 0.0
        assert snap["outer"]["self_s"] == pytest.approx(
            snap["outer"]["total_s"] - snap["inner"]["total_s"], abs=5e-3
        )

    def test_worker_phase_does_not_nest_under_main_thread(self):
        import threading

        profiler = Profiler()
        set_profiler(profiler)
        with profiled_phase("main"):
            t = threading.Thread(
                target=lambda: profiled_phase("worker").__enter__().__exit__(
                    None, None, None
                )
            )
            t.start()
            t.join()
            time.sleep(0.001)
        snap = profiler.snapshot()
        # The worker's phase ran on its own (empty) stack, so it charged
        # nothing to "main": main's self time equals its total time.
        assert snap["main"]["self_s"] == pytest.approx(
            snap["main"]["total_s"]
        )
        assert snap["worker"]["calls"] == 1

    def test_run_reports_phases(self):
        """End to end: a run lands solver phases in the shared table,
        with self_s never exceeding total_s."""
        from repro.apps import get_app
        from repro.experiments.harness import run_caribou

        profiler = Profiler()
        set_profiler(profiler)
        run_caribou(
            get_app("text2speech_censoring"), "small",
            ("us-east-1", "ca-central-1"),
            seed=0, n_invocations=2,
        )
        snap = profiler.snapshot()
        assert "solver.solve_hour" in snap
        for name, entry in snap.items():
            assert 0.0 <= entry["self_s"] <= entry["total_s"] + 1e-9, name


# ------------------------------------------------------------------- schema
def _valid_doc() -> dict:
    metrics = {
        name: {"unit": "x/s", "value": 100.0}
        for name in bench.THROUGHPUT_METRICS
    }
    for name in bench.LATENCY_METRICS:
        metrics[name] = {"unit": "s", "value": 10.0}
    metrics["tracer_overhead_pct"] = {"unit": "%", "value": 1.5}
    metrics["tracer_sampled_overhead_pct"] = {"unit": "%", "value": 0.3}
    for name in bench.OVERHEAD_METRICS:
        metrics[name] = {"unit": "%", "value": 1.0}
    for name in bench.QUALITY_METRICS:
        metrics[name] = {"unit": "%", "value": 0.5}
    return {
        "app": "text2speech_censoring",
        "label": "test",
        "metrics": metrics,
        "phases": {"solver.solve_hour": {"calls": 2, "self_s": 0.1,
                                         "total_s": 0.2}},
        "schema": bench.BENCH_SCHEMA,
        "smoke": True,
    }


class TestBenchSchema:
    def test_valid_document_passes(self):
        assert bench.validate_bench(_valid_doc()) == []

    def test_committed_baseline_is_valid(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_baseline.json").read_text()
        )
        assert bench.validate_bench(baseline) == []
        assert baseline["smoke"] is True

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(schema="nope"), "schema"),
            (lambda d: d.update(label=""), "label"),
            (lambda d: d.update(smoke="yes"), "smoke"),
            (lambda d: d["metrics"].pop("mc_samples_per_s"), "mc_samples"),
            (
                lambda d: d["metrics"]["solver_solves_per_s"].update(value=0),
                "positive",
            ),
            (
                lambda d: d["metrics"]["tracer_overhead_pct"].update(
                    value="fast"
                ),
                "number",
            ),
            (lambda d: d.update(phases=[]), "phases"),
            (
                lambda d: d["phases"]["solver.solve_hour"].pop("calls"),
                "calls",
            ),
        ],
    )
    def test_invalid_documents_flagged(self, mutate, fragment):
        doc = copy.deepcopy(_valid_doc())
        mutate(doc)
        problems = bench.validate_bench(doc)
        assert problems, f"expected problems after {fragment}"
        assert any(fragment in p for p in problems)


# ------------------------------------------------------------------- gate
class TestRegressionGate:
    def test_no_failures_when_equal(self):
        doc = _valid_doc()
        assert bench.check_regression(doc, doc, 2.0) == []

    def test_faster_than_baseline_passes(self):
        current = _valid_doc()
        for name in bench.THROUGHPUT_METRICS:
            current["metrics"][name]["value"] = 500.0
        assert bench.check_regression(current, _valid_doc(), 2.0) == []

    def test_over_2x_slower_fails(self):
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["executor_events_per_s"]["value"] = 40.0
        failures = bench.check_regression(current, _valid_doc(), 2.0)
        assert len(failures) == 1
        assert "executor_events_per_s" in failures[0]

    def test_latency_metric_gated_lower_is_better(self):
        # Wall-clock metrics fail when they GROW past the limit...
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["fleet_solve_wall_s"]["value"] = 25.0
        failures = bench.check_regression(current, _valid_doc(), 2.0)
        assert len(failures) == 1
        assert "fleet_solve_wall_s" in failures[0]
        # ...and shrinking is an improvement, never a regression.
        current["metrics"]["fleet_solve_wall_s"]["value"] = 1.0
        assert bench.check_regression(current, _valid_doc(), 2.0) == []

    def test_exactly_at_limit_passes(self):
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["mc_samples_per_s"]["value"] = 50.0
        assert bench.check_regression(current, _valid_doc(), 2.0) == []

    def test_overhead_metric_not_gated(self):
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["tracer_overhead_pct"]["value"] = 500.0
        assert bench.check_regression(current, _valid_doc(), 2.0) == []

    def test_telemetry_overhead_gated_absolutely(self):
        # The ceiling is absolute: blowing it fails even when the
        # baseline was just as bad (no ratchet laundering).
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["telemetry_overhead_pct"]["value"] = 9.0
        baseline = copy.deepcopy(_valid_doc())
        baseline["metrics"]["telemetry_overhead_pct"]["value"] = 9.0
        failures = bench.check_regression(current, baseline, 2.0)
        assert len(failures) == 1
        assert "telemetry_overhead_pct" in failures[0]

    def test_telemetry_overhead_under_ceiling_passes(self):
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["telemetry_overhead_pct"]["value"] = (
            bench.MAX_TELEMETRY_OVERHEAD_PCT
        )
        # Exactly at the ceiling passes; negative (telemetry run faster,
        # pure noise) passes too.
        assert bench.check_regression(current, _valid_doc(), 2.0) == []
        current["metrics"]["telemetry_overhead_pct"]["value"] = -3.0
        assert bench.check_regression(current, _valid_doc(), 2.0) == []

    def test_telemetry_ceiling_overridable(self):
        current = copy.deepcopy(_valid_doc())
        current["metrics"]["telemetry_overhead_pct"]["value"] = 9.0
        assert bench.check_regression(
            current, _valid_doc(), 2.0, max_overhead_pct=10.0
        ) == []

    def test_missing_metric_skipped(self):
        current = copy.deepcopy(_valid_doc())
        del current["metrics"]["solver_solves_per_s"]
        assert bench.check_regression(current, _valid_doc(), 2.0) == []

    def test_quality_gap_regression_fails_absolutely(self):
        # An injected HBSS quality regression (gap grows past the
        # absolute percentage-point slack) must fail the gate even
        # though the ratio vs a near-zero baseline is meaningless.
        current = copy.deepcopy(_valid_doc())
        baseline = _valid_doc()
        baseline["metrics"]["hbss_carbon_gap_pct"]["value"] = 0.0
        current["metrics"]["hbss_carbon_gap_pct"]["value"] = 2.5
        failures = bench.check_regression(current, baseline, 2.0)
        assert len(failures) == 1
        assert "hbss_carbon_gap_pct" in failures[0]

    def test_quality_gap_within_slack_passes(self):
        current = copy.deepcopy(_valid_doc())
        baseline = _valid_doc()
        baseline["metrics"]["hbss_carbon_gap_pct"]["value"] = 0.0
        current["metrics"]["hbss_carbon_gap_pct"]["value"] = 1.9
        assert bench.check_regression(current, baseline, 2.0) == []
        # The slack is configurable: tighten it and the same gap fails.
        failures = bench.check_regression(
            current, baseline, 2.0, max_quality_pp=1.0
        )
        assert len(failures) == 1

    def test_quality_gap_improvement_passes(self):
        current = copy.deepcopy(_valid_doc())
        baseline = _valid_doc()
        baseline["metrics"]["hbss_carbon_gap_pct"]["value"] = 3.0
        current["metrics"]["hbss_carbon_gap_pct"]["value"] = 0.0
        assert bench.check_regression(current, baseline, 2.0) == []

    def test_negative_quality_gap_invalid(self):
        # exact is a proven optimum: HBSS "beating" it means the exact
        # solver broke, which validation (not the gate) must surface.
        doc = copy.deepcopy(_valid_doc())
        doc["metrics"]["hbss_carbon_gap_pct"]["value"] = -0.5
        assert any(
            "hbss_carbon_gap_pct" in p for p in bench.validate_bench(doc)
        )


# ------------------------------------------------------------------- CLI
@pytest.mark.slow
def test_bench_cli_smoke(tmp_path):
    """Full harness run: emits a valid document and passes its own gate."""
    result = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "bench.py"),
            "--smoke", "--label", "citest", "--out-dir", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "BENCH_citest.json").read_text())
    assert bench.validate_bench(doc) == []
    assert doc["metrics"]["executor_events_per_s"]["value"] > 0
    assert "mc.estimate_profile" in doc["phases"]
    assert "solver.solve_hour" in doc["phases"]


class TestProfilerThreadSafety:
    def test_concurrent_phases_accumulate_exactly(self):
        import threading

        from repro.obs.profile import Profiler

        profiler = Profiler()
        n_threads, n_calls = 8, 200
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_calls):
                with profiler.phase("outer"):
                    with profiler.phase("inner"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = profiler.snapshot()
        assert snap["outer"]["calls"] == n_threads * n_calls
        assert snap["inner"]["calls"] == n_threads * n_calls
        # Nesting is per-thread: inner time subtracts from outer's self
        # time without ever producing a negative residue.
        assert snap["outer"]["self_s"] >= 0.0
        assert snap["outer"]["total_s"] >= snap["inner"]["total_s"]

    def test_nesting_is_thread_local(self):
        import threading

        from repro.obs.profile import Profiler

        profiler = Profiler()
        release = threading.Event()
        entered = threading.Event()

        def holder():
            with profiler.phase("held"):
                entered.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=holder)
        t.start()
        entered.wait(timeout=5.0)
        # While another thread sits inside "held", this thread's phase
        # must not nest under it (a shared stack would attribute this
        # elapsed time to "held" as child time).
        with profiler.phase("independent"):
            pass
        release.set()
        t.join()
        snap = profiler.snapshot()
        assert snap["independent"]["calls"] == 1
        assert snap["held"]["self_s"] == pytest.approx(
            snap["held"]["total_s"]
        )

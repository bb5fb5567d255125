"""Differential tests: the slotted event loop vs the legacy oracle.

The PR that rebuilt :mod:`repro.cloud.simulator` (slotted records, lazy
cancellation + compaction, batched same-timestamp dispatch) promised
byte-identical event ordering — FIFO among timestamp ties — and clock
trajectories.  These tests drive the *same* deterministic workload
through the new loop and through the preserved pre-rewrite loop
(``tests/event_loop_oracle.py``) and compare what both promise:
execution order, execution times, and the final clock.

Two layers:

* scripted chaos storms against bare environments (nested scheduling,
  same-timestamp ties, cancellation storms heavy enough to trigger
  compaction mid-run);
* a full simulated-cloud serving run (open-loop trace + injected
  invocation failures, so pub/sub retry timers churn), compared via the
  tracer's JSONL — every span's virtual start/end on both loops.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cloud.simulator import SimulationEnvironment
from tests.event_loop_oracle import LegacySimulationEnvironment


def _chaos_storm(env, seed: int, n_roots: int = 40, max_depth: int = 4):
    """Run one deterministic chaos storm; returns the execution log.

    Every event's behaviour (children spawned, delays, which recent
    handles it cancels) derives from an RNG seeded by ``(seed, event
    id)`` alone, so the two environments make identical decisions as
    long as they execute identically — any ordering divergence cascades
    into a log mismatch.
    """
    log = []
    handles = []
    counter = itertools.count()

    def make_action(eid: int, depth: int):
        def action() -> None:
            log.append((eid, round(env.now(), 9)))
            rng = np.random.default_rng((seed, eid))
            # Cancellation storm: revoke a few of the most recently
            # scheduled events (the pub/sub retry-timer pattern).
            for h in handles[-6:]:
                if rng.random() < 0.5:
                    h.cancel()
            if depth < max_depth:
                for _ in range(int(rng.integers(0, 4))):
                    cid = next(counter)
                    # 0.0 exercises same-timestamp self-scheduling into
                    # the current dispatch batch.
                    delay = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
                    handles.append(
                        env.schedule(delay, make_action(cid, depth + 1))
                    )

        return action

    for i in range(n_roots):
        eid = next(counter)
        handles.append(env.schedule(float(i % 7) * 0.5, make_action(eid, 0)))
    env.run_until_idle()
    return log


class TestScriptedChaos:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_order_and_times_match_legacy(self, seed):
        new_env = SimulationEnvironment(seed=seed)
        old_env = LegacySimulationEnvironment(seed=seed)
        new_log = _chaos_storm(new_env, seed)
        old_log = _chaos_storm(old_env, seed)
        assert new_log == old_log
        assert new_env.now() == old_env.now()
        assert new_env.events_executed == old_env.events_executed

    def test_compaction_storm_matches_legacy(self):
        """Watchdog churn (schedule far-future timers, cancel them each
        tick) must trigger compaction mid-run on the new loop — and the
        execution log must still match the legacy loop exactly."""

        def watchdog_churn(env, n_ticks: int = 200):
            log = []
            watchdogs = []

            def tick(i: int) -> None:
                log.append((i, env.now()))
                for h in watchdogs:
                    h.cancel()
                watchdogs.clear()
                if i < n_ticks:
                    for k in range(3):
                        watchdogs.append(
                            env.schedule(
                                600.0 + k,
                                lambda i=i, k=k: log.append(("wd", i, k)),
                            )
                        )
                    env.schedule(1.0, lambda: tick(i + 1))

            env.schedule(0.0, lambda: tick(0))
            env.run_until_idle()
            return log

        new_env = SimulationEnvironment(seed=3)
        new_log = watchdog_churn(new_env)
        assert new_env.compactions > 0  # the storm reached the path under test
        old_log = watchdog_churn(LegacySimulationEnvironment(seed=3))
        assert new_log == old_log

    def test_horizon_and_max_events_agree(self):
        for kwargs in ({"until": 2.0}, {"max_events": 57}, {"until": 3.0, "max_events": 30}):
            new_env = SimulationEnvironment(seed=5)
            old_env = LegacySimulationEnvironment(seed=5)
            logs = []
            for env in (new_env, old_env):
                log = []

                def tick(env=env, log=log):
                    log.append(env.now())
                    env.schedule(0.1, tick)

                for i in range(5):
                    env.schedule(i * 0.05, tick)
                executed = env.run(**kwargs)
                logs.append((executed, log, env.now()))
            assert logs[0] == logs[1], kwargs


class TestFullCloudDifferential:
    """Same serving workload through both loops, compared span-by-span."""

    def _traced_run(self, monkeypatch, legacy: bool) -> str:
        from repro.cloud.faults import FaultPlan
        from repro.cloud.provider import SimulatedCloud
        from repro.apps import get_app
        from repro.common.rng import RngRegistry
        from repro.data.workload import (
            OpenLoopInjector,
            WorkloadSpec,
            generate_trace,
        )
        from repro.core.lifecycle import deploy_benchmark
        from repro.obs.trace import Tracer

        if legacy:
            monkeypatch.setattr(
                "repro.cloud.provider.SimulationEnvironment",
                LegacySimulationEnvironment,
            )
        # Failures force pub/sub retries -> retry-timer churn on the
        # loop under test (scheduling AND cancellation on the hot path).
        plan = FaultPlan().with_invocation_failures(0.05)
        tracer = Tracer()
        cloud = SimulatedCloud(seed=17, fault_plan=plan, tracer=tracer)
        app = get_app("text2speech_censoring")
        _deployed, executor, _ = deploy_benchmark(app, cloud)
        spec = WorkloadSpec(base_rate_per_s=1.5, duration_s=90.0, profile="steady")
        trace = generate_trace(spec, RngRegistry(17).get("workload"))
        injector = OpenLoopInjector(executor, trace)
        injector.start()
        cloud.env.run_until_idle()
        tracer.finalize()
        return tracer.to_jsonl()

    def test_tracer_output_byte_identical(self, monkeypatch):
        new_jsonl = self._traced_run(monkeypatch, legacy=False)
        old_jsonl = self._traced_run(monkeypatch, legacy=True)
        assert new_jsonl, "differential run produced no spans"
        assert new_jsonl == old_jsonl

"""Tests for the discrete-event simulation core."""

import pytest

from repro.cloud.simulator import SimulationEnvironment


class TestScheduling:
    def test_events_run_in_time_order(self):
        env = SimulationEnvironment()
        order = []
        env.schedule(3.0, lambda: order.append("c"))
        env.schedule(1.0, lambda: order.append("a"))
        env.schedule(2.0, lambda: order.append("b"))
        env.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_ties_run_fifo(self):
        env = SimulationEnvironment()
        order = []
        for tag in ("first", "second", "third"):
            env.schedule(1.0, lambda t=tag: order.append(t))
        env.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        env = SimulationEnvironment()
        times = []
        env.schedule(5.0, lambda: times.append(env.now()))
        env.run_until_idle()
        assert times == [5.0]
        assert env.now() == 5.0

    def test_negative_delay_rejected(self):
        env = SimulationEnvironment()
        with pytest.raises(ValueError):
            env.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        env = SimulationEnvironment()
        env.schedule(5.0, lambda: None)
        env.run_until_idle()
        with pytest.raises(ValueError):
            env.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self):
        env = SimulationEnvironment()
        seen = []

        def outer():
            seen.append(("outer", env.now()))
            env.schedule(2.0, lambda: seen.append(("inner", env.now())))

        env.schedule(1.0, outer)
        env.run_until_idle()
        assert seen == [("outer", 1.0), ("inner", 3.0)]

    def test_cancelled_event_does_not_run(self):
        env = SimulationEnvironment()
        seen = []
        handle = env.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        env.run_until_idle()
        assert seen == []
        assert not handle.pending


class TestRun:
    def test_run_until_horizon(self):
        env = SimulationEnvironment()
        seen = []
        env.schedule(1.0, lambda: seen.append(1))
        env.schedule(10.0, lambda: seen.append(10))
        executed = env.run(until=5.0)
        assert executed == 1
        assert seen == [1]
        assert env.now() == 5.0  # clock left at the horizon

    def test_remaining_event_runs_later(self):
        env = SimulationEnvironment()
        seen = []
        env.schedule(10.0, lambda: seen.append(10))
        env.run(until=5.0)
        env.run_until_idle()
        assert seen == [10]

    def test_max_events_bound(self):
        env = SimulationEnvironment()

        def reschedule():
            env.schedule(1.0, reschedule)

        env.schedule(1.0, reschedule)
        executed = env.run(max_events=50)
        assert executed == 50

    def test_events_executed_counter(self):
        env = SimulationEnvironment()
        for i in range(5):
            env.schedule(float(i), lambda: None)
        env.run_until_idle()
        assert env.events_executed == 5

    def test_max_events_counts_executions_only(self):
        """Cancelled entries skipped by the loop must not consume the
        ``max_events`` budget (the old loop's double-bookkeeping bug)."""
        env = SimulationEnvironment()
        seen = []
        cancelled = [env.schedule(float(i) * 0.1, lambda: None) for i in range(10)]
        for h in cancelled:
            h.cancel()
        for i in range(5):
            env.schedule(10.0 + i, lambda i=i: seen.append(i))
        executed = env.run(max_events=5)
        assert executed == 5
        assert seen == [0, 1, 2, 3, 4]


class TestHandleLifecycle:
    def test_pending_false_after_execution(self):
        env = SimulationEnvironment()
        handle = env.schedule(1.0, lambda: None)
        assert handle.pending and not handle.executed
        env.run_until_idle()
        assert not handle.pending
        assert handle.executed
        assert not handle.cancelled

    def test_cancel_after_execution_is_noop(self):
        env = SimulationEnvironment()
        seen = []
        handle = env.schedule(1.0, lambda: seen.append("x"))
        env.run_until_idle()
        assert handle.cancel() is False  # already ran: nothing to cancel
        assert handle.executed and not handle.cancelled
        assert seen == ["x"]

    def test_cancel_reports_success_exactly_once(self):
        env = SimulationEnvironment()
        handle = env.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert handle.cancelled and not handle.pending and not handle.executed

    def test_time_property_survives_lifecycle(self):
        env = SimulationEnvironment()
        handle = env.schedule(2.5, lambda: None)
        assert handle.time == 2.5
        env.run_until_idle()
        assert handle.time == 2.5


class TestCompaction:
    def test_cancellation_churn_keeps_heap_bounded(self):
        """Retry-timer churn: schedule far-future timers and cancel them
        every tick.  Lazy deletion alone would grow the heap linearly
        with churn; compaction must keep it O(live events)."""
        env = SimulationEnvironment()
        watchdogs = []
        peak = [0]

        def tick(i: int) -> None:
            for h in watchdogs:
                h.cancel()
            watchdogs.clear()
            peak[0] = max(peak[0], env.heap_size)
            if i < 2000:
                for k in range(3):
                    watchdogs.append(env.schedule(3600.0 + k, lambda: None))
                env.schedule(1.0, lambda: tick(i + 1))

        env.schedule(0.0, lambda: tick(0))
        env.run_until_idle()
        assert env.compactions > 0
        # 6000 cancellations happened; the heap never held more than a
        # small multiple of the live set (4 live events + compaction
        # floor of 64 + slack while the ratio builds to the trigger).
        assert peak[0] < 300

    def test_pending_events_excludes_cancelled(self):
        env = SimulationEnvironment()
        live = env.schedule(1.0, lambda: None)
        dead = [env.schedule(2.0, lambda: None) for _ in range(5)]
        for h in dead:
            h.cancel()
        assert env.pending_events == 1
        assert env.heap_size == 6  # lazy: entries still buried
        env.run_until_idle()
        assert live.executed
        assert env.pending_events == 0

    def test_compaction_preserves_order(self):
        env = SimulationEnvironment()
        order = []
        # Enough cancellations to force several compactions interleaved
        # with live events at fixed times.
        for i in range(50):
            env.schedule(float(i), lambda i=i: order.append(i))
        doomed = [env.schedule(1000.0, lambda: order.append("dead"))
                  for _ in range(500)]
        for h in doomed:
            h.cancel()
        env.run_until_idle()
        assert env.compactions > 0
        assert order == list(range(50))

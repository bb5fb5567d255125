"""Discrete-event simulation core.

A minimal but complete event loop over virtual time: components schedule
callbacks at absolute or relative times; :meth:`SimulationEnvironment.run`
pops them in timestamp order (FIFO among ties, for determinism) and
advances the shared :class:`~repro.common.clock.VirtualClock` as it goes.

The whole cloud is single-threaded — "parallelism" (fan-out stages,
concurrent invocations) is expressed purely through event timestamps,
which is exactly what the paper's end-to-end service-time accounting
needs (§9.1: request received by the first function to the end of the
last function).

Hot-path design (the fleet-scale rebuild)
-----------------------------------------
The loop has to sustain 100k+ events/s so that a fleet of hundreds of
workflows serving open-loop arrival traces stays simulable in wall-clock
minutes.  Three choices carry that budget:

* **Slotted event records.** Each scheduled event is a ``__slots__``
  record of ``(time, state, action)``.  Heap entries are plain
  ``(time, seq, record)`` tuples, so every heap comparison resolves on
  the first two elements at C speed — ``seq`` is unique, the record is
  never compared — instead of calling a dataclass ``__lt__``.

* **Lazy-deletion cancellation with periodic compaction.** ``cancel()``
  just flips the record's state; the entry stays in the heap and is
  discarded when it surfaces.  Pub/sub retry timers are cancelled far
  more often than they fire, so unreclaimed entries would grow the heap
  unboundedly on long runs — once cancelled entries outnumber live ones
  (past a small floor), the heap is compacted in place (one linear
  filter + ``heapify``), bounding memory to O(live events).

* **Batched same-timestamp dispatch.** ``run`` pops *all* events that
  share the head timestamp under a single clock advance and a single
  outer-loop iteration, instead of re-scanning the heap head and
  re-notifying clock observers per event.  Events a callback schedules
  at the current timestamp join the same batch after every
  already-queued tie (their ``seq`` is higher), which is exactly the
  FIFO order the serial loop produced — ordering is byte-identical to
  the legacy loop (kept as the oracle ``tests/event_loop_oracle.py``,
  see ``tests/test_simulator_differential.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.common.rng import RngRegistry

#: Event lifecycle states (ints, not an Enum — the loop reads them
#: millions of times and Enum attribute access costs ~10x).
_PENDING = 0
_CANCELLED = 1
_EXECUTED = 2

#: Compaction floor: below this many cancelled entries the heap is left
#: alone (rebuilding a tiny heap costs more than it frees).
_COMPACT_MIN_CANCELLED = 64


class _EventRecord:
    """One scheduled event.  Slotted: the loop allocates one of these
    per event, so per-instance dict overhead would dominate."""

    __slots__ = ("time", "state", "action")

    def __init__(self, time: float, action: Callable[[], None]):
        self.time = time
        self.state = _PENDING
        self.action = action


class EventHandle:
    """Handle returned by :meth:`SimulationEnvironment.schedule`.

    Allows cancelling a pending event (used e.g. by pub/sub retry timers
    once an ack arrives).  The handle tracks the full event lifecycle:
    ``pending`` is True only until the event executes or is cancelled,
    and :meth:`cancel` is a no-op on an event that already ran (it
    returns False rather than silently "succeeding").
    """

    __slots__ = ("_event", "_env")

    def __init__(self, event: _EventRecord, env: "SimulationEnvironment"):
        self._event = event
        self._env = env

    def cancel(self) -> bool:
        """Cancel the event if it is still pending.

        Returns True when this call actually cancelled it; False when
        the event had already executed or been cancelled (no-op).
        """
        event = self._event
        if event.state != _PENDING:
            return False
        event.state = _CANCELLED
        event.action = None  # drop the closure (and anything it captured)
        self._env._note_cancelled()
        return True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet run/cancelled."""
        return self._event.state == _PENDING

    @property
    def executed(self) -> bool:
        """True once the event's action has run."""
        return self._event.state == _EXECUTED

    @property
    def cancelled(self) -> bool:
        """True when the event was cancelled before running."""
        return self._event.state == _CANCELLED


class RepeatingEvent:
    """A self-rescheduling periodic event that cannot stall the loop.

    Fires ``action(boundary_time)`` at every absolute multiple of
    ``interval`` (starting strictly after arming) and re-arms itself
    only while *other* events are pending — so a periodic observer
    (the windowed telemetry flush, a health probe) never keeps
    ``run_until_idle`` alive on its own.  Once the queue drains past a
    firing, the event parks; :meth:`arm` resumes it, and :meth:`stop`
    cancels it outright.

    Alignment to absolute grid multiples (not ``now + interval``)
    keeps firings backend-invariant: the boundary schedule depends
    only on the virtual clock, never on when the observer attached
    relative to other work.
    """

    __slots__ = ("_env", "interval", "_action", "_handle", "fired")

    def __init__(
        self,
        env: "SimulationEnvironment",
        interval: float,
        action: Callable[[float], None],
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._env = env
        self.interval = float(interval)
        self._action = action
        self._handle: Optional[EventHandle] = None
        #: Number of boundary firings so far (observability / tests).
        self.fired = 0

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    def arm(self) -> None:
        """Schedule the next grid-aligned firing; no-op while armed."""
        if self.armed:
            return
        now = self._env.now()
        boundary = ((now // self.interval) + 1.0) * self.interval
        self._handle = self._env.schedule_at(boundary, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self.fired += 1
        boundary = self._env.now()
        self._action(boundary)
        # Re-arm only while other work is pending: a periodic observer
        # must never be the thing that keeps the simulation running.
        if self._env.pending_events > 0:
            self._handle = self._env.schedule_at(
                boundary + self.interval, self._fire
            )


class SimulationEnvironment:
    """Shared event loop, clock, and RNG registry for one simulated cloud."""

    def __init__(self, seed: int = 0, clock: Optional[VirtualClock] = None):
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = RngRegistry(seed)
        # Heap of (time, seq, record): seq breaks timestamp ties FIFO
        # and guarantees tuple comparison never reaches the record.
        self._heap: List[Tuple[float, int, _EventRecord]] = []
        self._next_seq = 0
        self._executed = 0
        # Cancelled entries still buried in the heap (lazy deletion).
        self._cancelled_in_heap = 0
        #: Times the heap was compacted (observability / tests).
        self.compactions = 0

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now()

    @property
    def events_executed(self) -> int:
        """Total events processed so far (useful for overhead accounting)."""
        return self._executed

    @property
    def heap_size(self) -> int:
        """Entries currently in the heap, cancelled ones included."""
        return len(self._heap)

    @property
    def pending_events(self) -> int:
        """Live (schedulable) events currently in the heap."""
        return len(self._heap) - self._cancelled_in_heap

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # Inlined schedule_at: a non-negative delay from "now" can never
        # land in the past, so skip the second clock read + range check
        # (schedule is the hottest entry point — one call per message
        # hop, watchdog, and retry timer).
        event = _EventRecord(self.clock.now() + delay, action)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (event.time, seq, event))
        return EventHandle(event, self)

    def schedule_at(self, timestamp: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at an absolute virtual ``timestamp``."""
        if timestamp < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now()}, "
                f"target={timestamp}"
            )
        event = _EventRecord(timestamp, action)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (timestamp, seq, event))
        return EventHandle(event, self)

    def every(
        self, interval: float, action: Callable[[float], None]
    ) -> RepeatingEvent:
        """Create and arm a grid-aligned :class:`RepeatingEvent`."""
        repeating = RepeatingEvent(self, interval, action)
        repeating.arm()
        return repeating

    # -- lazy deletion ---------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Bookkeeping hook for :meth:`EventHandle.cancel`: count the
        dead entry and compact once the dead outnumber the living."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (O(live) time).

        In place (slice assignment), never rebinding ``self._heap``:
        compaction fires from ``cancel()`` inside event actions, i.e.
        while ``run`` is iterating a local alias of the heap — a rebind
        would leave the loop draining a stale list and silently drop
        every event scheduled afterwards.
        """
        self._heap[:] = [e for e in self._heap if e[2].state == _PENDING]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    # -- stepping ----------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if idle."""
        heap = self._heap
        while heap and heap[0][2].state != _PENDING:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.state != _PENDING:
                self._cancelled_in_heap -= 1
                continue
            self.clock.advance_to(time)
            event.state = _EXECUTED
            action = event.action
            event.action = None
            self._executed += 1
            action()
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Args:
            until: Absolute virtual time to stop at.  Events scheduled at
                or before ``until`` still run; the clock is left at
                ``until`` when the horizon is the binding constraint.
            max_events: Safety valve for runaway simulations.  Counts
                *executed* events only — skipped (cancelled) entries do
                not consume budget.

        Returns:
            The number of events executed by this call.
        """
        executed = 0
        budget = float("inf") if max_events is None else max_events
        heap = self._heap
        heappop = heapq.heappop
        advance_to = self.clock.advance_to
        while heap and executed < budget:
            head_time, _seq, head_event = heap[0]
            if head_event.state != _PENDING:
                heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if until is not None and head_time > until:
                break
            # Batched same-timestamp dispatch: one clock advance and
            # one outer iteration cover every event tied at
            # ``head_time`` — including ones their actions schedule
            # at the same instant (higher seq => popped after every
            # earlier tie, preserving FIFO exactly).
            advance_to(head_time)
            while heap and heap[0][0] == head_time and executed < budget:
                _, _, event = heappop(heap)
                if event.state != _PENDING:
                    self._cancelled_in_heap -= 1
                    continue
                event.state = _EXECUTED
                action = event.action
                event.action = None
                self._executed += 1
                executed += 1
                action()
        if until is not None and self.clock.now() < until:
            advance_to(until)
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        return self.run(max_events=max_events)

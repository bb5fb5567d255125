"""Test oracle: the pre-rewrite event loop, kept verbatim.

This is the original ``heapq``-of-dataclasses implementation that
:mod:`repro.cloud.simulator` replaced with the slotted-record loop.  It
is retained **only** so ``tests/test_simulator_differential.py`` can
drive the same workload through both loops and assert byte-identical
event ordering (FIFO among timestamp ties) and clock trajectories — the
rewrite's correctness contract.  Not shipped: nothing under ``src/``
imports it.

It re-scans the heap head twice per event (``peek_time`` + ``step``),
never reclaims cancelled entries, and its handles mis-report
``pending`` after execution.  Those are exactly the behaviours the new
loop fixes; the differential tests only compare the parts both loops
promise (execution order and times).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common.clock import VirtualClock
from repro.common.rng import RngRegistry


@dataclass(order=True)
class _LegacyEvent:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class LegacyEventHandle:
    """Handle with the *old* semantics (``pending`` stays True after the
    event executed; ``cancel`` on an executed event 'succeeds')."""

    def __init__(self, event: _LegacyEvent):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def pending(self) -> bool:
        return not self._event.cancelled


class LegacySimulationEnvironment:
    """The original shared event loop, preserved for differential tests."""

    def __init__(self, seed: int = 0, clock: Optional[VirtualClock] = None):
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = RngRegistry(seed)
        self._queue: List[_LegacyEvent] = []
        self._seq = itertools.count()
        self._executed = 0

    def now(self) -> float:
        return self.clock.now()

    @property
    def events_executed(self) -> int:
        return self._executed

    def schedule(self, delay: float, action: Callable[[], None]) -> LegacyEventHandle:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now() + delay, action)

    def schedule_at(
        self, timestamp: float, action: Callable[[], None]
    ) -> LegacyEventHandle:
        if timestamp < self.now():
            raise ValueError(
                f"cannot schedule in the past: now={self.now()}, target={timestamp}"
            )
        event = _LegacyEvent(time=timestamp, seq=next(self._seq), action=action)
        heapq.heappush(self._queue, event)
        return LegacyEventHandle(event)

    def peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            self._executed += 1
            event.action()
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()
            executed += 1
        if until is not None and self.now() < until:
            self.clock.advance_to(until)
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        return self.run(max_events=max_events)

"""Lightweight wall-clock phase profiling (CloudProfiler-style).

Unlike everything else in :mod:`repro.obs`, this module measures *host*
time, not virtual time: it exists to answer "how fast does the repo run
on this machine" (the ROADMAP's perf trajectory), so its numbers are
intentionally machine-dependent and never enter a simulation, a ledger,
or a deterministic report.

Hot paths wrap themselves in named phases::

    from repro.obs.profile import profiled_phase

    with profiled_phase("solver.solve_hour"):
        ...

Phases are scoped and nestable; each accumulates call count, total
wall time, and self time (total minus time spent in nested phases).
The default profiler is the shared no-op :data:`NULL_PROFILER`, so an
un-benchmarked run pays one function call and an empty context manager
per phase — nothing is timed, allocated, or stored.  The benchmark
harness (``scripts/bench.py``) installs a real :class:`Profiler` via
:func:`set_profiler` around the workload it measures.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Union


class _PhaseScope:
    """Context manager for one live phase invocation."""

    __slots__ = ("_profiler", "_name", "_t0", "_child_s")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0
        self._child_s = 0.0

    def __enter__(self) -> "_PhaseScope":
        self._t0 = time.perf_counter()
        self._profiler._stack().append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = time.perf_counter() - self._t0
        stack = self._profiler._stack()
        stack.pop()
        if stack:
            stack[-1]._child_s += elapsed
        self._profiler._accumulate(self._name, elapsed, self._child_s)
        return False


class Profiler:
    """Accumulates wall time per named phase.

    Thread-safe: the nesting stack is thread-local (a thread's phases
    nest under its own enclosing phases, never a sibling thread's) and
    accumulation into the shared stats table is lock-guarded.
    """

    enabled = True

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s]
        self._stats: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_PhaseScope]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def phase(self, name: str) -> _PhaseScope:
        return _PhaseScope(self, name)

    def _accumulate(self, name: str, elapsed: float, child_s: float) -> None:
        with self._lock:
            entry = self._stats.get(name)
            if entry is None:
                entry = self._stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += max(0.0, elapsed - child_s)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Sorted ``{phase: {calls, total_s, self_s}}`` view."""
        with self._lock:
            return {
                name: {
                    "calls": int(entry[0]),
                    "self_s": entry[2],
                    "total_s": entry[1],
                }
                for name, entry in sorted(self._stats.items())
            }

    def total_s(self, name: str) -> float:
        with self._lock:
            entry = self._stats.get(name)
            return entry[1] if entry else 0.0

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
        self._stack().clear()

    def summary(self) -> str:
        lines = [
            f"{'phase':32s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"
        ]
        for name, entry in self.snapshot().items():
            lines.append(
                f"{name:32s} {entry['calls']:8d} "
                f"{entry['total_s']:10.4f} {entry['self_s']:10.4f}"
            )
        return "\n".join(lines)


class NullProfiler:
    """The disabled profiler: phases cost one no-op context manager."""

    enabled = False

    class _NullScope:
        __slots__ = ()

        def __enter__(self) -> "NullProfiler._NullScope":
            return self

        def __exit__(self, *exc_info) -> bool:
            return False

    _SCOPE = _NullScope()

    def phase(self, name: str) -> "NullProfiler._NullScope":
        return self._SCOPE

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {}

    def total_s(self, name: str) -> float:
        return 0.0

    def reset(self) -> None:
        pass

    def summary(self) -> str:
        return "(profiling disabled)"


#: Shared no-op profiler; the process-wide default.
NULL_PROFILER = NullProfiler()

_ACTIVE: Union[Profiler, NullProfiler] = NULL_PROFILER


def get_profiler() -> Union[Profiler, NullProfiler]:
    """The currently installed profiler (default: :data:`NULL_PROFILER`)."""
    return _ACTIVE


def set_profiler(
    profiler: Union[Profiler, NullProfiler, None],
) -> Union[Profiler, NullProfiler]:
    """Install ``profiler`` process-wide (``None`` restores the no-op).

    Returns the previously installed profiler so callers can restore it::

        prev = set_profiler(Profiler())
        try:
            ...
        finally:
            set_profiler(prev)
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler if profiler is not None else NULL_PROFILER
    return previous


def profiled_phase(name: str):
    """Open a phase on the active profiler (the hot-path entry point)."""
    return _ACTIVE.phase(name)

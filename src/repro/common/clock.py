"""Virtual time for the simulated cloud.

Every component in the reproduction reads time from a shared
:class:`VirtualClock` instead of the wall clock.  This keeps experiments
deterministic and lets a week of simulated operation (Fig. 11 of the
paper) run in milliseconds.

Time is represented as a float number of seconds since the *epoch* of the
experiment, :data:`DEFAULT_EPOCH` (2023-10-15 00:00 UTC), the start of
the carbon-data window the paper evaluates on (§9.1).
"""

from __future__ import annotations

import datetime as _dt

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

#: Start of the paper's evaluation window (2023-10-15 00:00 UTC).
DEFAULT_EPOCH = _dt.datetime(2023, 10, 15, tzinfo=_dt.timezone.utc)


class VirtualClock:
    """A monotonically advancing simulated clock.

    The clock only moves when :meth:`advance` or :meth:`advance_to` is
    called, typically by the discrete-event simulator.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds since the epoch."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot move time backwards by {seconds}s")
        return self.advance_to(self._now + seconds)

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move time backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now

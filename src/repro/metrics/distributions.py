"""Empirical distributions over observed metrics.

The Metrics Manager captures execution times and transmission latencies
"as a distribution (as opposed to average) from historical data" (§7.1).
:class:`EmpiricalDistribution` is that representation: the newest
observations as a frozen support the Monte-Carlo estimator resamples.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

#: The newest observations a distribution keeps: the sliding window
#: §5.2 relies on ("without considering any earlier periods").
MAX_SAMPLES = 2000


def _finite_floats(samples: Iterable[float]) -> List[float]:
    """``[float(s) for s in samples]``, every value checked finite.

    Raises what converting and checking the samples one at a time, in
    order, raises first: the fast path converts and checks each as a
    whole, and only when one fails is the input walked again to find
    the first offender.
    """
    items = list(samples)
    try:
        values = list(map(float, items))
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is not None and all(map(math.isfinite, values)):
        return values
    values = []
    for s in items:
        value = float(s)
        if not math.isfinite(value):
            raise ValueError(f"sample must be finite, got {value}")
        values.append(value)
    return values


class EmpiricalDistribution:
    """The newest :data:`MAX_SAMPLES` finite observations, oldest first,
    frozen when the distribution is built."""

    __slots__ = ("_support",)

    def __init__(self, samples: Iterable[float] = ()):
        support = np.asarray(_finite_floats(samples)[-MAX_SAMPLES:], dtype=float)
        support.setflags(write=False)
        self._support = support

    def __len__(self) -> int:
        return len(self._support)

    def support(self) -> np.ndarray:
        """The observations, oldest first, as a read-only float array.

        What the Monte-Carlo estimator resamples from: it prices this
        array once and then draws *indices* into it, one
        ``rng.integers(0, len(support), size=n)`` call per batch.
        """
        self._require_nonempty()
        return self._support

    def min(self) -> float:
        self._require_nonempty()
        return float(np.min(self._support))

    def _require_nonempty(self) -> None:
        if not len(self._support):
            raise ValueError("distribution has no samples")

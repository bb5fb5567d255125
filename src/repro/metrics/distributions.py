"""Empirical distributions over observed metrics.

The Metrics Manager captures execution times and transmission latencies
"as a distribution (as opposed to average) from historical data" (§7.1).
:class:`EmpiricalDistribution` is that representation: a bounded sample
reservoir with mean/percentile queries and resampling for the
Monte-Carlo estimator.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np


class EmpiricalDistribution:
    """A bounded collection of observed samples.

    Appending beyond ``max_samples`` drops the oldest observation, so
    the distribution tracks the recent workload — the sliding-window
    behaviour §5.2 relies on ("without considering any earlier periods").
    """

    def __init__(
        self,
        samples: Optional[Iterable[float]] = None,
        max_samples: int = 2000,
    ):
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self._max = max_samples
        self._samples: List[float] = []
        self._array: Optional[np.ndarray] = None
        if samples is not None:
            for s in samples:
                self.add(float(s))

    def add(self, sample: float) -> None:
        if not math.isfinite(sample):
            raise ValueError(f"sample must be finite, got {sample}")
        self._samples.append(sample)
        self._array = None
        if len(self._samples) > self._max:
            del self._samples[0 : len(self._samples) - self._max]

    def extend(self, samples: Iterable[float]) -> None:
        for s in samples:
            self.add(float(s))

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return bool(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        return tuple(self._samples)

    def mean(self) -> float:
        self._require_nonempty()
        return float(np.mean(self._as_array()))

    def std(self) -> float:
        self._require_nonempty()
        return float(np.std(self._as_array()))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100)."""
        self._require_nonempty()
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        return float(np.percentile(self._as_array(), q))

    def p95(self) -> float:
        """The tail value the paper uses for QoS checks (§7.1)."""
        return self.percentile(95)

    def min(self) -> float:
        self._require_nonempty()
        return float(np.min(self._as_array()))

    def max(self) -> float:
        self._require_nonempty()
        return float(np.max(self._as_array()))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Bootstrap-resample from the observations."""
        self._require_nonempty()
        arr = self._as_array()
        if size is None:
            return float(rng.choice(arr))
        return rng.choice(arr, size=size, replace=True)

    def support(self) -> np.ndarray:
        """The observations, oldest first, as a read-only float array.

        What the Monte-Carlo estimator resamples from: it prices this
        array once and then draws *indices* into it, one
        ``rng.integers(0, len(support), size=n)`` call per batch.  The
        array is a snapshot — a later :meth:`add` builds a new one and
        leaves this one as it was.
        """
        self._require_nonempty()
        return self._as_array()

    def _as_array(self) -> np.ndarray:
        """The observations as a cached float array (rebuilt on append)."""
        if self._array is None:
            self._array = np.asarray(self._samples, dtype=float)
            self._array.setflags(write=False)
        return self._array

    def scaled(self, factor: float) -> "EmpiricalDistribution":
        """A copy with every sample multiplied by ``factor``.

        Used when a region has no history and the home region's
        execution-time distribution is borrowed (§7.1), optionally
        adjusted for relative region speed.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return EmpiricalDistribution(
            (s * factor for s in self._samples), max_samples=self._max
        )

    def merged_with(self, other: "EmpiricalDistribution") -> "EmpiricalDistribution":
        out = EmpiricalDistribution(self._samples, max_samples=self._max)
        out.extend(other.samples)
        return out

    def _require_nonempty(self) -> None:
        if not self._samples:
            raise ValueError("distribution has no samples")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._samples:
            return "EmpiricalDistribution(empty)"
        return (
            f"EmpiricalDistribution(n={len(self._samples)}, "
            f"mean={self.mean():.4g}, p95={self.p95():.4g})"
        )

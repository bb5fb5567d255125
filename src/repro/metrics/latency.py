"""Transmission-latency estimation for the planner.

The Metrics Manager captures transmission latency "as a latency
distribution for various input sizes, derived from historical data"; in
the absence of history it "defaults to using CloudPing to estimate
transmission latency" (§7.1).  This module is that fallback path: a
deterministic latency estimate from the CloudPing-substitute RTT grid
plus serialisation delay, sharing the bandwidth constants with the
simulated network so estimates and measurements agree.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cloud.network import (
    DEFAULT_INTER_REGION_BANDWIDTH,
    DEFAULT_INTRA_REGION_BANDWIDTH,
)
from repro.data.latency import LatencySource


class TransferLatencyModel:
    """CloudPing-style latency estimates (no jitter — model, not sample)."""

    def __init__(
        self,
        latency_source: LatencySource,
        inter_region_bandwidth: float = DEFAULT_INTER_REGION_BANDWIDTH,
        intra_region_bandwidth: float = DEFAULT_INTRA_REGION_BANDWIDTH,
    ):
        self._latency = latency_source
        self._inter_bw = inter_region_bandwidth
        self._intra_bw = intra_region_bandwidth

    def route_terms(self, src: str, dst: str) -> Tuple[float, float]:
        """``(one-way latency s, bandwidth bytes/s)`` of the route: the
        two scalars :meth:`estimate` combines with the payload size."""
        bandwidth = self._intra_bw if src == dst else self._inter_bw
        return self._latency.one_way(src, dst), bandwidth

    def estimate(self, src: str, dst: str, size_bytes: float) -> float:
        """Expected one-way transfer latency in seconds."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        one_way, bandwidth = self.route_terms(src, dst)
        return one_way + size_bytes / bandwidth

    def estimate_batch(
        self, src: str, dst: str, size_bytes: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`estimate` over a ``(n,)`` size vector.

        Element for element the same arithmetic as the scalar path, and
        elementwise: applied to a distribution's support and gathered by
        drawn indices it gives the same doubles as applied to the drawn
        sample, which is how the Monte-Carlo estimator uses it.
        """
        sizes = np.asarray(size_bytes, dtype=float)
        if np.any(sizes < 0):
            raise ValueError("size_bytes must be non-negative")
        one_way, bandwidth = self.route_terms(src, dst)
        return one_way + sizes / bandwidth

"""Monetary cost model (paper §7.1, Cost).

Execution cost is Lambda-style: GB-seconds of configured memory plus a
fixed per-invocation fee, at the executing region's rates.  Framework
overheads are billed exactly as the paper lists them: "additional
DynamoDB accesses introduced by Caribou for geospatial shifting",
SNS messaging "used by our framework for function orchestration", and
outbound data transfer (egress) for cross-region hops.  The AWS free
tier is not modelled (§7.1).
"""

from __future__ import annotations

import numpy as np

from repro.data.pricing import PricingSource


class CostModel:
    """Computes USD costs from execution/transfer parameters."""

    def __init__(self, pricing: PricingSource):
        self._pricing = pricing

    def execution_cost(
        self, region: str, duration_s: float, memory_mb: float
    ) -> float:
        """Compute cost of one execution: GB-seconds + invocation fee."""
        if duration_s < 0 or memory_mb <= 0:
            raise ValueError("duration must be >= 0 and memory positive")
        prices = self._pricing.prices(region)
        gb_seconds = (memory_mb / 1024.0) * duration_s
        return gb_seconds * prices.lambda_gb_second + prices.lambda_invocation

    def execution_cost_batch(
        self, region: str, durations_s: np.ndarray, memory_mb: float
    ) -> np.ndarray:
        """Vectorised :meth:`execution_cost` over a duration vector.

        Mirrors the scalar arithmetic exactly (same operation order) and
        is elementwise, so the Monte-Carlo estimator can price an
        execution-time support once and gather by drawn indices: the
        doubles equal the scalar reference's on the drawn sample.
        """
        durations = np.asarray(durations_s, dtype=float)
        if np.any(durations < 0) or memory_mb <= 0:
            raise ValueError("duration must be >= 0 and memory positive")
        prices = self._pricing.prices(region)
        gb_seconds = (memory_mb / 1024.0) * durations
        return gb_seconds * prices.lambda_gb_second + prices.lambda_invocation

    def transmission_cost(
        self, src_region: str, dst_region: str, size_bytes: float
    ) -> float:
        """Egress cost of moving ``size_bytes`` from ``src`` to ``dst``.

        Intra-region transfer is free (AWS does not charge same-region
        service-to-service traffic in this regime).
        """
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        per_gb = self._pricing.egress_per_gb(src_region, dst_region)
        return per_gb * (size_bytes / (1024.0**3))

    def transmission_cost_batch(
        self, src_region: str, dst_region: str, size_bytes: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`transmission_cost` over a size vector
        (elementwise, like :meth:`execution_cost_batch`)."""
        sizes = np.asarray(size_bytes, dtype=float)
        if np.any(sizes < 0):
            raise ValueError("size_bytes must be non-negative")
        per_gb = self._pricing.egress_per_gb(src_region, dst_region)
        return per_gb * (sizes / (1024.0**3))

    def egress_per_gb(self, src_region: str, dst_region: str) -> float:
        """USD per GB moved from ``src`` to ``dst``: the route scalar
        :meth:`transmission_cost` multiplies the payload (in GB) by."""
        return self._pricing.egress_per_gb(src_region, dst_region)

    def messaging_cost(self, region: str) -> float:
        """Cost of one SNS publish in ``region``."""
        return self._pricing.prices(region).sns_publish

    def kv_cost(
        self, region: str, n_reads: int = 0, n_writes: int = 0
    ) -> float:
        """DynamoDB request-unit cost in ``region``."""
        if n_reads < 0 or n_writes < 0:
            raise ValueError("access counts must be non-negative")
        prices = self._pricing.prices(region)
        return n_reads * prices.dynamodb_read + n_writes * prices.dynamodb_write

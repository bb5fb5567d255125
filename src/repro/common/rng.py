"""Deterministic random-number streams.

Experiments must be reproducible bit-for-bit, yet different components
(network jitter, function execution sampling, the HBSS solver, workload
traces) should draw from *independent* streams so that adding a draw in
one component does not perturb another.  :class:`RngRegistry` derives a
child :class:`numpy.random.Generator` per named component from a single
experiment seed using ``SeedSequence.spawn``-style keying.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``root_seed``.

    Public building block for *substream* derivation: components that
    need order-independent randomness (e.g. the solver's per-hour walks
    or the estimator's per-plan draws) hash a locally-drawn salt with a
    stable key instead of consuming a shared sequential stream, so the
    schedule in which substreams are used cannot perturb any of them.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Hands out named, independent, reproducible RNG streams."""

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so draws within a component are sequential.
        """
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                derive_seed(self._seed, name)
            )
        return self._streams[name]

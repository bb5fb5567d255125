"""Test oracle: the key-value store's value copy before it dispatched on
exact types, kept verbatim.

:func:`snapshot` walks every value through ``isinstance`` checks and
rebuilds each dict and list by comprehension.
``tests/test_kvstore.py::TestSnapshotDifferential`` requires
``repro.cloud.kvstore._snapshot`` to return the same value, of the same
types, with the same sharing, on every JSON-shaped value Hypothesis
draws.  Not shipped: nothing under ``src/`` imports it.
"""

import copy
from typing import Any


def snapshot(value: Any) -> Any:
    """Deep-copy a stored value the fast way.

    Every KV operation snapshots values so callers cannot mutate the
    store's internals (DynamoDB hands back serialised items, never
    references) — and at open-loop request rates those copies are the
    simulation's hottest allocation site.  Values here are JSON-shaped
    (plans, annotations, message bodies), so a direct structural walk
    copies them ~10x faster than ``copy.deepcopy``'s generic machinery;
    anything exotic falls back to ``deepcopy`` for identical semantics.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {k: snapshot(v) for k, v in value.items()}
    if isinstance(value, list):
        return [snapshot(v) for v in value]
    if isinstance(value, tuple):
        return tuple(snapshot(v) for v in value)
    return copy.deepcopy(value)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings as hypothesis_settings

from repro.cloud.kvstore import KeyValueStore
from repro.cloud.provider import SimulatedCloud
from repro.model.dag import Edge, Node, WorkflowDAG

# One deterministic hypothesis profile for the whole suite: derandomized
# (fixed example stream, so CI failures reproduce locally byte-for-byte)
# and without the wall-clock deadline, which misfires on the Monte-Carlo
# solver paths where the first call pays one-off cache warm-up costs.
hypothesis_settings.register_profile(
    "repro-deterministic", derandomize=True, deadline=None
)
hypothesis_settings.load_profile("repro-deterministic")


@pytest.fixture
def cloud() -> SimulatedCloud:
    """A fresh four-region simulated cloud with a fixed seed."""
    return SimulatedCloud(seed=42)


@pytest.fixture
def expired_items(monkeypatch) -> dict:
    """Every item :meth:`KeyValueStore.expire` drops, as it stood at
    that moment: ``{(table, key): value}``.  The executor expires a
    request's items once nothing in flight can reach them, so a test
    that reads a finished request's fan-in data reads it here."""
    seen: dict = {}
    expire = KeyValueStore.expire

    def recording(self, table: str, key: str) -> None:
        item = self._tables.get(table, {}).get(key)  # noqa: SLF001
        if item is not None:
            seen[(table, key)] = item
        expire(self, table, key)

    monkeypatch.setattr(KeyValueStore, "expire", recording)
    return seen


@pytest.fixture
def diamond_dag() -> WorkflowDAG:
    """a -> {b, c} -> d with one conditional edge and d a sync node."""
    dag = WorkflowDAG("diamond")
    for name in ("a", "b", "c", "d"):
        dag.add_node(Node(name=name, function=name))
    dag.add_edge(Edge("a", "b"))
    dag.add_edge(Edge("a", "c", conditional=True))
    dag.add_edge(Edge("b", "d"))
    dag.add_edge(Edge("c", "d"))
    dag.validate()
    return dag


@pytest.fixture
def chain_dag() -> WorkflowDAG:
    """a -> b -> c, the simplest multi-stage shape."""
    dag = WorkflowDAG("chain")
    for name in ("a", "b", "c"):
        dag.add_node(Node(name=name, function=name))
    dag.add_edge(Edge("a", "b"))
    dag.add_edge(Edge("b", "c"))
    dag.validate()
    return dag

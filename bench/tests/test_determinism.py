"""Determinism guard: the same seed gives bit-equal simulated outcomes and
op counts; another seed gives other inputs."""

import pytest

from bench.run import run_workload
from bench.workloads import WORKLOADS

SCALE = 0.1
VIRTUAL = (
    "carbon_g_per_request", "sim_latency_p95_s", "hbss_carbon_vs_exact_pct",
    "events_per_request",
)


def outcome(doc):
    metrics = doc["end_to_end"]
    return (
        tuple(metrics[name]["value"] for name in VIRTUAL),
        doc["ops"], doc["attempted"], doc["failed"], doc["steps"],
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_exactly_and_another_seed_differs(name):
    first = run_workload(name, seed=11, scale=SCALE)
    again = run_workload(name, seed=11, scale=SCALE)
    other = run_workload(name, seed=12, scale=SCALE)
    assert first["failed"] == 0 and other["failed"] == 0
    assert outcome(first) == outcome(again)
    assert outcome(first)[0] != outcome(other)[0]


@pytest.mark.parametrize("name", ["serve_shifted", "fleet_day", "resolve_churn"])
def test_seed_changes_the_arrivals(name):
    """The seed reaches the program only as generated inputs; the arrival
    times are among them."""
    import numpy as np

    module = WORKLOADS[name]

    def arrivals(seed):
        state = module.setup(seed, SCALE)
        if name == "serve_shifted":
            return np.concatenate([s.trace.times for s in state.served])
        if name == "fleet_day":
            return np.concatenate([t.times for t in state.traces])
        return np.concatenate([a for m in state.managed for a in m.arrivals])

    a, b, c = arrivals(21), arrivals(21), arrivals(22)
    assert np.array_equal(a, b)
    assert len(a) != len(c) or not np.array_equal(a, c)


def test_traced_run_leaves_the_simulated_outcomes_alone():
    """Tracing only observes: virtual-time results are bit-equal with the
    wrappers installed, and uninstalling puts the originals back."""
    from repro.cloud.kvstore import KeyValueStore

    original = KeyValueStore.__dict__["get"]
    plain = run_workload("fleet_day", seed=5, scale=SCALE)
    traced = run_workload("fleet_day", seed=5, scale=SCALE, traced=True)
    assert outcome(plain) == outcome(traced)
    assert KeyValueStore.__dict__["get"] is original

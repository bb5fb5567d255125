"""Sensitivity self-test: does the benchmark see a slowdown where one is
put, and only there?

A busy-wait is added inside one layer's wrapper (``bench/trace.py``; no
source file is patched) and both workloads run again.  The layer's self
time must rise by calls x delay, the wall time of the workload that uses
the layer must rise with it, the workload that bypasses the layer must
run no delayed call and not move, and no simulated outcome may change.

The delays are sized so that what is injected (about 1 s) stands clear of
the sandbox's wall-clock noise on a 3-second run (about 0.1 s): 250 us on
``KeyValueStore.get`` (~4.4k calls) and 1 ms on ``estimate_profile``
(~1.3k calls, each ~0.8 ms of real work).  The issue's 100 us on either
moves the wall time by no more than the noise does.
"""

import pytest

from bench.run import run_workload

SCALE = 0.1
SEED = 7
VIRTUAL = (
    "carbon_g_per_request", "sim_latency_p95_s", "hbss_carbon_vs_exact_pct",
    "events_per_request",
)
KV_GET = ("cloud.kvstore", "get")
MC_PROFILE = ("metrics.montecarlo", "estimate_profile")


def fastest(name, delays):
    """The fastest of three traced runs: host noise only ever adds time."""
    runs = [run_workload(name, SEED, SCALE, traced=True, delays=delays) for _ in range(3)]
    return min(runs, key=lambda doc: doc["end_to_end"]["wall_s"]["value"])


@pytest.fixture(scope="module")
def baseline():
    return {name: fastest(name, None) for name in ("serve_shifted", "solve_cold")}


def wall(doc):
    return doc["end_to_end"]["wall_s"]["value"]


def virtual(doc):
    return [doc["end_to_end"][name]["value"] for name in VIRTUAL] + [doc["ops"]]


@pytest.mark.parametrize(
    "key, delay_s, user, bypasser, self_metric, calls_metric",
    [
        (KV_GET, 250e-6, "serve_shifted", "solve_cold",
         "cloud.kvstore.self_s", "cloud.kvstore.reads"),
        (MC_PROFILE, 1e-3, "solve_cold", "serve_shifted",
         "metrics.montecarlo.kernel_self_s", "metrics.montecarlo.profiles_built"),
    ],
)
def test_injected_delay_shows_where_it_was_put(
    baseline, key, delay_s, user, bypasser, self_metric, calls_metric
):
    slowed = fastest(user, {key: delay_s})
    bypassed = fastest(bypasser, {key: delay_s})

    calls = slowed["per_layer"][calls_metric]["value"]
    assert calls > 1000
    injected_s = calls * delay_s

    base = baseline[user]
    self_rise = slowed["per_layer"][self_metric]["value"] - base["per_layer"][self_metric]["value"]
    assert self_rise == pytest.approx(injected_s, rel=0.30)
    assert wall(slowed) - wall(base) >= 0.80 * injected_s

    # The exact check is that no delayed call ran; the wall clock only
    # corroborates it, within what this sandbox's noise allows.
    assert bypassed["per_layer"][calls_metric]["value"] == 0
    assert wall(bypassed) == pytest.approx(wall(baseline[bypasser]), rel=0.15)

    assert virtual(slowed) == virtual(base)
    assert virtual(bypassed) == virtual(baseline[bypasser])

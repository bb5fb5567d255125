"""Test oracle: ``PlanProfile`` re-pricing exactly as it was before the
hour-independent statistics, the route-bytes check and the p95 were
hoisted — three ``np.percentile`` calls, the execution-carbon vector
built twice and every route's bytes re-validated on every call.

Kept verbatim (methods turned into functions of the profile) so
``tests/test_montecarlo.py::TestRepricingDifferential`` can compare it
with the production path field for field.  Every value, tails included,
is computed eagerly, into a plain record of the nine public
:class:`~repro.metrics.montecarlo.WorkflowEstimate` names
(``ESTIMATE_FIELDS``).  Not shipped: nothing under ``src/`` imports it.
"""

from types import SimpleNamespace

import numpy as np

#: A ``WorkflowEstimate``'s public values.
ESTIMATE_FIELDS = (
    "mean_latency_s",
    "tail_latency_s",
    "mean_cost_usd",
    "tail_cost_usd",
    "mean_carbon_g",
    "tail_carbon_g",
    "mean_exec_carbon_g",
    "mean_trans_carbon_g",
    "n_samples",
)


def fields(estimate):
    """``{name: value}`` of an estimate's (or a record's) public values."""
    return {name: getattr(estimate, name) for name in ESTIMATE_FIELDS}


def transmission_carbon_g_batch(carbon_model, route_intensity, size_bytes,
                                intra_region):
    """Vectorised Eq. 7.5 over a size vector (``CarbonModel``'s former
    batch method, its only caller having been the code below)."""
    sizes = np.asarray(size_bytes, dtype=float)
    if np.any(sizes < 0):
        raise ValueError("size_bytes must be non-negative")
    size_gb = sizes / (1024.0**3)
    ef = carbon_model.scenario.energy_factor(intra_region)
    return route_intensity * ef * size_gb


def carbon_samples(profile, carbon_at):
    out = _exec_carbon_samples(profile, carbon_at)
    for (src, dst), sizes in profile.bytes_by_route.items():
        route_intensity = (carbon_at(src) + carbon_at(dst)) / 2.0
        out = out + transmission_carbon_g_batch(
            profile.carbon_model,
            route_intensity=route_intensity,
            size_bytes=sizes,
            intra_region=(src == dst),
        )
    return out


def _exec_carbon_samples(profile, carbon_at):
    out = np.zeros(profile.n_samples)
    for region, energy in profile.energy_by_region.items():
        out = out + energy * carbon_at(region)
    return out


def estimate_at(profile, carbon_at):
    carbon = carbon_samples(profile, carbon_at)
    exec_only = _exec_carbon_samples(profile, carbon_at)
    return SimpleNamespace(
        mean_latency_s=float(profile.latencies.mean()),
        tail_latency_s=float(np.percentile(profile.latencies, 95)),
        mean_cost_usd=float(profile.costs.mean()),
        tail_cost_usd=float(np.percentile(profile.costs, 95)),
        mean_carbon_g=float(carbon.mean()),
        tail_carbon_g=float(np.percentile(carbon, 95)),
        mean_exec_carbon_g=float(exec_only.mean()),
        mean_trans_carbon_g=float((carbon - exec_only).mean()),
        n_samples=profile.n_samples,
    )

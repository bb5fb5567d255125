"""Experiment harness reproducing the paper's evaluation (§9).

:mod:`repro.experiments.harness` deploys a benchmark app on a fresh
simulated cloud, optionally solves a Caribou plan set, drives measured
invocations over the carbon week, and prices the resulting telemetry
under the best-/worst-case transmission scenarios.  The figure benches
under ``benchmarks/`` are thin layers over these functions.  The
lifecycle steps a run drives (deploy, warm-up, solve) live in
:mod:`repro.core.lifecycle`; nothing below this package imports it.
"""

from repro.experiments.harness import (
    FIG7_FINE_REGION_SETS,
    RunOutcome,
    ScenarioStats,
    geometric_mean,
    run_caribou,
    run_coarse,
)

__all__ = [
    "RunOutcome",
    "ScenarioStats",
    "run_coarse",
    "run_caribou",
    "geometric_mean",
    "FIG7_FINE_REGION_SETS",
]

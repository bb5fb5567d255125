"""Fig. 8 — normalised carbon vs execution/transmission carbon ratio.

"Geospatial shifting offers more carbon savings with increased
Execution / Transmission ratio" (§9.2 I4): compute-heavy workflows
(high ratio) approach the grid differential's full leverage, while
transmission-heavy ones (Image Processing) are pinned near 1.0.  Reuses
the Fig. 7 Caribou-all runs; the ratio comes from the home-region runs'
modelled energy split, as in the paper.
"""

import math

import numpy as np

from conftest import INPUT_SIZES, normalized_carbon, print_header
from repro.apps import ALL_APPS
from repro.experiments.harness import geometric_mean


def test_fig8_ratio_vs_savings(fig7_results, benchmark):
    print_header("Fig. 8 — normalised carbon vs exec/transmission ratio")

    points = []  # (ratio, normalised carbon, app, size, scenario)
    for scenario in ("best-case", "worst-case"):
        for app_name in sorted(ALL_APPS):
            for size in INPUT_SIZES:
                home = fig7_results[(app_name, size, "coarse:us-east-1")][scenario]
                stats = home.per_scenario[scenario]
                ratio = stats.exec_to_trans_ratio
                if not math.isfinite(ratio):
                    continue
                value = normalized_carbon(
                    fig7_results, app_name, size, "fine:all", scenario
                )
                points.append((ratio, value, app_name, size, scenario))

    print(f"{'app':24s} {'size':6s} {'scenario':11s} {'ratio':>8s} "
          f"{'norm carbon':>11s}")
    for ratio, value, app_name, size, scenario in sorted(points):
        print(f"{app_name:24s} {size:6s} {scenario:11s} {ratio:8.2f} "
              f"{value:11.3f}")

    # Shape: higher exec/trans ratio correlates with lower normalised
    # carbon (more savings).  Use the best-case series as in the figure's
    # main trend.
    best_points = [(r, v) for r, v, *_rest in points if _rest[2] == "best-case"]
    ratios = np.log10([p[0] for p in best_points])
    values = [p[1] for p in best_points]
    correlation = np.corrcoef(ratios, values)[0, 1]
    print(f"\nlog10(ratio) vs normalised-carbon correlation "
          f"(best case): {correlation:.2f}")
    assert correlation < -0.4, "savings should grow with the exec/trans ratio"

    # The transmission-heaviest workload saves least; a compute-heavy
    # one saves most (best case).
    by_app_best = {
        a: geometric_mean([
            v for r, v, app, s, sc in points
            if app == a and sc == "best-case"
        ])
        for a in sorted(ALL_APPS)
    }
    assert by_app_best["image_processing"] == max(by_app_best.values())
    assert min(by_app_best, key=by_app_best.get) in (
        "dna_visualization", "video_analytics", "text2speech_censoring",
        "rag_ingestion",
    )

    # Timed kernel: re-pricing a stored run under a fresh scenario.
    from repro.metrics.accounting import CarbonAccountant
    from repro.metrics.carbon import CarbonModel, TransmissionScenario
    from repro.metrics.cost import CostModel
    from repro.data.carbon import CarbonIntensitySource
    from repro.data.pricing import PricingSource

    source = CarbonIntensitySource(hours=24 * 7, seed=100)
    accountant = CarbonAccountant(
        source, CarbonModel(TransmissionScenario.best_case()),
        CostModel(PricingSource()),
    )
    benchmark(lambda: accountant.with_scenario(TransmissionScenario.equal(0.002)))

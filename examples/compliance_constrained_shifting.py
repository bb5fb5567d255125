#!/usr/bin/env python3
"""Compliance-constrained shifting: the paper's Fig. 3 scenario.

The Text2Speech Censoring workflow has a regulation-sensitive upload/
validation stage that must stay on US soil, while the rest of the
pipeline is free to move.  The paper's point (§9.2 I3): a *fine-grained*
framework can still reduce emissions by offloading the unconstrained
stages — "a detailed specification of location constraints (e.g., to
ensure compliance of one stage) can allow emission reductions for
workflows (e.g., by offloading other stages)".

This example contrasts three strategies:
  1. everything at home (status quo, Fig. 1a);
  2. coarse single-region (blocked: no compliant low-carbon region);
  3. Caribou fine-grained (upload pinned, the rest offloaded).

Run:  python examples/compliance_constrained_shifting.py
"""


from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.lifecycle import deploy_benchmark, solve_plan_set, warm_up
from repro.experiments.harness import run_caribou, run_coarse
from repro.metrics.carbon import TransmissionScenario

REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")


def main() -> None:
    app = get_app("text2speech_censoring")
    scenario = TransmissionScenario.best_case()

    print("== the compliance constraint ==")
    cloud = SimulatedCloud(seed=7)
    deployed, executor, _ = deploy_benchmark(app, cloud)
    for fn in ("upload", "profanity_detection", "censoring"):
        allowed = [r for r in REGIONS if deployed.config.permits(fn, r)]
        print(f"  {fn:22s} may run in: {', '.join(allowed)}")

    print("\n== 1. status quo: everything in us-east-1 ==")
    home = run_coarse(app, "small", "us-east-1", seed=7, n_invocations=20,
                      days=3.0, scenarios=[scenario])
    print(f"  carbon/invocation: {home.carbon(scenario.name) * 1000:.3f} mg")

    print("\n== 2. coarse shifting: blocked by compliance ==")
    # A single compliant region exists only inside the US; the cleanest
    # option (ca-central-1) is off the table for the whole workflow.
    warm_up(executor, app, "small", n=8)
    from repro.core.manager import DeploymentManager  # noqa: F401  (docs)

    plan_set = solve_plan_set(deployed, executor, scenario)
    # Show what coarse could have done: best compliant single region.
    us_best = run_coarse(app, "small", "us-west-1", seed=7, n_invocations=20,
                         days=3.0, scenarios=[scenario])
    print(f"  best compliant single region (us-west-1): "
          f"{us_best.carbon(scenario.name) * 1000:.3f} mg/invocation")

    print("\n== 3. Caribou fine-grained: pin upload, offload the rest ==")
    fine = run_caribou(app, "small", REGIONS, seed=7, n_invocations=20,
                       warmup=8, days=3.0, scenario_for_solver=scenario,
                       scenarios=[scenario])
    plan = fine.plan_set.plan_for_hour(12)
    for node, region in sorted(plan.assignments.items()):
        marker = "  (pinned)" if node == "upload" else ""
        print(f"  12:00 plan: {node:22s} -> {region}{marker}")
    print(f"  carbon/invocation: {fine.carbon(scenario.name) * 1000:.3f} mg")

    saved_vs_home = 1 - fine.carbon(scenario.name) / home.carbon(scenario.name)
    saved_vs_coarse = 1 - fine.carbon(scenario.name) / us_best.carbon(
        scenario.name
    )
    print(f"\nfine-grained shifting saves {saved_vs_home:.1%} vs home and "
          f"{saved_vs_coarse:.1%} vs the best compliant coarse deployment,")
    print("while the regulated stage never leaves the US.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: declare a workflow, deploy it, let Caribou shift it.

Walks the full lifecycle from the paper on the simulated cloud:

1. declare a two-stage workflow with the Listing-1 API;
2. deploy it to the home region (static analysis -> IAM -> image ->
   topics -> metadata, §6.1);
3. run some traffic so the Metrics Manager learns distributions;
4. solve a 24-hour deployment plan with HBSS (§5.1) and migrate (§6.1);
5. compare carbon before and after.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.apps.base import default_config
from repro.cloud.functions import WorkProfile
from repro.cloud.provider import SimulatedCloud
from repro.core.api import Payload, Workflow
from repro.core.deployer import DeploymentUtility
from repro.core.migrator import DeploymentMigrator
from repro.core.lifecycle import solve_plan_set
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel


def build_workflow() -> Workflow:
    """A minimal two-stage pipeline: resize an image, then tag it."""
    workflow = Workflow(name="quickstart", version="0.1")

    @workflow.serverless_function(
        name="resize",
        entry_point=True,
        memory_mb=1769,
        profile=WorkProfile(base_seconds=0.8, seconds_per_mb=0.5),
    )
    def resize(event):
        image = event or {}
        thumbnail = {"name": image.get("name", "img"), "width": 256}
        workflow.invoke_serverless_function(
            Payload(content=thumbnail, size_bytes=64_000), tag
        )

    @workflow.serverless_function(
        name="tag",
        memory_mb=3538,
        profile=WorkProfile(base_seconds=2.5, seconds_per_mb=1.0,
                            cpu_utilization=0.9),
    )
    def tag(event):
        return {"tags": ["cat", "outdoor"], "image": (event or {}).get("name")}

    return workflow


def main() -> None:
    # One simulated cloud == one reproducible world (seeded).
    cloud = SimulatedCloud(seed=42)
    workflow = build_workflow()
    config = default_config(home_region="us-east-1",
                            benchmarking_fraction=0.1)

    print("== deploying to the home region (us-east-1) ==")
    utility = DeploymentUtility(cloud)
    deployed, executor = utility.deploy(workflow, config)
    print(f"DAG nodes: {', '.join(deployed.dag.node_names)}")

    print("\n== phase 1: 20 invocations, everything at home ==")
    for i in range(20):
        cloud.env.schedule(
            i * 120.0,
            lambda: executor.invoke(
                Payload(content={"name": "photo.jpg"}, size_bytes=900_000),
                force_home=True,
            ),
        )
    cloud.run_until_idle()

    scenario = TransmissionScenario.best_case()
    accountant = CarbonAccountant(
        cloud.carbon_source, CarbonModel(scenario), CostModel(cloud.pricing_source)
    )
    before = accountant.price_workflow(cloud.ledger, "quickstart")
    print(f"carbon so far: {before.carbon_g * 1000:.2f} mg over "
          f"{len(cloud.ledger.request_ids('quickstart'))} invocations")

    print("\n== phase 2: solve a 24-hour plan and migrate ==")
    plan_set = solve_plan_set(deployed, executor, scenario)
    migrator = DeploymentMigrator(utility, deployed, executor)
    report = migrator.migrate(plan_set)
    print(f"migration activated={report.activated}, "
          f"new deployments: {report.deployed}")
    sample = plan_set.plan_for_hour(12)
    for node, region in sorted(sample.assignments.items()):
        print(f"  12:00 plan: {node} -> {region}")

    print("\n== phase 3: 20 invocations routed by the plan ==")
    routed_rids = []
    for i in range(20):
        cloud.env.schedule(
            i * 120.0,
            lambda: routed_rids.append(
                executor.invoke(
                    Payload(content={"name": "photo.jpg"}, size_bytes=900_000)
                )
            ),
        )
    cloud.run_until_idle()

    per_inv_before = before.carbon_g / max(1, before.n_executions / 2)
    routed = [
        accountant.price_workflow(cloud.ledger, "quickstart", rid)
        for rid in routed_rids
    ]
    per_inv_after = float(np.mean([fp.carbon_g for fp in routed]))
    # The one-time migration cost (crane image copies) is overhead the
    # token bucket budgets for (§5.2) — report it separately.
    image_copies = [r for r in cloud.ledger.transmissions if r.kind == "image"]
    migration_g = sum(
        accountant.transmission_carbon_g(r.src_region, r.dst_region, r.start_s, r.size_bytes)
        for r in image_copies
    )

    print(f"carbon per invocation: {per_inv_before * 1000:.3f} mg (home) -> "
          f"{per_inv_after * 1000:.3f} mg (Caribou)")
    print(f"one-time migration overhead: {migration_g * 1000:.1f} mg "
          f"(amortises over future traffic)")
    if per_inv_after < per_inv_before:
        saved = 1 - per_inv_after / per_inv_before
        breakeven = migration_g / (per_inv_before - per_inv_after)
        print(f"saved {saved:.1%} operational carbon per invocation, "
              f"break-even after ~{breakeven:.0f} invocations, "
              "no code changes.")


if __name__ == "__main__":
    main()

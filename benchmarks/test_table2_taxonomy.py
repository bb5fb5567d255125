"""Table 2 — capability taxonomy of serverless workflow frameworks.

The paper positions Caribou as the only framework combining
carbon/latency/cost objectives, fine deployment granularity, dynamic
migration, geospatial awareness, multi-stage workflows, control flow,
synchronisation nodes, and transmission-overhead modelling.  This bench
prints the taxonomy and *verifies the Caribou row against this
implementation* — each capability is checked by exercising the feature,
not by reading a constant.
"""

import numpy as np

from conftest import print_header
from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.lifecycle import deploy_benchmark

ROWS = (
    ("AWS Step Functions", "-", "coarse", False, False, True, True, True, False),
    ("GCP Workflows", "-", "coarse", False, False, True, True, True, False),
    ("Azure Logic Apps", "-", "coarse", False, False, True, True, True, False),
    ("Serverless Multicloud", "latency+cost", "fine", False, False, True, False, False, False),
    ("BPMN4FO", "-", "coarse", False, False, False, True, False, False),
    ("xAFCL", "latency+cost", "fine", False, True, True, True, False, False),
    ("OpenTOSCA", "-", "coarse", False, False, True, True, True, False),
    ("Carbon Aware GSLB", "carbon", "coarse", False, True, False, False, False, False),
    ("GreenCourier", "carbon", "coarse", False, True, False, False, False, False),
    ("Caribou (this repo)", "carbon+latency+cost", "fine",
     True, True, True, True, True, True),
)
HEADERS = ("framework", "objectives", "granularity", "dyn-migr", "geo",
           "multi-stage", "ctrl-flow", "sync", "tx-overhead")


def test_table2_taxonomy(benchmark):
    print_header("Table 2 — framework capability taxonomy")
    print(f"{HEADERS[0]:22s} {HEADERS[1]:20s} {HEADERS[2]:11s} " +
          " ".join(f"{h:>11s}" for h in HEADERS[3:]))
    for row in ROWS:
        flags = " ".join(
            f"{'yes' if v else 'no':>11s}" for v in row[3:]
        )
        print(f"{row[0]:22s} {row[1]:20s} {row[2]:11s} {flags}")

    # Verify the Caribou row against the implementation.
    cloud = SimulatedCloud(seed=700)
    app = get_app("text2speech_censoring")
    deployed, executor, utility = deploy_benchmark(app, cloud)

    # Multi-stage + control flow + sync nodes: the DAG has them and a
    # run exercises them.
    dag = deployed.dag
    assert len(dag) > 1                      # multi-stage
    assert dag.has_conditional_edges         # control flow
    assert dag.sync_nodes                    # synchronisation nodes
    rid = executor.invoke(app.make_input("small"), force_home=True)
    cloud.run_until_idle()
    assert len(cloud.ledger.executions_for(deployed.name, rid)) == len(dag)

    # Dynamic migration: the migrator can materialise a new plan set.
    from repro.core.migrator import DeploymentMigrator
    from repro.model.plan import DeploymentPlan, HourlyPlanSet

    migrator = DeploymentMigrator(utility, deployed, executor)
    assignments = {n: "us-east-1" for n in dag.node_names}
    assignments["profanity_detection"] = "us-west-2"
    report = migrator.migrate(
        HourlyPlanSet.daily(DeploymentPlan(assignments))
    )
    assert report.activated                  # dynamic migration

    # Geospatial + fine granularity: the activated plan spans regions
    # with per-node assignments.
    active = executor.fetch_active_plan()
    assert len(set(active.assignments.values())) == 2  # fine + geospatial

    # Transmission overhead: the solver's objective includes modelled
    # transmission carbon (non-zero for a cross-region plan).
    from repro.core.solver import PlanEvaluator, SolverSettings
    from repro.metrics.carbon import CarbonModel, TransmissionScenario
    from repro.metrics.cost import CostModel
    from repro.metrics.latency import TransferLatencyModel
    from repro.metrics.manager import MetricsManager

    mm = MetricsManager(dag, deployed.config, cloud.ledger, cloud.carbon_source)
    mm.collect(cloud.now())
    evaluator = PlanEvaluator(
        dag=dag, config=deployed.config, data=mm, regions=cloud.regions,
        intensity_fn=lambda r, h: cloud.carbon_source.intensity_at_hour(r, h),
        carbon_model=CarbonModel(TransmissionScenario.best_case()),
        cost_model=CostModel(cloud.pricing_source),
        latency_model=TransferLatencyModel(cloud.latency_source),
        rng=np.random.default_rng(0),
        settings=SolverSettings(batch_size=30, max_samples=60,
                                cov_threshold=0.2),
    )
    estimate = evaluator.estimate(DeploymentPlan(assignments), hour=0)
    assert estimate.mean_trans_carbon_g > 0  # transmission modelled

    benchmark(lambda: evaluator.estimate(DeploymentPlan(assignments), hour=1))

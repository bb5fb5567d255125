"""Initial deployment utility (paper §6.1, "Initial Deployment").

Mirrors the paper's CLI-driven steps:

1. static analysis over the source generates the workflow DAG
   (:func:`~repro.core.analysis.analyze_workflow`, whichever front-end
   declared the workflow);
2. the utility creates IAM roles, pushes the Docker image to the
   container registry, creates the function and its messaging topic in
   the home region with the function subscribed to it;
3. workflow metadata (including the initial DP) is uploaded to the
   distributed key-value store.

The home region "acts both as a fallback and a baseline" — the initial
plan is a no-expiry daily plan pinning everything there.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.cloud.functions import FunctionDeployment
from repro.cloud.provider import SimulatedCloud
from repro.common.errors import ConfigurationError, DeploymentError
from repro.common.units import mb
from repro.core.analysis import analyze_workflow
from repro.core.api import FunctionSpec, Workflow
from repro.core.executor import CaribouExecutor, DeployedWorkflow, topic_name
from repro.model.config import WorkflowConfig
from repro.model.plan import DeploymentPlan, HourlyPlanSet

#: Default container image size: a Python Lambda image with typical
#: scientific dependencies (§6.1 packages source into Docker images).
IMAGE_SIZE_BYTES = mb(250)


class DeploymentUtility:
    """Deploys workflows for the first time and individual functions to
    new regions (the step the migrator replays)."""

    def __init__(self, cloud: SimulatedCloud):
        self._cloud = cloud

    def deploy(
        self,
        workflow: Workflow,
        config: WorkflowConfig,
    ) -> Tuple[DeployedWorkflow, CaribouExecutor]:
        """Initial deployment to the home region.

        Function-level constraints declared in code (the decorator's
        ``regions_and_providers``) are merged into the manifest config;
        explicit manifest entries win when both exist.
        """
        deployed, executor = self.attach(workflow, config, subscribe=False)
        config = deployed.config
        dag = deployed.dag

        home = config.home_region
        for spec in workflow.functions:
            # Step 2a: build and push the image once, to the home registry.
            self._cloud.registry.push(
                home,
                self._image_name(deployed, spec),
                workflow.version,
                IMAGE_SIZE_BYTES,
            )
            self.deploy_function(deployed, executor, spec, home)

        # Step 3: upload metadata + the initial (home, fallback) plan.
        kv = deployed.kv()
        kv.put(
            deployed.meta_table,
            "workflow",
            {
                "name": workflow.name,
                "version": workflow.version,
                "dag_signature": dag.subgraph_signature(),
                "home_region": home,
                "nodes": list(dag.node_names),
            },
            caller_region=home,
            workflow=workflow.name,
        )
        executor.stage_plan_set(
            HourlyPlanSet.daily(
                DeploymentPlan.single_region(dag, home),
                created_at_s=self._cloud.now(),
            )
        )
        return deployed, executor

    def attach(
        self,
        workflow: Workflow,
        config: WorkflowConfig,
        subscribe: bool = True,
    ) -> Tuple[DeployedWorkflow, CaribouExecutor]:
        """Build fresh runtime handles for a workflow *without* deploying.

        The recovery path of the service engine: after an engine
        restart the cloud still holds the functions, topics, and staged
        plan, but the in-process ``DeployedWorkflow``/``CaribouExecutor``
        objects are gone.  ``attach`` reconstructs them and (when
        ``subscribe`` is set) re-subscribes the new executor to every
        existing function-region topic — ``pubsub.subscribe`` replaces
        the single subscriber, so stale closures from the dead engine
        are displaced rather than doubled.  No KV writes happen here:
        in particular the active plan staged before the crash survives.
        """
        if config.home_region not in self._cloud.regions:
            raise ConfigurationError(
                f"home region {config.home_region!r} is not offered by this "
                f"provider (available: {list(self._cloud.regions)})"
            )
        merged = dict(config.function_constraints)
        for spec in workflow.functions:
            if spec.constraints is not None and spec.name not in merged:
                merged[spec.name] = spec.constraints
        config = dataclasses.replace(config, function_constraints=merged)

        deployed = DeployedWorkflow(
            workflow,
            analyze_workflow(workflow),
            config=config,
            cloud=self._cloud,
        )
        executor = CaribouExecutor(deployed)
        if subscribe:
            for fn_deployment in self._cloud.functions.deployments_of(
                workflow.name
            ):
                self._cloud.pubsub.subscribe(
                    topic_name(workflow.name, fn_deployment.function),
                    fn_deployment.region,
                    executor.make_subscriber(
                        fn_deployment.function, fn_deployment.region
                    ),
                )
        return deployed, executor

    def deploy_function(
        self,
        deployed: DeployedWorkflow,
        executor: CaribouExecutor,
        spec: FunctionSpec,
        region: str,
        copy_image_from: Optional[str] = None,
    ) -> None:
        """Deploy one function to one region (steps 2b-2d).

        When ``copy_image_from`` is given, the image is crane-copied from
        that region's registry instead of rebuilt (§6.1 Re-Deployment).
        Raises :class:`DeploymentError` (or a subclass such as
        ``RegionUnavailableError``) on failure; callers handle fallback.
        """
        if region not in self._cloud.regions:
            raise DeploymentError(
                f"region {region!r} is not offered by this provider"
            )
        workflow = deployed.workflow
        image = self._image_name(deployed, spec)
        if copy_image_from is not None:
            self._cloud.registry.copy_image(
                image,
                workflow.version,
                src_region=copy_image_from,
                dst_region=region,
                workflow=workflow.name,
            )
        elif not self._cloud.registry.exists(region, image, workflow.version):
            raise DeploymentError(
                f"image {image}:{workflow.version} absent in {region} and no "
                "copy source given"
            )

        role = f"{workflow.name}-{spec.name}-{region}"
        self._cloud.iam.create_role(role, dict(deployed.config.iam_policy))

        self._cloud.functions.deploy(
            FunctionDeployment(
                workflow=workflow.name,
                function=spec.name,
                region=region,
                handler=lambda body, ctx: None,  # executor always overrides
                memory_mb=spec.memory_mb,
                profile=spec.profile,
                image_reference=f"{image}:{workflow.version}",
                role_name=role,
            )
        )
        topic = topic_name(workflow.name, spec.name)
        self._cloud.pubsub.create_topic(topic, region)
        self._cloud.pubsub.subscribe(
            topic, region, executor.make_subscriber(spec.name, region)
        )

    def remove_function(
        self, deployed: DeployedWorkflow, spec: FunctionSpec, region: str
    ) -> None:
        """Tear one function-region deployment down (decommissioning)."""
        if region == deployed.config.home_region:
            raise DeploymentError(
                "refusing to remove the home-region deployment: it is the "
                "permanent fallback (§6.1)"
            )
        workflow = deployed.workflow
        self._cloud.functions.remove(workflow.name, spec.name, region)
        self._cloud.pubsub.delete_topic(topic_name(workflow.name, spec.name), region)
        self._cloud.iam.delete_role(f"{workflow.name}-{spec.name}-{region}")

    @staticmethod
    def _image_name(deployed: DeployedWorkflow, spec: FunctionSpec) -> str:
        return f"{deployed.name}/{spec.name}"

"""The lifecycle's callers against the capture in
``golden/lifecycle.json`` (see ``tests/lifecycle_capture.py``), and the
one evaluator constructor's view of where a deployment's KV store is."""

import json
import os

import pytest

from repro.apps import get_app
from repro.apps.base import default_config
from repro.cloud.provider import SimulatedCloud
from repro.core.deployer import DeploymentUtility
from repro.core.lifecycle import build_plan_evaluator, warm_up
from repro.core.manager import DeploymentManager
from repro.metrics.carbon import TransmissionScenario
from tests import lifecycle_capture


@pytest.mark.parametrize("name", lifecycle_capture.CASES)
def test_case_matches_the_capture(name):
    got = lifecycle_capture.capture_case(name)
    golden = lifecycle_capture.GOLDEN
    if os.environ.get("UPDATE_GOLDEN"):
        pinned = lifecycle_capture.load() if golden.exists() else {}
        pinned[name] = got
        golden.write_text(
            json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    assert got == lifecycle_capture.load()[name]


def test_both_evaluators_price_the_deployments_kv_region():
    """A deployment whose KV store sits outside the home region: the
    fresh evaluator and the manager's both relay sync data through it,
    and both source the client's input at home."""
    cloud = SimulatedCloud(seed=lifecycle_capture.SEED)
    app = get_app("dna_visualization")
    deployed, executor = DeploymentUtility(cloud).deploy(
        app.build_workflow(), default_config(), kv_region="us-west-2"
    )
    warm_up(executor, app, "small", n=2)
    scenario = TransmissionScenario.best_case()
    manager = DeploymentManager(
        deployed, executor, DeploymentUtility(cloud), scenario=scenario
    )
    manager.metrics.collect(cloud.now())
    for evaluator in (build_plan_evaluator(deployed, scenario),
                      manager.make_evaluator()):
        assert (evaluator.kv_region, evaluator.client_region) == (
            "us-west-2", "us-east-1"
        )

"""Request ids are unique per workflow on one cloud, across an engine
restart: the executor ``DeploymentUtility.attach`` builds after a
restart numbers its requests under a new epoch, so no id names two
requests and no request's ledger rows merge with another's.  A first
deployment's ids keep the plain ``{workflow}-r{n:06d}`` form."""

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.deployer import DeploymentUtility
from repro.core.lifecycle import deploy_benchmark

APP = "image_processing"


def invoke(cloud, executor, app, run=True):
    rids = []
    cloud.env.schedule_at(
        cloud.now(), lambda: rids.append(executor.invoke(app.make_input("small")))
    )
    if run:
        cloud.run_until_idle()
    else:
        cloud.run(until=cloud.now())  # start the request, leave it in flight
    return rids[0]


class TestRequestIdsAcrossAttach:
    def test_ids_stay_unique_and_ledger_rows_unmerged(self):
        cloud = SimulatedCloud(seed=21)
        app = get_app(APP)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        cloud.run_until_idle()
        first = invoke(cloud, executor, app)
        assert first == f"{deployed.name}-r000001"
        name = deployed.name
        one_request = len(cloud.ledger.executions_for(name, first))
        assert one_request > 0

        rids = [first]
        for _restart in range(2):
            # An engine restart: a fresh utility attaches to the cloud
            # that kept the deployment.
            _deployed, attached = DeploymentUtility(cloud).attach(
                app.build_workflow(), deployed.config
            )
            rids.append(invoke(cloud, attached, app))
            assert attached.request_status(rids[-1]) == "completed"
        assert len(set(rids)) == len(rids)
        for rid in rids:
            assert len(cloud.ledger.executions_for(name, rid)) == one_request
        assert cloud.ledger.request_ids(name) == rids

    def test_a_request_in_flight_across_attach_keeps_its_own_items(self):
        cloud = SimulatedCloud(seed=21)
        app = get_app(APP)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        cloud.run_until_idle()
        in_flight = invoke(cloud, executor, app, run=False)
        assert executor.request_status(in_flight) == "pending"
        _deployed, attached = DeploymentUtility(cloud).attach(
            app.build_workflow(), deployed.config
        )
        later = invoke(cloud, attached, app)
        assert later != in_flight
        assert attached.request_status(later) == "completed"

"""Tests for the serverless function runtime (Lambda substitute)."""

import numpy as np
import pytest

from repro.cloud.functions import (
    CONTAINER_KEEPALIVE_S,
    MEMORY_MB_PER_VCPU,
    FunctionDeployment,
    FunctionService,
    WorkProfile,
)
from repro.common.errors import DeploymentError, RegionUnavailableError
from repro.common.units import mb


def deploy(cloud, name="fn", region="us-east-1", memory_mb=1769, profile=None,
           handler=None):
    deployment = FunctionDeployment(
        workflow="wf",
        function=name,
        region=region,
        handler=handler or (lambda body, ctx: None),
        memory_mb=memory_mb,
        profile=profile or WorkProfile(base_seconds=1.0),
    )
    cloud.functions.deploy(deployment)
    return deployment


class TestWorkProfile:
    def test_mean_duration_scales_with_input(self):
        profile = WorkProfile(base_seconds=1.0, seconds_per_mb=2.0)
        assert profile.mean_duration(0) == 1.0
        assert profile.mean_duration(mb(3)) == pytest.approx(7.0)

    def test_output_size(self):
        profile = WorkProfile(
            base_seconds=1.0, output_bytes_per_input_byte=0.5, output_base_bytes=100
        )
        assert FunctionService._output_size(profile, 1000, None) == pytest.approx(600)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkProfile(base_seconds=-1.0)
        with pytest.raises(ValueError):
            WorkProfile(base_seconds=1.0, cpu_utilization=0.0)
        with pytest.raises(ValueError):
            WorkProfile(base_seconds=1.0, cpu_utilization=1.5)


class TestDeployment:
    def test_vcpu_follows_memory(self, cloud):
        d = deploy(cloud, memory_mb=3538)
        assert d.n_vcpu == pytest.approx(3538 / MEMORY_MB_PER_VCPU)

    def test_invoke_unknown_function_raises(self, cloud):
        with pytest.raises(DeploymentError):
            cloud.functions.invoke("wf", "ghost", "us-east-1", None, 0)

    def test_remove(self, cloud):
        deploy(cloud)
        cloud.functions.remove("wf", "fn", "us-east-1")
        assert not cloud.functions.is_deployed("wf", "fn", "us-east-1")

    def test_region_unavailable_blocks_deploy(self, cloud):
        cloud.functions.set_region_available("us-west-1", False)
        with pytest.raises(RegionUnavailableError):
            deploy(cloud, region="us-west-1")
        cloud.functions.set_region_available("us-west-1", True)
        deploy(cloud, region="us-west-1")  # now fine

    def test_deployments_of(self, cloud):
        deploy(cloud, name="a")
        deploy(cloud, name="b")
        assert {d.function for d in cloud.functions.deployments_of("wf")} == {"a", "b"}


class TestInvocation:
    def test_handler_receives_body_and_context(self, cloud):
        seen = {}

        def handler(body, ctx):
            seen["body"] = body
            seen["region"] = ctx.region
            seen["end"] = ctx.end_s

        deploy(cloud, handler=handler)
        ctx = cloud.functions.invoke("wf", "fn", "us-east-1", {"k": 1}, 100)
        assert seen["body"] == {"k": 1}
        assert seen["region"] == "us-east-1"
        assert seen["end"] == pytest.approx(ctx.start_s + ctx.duration_s)

    def test_first_invocation_is_cold(self, cloud):
        deploy(cloud)
        ctx = cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        assert ctx.cold_start
        assert ctx.start_s > 0  # provisioning delay

    def test_warm_within_keepalive(self, cloud):
        deploy(cloud)
        cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        cloud.env.clock.advance(60.0)
        ctx = cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        assert not ctx.cold_start

    def test_cold_again_after_keepalive(self, cloud):
        deploy(cloud)
        ctx1 = cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        cloud.env.clock.advance(ctx1.duration_s + CONTAINER_KEEPALIVE_S + 1)
        ctx2 = cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        assert ctx2.cold_start

    def test_duration_scales_with_payload(self, cloud):
        deploy(cloud, profile=WorkProfile(base_seconds=0.5, seconds_per_mb=1.0,
                                          noise_cv=0.0))
        small = cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        big = cloud.functions.invoke("wf", "fn", "us-east-1", None, mb(10))
        assert big.duration_s > small.duration_s * 10

    def test_duration_noise_is_lognormal_around_mean(self, cloud):
        deploy(cloud, profile=WorkProfile(base_seconds=1.0, noise_cv=0.1))
        durations = [
            cloud.functions.invoke("wf", "fn", "us-east-1", None, 0).duration_s
            for _ in range(300)
        ]
        # Region speed factor is within +-4 %, noise mean-one.
        assert 0.9 < np.mean(durations) < 1.1

    def test_execution_record_fields(self, cloud):
        deploy(cloud, profile=WorkProfile(base_seconds=1.0, cpu_utilization=0.5,
                                          noise_cv=0.0))
        cloud.functions.invoke(
            "wf", "fn", "us-east-1", None, 123.0, node="n1", request_id="r1"
        )
        rec = cloud.ledger.executions[-1]
        assert rec.workflow == "wf"
        assert rec.node == "n1"
        assert rec.request_id == "r1"
        assert rec.payload_bytes == 123.0
        assert rec.cpu_total_time_s == pytest.approx(
            rec.duration_s * rec.n_vcpu * 0.5
        )

    def test_handler_override_used(self, cloud):
        deploy(cloud, handler=lambda body, ctx: pytest.fail("original ran"))
        called = []
        cloud.functions.invoke(
            "wf", "fn", "us-east-1", None, 0,
            handler_override=lambda body, ctx: called.append(1),
        )
        assert called == [1]

    def test_output_size_from_handler_return(self, cloud):
        class Sized:
            size_bytes = 4096.0

        deploy(cloud, handler=lambda body, ctx: Sized())
        cloud.functions.invoke("wf", "fn", "us-east-1", None, 0)
        assert cloud.ledger.executions[-1].output_bytes == 4096.0

    def test_region_speed_varies_by_region(self, cloud):
        from repro.cloud.functions import _region_speed_factor

        factors = {_region_speed_factor(r) for r in
                   ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")}
        assert len(factors) > 1
        assert all(0.95 < f < 1.05 for f in factors)

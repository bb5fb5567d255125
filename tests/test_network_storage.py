"""Tests for the network model, container registry and IAM."""

import pytest

from repro.common.units import mb


class TestNetwork:
    def test_latency_grows_with_size(self, cloud):
        small = cloud.network.transfer_latency("us-east-1", "us-west-1", 1e3, jitter=False)
        big = cloud.network.transfer_latency("us-east-1", "us-west-1", 1e8, jitter=False)
        assert big > small

    def test_intra_region_faster_than_inter(self, cloud):
        intra = cloud.network.transfer_latency("us-east-1", "us-east-1", mb(10), jitter=False)
        inter = cloud.network.transfer_latency("us-east-1", "us-west-1", mb(10), jitter=False)
        assert intra < inter

    def test_zero_size_transfer_is_propagation_only(self, cloud):
        latency = cloud.network.transfer_latency("us-east-1", "us-west-2", 0.0, jitter=False)
        assert latency == pytest.approx(
            cloud.latency_source.one_way("us-east-1", "us-west-2")
        )

    def test_negative_size_rejected(self, cloud):
        with pytest.raises(ValueError):
            cloud.network.transfer_latency("us-east-1", "us-west-1", -1.0)

    def test_transfer_recorded_in_ledger(self, cloud):
        cloud.network.transfer(
            "us-east-1", "ca-central-1", mb(1), workflow="wf",
            request_id="r1", kind="data", edge="a->b",
        )
        records = cloud.ledger.transmissions_for("wf")
        assert len(records) == 1
        rec = records[0]
        assert rec.src_region == "us-east-1"
        assert rec.dst_region == "ca-central-1"
        assert rec.size_bytes == mb(1)
        assert rec.edge == "a->b"

    def test_jitter_is_bounded_below(self, cloud):
        # Even extreme jitter draws cannot make latency non-positive.
        for _ in range(200):
            latency = cloud.network.transfer_latency("us-east-1", "us-east-1", 0.0)
            assert latency > 0


class TestRegistryAndIam:
    def test_push_and_copy(self, cloud):
        cloud.registry.push("us-east-1", "wf/fn", "1.0", mb(250))
        latency = cloud.registry.copy_image("wf/fn", "1.0", "us-east-1", "ca-central-1")
        assert latency > 0
        assert cloud.registry.exists("ca-central-1", "wf/fn", "1.0")

    def test_copy_idempotent(self, cloud):
        cloud.registry.push("us-east-1", "wf/fn", "1.0", mb(250))
        cloud.registry.copy_image("wf/fn", "1.0", "us-east-1", "us-west-1")
        # Second copy skips identical layers: no transfer, zero latency.
        before = len(cloud.ledger.transmissions)
        assert cloud.registry.copy_image("wf/fn", "1.0", "us-east-1", "us-west-1") == 0.0
        assert len(cloud.ledger.transmissions) == before

    def test_copy_missing_image_fails(self, cloud):
        from repro.common.errors import DeploymentError

        with pytest.raises(DeploymentError):
            cloud.registry.copy_image("ghost", "1.0", "us-east-1", "us-west-1")

    def test_image_transfer_is_image_kind(self, cloud):
        cloud.registry.push("us-east-1", "wf/fn", "1.0", mb(100), )
        cloud.registry.copy_image("wf/fn", "1.0", "us-east-1", "us-west-2", workflow="wf")
        recs = [r for r in cloud.ledger.transmissions_for("wf") if r.kind == "image"]
        assert len(recs) == 1
        assert recs[0].size_bytes == mb(100)

    def test_invalid_image_size(self, cloud):
        with pytest.raises(ValueError):
            cloud.registry.push("us-east-1", "x", "1", 0)

    def test_iam_roles(self, cloud):
        cloud.iam.create_role("wf-fn-us-east-1", {"allow": "*"})
        assert cloud.iam.roles() == ("wf-fn-us-east-1",)
        cloud.iam.delete_role("wf-fn-us-east-1")
        assert cloud.iam.roles() == ()

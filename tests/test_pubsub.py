"""Tests for the pub/sub messaging service (SNS substitute)."""

import pytest

from repro.cloud.pubsub import (
    DELIVERY_OVERHEAD_S,
    MAX_DELIVERY_ATTEMPTS,
    PUBLISH_OVERHEAD_S,
    Message,
)
from repro.common.errors import MessageDeliveryError, WorkflowDefinitionError


class TestTopics:
    def test_create_and_exists(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        assert cloud.pubsub.topic_exists("t", "us-east-1")
        assert not cloud.pubsub.topic_exists("t", "us-west-1")

    def test_delete(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        cloud.pubsub.delete_topic("t", "us-east-1")
        assert not cloud.pubsub.topic_exists("t", "us-east-1")

    def test_publish_to_missing_topic_raises(self, cloud):
        with pytest.raises(MessageDeliveryError):
            cloud.pubsub.publish(
                "ghost", "us-east-1", Message(body={}, size_bytes=10),
                source_region="us-east-1",
            )


class TestDelivery:
    def test_message_reaches_subscriber(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        received = []
        cloud.pubsub.subscribe("t", "us-east-1", lambda m: received.append(m.body))
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body={"x": 1}, size_bytes=100),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert received == [{"x": 1}]

    def test_delivery_is_delayed_by_overheads(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        times = []
        cloud.pubsub.subscribe("t", "us-east-1", lambda m: times.append(cloud.now()))
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=0),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert times[0] >= PUBLISH_OVERHEAD_S + DELIVERY_OVERHEAD_S

    def test_cross_region_publish_transfers_body(self, cloud):
        cloud.pubsub.create_topic("t", "ca-central-1")
        cloud.pubsub.subscribe("t", "ca-central-1", lambda m: None)
        cloud.pubsub.publish(
            "t", "ca-central-1",
            Message(body=None, size_bytes=5000, workflow="wf"),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        recs = cloud.ledger.transmissions_for("wf")
        assert recs[0].src_region == "us-east-1"
        assert recs[0].dst_region == "ca-central-1"

    def test_edge_label_propagates_to_transfer(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        cloud.pubsub.subscribe("t", "us-east-1", lambda m: None)
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=10, workflow="wf"),
            source_region="us-east-1", edge_label="a->b",
        )
        assert cloud.ledger.transmissions_for("wf")[0].edge == "a->b"

    def test_publish_metered(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        cloud.pubsub.subscribe("t", "us-east-1", lambda m: None)
        cloud.pubsub.publish(
            "t", "us-east-1",
            Message(body=None, size_bytes=10, workflow="wf", request_id="r"),
            source_region="us-east-1",
        )
        msgs = cloud.ledger.messages_for("wf")
        assert len(msgs) == 1
        assert msgs[0].topic == "t"


class TestRetrySemantics:
    def test_failing_subscriber_is_retried(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        attempts = []

        def flaky(message):
            attempts.append(cloud.now())
            if len(attempts) < 2:
                raise RuntimeError("transient")

        cloud.pubsub.subscribe("t", "us-east-1", flaky)
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=0),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert len(attempts) == 2
        assert cloud.pubsub.dead_letters == []

    def test_message_dead_lettered_after_max_attempts(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        attempts = []

        def broken(message):
            attempts.append(1)
            raise RuntimeError("permanent")

        cloud.pubsub.subscribe("t", "us-east-1", broken)
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body="b", size_bytes=0),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert len(attempts) == MAX_DELIVERY_ATTEMPTS
        assert len(cloud.pubsub.dead_letters) == 1

    def test_no_subscriber_dead_letters(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=0),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert len(cloud.pubsub.dead_letters) == 1

    def test_retry_backoff_spacing(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        attempts = []

        def broken(message):
            attempts.append(cloud.now())
            raise RuntimeError("nope")

        cloud.pubsub.subscribe("t", "us-east-1", broken)
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=0),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))  # exponential

    def test_non_retryable_error_dead_letters_immediately(self, cloud):
        """A deterministic error (``retryable = False``) cannot be fixed
        by re-running the handler: it must skip the retry loop."""
        cloud.pubsub.create_topic("t", "us-east-1")
        attempts = []

        def malformed(message):
            attempts.append(1)
            raise WorkflowDefinitionError("bad DAG")

        cloud.pubsub.subscribe("t", "us-east-1", malformed)
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=0, workflow="wf"),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert len(attempts) == 1
        assert cloud.pubsub.dead_letter_count("wf") == 1
        assert cloud.pubsub.retry_count("wf") == 0

    def test_per_workflow_counters(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")

        def broken(message):
            raise RuntimeError("nope")

        cloud.pubsub.subscribe("t", "us-east-1", broken)
        for wf in ("alpha", "alpha", "beta"):
            cloud.pubsub.publish(
                "t", "us-east-1", Message(body=None, size_bytes=0, workflow=wf),
                source_region="us-east-1",
            )
        cloud.run_until_idle()
        assert cloud.pubsub.retry_count("alpha") == 2 * (MAX_DELIVERY_ATTEMPTS - 1)
        assert cloud.pubsub.retry_count("beta") == MAX_DELIVERY_ATTEMPTS - 1
        assert cloud.pubsub.dead_letter_count("alpha") == 2
        assert cloud.pubsub.dead_letter_count("beta") == 1
        assert cloud.pubsub.retry_count("unknown") == 0
        assert cloud.pubsub.dead_letter_count("unknown") == 0

    def test_dead_letter_listener_notified(self, cloud):
        cloud.pubsub.create_topic("t", "us-east-1")
        seen = []
        cloud.pubsub.add_dead_letter_listener(
            lambda topic, message, error: seen.append((topic, error))
        )
        cloud.pubsub.publish(
            "t", "us-east-1", Message(body=None, size_bytes=0, workflow="wf"),
            source_region="us-east-1",
        )
        cloud.run_until_idle()
        assert seen == [("t", "no subscriber")]

    def test_direct_dead_letter_counts_without_delivery(self, cloud):
        """Publishers that can prove delivery is impossible record the
        loss up-front instead of raising inside a scheduled callback."""
        seen = []
        cloud.pubsub.add_dead_letter_listener(
            lambda topic, message, error: seen.append(topic)
        )
        message = Message(body=None, size_bytes=0, workflow="wf")
        cloud.pubsub.dead_letter("ghost", message, "no deliverable region")
        assert cloud.pubsub.dead_letter_count("wf") == 1
        assert ("ghost", message, "no deliverable region") in cloud.pubsub.dead_letters
        assert seen == ["ghost"]


class TestRetryHandles:
    """The per-workflow retry-timer ledger (``pending_retries`` /
    ``cancel_pending_retries``) that workflow teardown relies on."""

    def _arm(self, cloud, *workflows):
        """Publish one always-failing message per workflow and advance
        the clock past the first delivery attempts but short of the
        0.5 s backoff, leaving each message's retry timer armed."""
        cloud.pubsub.create_topic("t", "us-east-1")
        attempts = []

        def broken(message):
            attempts.append(message.workflow)
            raise RuntimeError("transient")

        cloud.pubsub.subscribe("t", "us-east-1", broken)
        for wf in workflows:
            cloud.pubsub.publish(
                "t", "us-east-1", Message(body=None, size_bytes=0, workflow=wf),
                source_region="us-east-1",
            )
        cloud.env.run(until=0.3)
        assert sorted(attempts) == sorted(workflows)  # first attempts done
        return attempts

    def test_pending_retries_counts_armed_timers(self, cloud):
        self._arm(cloud, "wf", "wf", "wf")
        assert cloud.pubsub.pending_retries("wf") == 3
        assert cloud.pubsub.pending_retries("other") == 0

    def test_cancel_suppresses_redelivery_without_dead_lettering(self, cloud):
        attempts = self._arm(cloud, "wf", "wf")
        assert cloud.pubsub.cancel_pending_retries("wf") == 2
        assert cloud.pubsub.pending_retries("wf") == 0
        cloud.run_until_idle()
        # No redelivery happened, and the messages were NOT dead-lettered
        # (the workflow is going away; counting them as losses would lie).
        assert len(attempts) == 2
        assert cloud.pubsub.dead_letter_count("wf") == 0

    def test_cancel_is_scoped_to_one_workflow(self, cloud):
        attempts = self._arm(cloud, "alpha", "beta")
        assert cloud.pubsub.cancel_pending_retries("alpha") == 1
        assert cloud.pubsub.pending_retries("beta") == 1
        cloud.run_until_idle()
        # beta kept retrying to exhaustion; alpha stopped after attempt 1.
        assert attempts.count("alpha") == 1
        assert attempts.count("beta") == MAX_DELIVERY_ATTEMPTS
        assert cloud.pubsub.dead_letter_count("beta") == 1

    def test_fired_timers_cancel_as_noops(self, cloud):
        """After natural exhaustion every handle has fired: the ledger
        reports nothing pending and a late cancel cancels nothing."""
        self._arm(cloud, "wf")
        cloud.run_until_idle()
        assert cloud.pubsub.pending_retries("wf") == 0
        assert cloud.pubsub.cancel_pending_retries("wf") == 0
        assert cloud.pubsub.dead_letter_count("wf") == 1

    def test_cancel_unknown_workflow_returns_zero(self, cloud):
        assert cloud.pubsub.cancel_pending_retries("ghost") == 0

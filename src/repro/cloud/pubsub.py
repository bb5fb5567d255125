"""Publisher/subscriber messaging (SNS substitute).

Caribou uses pub/sub as its "geospatial offloading glue" (§6.2): each
function in each region subscribes to one topic; invoking a successor
means publishing a message to the successor's topic in whatever region
the deployment plan placed it.  The properties the framework relies on
are reproduced here:

* topics are region-scoped, one per (function, region);
* delivery is at-least-once: an unacknowledged (raising) subscriber is
  retried with backoff before the message is dead-lettered;
* publish + delivery add a service overhead on top of network latency —
  this overhead is what makes SNS orchestration slower than AWS Step
  Functions in Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.ledger import MeteringLedger
from repro.cloud.network import Network
from repro.cloud.simulator import EventHandle, SimulationEnvironment
from repro.common.errors import MessageDeliveryError, RegionUnavailableError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.cloud.faults import FaultInjector
    from repro.obs.trace import Tracer

#: Service-side processing time for accepting a publish, seconds.
PUBLISH_OVERHEAD_S = 0.025
#: Service-side time to hand a message to the subscriber, seconds.
DELIVERY_OVERHEAD_S = 0.100
#: Delivery retry policy.
MAX_DELIVERY_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.5


@dataclass
class Message:
    """A published message: opaque body plus metering metadata."""

    body: Any
    size_bytes: float
    workflow: str = ""
    request_id: str = ""


@dataclass
class _Topic:
    name: str
    region: str
    subscriber: Optional[Callable[[Message], None]] = None


class PubSubService:
    """All topics across all regions of the simulated provider."""

    def __init__(
        self,
        env: SimulationEnvironment,
        network: Network,
        ledger: MeteringLedger,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._env = env
        self._network = network
        self._ledger = ledger
        self._faults = faults
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._topics: Dict[Tuple[str, str], _Topic] = {}
        self._dead_letters: List[Tuple[str, Message, str]] = []
        self._retries_by_workflow: Dict[str, int] = {}
        # Live retry-timer handles per workflow.  Backoff timers are the
        # event loop's cancellation-churn source, so keeping the handles
        # makes the churn observable (pending_retries) and controllable
        # (cancel_pending_retries) — e.g. when an operator tears down a
        # workflow whose requests are already terminally failed.
        self._retry_timers: Dict[str, List[EventHandle]] = {}
        self._dead_letters_by_workflow: Dict[str, int] = {}
        self._dead_letter_listeners: List[Callable[[str, Message, str], None]] = []
        # Per-region publish/delivery counters, resolved once per region
        # (two registry lookups per message otherwise).
        self._ctr_publishes: Dict[str, Any] = {}
        self._ctr_deliveries: Dict[str, Any] = {}

    # -- topic management ---------------------------------------------------
    def create_topic(self, name: str, region: str) -> None:
        key = (name, region)
        if key not in self._topics:
            self._topics[key] = _Topic(name=name, region=region)

    def delete_topic(self, name: str, region: str) -> None:
        self._topics.pop((name, region), None)

    def topic_exists(self, name: str, region: str) -> bool:
        return (name, region) in self._topics

    def subscribe(
        self, name: str, region: str, handler: Callable[[Message], None]
    ) -> None:
        """Attach the (single) subscriber for a topic.

        Caribou subscribes exactly one function per topic (§6.1 step 2),
        so a single-subscriber model is sufficient.
        """
        topic = self._require_topic(name, region)
        topic.subscriber = handler

    @property
    def dead_letters(self) -> List[Tuple[str, Message, str]]:
        """Messages that exhausted retries: (topic, message, error)."""
        return list(self._dead_letters)

    def retry_count(self, workflow: str) -> int:
        """Redelivery attempts scheduled for ``workflow``'s messages."""
        return self._retries_by_workflow.get(workflow, 0)

    def pending_retries(self, workflow: str) -> int:
        """Retry timers of ``workflow`` armed right now."""
        return sum(1 for h in self._retry_timers.get(workflow, ()) if h.pending)

    def cancel_pending_retries(self, workflow: str) -> int:
        """Cancel every armed retry timer of ``workflow``.

        The affected messages are *not* dead-lettered — the workflow is
        assumed to be going away.  Returns the number of timers this
        call actually cancelled (already-fired ones are no-ops under
        the :class:`~repro.cloud.simulator.EventHandle` contract).
        """
        timers = self._retry_timers.pop(workflow, [])
        return sum(1 for h in timers if h.cancel())

    def dead_letter_count(self, workflow: str) -> int:
        """Messages of ``workflow`` given up on."""
        return self._dead_letters_by_workflow.get(workflow, 0)

    def add_dead_letter_listener(
        self, listener: Callable[[str, Message, str], None]
    ) -> None:
        """Register ``listener(topic, message, error)`` to observe every
        dead-lettered message (the executor uses this to mark the
        affected request failed instead of losing it silently)."""
        self._dead_letter_listeners.append(listener)

    def dead_letter(self, name: str, message: Message, error: str) -> None:
        """Record ``message`` as undeliverable without attempting delivery.

        Publishers use this when they can tell no delivery can succeed —
        e.g. the executor's home-region fallback finding no home topic —
        so the failure is counted and observable rather than raised from
        inside a scheduled callback.
        """
        self._dead_letters.append((name, message, error))
        self._metrics.counter("pubsub.dead_letters").inc()
        if message.workflow:
            self._dead_letters_by_workflow[message.workflow] = (
                self._dead_letters_by_workflow.get(message.workflow, 0) + 1
            )
        for listener in list(self._dead_letter_listeners):
            listener(name, message, error)

    # -- publishing ----------------------------------------------------------
    def publish(
        self,
        name: str,
        region: str,
        message: Message,
        source_region: str,
        edge_label: str = "",
    ) -> float:
        """Publish ``message`` to topic ``name`` in ``region``.

        The message body crosses the network from ``source_region`` to the
        topic's region, then is delivered to the subscriber after the
        service overheads.  Returns the publish-accept latency (what the
        *publisher* waits for); delivery happens asynchronously.

        ``edge_label`` tags the underlying transfer record (callers use
        the ``src->dst`` DAG edge key so the Metrics Manager can learn
        per-edge payload sizes and routes).
        """
        topic = self._require_topic(name, region)
        with self._tracer.span(
            "publish",
            edge_label or f"publish:{name}",
            workflow=message.workflow,
            request_id=message.request_id,
            topic=name,
            region=region,
            source_region=source_region,
            size_bytes=message.size_bytes,
        ) as span:
            if self._faults is not None and self._faults.region_down(region):
                self._faults.record("region_outage")
                raise RegionUnavailableError(
                    f"pub/sub in {region} is down; cannot accept publish to {name!r}"
                )
            ctr = self._ctr_publishes.get(region)
            if ctr is None:
                ctr = self._ctr_publishes[region] = self._metrics.counter(
                    "pubsub.publishes", region=region
                )
            ctr.inc()
            self._ledger.record_message(
                workflow=message.workflow,
                topic=name,
                region=region,
                start_s=self._env.now(),
                size_bytes=message.size_bytes,
                request_id=message.request_id,
            )
            transfer = self._network.transfer(
                source_region,
                region,
                message.size_bytes,
                workflow=message.workflow,
                request_id=message.request_id,
                kind="data",
                edge=edge_label or f"publish:{name}",
            )
            arrival_delay = PUBLISH_OVERHEAD_S + transfer.latency_s
            # The span covers publish acceptance until the message is
            # handed to the topic's region (delivery attempts follow).
            span.end_at(self._env.now() + arrival_delay)
            self._env.schedule(
                arrival_delay,
                lambda: self._attempt_delivery(topic, message, attempt=1),
            )
        return PUBLISH_OVERHEAD_S

    def _attempt_delivery(self, topic: _Topic, message: Message, attempt: int) -> None:
        def deliver() -> None:
            if self._faults is not None and self._faults.region_down(topic.region):
                # The whole region is dark: the subscriber cannot run.
                # Retry with backoff — the outage may end first (§6.2's
                # at-least-once glue is what rides out such windows).
                self._faults.record("region_outage")
                self._fail(topic, message, f"region {topic.region} is down", attempt)
                return
            if topic.subscriber is None:
                self._fail(topic, message, "no subscriber", attempt)
                return
            try:
                topic.subscriber(message)
            except Exception as exc:  # subscriber did not ack
                self._fail(
                    topic,
                    message,
                    repr(exc),
                    attempt,
                    retryable=getattr(exc, "retryable", True),
                )
                return
            ctr = self._ctr_deliveries.get(topic.region)
            if ctr is None:
                ctr = self._ctr_deliveries[topic.region] = self._metrics.counter(
                    "pubsub.deliveries", region=topic.region
                )
            ctr.inc()

        self._env.schedule(DELIVERY_OVERHEAD_S, deliver)

    def _fail(
        self,
        topic: _Topic,
        message: Message,
        error: str,
        attempt: int,
        retryable: bool = True,
    ) -> None:
        """One failed delivery attempt: retry with exponential backoff,
        unless retries are exhausted or the error is deterministic
        (``retryable=False``, e.g. a malformed workflow) — re-running the
        user handler cannot change those, so they dead-letter at once."""
        if not retryable or attempt >= MAX_DELIVERY_ATTEMPTS:
            self.dead_letter(topic.name, message, error)
            return
        self._metrics.counter("pubsub.retries").inc()
        if message.workflow:
            self._retries_by_workflow[message.workflow] = (
                self._retries_by_workflow.get(message.workflow, 0) + 1
            )
        backoff = RETRY_BACKOFF_S * (2 ** (attempt - 1))
        handle = self._env.schedule(
            backoff, lambda: self._attempt_delivery(topic, message, attempt + 1)
        )
        if message.workflow:
            timers = self._retry_timers.setdefault(message.workflow, [])
            # Lazily prune timers that fired or were cancelled since the
            # last retry, so the list tracks live churn, not history.
            timers[:] = [h for h in timers if h.pending]
            timers.append(handle)

    def _require_topic(self, name: str, region: str) -> _Topic:
        try:
            return self._topics[(name, region)]
        except KeyError:
            raise MessageDeliveryError(
                f"topic {name!r} does not exist in region {region!r}"
            ) from None

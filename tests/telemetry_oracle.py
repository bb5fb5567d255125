"""The per-operation metric updates the four simulated-cloud services
made before their ledger-restating families were folded from the ledger
(``repro.cloud.ledger.LedgerMetrics``), kept as a test oracle.

:func:`install` wraps the public operations of one cloud's
``FunctionService``, ``Network``, ``PubSubService`` and every
``KeyValueStore`` it builds, and records into a second registry what
each operation returned, the way the services once updated their
instruments inline:

* ``invoke`` -> :class:`FaasContext`: ``faas.invocations{region}``,
  ``faas.cold_starts{region}`` when cold, ``faas.duration_s``;
* ``transfer`` -> :class:`TransferResult`: ``network.transfers{kind}``,
  ``network.egress_bytes`` when the regions differ,
  ``network.transfer_latency_s``, ``network.transfer_bytes``;
* ``publish``: ``pubsub.publishes{region}``, also when the publish was
  accepted and its transfer then refused by a partition;
* a KV read (``get``, ``scan``) or write (``put``, ``delete``,
  ``update``, ``conditional_put``) that returned its latency, or a
  ``conditional_put`` that was metered and then failed its check:
  ``kv.reads{region}`` / ``kv.writes{region}``.

The series the services declared at construction are declared here at
the same points.  One case is outside the oracle on purpose: a handler
that raises was counted by the inline updates but leaves no execution
row, so neither this oracle nor the fold counts it.
"""

import functools
import inspect

from repro.cloud.ledger import SIZE_BUCKETS
from repro.common.errors import ConditionalCheckFailed, NetworkPartitionError
from repro.obs.metrics import MetricsRegistry, parse_key

#: The families the ledger's rows restate.
FAMILIES = frozenset({
    "faas.invocations", "faas.cold_starts", "faas.duration_s",
    "network.transfers", "network.egress_bytes", "network.transfer_latency_s",
    "network.transfer_bytes", "pubsub.publishes", "kv.reads", "kv.writes",
})

KV_READS = ("get", "scan")
KV_WRITES = ("put", "delete", "update", "conditional_put")


def ledger_backed(key: str) -> bool:
    """Whether an instrument key (``name{labels}``) is of :data:`FAMILIES`."""
    return parse_key(key)[0] in FAMILIES


def _wrap(owner, name: str, after, also_on=()) -> None:
    """Replace ``owner.name`` by a call that runs ``after(result, args)``
    (``args``: every parameter by name, defaults filled in) once it
    returned, or once it raised one of ``also_on`` (result ``None``)."""
    original = getattr(owner, name)
    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        try:
            result = original(*args, **kwargs)
        except also_on:
            after(None, bound.arguments)
            raise
        after(result, bound.arguments)
        return result

    setattr(owner, name, wrapped)


def install(cloud) -> MetricsRegistry:
    """Wrap ``cloud``'s services; return the registry the oracle fills."""
    reg = MetricsRegistry()
    reg.histogram("faas.duration_s")
    reg.counter("network.egress_bytes")
    reg.histogram("network.transfer_latency_s")
    reg.histogram("network.transfer_bytes", bounds=SIZE_BUCKETS)

    def invoked(ctx, args):
        reg.counter("faas.invocations", region=ctx.region).inc()
        if ctx.cold_start:
            reg.counter("faas.cold_starts", region=ctx.region).inc()
        reg.histogram("faas.duration_s").observe(ctx.duration_s)

    def transferred(result, args):
        reg.counter("network.transfers", kind=args["kind"]).inc()
        if result.src_region != result.dst_region:
            reg.counter("network.egress_bytes").inc(result.size_bytes)
        reg.histogram("network.transfer_latency_s").observe(result.latency_s)
        reg.histogram("network.transfer_bytes").observe(result.size_bytes)

    def published(_result, args):
        reg.counter("pubsub.publishes", region=args["region"]).inc()

    def store_built(store, args):
        if store in stores:
            return
        stores.add(store)
        for family, ops in (("kv.reads", KV_READS), ("kv.writes", KV_WRITES)):
            counter = reg.counter(family, region=store.region)
            for op in ops:
                also_on = ConditionalCheckFailed if op == "conditional_put" else ()
                _wrap(store, op, lambda _result, _args, c=counter: c.inc(), also_on)

    stores: set = set()
    _wrap(cloud.functions, "invoke", invoked)
    _wrap(cloud.network, "transfer", transferred)
    _wrap(cloud.pubsub, "publish", published, also_on=NetworkPartitionError)
    _wrap(cloud, "kvstore", store_built)
    return reg

"""Simulated multi-region serverless cloud (the AWS substrate).

The original Caribou runs on AWS Lambda + SNS + DynamoDB + ECR across
regions.  This package provides in-process, discrete-event-simulated
equivalents with the same API shapes the framework layers consume:

* :mod:`repro.cloud.simulator` — virtual-time event loop.
* :mod:`repro.cloud.functions` — FaaS runtime (Lambda substitute) with
  memory-based vCPU sizing, cold starts, and Insights-style logs.
* :mod:`repro.cloud.pubsub` — at-least-once pub/sub (SNS substitute).
* :mod:`repro.cloud.kvstore` — distributed KV store with atomic
  conditional updates (DynamoDB substitute).
* :mod:`repro.cloud.registry` — container registry + crane-style copy.
* :mod:`repro.cloud.network` — inter-region transfer model.
* :mod:`repro.cloud.stepfunctions` — centralised orchestrator baseline.
* :mod:`repro.cloud.provider` — the facade wiring one cloud together.
"""

from repro.cloud.ledger import ExecutionRecord, MeteringLedger, TransmissionRecord
from repro.cloud.provider import SimulatedCloud
from repro.cloud.simulator import SimulationEnvironment

__all__ = [
    "SimulationEnvironment",
    "SimulatedCloud",
    "MeteringLedger",
    "ExecutionRecord",
    "TransmissionRecord",
]

"""Caribou-as-a-service: durable job orchestration over the library.

The paper's Deployment Manager (Fig. 6) is a long-running *service*
that shepherds each workflow through analyze → solve → deploy →
monitor.  This package turns the reproduction library into that
service:

* :mod:`repro.service.jobstore` — one durable :class:`JobRecord` per
  submitted workflow with an explicit state machine
  (``SUBMITTED → ANALYZED → SOLVED → DEPLOYED → MONITORING`` plus
  ``FAILED``/``CANCELLED``), journaled with virtual-time timestamps and
  persisted through the simulated KV store or a local JSON file.
* :mod:`repro.service.engine` — the :class:`ServiceEngine` that drains
  the job queue by driving the existing ``DeploymentUtility`` /
  ``FleetManager`` machinery, with per-step retry/backoff and
  recovery-on-restart from the store.
* :mod:`repro.service.builder` — the ``@task`` / ``workflow(...)``
  builder API turning plain-Python DAG declarations into a
  ``core.api.Workflow`` whose handlers declare their call sites, so
  ``analyze_workflow`` lowers it like any Listing-1 workflow.
"""

from repro.service.builder import WorkflowBuilder, task, workflow
from repro.service.engine import ServiceEngine
from repro.service.jobstore import (
    ANALYZED,
    CANCELLED,
    DEPLOYED,
    FAILED,
    JOB_STATES,
    JobRecord,
    JobStore,
    LocalJobStore,
    MemoryJobStore,
    MONITORING,
    PIPELINE,
    SOLVED,
    SUBMITTED,
    TERMINAL_STATES,
    step_digest,
)

__all__ = [
    "ANALYZED",
    "CANCELLED",
    "DEPLOYED",
    "FAILED",
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "LocalJobStore",
    "MemoryJobStore",
    "MONITORING",
    "PIPELINE",
    "SOLVED",
    "SUBMITTED",
    "ServiceEngine",
    "TERMINAL_STATES",
    "WorkflowBuilder",
    "step_digest",
    "task",
    "workflow",
]

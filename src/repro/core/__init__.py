"""Caribou core: policy and enforcement (paper §3, §5, §6, §8).

* :mod:`repro.core.api` — the developer-facing Python API (Listing 1).
* :mod:`repro.core.analysis` — static code analysis extracting the DAG.
* :mod:`repro.core.solver` — deployment-plan solvers (HBSS + baselines).
* :mod:`repro.core.trigger` — token-bucket solve triggering (§5.2).
* :mod:`repro.core.deployer` — initial deployment utility (§6.1).
* :mod:`repro.core.migrator` — cross-region re-deployment (§6.1).
* :mod:`repro.core.executor` — cross-regional execution runtime (§6.2).
* :mod:`repro.core.lifecycle` — deploy, warm up, solve: the steps every
  caller shares, with the one evaluator constructor and HBSS wiring.
* :mod:`repro.core.manager` — the Deployment Manager loop (Fig. 6).
* :mod:`repro.core.baselines` — Step Functions / plain-SNS orchestrators.
"""

from repro.core.api import Payload, Workflow
from repro.core.analysis import analyze_workflow

__all__ = ["Workflow", "Payload", "analyze_workflow"]

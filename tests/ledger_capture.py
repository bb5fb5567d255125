"""Ledger pricing pinned by digest in ``golden/ledger_pricing.json``.

The two ``tests/chaos_capture.py`` scenarios leave ledgers with every
record kind, faults, KV errors and framework traffic whose request id
is empty.  For each app and each transmission scenario this pins the
sha256 of the JSON serialisation (every float as its ``repr``, every
dict in its own key order) of:

* ``price_by_request`` over three windows, two of whose edges are
  execution start times (so one record sits exactly on ``since_s`` and
  one exactly on ``until_s``);
* ``price_workflow`` for every request id of the workflow, for an
  unknown id, and for the whole workflow;
* ``ledger_series`` JSONL at 3600 s and 600 s windows;

plus, once per app, ``usage_by_region`` (the records themselves, in
order) and a ``run_caribou`` outcome under the chaos fault plan: its
``per_scenario``, ``per_region``, ``regions_used`` and service times.

The golden was captured before ledger grouping and pricing were
rewritten as one ``MeteringLedger.group`` pass and one
``CarbonAccountant.price`` body; they must serialise to the same bytes
ever after.  Regenerate (only for a declared behaviour change) with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_accounting.py -k Golden
"""

import dataclasses
import hashlib
import json
import math
import pathlib

from repro.apps import get_app
from repro.experiments.harness import run_caribou
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.obs.timeseries import ledger_series, series_to_jsonl
from tests import chaos_capture, test_faults

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ledger_pricing.json"
APPS = chaos_capture.APPS
SCENARIOS = {
    "best": TransmissionScenario.best_case(),
    "worst": TransmissionScenario.worst_case(),
}
KINDS = ("executions", "transmissions", "messages", "kv_accesses")
SERIES_WINDOWS_S = (3600.0, 600.0)


def _pin(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _footprints(footprints) -> list:
    return [[rid, dataclasses.astuple(fp)] for rid, fp in footprints.items()]


def windows(ledger, workflow: str) -> list:
    """``(since_s, until_s)`` pairs: everything, from a record's start
    on, and from one record's start up to (excluding) another's."""
    starts = sorted({r.start_s for r in ledger.executions if r.workflow == workflow})
    lo, hi = starts[len(starts) // 3], starts[2 * len(starts) // 3]
    return [(-math.inf, math.inf), (lo, math.inf), (lo, hi)]


def request_ids(ledger, workflow: str) -> list:
    """Every request id of ``workflow`` on any record kind, first seen
    first, the empty id included."""
    seen = {}
    for kind in KINDS:
        for rec in getattr(ledger, kind):
            if rec.workflow == workflow:
                seen.setdefault(rec.request_id, None)
    return list(seen)


def accountant_for(cloud, scenario: TransmissionScenario) -> CarbonAccountant:
    return CarbonAccountant(
        cloud.carbon_source, CarbonModel(scenario), CostModel(cloud.pricing_source)
    )


def _priced(ledger, accountant, workflow: str) -> dict:
    by_request = [
        _footprints(accountant.price_by_request(ledger, workflow, since, until))
        for since, until in windows(ledger, workflow)
    ]
    per_request = [
        [rid, dataclasses.astuple(accountant.price_workflow(ledger, workflow, rid))]
        for rid in request_ids(ledger, workflow) + ["no-such-request"]
    ]
    whole = dataclasses.astuple(accountant.price_workflow(ledger, workflow))
    series = {
        f"ledger_series_{int(w)}": _pin(
            series_to_jsonl(ledger_series(ledger, accountant, window_s=w), window_s=w)
        )
        for w in SERIES_WINDOWS_S
    }
    return {
        "price_by_request": _pin(by_request),
        "price_workflow": _pin([per_request, whole]),
        **series,
    }


def _chaos_outcome(app_name: str) -> dict:
    chaos = test_faults.TestChaosRegression()
    outcome = run_caribou(
        get_app(app_name),
        "small",
        chaos_capture.REGIONS,
        seed=3,
        n_invocations=12,
        warmup=6,
        solver_settings=chaos.SETTINGS,
        fault_plan=chaos._chaos_plan(),  # noqa: SLF001
    )
    return {
        "per_scenario": {
            name: dataclasses.asdict(stats)
            for name, stats in outcome.per_scenario.items()
        },
        "per_region": outcome.per_region,
        "regions_used": list(outcome.regions_used),
        "service_time_s": [outcome.mean_service_time_s, outcome.p95_service_time_s],
        "n_invocations": outcome.n_invocations,
    }


def capture(app_name: str) -> dict:
    """What the golden stores for one app."""
    cloud, _tracer, executor = chaos_capture.chaos_run(app_name)
    ledger = cloud.ledger
    workflow = executor.deployed.name
    usage = [
        [region, [[dataclasses.astuple(r) for r in getattr(group, kind)] for kind in KINDS]]
        for region, group in ledger.usage_by_region(workflow).items()
    ]
    return {
        "records": sum(len(getattr(ledger, kind)) for kind in KINDS),
        "requests": len(request_ids(ledger, workflow)),
        "usage_by_region": _pin(usage),
        "run_caribou": _pin(_chaos_outcome(app_name)),
        **{
            name: _priced(ledger, accountant_for(cloud, scenario), workflow)
            for name, scenario in SCENARIOS.items()
        },
    }

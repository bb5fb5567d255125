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
ever after.  ``python -m tests.golden diff ledger_pricing`` shows what
a change moves (see ``tests/golden.py``).

:func:`capture_fleet` pins, in ``golden/ledger_records.json``, the
records and every query of a ledger three workflows share: the
``tests/control_loop_capture.py`` fleet after its 13 hours of traffic.
Every record serialises as its ``astuple`` JSON, so a value that comes
back as another type (``1024`` as ``1024.0``, ``True`` as ``1``) moves
the pin.  It was captured while the ledger still stored record objects
in lists.
"""

import dataclasses
import json
import math

from repro.apps import get_app
from repro.experiments.harness import run_caribou
from repro.metrics.accounting import CarbonAccountant
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.obs.timeseries import ledger_series
from tests import chaos_capture, control_loop_capture, golden, test_faults

APPS = chaos_capture.APPS
SCENARIOS = {
    "best": TransmissionScenario.best_case(),
    "worst": TransmissionScenario.worst_case(),
}
KINDS = ("executions", "transmissions", "messages", "kv_accesses")
SERIES_WINDOWS_S = (3600.0, 600.0)


def _pin(obj) -> str:
    return golden.digest(json.dumps(obj, separators=(",", ":")))


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


def _series_text(points, window_s: float) -> str:
    """The pinned text of a series: a ``caribou.series/v1`` header line,
    then one compact sorted-key line per point."""
    lines = [{"schema": "caribou.series/v1", "window_s": window_s}, *points]
    return "".join(
        json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        for line in lines
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
            _series_text(ledger_series(ledger, accountant, window_s=w), w)
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


def _records(records) -> list:
    return [dataclasses.astuple(r) for r in records]


def _queries(ledger, workflow, request_id) -> list:
    """The four ``*_for`` accessors' records for one filter."""
    return [
        _records(getattr(ledger, f"{kind}_for")(workflow, request_id)) for kind in KINDS
    ]


def _groups(groups) -> list:
    return [
        [key, [_records(getattr(group, kind)) for kind in KINDS]]
        for key, group in groups.items()
    ]


def capture_fleet() -> dict:
    """What ``golden/ledger_records.json`` stores: digests of every
    record of every kind in ledger order; of each accessor per workflow
    and per request; of ``request_ids`` and ``service_time``; of
    ``usage_by_region(None)`` and of ``group`` over every workflow keyed
    by ``(workflow, region)``; plus the counts that say where to look."""
    ledger = control_loop_capture.fleet_run().cloud.ledger
    workflows = sorted({r.workflow for kind in KINDS for r in getattr(ledger, kind)})
    per_workflow = {}
    for workflow in workflows:
        rids = request_ids(ledger, workflow)
        served = ledger.request_ids(workflow)
        per_workflow[workflow] = {
            "requests": len(rids),
            "request_ids": _pin(served),
            "all": _pin(_queries(ledger, workflow, None)),
            "per_request": _pin(
                [[rid, _queries(ledger, workflow, rid)] for rid in rids + ["no-such-request"]]
            ),
            "service_time": _pin(
                [[rid, ledger.service_time(workflow, rid)] for rid in served]
            ),
        }
    return {
        "lengths": {kind: len(getattr(ledger, kind)) for kind in KINDS},
        "records": _pin([[kind, _records(getattr(ledger, kind))] for kind in KINDS]),
        "everything": _pin(_queries(ledger, None, None)),
        "anonymous": _pin(_queries(ledger, None, "")),
        "unknown_workflow": _pin(_queries(ledger, "no-such-workflow", None)),
        "workflows": per_workflow,
        "usage_by_region": _pin(_groups(ledger.usage_by_region(None))),
        "group_by_workflow_region": _pin(
            _groups(ledger.group(lambda rec, region: (rec.workflow, region)))
        ),
    }

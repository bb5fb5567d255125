"""Test oracle: the executor's request path exactly as it was before the
staged plan set was decoded once per write and the per-workflow
constants were hoisted.

* :func:`fetch_active_plan` — the former method body, verbatim (``self``
  turned into ``executor``): a plain ``KeyValueStore.get`` that
  deep-copies the item, and ``HourlyPlanSet.from_dict`` on every call.
* :func:`annotate_mutate` — the former ``_annotate.mutate`` closure,
  verbatim: the deadness walk runs on every annotation, whether or not
  any edge is annotated 0.

``tests/test_executor.py`` requires ``==`` between these and the
production path (``TestPlanFetchDifferential``,
``TestAnnotateGuardDifferential``).  Not shipped: nothing under ``src/``
imports it.
"""

from typing import Dict, List, Optional, Tuple

from repro.common.errors import CaribouError
from repro.core.executor import META_PLAN_KEY
from repro.model.plan import HourlyPlanSet


def fetch_active_plan(executor):
    try:
        raw, _lat = executor._d.kv().get(
            executor._d.meta_table,
            META_PLAN_KEY,
            caller_region=executor._d.config.home_region,
            workflow=executor._d.name,
        )
    except CaribouError:
        executor._home_fallbacks += 1
        executor._metrics.counter(
            "executor.home_fallbacks", workflow=executor._d.name
        ).inc()
        return executor.home_plan()
    now = executor._cloud.now()
    if raw is None:
        return executor.home_plan()
    plan_set = HourlyPlanSet.from_dict(raw)
    if plan_set.is_expired(now):
        return executor.home_plan()
    hour_of_day = int(now // 3600.0) % 24
    plan = plan_set.plan_for_hour(hour_of_day)
    if not plan.covers(executor._dag):
        return executor.home_plan()
    return plan


def annotate_mutate(
    executor, current: Optional[Dict], marks: Dict[str, int]
) -> Tuple[Dict, List[str]]:
    """Returns ``(new annotation state, sync nodes to invoke)``."""
    to_invoke: List[str] = []
    ann: Dict = dict(current or {})
    for key, value in marks.items():
        # Explicit marks always win over propagated ones.
        ann[key] = value
    # Inlined propagate_dead over the precompiled plan (see
    # __init__) — identical fixed-point semantics.  The plan is read
    # from the executor's compiled join rule.
    rule = executor._join
    get = ann.get
    dead: set = set()
    for n, ins in rule.dead_plan:
        if all(get(k) == 0 or src in dead for src, k in ins):
            dead.add(n)
    for n in dead:
        for k in rule.dead_out[n]:
            ann.setdefault(k, 0)
    for s in rule.in_keys:
        flag = rule.flags[s]
        if get(flag):
            continue
        values = [get(k) for k in rule.in_keys[s]]
        if all(v is not None for v in values) and any(v == 1 for v in values):
            ann[flag] = True
            to_invoke.append(s)
    return ann, to_invoke

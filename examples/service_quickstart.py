#!/usr/bin/env python3
"""Caribou as a service: declare a DAG with decorators, submit it as a
job, and let the service engine shepherd it through the lifecycle.

Where examples/quickstart.py drives every step by hand (deploy, warm
up, solve, migrate), this example hands the same lifecycle to
``repro.service``:

1. declare a diamond workflow with the ``@task`` / builder API — no
   hand-built config dicts, no source parsing: the builder declares its
   call sites, and the engine lowers them through the same
   ``analyze_workflow`` that reads Listing-1 handlers;
2. register the builder and ``submit()`` it as a job, alongside a
   stock benchmark app submitted by name;
3. ``run()`` the engine: each tick advances jobs one step through
   SUBMITTED -> ANALYZED -> SOLVED -> DEPLOYED -> MONITORING;
4. inspect the journaled state machine, then crash-and-recover: a
   fresh engine resumes from the store without re-solving.

Run:  python examples/service_quickstart.py
"""

from repro.cloud.provider import SimulatedCloud
from repro.service import (
    MONITORING,
    MemoryJobStore,
    ServiceEngine,
    task,
    workflow,
)


# -- 1. a diamond DAG, declared as plain Python -----------------------------

@task(memory_mb=512)
def fetch(event):
    return {"doc": (event or {}).get("doc", "report.pdf")}


@task()
def extract_text(payload):
    return {"text": f"text of {payload['doc']}"}


@task()
def extract_tables(payload):
    return {"tables": [f"table in {payload['doc']}"]}


@task(memory_mb=3538)
def merge(payloads):
    # Fan-in: receives the list of predecessor payload contents.
    return {"parts": len(payloads)}


def build_pipeline():
    return (
        workflow("doc-pipeline")
        .then(fetch)
        .branch(extract_text, extract_tables)
        .join(merge)
    )


def main() -> None:
    cloud = SimulatedCloud(seed=42)
    store = MemoryJobStore()
    engine = ServiceEngine(cloud, store)

    # -- 2. submit: a builder-declared workflow and a stock app -------------
    engine.register_workflow(build_pipeline())
    custom = engine.submit("doc-pipeline", "small")
    stock = engine.submit("dna_visualization", "small")
    print("submitted:")
    for record in engine.jobs():
        print(f"  {record.job_id:28s} {record.state}")

    # -- 3. drain the pipelines ---------------------------------------------
    steps = engine.run(max_steps=16)
    print(f"\nengine ran {steps} steps; job journals:")
    for record in engine.jobs():
        print(f"  {record.job_id} -> {record.state}")
        for entry in record.journal:
            print(f"    t={entry.time_s:8.1f}  "
                  f"{entry.from_state:>9s} -> {entry.to_state:<10s} "
                  f"({entry.step})")

    custom_plan = engine.job(custom.job_id).artifacts["plan_set"]
    print(f"\ndoc-pipeline solved plan covers "
          f"{len(custom_plan['plans_by_hour'])} hour slot(s)")

    # -- 4. crash and recover -----------------------------------------------
    # Only the store survives; code (the builder) must be re-registered,
    # then a fresh engine re-attaches every job and re-applies the
    # persisted plans instead of re-solving.
    resumed = ServiceEngine(cloud, store)
    resumed.register_workflow(build_pipeline())
    recovered = resumed.recover()
    staged = resumed.job(custom.job_id).artifacts["plan_set"]
    assert staged["plans_by_hour"] == custom_plan["plans_by_hour"]
    assert resumed.solver_stats.simulations_run == 0, "recovery re-solved!"
    print(f"\nrecovered {recovered} job(s) after restart; "
          f"0 simulations run — plans were replayed, not re-solved")

    monitoring = [r.job_id for r in resumed.jobs() if r.state == MONITORING]
    print(f"under fleet management: {', '.join(sorted(monitoring))}")
    assert {custom.job_id, stock.job_id} == set(monitoring)


if __name__ == "__main__":
    main()

"""Same-numbers contract for the HBSS solve path.

``tests/golden/solve_day_contract.json`` was captured on the commit
*before* profile re-pricing was made incremental (per-profile
statistics, the exact p95 selection, per-hour intensity tables, the
memoised plan hash), so it pins what "bit-identical" means for that
change and every later one: the 24-hour plan set, every per-hour
``SolveResult`` field and every ``SolverStats`` counter of a cold
``solve_day`` and of one warm-started re-solve on the same evaluator.
Its carbon means (``mean_carbon_g``, ``mean_exec_carbon_g``,
``mean_trans_carbon_g``) were regenerated once, when they came to be
priced by linearity from per-region and per-route means: each moved by
a few ulps, and nothing else did.  ``python -m tests.golden diff
solve_day_contract`` shows what a change moves (see
``tests/golden.py``); re-pin it only for a change that is *meant* to
move plans.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps import get_app
from repro.cloud.provider import SimulatedCloud
from repro.core.solver import HBSSSolver
from repro.core.lifecycle import build_plan_evaluator, deploy_benchmark, warm_up
from repro.metrics.carbon import TransmissionScenario
from repro.model.plan import DeploymentPlan
from tests import golden, reprice_oracle

APPS = ("text2speech_censoring", "video_analytics")
CLOUD_SEED = 3
WARMUPS = 12
SOLVER_SEED = 3


def make_evaluator(app_name, intensity_fn=None):
    app = get_app(app_name)
    cloud = SimulatedCloud(seed=CLOUD_SEED)
    deployed, executor, _ = deploy_benchmark(app, cloud)
    warm_up(executor, app, "small", n=WARMUPS)
    return build_plan_evaluator(
        deployed, TransmissionScenario.best_case(), intensity_fn=intensity_fn
    )


def _counters(stats):
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name != "_lock"
    }


def _solve_record(plan_set, results, stats):
    return {
        "plans": {
            str(h): dict(sorted(plan_set.plan_for_hour(h).assignments.items()))
            for h in plan_set.hours
        },
        "results": [
            {
                "hour": r.hour,
                "best_plan": r.best_plan.digest(),
                "best_estimate": reprice_oracle.fields(r.best_estimate),
                "iterations": r.iterations,
                "accepted": r.accepted,
                "plans_evaluated": r.plans_evaluated,
            }
            for r in results
        ],
        "stats": _counters(stats),
    }


def solve_day_contract(app_name, intensity_fn=None):
    """Cold ``solve_day`` then one warm-started re-solve, as JSON-able data."""
    ev = make_evaluator(app_name, intensity_fn)
    solver = HBSSSolver(ev, np.random.default_rng(SOLVER_SEED))
    plan_set, results = solver.solve_day()
    cold = _solve_record(plan_set, results, ev.stats)
    warm_set, warm_results = solver.solve_day(warm_start=plan_set)
    return {
        "cold": cold,
        "warm": _solve_record(warm_set, warm_results, ev.stats),
    }


class TestSolveDayContract:
    def test_solve_day_matches_snapshot(self):
        golden.check("solve_day_contract", {name: solve_day_contract(name) for name in APPS})

    @pytest.mark.parametrize("app_name", APPS)
    def test_intensity_fn_runs_once_per_region_hour(self, app_name):
        calls = []

        def flat(region, hour):
            calls.append((region, hour))
            return 100.0 + 7.0 * len(region) + hour

        ev = make_evaluator(app_name, intensity_fn=flat)
        HBSSSolver(ev, np.random.default_rng(SOLVER_SEED)).solve_day()
        assert len(calls) == len(set(calls))
        assert 0 < len(calls) <= len(ev.regions) * 24


class TestPerObjectMemos:
    def test_home_plan_is_one_object_per_evaluator(self):
        ev = make_evaluator(APPS[0])
        assert ev.home_plan() is ev.home_plan()
        assert ev.home_plan() == DeploymentPlan.single_region(
            ev.dag, ev.config.home_region
        )

    def test_plan_hash_is_the_sorted_items_hash(self):
        plan = DeploymentPlan({"b": "us-west-2", "a": "us-east-1", "c": "us-east-1"})
        expected = hash(tuple(sorted(plan.assignments.items())))
        assert hash(plan) == expected
        assert hash(plan) == expected  # memoised value, second read
        restamped = DeploymentPlan(plan.assignments, version=7, created_at_s=5.0)
        assert hash(restamped) == expected
        assert len({plan, restamped}) == 1

    def test_memoised_hash_does_not_travel_with_a_pickle(self):
        # str hashes differ between processes (PYTHONHASHSEED); a plan
        # unpickled elsewhere must recompute its hash there.
        plan = DeploymentPlan({"a": "us-east-1", "b": "us-west-2"})
        hash(plan), plan.digest()
        clone = pickle.loads(pickle.dumps(plan))
        assert "_hash" not in clone.__dict__
        assert clone == plan and hash(clone) == hash(plan)
        assert clone.digest() == plan.digest()

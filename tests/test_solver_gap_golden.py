"""Golden solver-gap table (satellite of the exact-solver tentpole).

For every example application, solve one fixed-seed hour with the
branch-and-bound optimum, HBSS, and the coarse single-region heuristic
over one *shared* evaluator, and pin the resulting optimality gaps
(per cent above the certified optimum) in a committed JSON table.  This
is the paper's near-optimal-HBSS claim (§9.2) as a regression test: a
solver change that silently degrades HBSS search quality — or breaks
the exact solver — shows up as a reviewable diff of
``golden/solver_gap.json`` (``python -m tests.golden diff solver_gap``;
see ``tests/golden.py``).
"""

from repro.apps import ALL_APPS
from repro.cloud.provider import SimulatedCloud
from repro.core.solver import CoarseSolver, ExactSolver, HBSSSolver
from repro.core.lifecycle import build_plan_evaluator, deploy_benchmark, warm_up
from repro.metrics.carbon import TransmissionScenario
from tests import golden

SEED = 1234
HOUR = 0


def _gap_pct(metric: float, optimum: float) -> float:
    if optimum <= 0:
        return 0.0
    return round((metric - optimum) / optimum * 100.0, 6)


def solver_gap_table() -> dict:
    """Per-app optimality gaps at default tolerances, fixed seed."""
    table = {}
    for name in sorted(ALL_APPS):
        app = ALL_APPS[name]
        cloud = SimulatedCloud(seed=SEED)
        deployed, executor, _ = deploy_benchmark(app, cloud)
        warm_up(executor, app, "small", n=6)
        ev = build_plan_evaluator(deployed, TransmissionScenario.best_case())
        exact_plan, _ = ExactSolver(ev).solve_hour(HOUR)
        optimum = ev.metric(exact_plan, HOUR)
        hbss = HBSSSolver(
            ev, cloud.env.rng.get(f"solver:{deployed.name}:gap")
        )
        hbss_metric = ev.metric(hbss.solve_hour(HOUR).best_plan, HOUR)
        coarse_plan, _ = CoarseSolver(ev).solve_hour(HOUR)
        coarse_metric = ev.metric(coarse_plan, HOUR)
        table[name] = {
            "exact_carbon_g": round(optimum, 9),
            "hbss_gap_pct": _gap_pct(hbss_metric, optimum),
            "coarse_gap_pct": _gap_pct(coarse_metric, optimum),
        }
    return table


class TestSolverGapGolden:
    def test_gap_table_matches_snapshot(self):
        golden.check("solver_gap", solver_gap_table())

    def test_snapshot_covers_every_app(self):
        table = golden.load("solver_gap")
        assert sorted(table) == sorted(ALL_APPS)
        for name, row in table.items():
            # exact is the proven optimum, so no heuristic may beat it.
            assert row["hbss_gap_pct"] >= 0.0, name
            assert row["coarse_gap_pct"] >= 0.0, name
            assert row["exact_carbon_g"] > 0.0, name

    def test_snapshot_reproduces_paper_claim(self):
        # §9.2: HBSS lands within a few per cent of the optimum while
        # evaluating a vanishing fraction of the space.  The committed
        # numbers must stay inside that envelope.
        table = golden.load("solver_gap")
        for name, row in table.items():
            assert row["hbss_gap_pct"] <= 5.0, (
                f"{name}: HBSS gap {row['hbss_gap_pct']}% breaks the "
                "near-optimality claim"
            )

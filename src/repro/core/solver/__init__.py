"""Deployment-plan solvers (paper §5.1).

The search space for a workflow with nodes ``N`` over regions ``R`` is
``|R|^|N|``.  Caribou's production solver is Heuristic-Biased Stochastic
Sampling (:mod:`repro.core.solver.hbss`, Alg. 1); the paper also
discusses the coarse single-region approach (``O(|R|)``, globally
suboptimal), provided as a baseline, and notes that exhaustive/BFS
search "proved intractable":

* :class:`~repro.core.solver.hbss.HBSSSolver`
* :class:`~repro.core.solver.coarse.CoarseSolver`
* :class:`~repro.core.solver.exact.ExactSolver` — provably optimal
  branch-and-bound with admissible per-node lower bounds; returns the
  optimum full enumeration would (enumeration itself is kept only as
  the test oracle ``tests/exhaustive_oracle.py``)
"""

from repro.core.solver.coarse import CoarseSolver
from repro.core.solver.evaluation import (
    EvaluationCache,
    PlanEvaluator,
    SolverSettings,
    SolverStats,
)
from repro.core.solver.exact import ExactSolver, LowerBoundTables
from repro.core.solver.hbss import HBSSSolver, SolveResult

__all__ = [
    "EvaluationCache",
    "PlanEvaluator",
    "SolverSettings",
    "SolverStats",
    "HBSSSolver",
    "SolveResult",
    "CoarseSolver",
    "ExactSolver",
    "LowerBoundTables",
]

"""The benchmark's workloads, by name.

Each module exposes ``NAME``, ``WHY``, ``TAIL_PERCENTILE`` (of the step
times, for ``step_tail_ms``), ``setup(seed, scale) -> state``
(everything before the timed phase), ``run(state, step)`` (the timed
phase; ``step(fn)`` times one step) and ``finish(state) -> Outcome``
(verification and the virtual-time outcomes).
"""

from . import fleet_day, resolve_churn, serve_shifted, solve_cold

WORKLOADS = {
    module.NAME: module
    for module in (serve_shifted, solve_cold, resolve_churn, fleet_day)
}

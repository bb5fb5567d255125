"""Test oracle: the Monte-Carlo scalar reference path.

The production kernel (``MonteCarloEstimator._simulate_batch``) prices
each distribution's support once and gathers by drawn indices, one
``(n,)`` array op per DAG element.  This is the path it replaced: walk
the DAG one sample at a time, read ``support[idx[i]]`` of the same
pre-drawn batch and price that one value with the scalar model methods.
The two are bit-identical from identical seeds — the contract
``tests/test_montecarlo.py::TestDifferential``,
``tests/test_montecarlo_kernel.py`` and ``tests/test_batched_eval.py``
lock down, and the baseline ``benchmarks/test_estimator_throughput.py``
times the kernel against.

:class:`ScalarReferenceEstimator` is a :class:`MonteCarloEstimator`
whose batch kernel *and draw* are the reference: it inherits the
convergence rule and the accumulator layout, and swaps
``_simulate_batch`` and ``_draw_batch``.  The draw is the former
production one, one ``rng.integers`` call per distribution; production
makes one broadcast call per batch, so every differential against this
oracle checks the draw as well as the kernel.  The reference needs the
plan itself, which the production kernel does not, so ``_plan_steps``
records it.  ``_BatchValues``, ``_draw_batch``,
``_simulate_batch_reference`` and ``_simulate_once`` are kept verbatim.
Not shipped: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.metrics.montecarlo import (
    MonteCarloEstimator,
    _BatchAccumulators,
    _BatchDraws,
    _PlanSteps,
)
from repro.model.plan import DeploymentPlan


@dataclass
class _BatchValues:
    """The drawn values themselves, ``support[idx]``: what the scalar
    reference path reads one sample at a time."""

    cond: Dict[Tuple[str, str], "np.ndarray"]  # uniforms, conditional edges
    input_sizes: "np.ndarray"
    edge_sizes: Dict[Tuple[str, str], "np.ndarray"]
    exec_times: Dict[str, "np.ndarray"]


class ScalarReferenceEstimator(MonteCarloEstimator):
    """A :class:`MonteCarloEstimator` running the scalar reference path."""

    def _plan_steps(self, plan: DeploymentPlan) -> _PlanSteps:
        self._plan = plan
        return super()._plan_steps(plan)

    def _draw_batch(
        self, steps: _PlanSteps, n: int, rng: np.random.Generator
    ) -> _BatchDraws:
        """Draw one batch of randomness in the canonical order (see the
        determinism note in the module docstring).  The only place a
        profile consumes its RNG stream."""
        workflow = steps.workflow
        uniforms = None
        if workflow.n_conditional:
            uniforms = rng.random((n, workflow.n_conditional))
        input_idx = rng.integers(0, len(workflow.input_sizes), size=n)
        edge_idx: Dict[Tuple[str, str], np.ndarray] = {}
        exec_idx: Dict[str, np.ndarray] = {}
        for step in steps.nodes:
            for edge in step.spec.in_edges:
                edge_idx[edge.key] = rng.integers(0, len(edge.sizes), size=n)
            exec_idx[step.spec.name] = rng.integers(
                0, len(step.table.exec_times), size=n
            )
        return _BatchDraws(
            n=n,
            uniforms=uniforms,
            input_idx=input_idx,
            edge_idx=edge_idx,
            exec_idx=exec_idx,
        )

    def _simulate_batch(
        self, steps: _PlanSteps, draws: _BatchDraws, acc: _BatchAccumulators
    ) -> None:
        self._simulate_batch_reference(self._plan, steps, draws, acc)

    def _simulate_batch_reference(
        self,
        plan: DeploymentPlan,
        steps: _PlanSteps,
        draws: _BatchDraws,
        acc: _BatchAccumulators,
    ) -> None:
        """The scalar reference path: walks the DAG one sample at a time
        exactly like the pre-vectorization ``_simulate_once``, reading
        ``support[idx]`` of the shared pre-drawn batch and pricing each
        drawn value with the scalar model methods, so it stays
        bit-comparable to the production kernel.  Kept for differential
        testing and as the baseline of
        ``benchmarks/test_estimator_throughput.py``."""
        dag = self._dag
        client, kv_region = self._client_and_kv(plan)
        edge_prob = {
            (e.src, e.dst): self._data.edge_probability(e.src, e.dst)
            for e in dag.edges
            if e.conditional
        }
        edges = [e for step in steps.nodes for e in step.spec.in_edges]
        values = _BatchValues(
            cond={
                e.key: draws.uniforms[:, e.cond_col]
                for e in edges
                if e.cond_col is not None
            },
            input_sizes=steps.workflow.input_sizes[draws.input_idx],
            edge_sizes={e.key: e.sizes[draws.edge_idx[e.key]] for e in edges},
            exec_times={
                step.spec.name: step.table.exec_times[
                    draws.exec_idx[step.spec.name]
                ]
                for step in steps.nodes
            },
        )
        for i in range(draws.n):
            self._simulate_once(plan, values, i, acc, client, kv_region, edge_prob)

    def _simulate_once(
        self,
        plan: DeploymentPlan,
        draws: _BatchValues,
        i: int,
        acc: _BatchAccumulators,
        client: str,
        kv_region: str,
        edge_prob: Dict[Tuple[str, str], float],
    ) -> None:
        """One scalar simulation, writing sample ``i`` of the batch."""
        dag = self._dag

        # 1. Realise the conditional edges.
        edge_taken: Dict[Tuple[str, str], bool] = {}
        for edge in dag.edges:
            if edge.conditional:
                u = float(draws.cond[(edge.src, edge.dst)][i])
                edge_taken[(edge.src, edge.dst)] = u < edge_prob[
                    (edge.src, edge.dst)
                ]
            else:
                edge_taken[(edge.src, edge.dst)] = True

        # 2. Walk in topological order computing per-node finish times.
        executed: Dict[str, bool] = {}
        finish: Dict[str, float] = {}
        cost = 0.0

        for node in self._order:
            in_edges = dag.in_edges(node)
            region = plan.region_of(node)
            if not in_edges:
                executed[node] = True
                input_size = float(draws.input_sizes[i])
                arrival = self._latency.estimate(client, region, input_size)
                acc.route_bytes[(client, region)][i] += input_size
                cost += self._cost.transmission_cost(client, region, input_size)
            else:
                taken_from = [
                    e
                    for e in in_edges
                    if executed.get(e.src, False) and edge_taken[(e.src, e.dst)]
                ]
                if not taken_from:
                    executed[node] = False
                    continue
                executed[node] = True
                is_sync = dag.is_sync_node(node)
                arrival = 0.0
                for e in taken_from:
                    src_region = plan.region_of(e.src)
                    size = float(draws.edge_sizes[(e.src, e.dst)][i])
                    if is_sync:
                        hop1 = self._latency.estimate(src_region, kv_region, size)
                        hop2 = self._latency.estimate(kv_region, region, size)
                        edge_latency = hop1 + hop2
                        acc.route_bytes[(src_region, kv_region)][i] += size
                        acc.route_bytes[(kv_region, region)][i] += size
                        cost += self._cost.transmission_cost(
                            src_region, kv_region, size
                        )
                        cost += self._cost.transmission_cost(
                            kv_region, region, size
                        )
                        cost += self._cost.kv_cost(kv_region, n_reads=1, n_writes=2)
                    else:
                        edge_latency = self._latency.estimate(
                            src_region, region, size
                        )
                        acc.route_bytes[(src_region, region)][i] += size
                        cost += self._cost.transmission_cost(
                            src_region, region, size
                        )
                    cost += self._cost.messaging_cost(region)
                    arrival = max(arrival, finish[e.src] + edge_latency)

            duration = float(draws.exec_times[node][i])
            ext_region, ext_bytes = self._data.node_external_bytes(node)
            if ext_region is not None and ext_bytes > 0:
                duration = duration + self._latency.estimate(
                    ext_region, region, ext_bytes
                )
                acc.route_bytes[(ext_region, region)][i] += ext_bytes
                cost += self._cost.transmission_cost(ext_region, region, ext_bytes)

            finish[node] = arrival + duration
            memory = self._data.node_memory_mb(node)
            n_vcpu = self._data.node_vcpu(node)
            util = self._data.node_cpu_utilization(node)
            acc.energy[region][i] += (
                self._carbon.execution_energy_kwh(
                    duration_s=duration,
                    memory_mb=memory,
                    n_vcpu=n_vcpu,
                    cpu_total_time_s=duration * n_vcpu * util,
                )
                * self._carbon.pue
            )
            cost += self._cost.execution_cost(region, duration, memory)
            cost += self._cost.kv_cost(kv_region, n_reads=1)

        acc.latency[i] = max(
            (finish[n] for n in finish if executed.get(n, False)), default=0.0
        )
        acc.cost[i] = cost

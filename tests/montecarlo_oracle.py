"""Test oracle: the Monte-Carlo scalar reference path.

The production kernel (``MonteCarloEstimator._simulate``) prices each
distribution's support once and gathers by drawn indices, a whole
cohort of plans per ``(plans, samples)`` array op.  This is the path it
replaced: profile one plan at a time, walk the DAG one sample at a
time, read ``support[idx[i]]`` of the same pre-drawn batch and price
that one value with the scalar model methods.  The two are
bit-identical from identical seeds — the contract
``tests/test_montecarlo.py::TestDifferential``,
``tests/test_montecarlo_kernel.py`` and ``tests/test_batched_eval.py``
lock down, and the baseline ``benchmarks/test_estimator_throughput.py``
times the kernel against.

:class:`ScalarReferenceEstimator` is a :class:`MonteCarloEstimator`
that keeps the tables (read from ``data`` once, shared with
production) and replaces everything above them with its own per-plan
loop: ``estimate_profile`` and ``estimate_profiles`` run one plan at a
time through the former batch loop, the former 1-D stopping rule
(``_converged``, ``_mean_and_std``), accumulator layout
(``_BatchAccumulators``) and plan resolution (``_plan_steps``), a draw
of one ``rng.integers`` call per distribution (``_draw_batch``; the
production draw makes one broadcast call per batch, so every
differential against this oracle checks the draw as well as the
kernel) and the scalar kernel.  ``_BatchDraws``, ``_BatchValues``,
``_BatchAccumulators``, ``_draw_batch``, ``_simulate_batch_reference``
and ``_simulate_once`` are kept verbatim.  Not shipped: nothing under
``src/`` imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.montecarlo import (
    MonteCarloEstimator,
    PlanProfile,
    _InputTable,
    _NodeSpec,
    _NodeTable,
    _WorkflowSpec,
)
from repro.model.plan import DeploymentPlan


@dataclass
class _BatchDraws:
    """One batch worth of pre-drawn randomness (see determinism note):
    conditional-edge uniforms, and bootstrap *indices* into the support
    of every distribution the plan samples."""

    n: int
    uniforms: Optional["np.ndarray"]  # (n, n_conditional_edges)
    input_idx: "np.ndarray"
    edge_idx: Dict[Tuple[str, str], "np.ndarray"]
    exec_idx: Dict[str, "np.ndarray"]


@dataclass
class _BatchValues:
    """The drawn values themselves, ``support[idx]``: what the scalar
    reference path reads one sample at a time."""

    cond: Dict[Tuple[str, str], "np.ndarray"]  # uniforms, conditional edges
    input_sizes: "np.ndarray"
    edge_sizes: Dict[Tuple[str, str], "np.ndarray"]
    exec_times: Dict[str, "np.ndarray"]


class _NodeStep(NamedTuple):
    """A node under one plan: its spec, region and priced table, and per
    in-edge the routes its payload travels (one, or two through the KV
    region for a sync node)."""

    spec: _NodeSpec
    region: str
    table: _NodeTable
    input_table: Optional[_InputTable]  # start node only
    legs: Tuple[Tuple[Tuple[str, str], ...], ...]


class _PlanSteps(NamedTuple):
    """A plan resolved against the estimator's tables."""

    workflow: _WorkflowSpec
    nodes: Tuple[_NodeStep, ...]


class _BatchAccumulators:
    """Per-sample result vectors a simulation kernel writes into: rows of
    one ``(2 + regions + routes, n)`` buffer — latency, cost, then one
    energy row per region and one byte row per route.

    Energy/route keys come from the plan's static pricing schedule
    (every region and route the plan *could* touch, in processing
    order) so the kernel and the tests' scalar oracle accumulate — and
    later sum — in exactly the same key order, which the bit-identity
    guarantee needs.
    """

    def __init__(
        self,
        buffer: "np.ndarray",
        regions: Iterable[str],
        routes: Iterable[Tuple[str, str]],
    ):
        self.buffer = buffer
        self.n = buffer.shape[1]
        self.latency = buffer[0]
        self.cost = buffer[1]
        rows = iter(buffer[2:])
        self.energy: Dict[str, np.ndarray] = dict(zip(regions, rows))
        self.route_bytes: Dict[Tuple[str, str], np.ndarray] = dict(
            zip(routes, rows)
        )

    def window(self, lo: int, hi: int) -> "_BatchAccumulators":
        """A view of samples ``[lo, hi)`` sharing this accumulator's
        storage.  The kernels write batches through these views, so a
        profile run fills one preallocated buffer incrementally and
        every convergence check reads a prefix of it.
        """
        return _BatchAccumulators(
            self.buffer[:, lo:hi], self.energy, self.route_bytes
        )


def _mean_and_std(values: "np.ndarray") -> Tuple[float, float]:
    """``(values.mean(), values.std(ddof=1))`` of a 1-D float array of
    at least two elements."""
    n = values.size
    mean = np.add.reduce(values) / n
    deviations = values - mean
    deviations *= deviations
    return float(mean), math.sqrt(np.add.reduce(deviations) / (n - 1))


class ScalarReferenceEstimator(MonteCarloEstimator):
    """A :class:`MonteCarloEstimator` running the scalar reference path."""

    def estimate_profile(self, plan: DeploymentPlan) -> PlanProfile:
        """The former per-plan batch loop, over the reference draw and
        kernel."""
        plan.regions_for(self._order)  # a ValueError if it misses a node
        rng = self.plan_rng(plan)
        steps = self._plan_steps(plan)
        full = self._make_accumulators(steps, self._max)
        n_total = 0
        while n_total < self._max:
            n = min(self._batch, self._max - n_total)
            draws = self._draw_batch(steps, n, rng)
            self._simulate_batch_reference(
                plan, steps, draws, full.window(n_total, n_total + n)
            )
            n_total += n
            if self._converged(full.latency[:n_total], full.cost[:n_total]):
                break

        if self._stats is not None:
            self._stats.simulations_run += 1
            self._stats.samples_drawn += n_total
        buffer = full.buffer[:, :n_total].copy()
        buffer.setflags(write=False)
        rows = _BatchAccumulators(buffer, full.energy, full.route_bytes)
        return PlanProfile(
            latencies=rows.latency,
            costs=rows.cost,
            energy_by_region=rows.energy,
            bytes_by_route=rows.route_bytes,
            carbon_model=self._carbon,
        )

    def estimate_profiles(
        self, plans: Sequence[DeploymentPlan]
    ) -> List[PlanProfile]:
        """One :meth:`estimate_profile` run per distinct plan."""
        for plan in plans:
            plan.regions_for(self._order)  # a ValueError if it misses a node
        by_digest: Dict[str, PlanProfile] = {}
        for plan in plans:
            digest = plan.digest()
            if digest not in by_digest:
                by_digest[digest] = self.estimate_profile(plan)
        return [by_digest[plan.digest()] for plan in plans]

    def _converged(self, *series: "np.ndarray") -> bool:
        """The relative-standard-error stopping rule on 1-D series."""
        for values in series:
            arr = np.asarray(values)
            if arr.size < 2:
                return False
            mean, std = _mean_and_std(arr)
            if std == 0.0:
                continue
            if mean <= 0:
                return False
            if std / math.sqrt(arr.size) / mean >= self._cov:
                return False
        return True

    def _plan_steps(self, plan: DeploymentPlan) -> _PlanSteps:
        """``plan`` against the tables, in topological order."""
        client = kv = self._home
        workflow = self._workflow_spec()
        region_of = plan.assignments
        nodes = []
        for spec in workflow.nodes:
            region = region_of[spec.name]
            input_table = None
            if not spec.in_edges:
                input_table = self._input_table(client, region)
                legs: Tuple[Tuple[Tuple[str, str], ...], ...] = ()
            elif spec.is_sync:
                legs = tuple(
                    ((region_of[e.src], kv), (kv, region))
                    for e in spec.in_edges
                )
            else:
                legs = tuple(
                    ((region_of[e.src], region),) for e in spec.in_edges
                )
            nodes.append(
                _NodeStep(
                    spec, region, self._node_table(spec, region),
                    input_table, legs,
                )
            )
        return _PlanSteps(workflow, tuple(nodes))

    def _make_accumulators(
        self, steps: _PlanSteps, n: int
    ) -> _BatchAccumulators:
        """One zeroed buffer with a row for every energy region and byte
        route the plan can touch, keyed in processing order."""
        regions: Dict[str, None] = {}
        routes: Dict[Tuple[str, str], None] = {}
        for step in steps.nodes:
            if step.input_table is not None:
                routes[step.input_table.route] = None
            for edge_routes in step.legs:
                for route in edge_routes:
                    routes[route] = None
            if step.table.external_route is not None:
                routes[step.table.external_route] = None
            regions[step.region] = None
        buffer = np.zeros((2 + len(regions) + len(routes), n))
        return _BatchAccumulators(buffer, regions, routes)

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
        client = kv_region = self._home
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

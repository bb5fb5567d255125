"""Exact branch-and-bound deployment search (ROADMAP item 5).

Best-first branch-and-bound over per-node region choices.  States are
prefixes of the DAG's (lexicographic) topological order; expanding a
state assigns the next node to each of its permitted regions.  Each
state carries an *admissible* lower bound on the objective of every
completion, so popping a state whose bound already meets the incumbent
proves the incumbent optimal — typically after exploring a vanishing
fraction of the ``prod_n |permitted(n)|`` space, which makes mid-size
DAGs (10^8-10^9 plans) tractable where full enumeration (the test
oracle ``tests/exhaustive_oracle.py``) refuses anything past 100k.

Bounding function
-----------------

The objective is an empirical Monte-Carlo mean, so the bound must hold
for *every sample* regardless of what the per-plan RNG substream draws.
:class:`LowerBoundTables` therefore prices each contribution at the
minimum of its empirical support (``EmpiricalDistribution.min()``)
through the deterministic pricing formulas — all of which are monotone
non-decreasing in duration/bytes — and drops any contribution that is
not *guaranteed* to occur (conditional edges and every node downstream
of only-conditional paths price as 0, an obvious under-estimate):

* decided nodes contribute their exact minimum-support terms (execution
  energy x intensity, execution cost, KV reads, external-data and
  client-input transfers, and in-edge transfer/messaging/sync-relay
  terms once both endpoints are decided);
* undecided nodes contribute a precomputed per-node floor: each term
  minimised *independently* over the node's (and its predecessors')
  permitted regions — a sum of independent minima never exceeds the
  joint minimum, so admissibility is preserved;
* a latency floor runs the same critical-path recurrence the simulator
  uses, over guaranteed edges only, with minimum durations and transfer
  latencies.

Only the carbon terms depend on the hour (through the intensity
function); the cost and latency tables are built once per evaluator and
a thin per-hour carbon layer is cached on demand.

Tolerances prune alongside the objective: a state whose carbon / cost /
latency floor already exceeds the §9.4 augmented-baseline threshold
cannot complete into a compliant plan (the p95 tail of any completion
is at least the per-sample floor) and is cut.  Complete plans still go
through the evaluator's exact Monte-Carlo tolerance check, so the
returned plan is precisely the best plan full enumeration would
have kept — bit-identical metric, same home fallback when nothing is
feasible.

Floating-point note: the bound accumulates the same IEEE-754 terms the
kernel does but in a different association order, so every prune
comparison scales the bound by ``BOUND_SAFETY`` (one part in 10^9) —
far larger than any rounding drift, far too small to cost pruning
power.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SolverError
from repro.core.solver.evaluation import PlanEvaluator
from repro.metrics.montecarlo import WorkflowEstimate
from repro.model.plan import DeploymentPlan, HourlyPlanSet

#: Relative slack applied to every lower bound before a prune
#: comparison: absorbs float re-association drift between the bound's
#: accumulation order and the kernel's.
BOUND_SAFETY = 1.0 - 1e-9

#: Refuse searches that expand more states than this — the bound has
#: degenerated (e.g. near-identical regions) and exhaustive-like work
#: is exactly what this solver exists to avoid.
DEFAULT_MAX_EXPANSIONS = 1_000_000


def _dist_min(dist) -> float:
    """Support minimum of an empirical distribution, 0 when empty."""
    if len(dist) == 0:
        return 0.0
    return max(0.0, dist.min())


class _HourLayer:
    """Per-hour carbon tables layered over the hour-independent core."""

    __slots__ = ("exec_carbon", "edge_carbon", "edge_carbon_min", "suffix_carbon")

    def __init__(self) -> None:
        self.exec_carbon: List[Dict[str, float]] = []
        self.edge_carbon: Dict[Tuple[int, int], Dict[Tuple[str, str], float]] = {}
        self.edge_carbon_min: Dict[Tuple[int, int], Dict[str, float]] = {}
        self.suffix_carbon: List[float] = []


class LowerBoundTables:
    """Admissible per-sample lower-bound tables for one evaluator.

    Used by :class:`ExactSolver` (incremental prefix bounds); the
    whole-plan bounds let full enumeration (``tests/exhaustive_oracle.py``)
    skip provably tolerance-dead plans before they are simulated.  Construction runs no Monte-Carlo simulation — only
    support minima and deterministic pricing lookups.
    """

    def __init__(self, evaluator: PlanEvaluator):
        ev = self._ev = evaluator
        dag = ev.dag
        self.order: Tuple[str, ...] = tuple(dag.topological_order())
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.order)}
        #: Sorted domains: child-generation order is independent of the
        #: iteration order of the evaluator's ``regions`` input.
        self.domains: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(sorted(ev.permitted_regions(n))) for n in self.order
        )
        data = ev.data
        cost = ev.cost_model
        carbon = ev.carbon_model
        latency = ev.latency_model
        kv = ev.kv_region
        client = ev.client_region

        # Only contributions guaranteed to occur in *every* sample may
        # enter the bound; everything else prices as 0.
        guaranteed = self.guaranteed = dag.guaranteed_nodes()
        self.guaranteed_in_edges: Tuple[Tuple, ...] = tuple(
            tuple(
                e
                for e in dag.in_edges(name)
                if not e.conditional and e.src in guaranteed
            )
            if name in guaranteed
            else ()
            for name in self.order
        )

        input_min = _dist_min(data.input_size_dist())
        self._start_index = self.index[dag.start_node]

        # Per-(node, region) hour-independent tables.
        self.dur_min: List[Dict[str, float]] = []
        self.energy_min: List[Dict[str, float]] = []
        self.exec_cost_min: List[Dict[str, float]] = []
        self.arrive_lat: List[Dict[str, float]] = []  # start node only
        self._ext: List[Tuple[Optional[str], float]] = []
        for i, name in enumerate(self.order):
            memory = data.node_memory_mb(name)
            n_vcpu = data.node_vcpu(name)
            util = data.node_cpu_utilization(name)
            ext_region, ext_bytes = data.node_external_bytes(name)
            if ext_region is None or ext_bytes <= 0:
                ext_region, ext_bytes = None, 0.0
            self._ext.append((ext_region, ext_bytes))
            durs: Dict[str, float] = {}
            energies: Dict[str, float] = {}
            costs: Dict[str, float] = {}
            arrives: Dict[str, float] = {}
            kv_read = cost.kv_cost(kv, n_reads=1)
            for r in self.domains[i]:
                dur = _dist_min(data.execution_time_dist(name, r))
                if ext_region is not None:
                    dur += latency.estimate(ext_region, r, ext_bytes)
                durs[r] = dur
                if dur > 0 and n_vcpu > 0:
                    energies[r] = (
                        carbon.execution_energy_kwh(
                            duration_s=dur,
                            memory_mb=memory,
                            n_vcpu=n_vcpu,
                            cpu_total_time_s=dur * n_vcpu * util,
                        )
                        * carbon.pue
                    )
                else:
                    energies[r] = 0.0
                c = cost.execution_cost(r, dur, memory) + kv_read
                if ext_region is not None:
                    c += cost.transmission_cost(ext_region, r, ext_bytes)
                if i == self._start_index:
                    c += cost.transmission_cost(client, r, input_min)
                    arrives[r] = latency.estimate(client, r, input_min)
                costs[r] = c
            self.dur_min.append(durs)
            self.energy_min.append(energies)
            self.exec_cost_min.append(costs)
            self.arrive_lat.append(arrives)

        # Per guaranteed-edge (src_region, dst_region) tables.
        self.edge_bytes_min: Dict[Tuple[int, int], float] = {}
        self.edge_sync: Dict[Tuple[int, int], bool] = {}
        self.edge_cost: Dict[Tuple[int, int], Dict[Tuple[str, str], float]] = {}
        self.edge_lat: Dict[Tuple[int, int], Dict[Tuple[str, str], float]] = {}
        self.edge_cost_min: Dict[Tuple[int, int], Dict[str, float]] = {}
        for i, name in enumerate(self.order):
            is_sync = dag.is_sync_node(name)
            for e in self.guaranteed_in_edges[i]:
                u = self.index[e.src]
                key = (u, i)
                bmin = _dist_min(data.edge_size_dist(e.src, e.dst))
                self.edge_bytes_min[key] = bmin
                self.edge_sync[key] = is_sync
                kv_relay = cost.kv_cost(kv, n_reads=1, n_writes=2)
                ec: Dict[Tuple[str, str], float] = {}
                el: Dict[Tuple[str, str], float] = {}
                for ru in self.domains[u]:
                    for rv in self.domains[i]:
                        msg = cost.messaging_cost(rv)
                        if is_sync:
                            c = (
                                cost.transmission_cost(ru, kv, bmin)
                                + cost.transmission_cost(kv, rv, bmin)
                                + kv_relay
                                + msg
                            )
                            lat = latency.estimate(
                                ru, kv, bmin
                            ) + latency.estimate(kv, rv, bmin)
                        else:
                            c = cost.transmission_cost(ru, rv, bmin) + msg
                            lat = latency.estimate(ru, rv, bmin)
                        ec[(ru, rv)] = c
                        el[(ru, rv)] = lat
                self.edge_cost[key] = ec
                self.edge_lat[key] = el
                self.edge_cost_min[key] = {
                    rv: min(ec[(ru, rv)] for ru in self.domains[u])
                    for rv in self.domains[i]
                }

        # Hour-independent per-node cost floor and suffix sums.
        n = len(self.order)
        self.node_cost_min: List[float] = []
        for i in range(n):
            if self.order[i] not in self.guaranteed:
                self.node_cost_min.append(0.0)
                continue
            best = float("inf")
            for r in self.domains[i]:
                term = self.exec_cost_min[i][r]
                for e in self.guaranteed_in_edges[i]:
                    term += self.edge_cost_min[(self.index[e.src], i)][r]
                best = min(best, term)
            self.node_cost_min.append(best)
        self.suffix_cost: List[float] = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.suffix_cost[i] = self.suffix_cost[i + 1] + self.node_cost_min[i]

        # Regions the carbon layer needs intensities for.
        extra = {kv, client}
        extra.update(r for r, _ in self._ext if r is not None)
        self._all_regions = tuple(
            sorted(set(itertools.chain.from_iterable(self.domains)) | extra)
        )
        self._kv = kv
        self._client = client
        self._input_min = input_min
        self._hour_layers: Dict[int, _HourLayer] = {}

    # -- hour layer ---------------------------------------------------------
    def hour_layer(self, hour: int) -> _HourLayer:
        layer = self._hour_layers.get(hour)
        if layer is not None:
            return layer
        ev = self._ev
        carbon = ev.carbon_model
        intensity = {r: ev.intensity(r, hour) for r in self._all_regions}
        kv, client = self._kv, self._client
        layer = _HourLayer()
        n = len(self.order)
        for i in range(n):
            ext_region, ext_bytes = self._ext[i]
            per_region: Dict[str, float] = {}
            for r in self.domains[i]:
                if self.order[i] not in self.guaranteed:
                    per_region[r] = 0.0
                    continue
                g = self.energy_min[i][r] * intensity[r]
                if ext_region is not None:
                    g += carbon.transmission_carbon_g(
                        (intensity[ext_region] + intensity[r]) / 2.0,
                        ext_bytes,
                        ext_region == r,
                    )
                if i == self._start_index:
                    g += carbon.transmission_carbon_g(
                        (intensity[client] + intensity[r]) / 2.0,
                        self._input_min,
                        client == r,
                    )
                per_region[r] = g
            layer.exec_carbon.append(per_region)
        for key, bmin in self.edge_bytes_min.items():
            u, i = key
            table: Dict[Tuple[str, str], float] = {}
            for ru in self.domains[u]:
                for rv in self.domains[i]:
                    if self.edge_sync[key]:
                        g = carbon.transmission_carbon_g(
                            (intensity[ru] + intensity[kv]) / 2.0,
                            bmin,
                            ru == kv,
                        ) + carbon.transmission_carbon_g(
                            (intensity[kv] + intensity[rv]) / 2.0,
                            bmin,
                            kv == rv,
                        )
                    else:
                        g = carbon.transmission_carbon_g(
                            (intensity[ru] + intensity[rv]) / 2.0,
                            bmin,
                            ru == rv,
                        )
                    table[(ru, rv)] = g
            layer.edge_carbon[key] = table
            layer.edge_carbon_min[key] = {
                rv: min(table[(ru, rv)] for ru in self.domains[u])
                for rv in self.domains[i]
            }
        node_carbon_min: List[float] = []
        for i in range(n):
            if self.order[i] not in self.guaranteed:
                node_carbon_min.append(0.0)
                continue
            best = float("inf")
            for r in self.domains[i]:
                term = layer.exec_carbon[i][r]
                for e in self.guaranteed_in_edges[i]:
                    term += layer.edge_carbon_min[(self.index[e.src], i)][r]
                best = min(best, term)
            node_carbon_min.append(best)
        layer.suffix_carbon = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            layer.suffix_carbon[i] = (
                layer.suffix_carbon[i + 1] + node_carbon_min[i]
            )
        self._hour_layers[hour] = layer
        return layer

    # -- incremental terms (B&B) --------------------------------------------
    def cost_term(self, i: int, region: str, assigned: Sequence[str]) -> float:
        """Exact min-support USD contribution of deciding node ``i``."""
        if self.order[i] not in self.guaranteed:
            return 0.0
        term = self.exec_cost_min[i][region]
        for e in self.guaranteed_in_edges[i]:
            u = self.index[e.src]
            term += self.edge_cost[(u, i)][(assigned[u], region)]
        return term

    def carbon_term(
        self, layer: _HourLayer, i: int, region: str, assigned: Sequence[str]
    ) -> float:
        """Exact min-support carbon contribution of deciding node ``i``."""
        if self.order[i] not in self.guaranteed:
            return 0.0
        term = layer.exec_carbon[i][region]
        for e in self.guaranteed_in_edges[i]:
            u = self.index[e.src]
            term += layer.edge_carbon[(u, i)][(assigned[u], region)]
        return term

    def finish_bound(
        self, i: int, region: str, assigned: Sequence[str], finishes: Sequence[float]
    ) -> float:
        """Earliest possible finish of guaranteed node ``i`` (0 otherwise):
        the simulator's critical-path recurrence over guaranteed edges
        with minimum durations and transfer latencies."""
        name = self.order[i]
        if name not in self.guaranteed:
            return 0.0
        if i == self._start_index:
            arrival = self.arrive_lat[i][region]
        else:
            arrival = 0.0
            for e in self.guaranteed_in_edges[i]:
                u = self.index[e.src]
                arrival = max(
                    arrival,
                    finishes[u] + self.edge_lat[(u, i)][(assigned[u], region)],
                )
        return arrival + self.dur_min[i][region]

    # -- whole-plan bounds ---------------------------------------------------
    def plan_lower_bounds(
        self, plan: DeploymentPlan, hour: int
    ) -> Tuple[float, float, float]:
        """``(carbon_g, cost_usd, latency_s)`` floors for a full plan.

        Every Monte-Carlo sample of the plan — hence every mean and
        every p95 tail — is at least these values, which is what lets
        full enumeration discard provably tolerance-dead plans without
        simulating them.
        """
        layer = self.hour_layer(hour)
        assigned: List[str] = []
        finishes: List[float] = []
        carbon_g = 0.0
        cost_usd = 0.0
        latency_s = 0.0
        for i, name in enumerate(self.order):
            region = plan.region_of(name)
            carbon_g += self.carbon_term(layer, i, region, assigned)
            cost_usd += self.cost_term(i, region, assigned)
            finish = self.finish_bound(i, region, assigned, finishes)
            latency_s = max(latency_s, finish)
            assigned.append(region)
            finishes.append(finish)
        return carbon_g, cost_usd, latency_s


class ExactSolver:
    """Best-first branch-and-bound: provably optimal plan per hour.

    Shares the :class:`PlanEvaluator` (and its cache, stats and RNG
    substreams) with every other solver, so its metric values are
    bit-identical to what enumeration or HBSS would compute for
    the same plan.  Raises :class:`SolverError` once ``max_expansions``
    states have been expanded without closing the search.
    """

    def __init__(
        self,
        evaluator: PlanEvaluator,
        max_expansions: int = DEFAULT_MAX_EXPANSIONS,
    ):
        self._ev = evaluator
        self._max_expansions = max_expansions
        self._bounds: Optional[LowerBoundTables] = None

    @property
    def bounds(self) -> LowerBoundTables:
        if self._bounds is None:
            self._bounds = LowerBoundTables(self._ev)
        return self._bounds

    def solve_hour(
        self, hour: int, enforce_tolerances: bool = True
    ) -> Tuple[DeploymentPlan, WorkflowEstimate]:
        """Provably optimal plan, and its estimate, for one hour."""
        ev = self._ev
        b = self.bounds
        layer = b.hour_layer(hour)
        n = len(b.order)
        priority = ev.config.priority

        tol = ev.config.tolerances
        check_tol = enforce_tolerances and tol is not None and not (
            tol.latency is None and tol.carbon is None and tol.cost is None
        )
        if check_tol:
            base = ev.baseline(hour)
            thr_latency = (
                base.tail_latency_s * (1.0 + tol.latency)
                if tol.latency is not None
                else float("inf")
            )
            thr_carbon = (
                base.tail_carbon_g * (1.0 + tol.carbon)
                if tol.carbon is not None
                else float("inf")
            )
            thr_cost = (
                base.tail_cost_usd * (1.0 + tol.cost)
                if tol.cost is not None
                else float("inf")
            )
        else:
            thr_latency = thr_carbon = thr_cost = float("inf")

        def objective(carbon_lb: float, cost_lb: float, lat_lb: float) -> float:
            if priority == "carbon":
                return carbon_lb
            if priority == "cost":
                return cost_lb
            return lat_lb

        # Seed the incumbent with the home plan: it anchors the §9.4
        # baseline (never violates its own augmented tails) and gives
        # the very first prune comparisons something to cut against.
        best_plan: Optional[DeploymentPlan] = None
        best_metric = float("inf")
        home = ev.home_plan()
        if ev.is_plan_compliant(home) and not (
            check_tol and ev.tolerance_violated(home, hour)
        ):
            best_plan, best_metric = home, ev.metric(home, hour)

        counter = itertools.count()
        root_bound = objective(layer.suffix_carbon[0], b.suffix_cost[0], 0.0)
        # state: (bound, tie, k, assigned, g_carbon, g_cost, finishes, lat_lb)
        heap = [(root_bound, next(counter), 0, (), 0.0, 0.0, (), 0.0)]
        expanded = pruned = 0
        while heap:
            bound, _, k, assigned, g_carbon, g_cost, finishes, lat_lb = (
                heapq.heappop(heap)
            )
            if bound * BOUND_SAFETY >= best_metric:
                # Best-first order: every remaining state's bound is at
                # least this one's — the incumbent is proven optimal.
                break
            if k == n:
                plan = DeploymentPlan(dict(zip(b.order, assigned)))
                if check_tol and ev.tolerance_violated(plan, hour):
                    continue
                metric = ev.metric(plan, hour)
                if metric < best_metric:
                    best_plan, best_metric = plan, metric
                continue
            expanded += 1
            if expanded > self._max_expansions:
                raise SolverError(
                    f"branch-and-bound expanded more than "
                    f"{self._max_expansions} states without closing the "
                    f"search; raise max_expansions or use HBSSSolver"
                )
            for region in b.domains[k]:
                child_carbon = g_carbon + b.carbon_term(
                    layer, k, region, assigned
                )
                child_cost = g_cost + b.cost_term(k, region, assigned)
                finish = b.finish_bound(k, region, assigned, finishes)
                child_lat = max(lat_lb, finish)
                carbon_lb = child_carbon + layer.suffix_carbon[k + 1]
                cost_lb = child_cost + b.suffix_cost[k + 1]
                child_bound = objective(carbon_lb, cost_lb, child_lat)
                if child_bound * BOUND_SAFETY >= best_metric:
                    pruned += 1
                    continue
                if check_tol and (
                    carbon_lb * BOUND_SAFETY > thr_carbon
                    or cost_lb * BOUND_SAFETY > thr_cost
                    or child_lat * BOUND_SAFETY > thr_latency
                ):
                    pruned += 1
                    continue
                heapq.heappush(
                    heap,
                    (
                        child_bound,
                        next(counter),
                        k + 1,
                        assigned + (region,),
                        child_carbon,
                        child_cost,
                        finishes + (finish,),
                        child_lat,
                    ),
                )

        if best_plan is None:
            # Every plan violates tolerances: fall back to home (§6.1).
            best_plan = home
            best_metric = ev.metric(home, hour)
        tightness = (
            100.0 * root_bound / best_metric if best_metric > 0 else 0.0
        )
        stats = ev.stats
        stats.bnb_nodes_expanded += expanded
        stats.bnb_nodes_pruned += pruned
        stats.bnb_hours_solved += 1
        stats.bnb_bound_tightness_pct += min(100.0, max(0.0, tightness))
        return best_plan, ev.estimate(best_plan, hour)

    def solve_day(
        self,
        hours: Optional[Sequence[int]] = None,
        enforce_tolerances: bool = True,
    ) -> HourlyPlanSet:
        """Provably optimal per-hour plans over the day."""
        hour_list = list(hours) if hours is not None else list(range(24))
        if not hour_list:
            raise ValueError("need at least one hour to solve for")
        plans = [self.solve_hour(h, enforce_tolerances)[0] for h in hour_list]
        return HourlyPlanSet(dict(zip(hour_list, plans)))

"""Monte-Carlo end-to-end workflow estimation (paper §7.1).

Estimating the latency, cost, and carbon of a *conditional* DAG under a
candidate deployment plan is the solver's inner loop.  Following the
paper, each simulation:

1. samples each conditional edge's invocation from its historical
   probability to fix the realised partial DAG;
2. samples every executed node's execution time from its per-region
   historical distribution and every taken edge's payload size from its
   size distribution, yielding the critical path and end-to-end time;
3. prices the realised scenario in USD and gCO2eq (including framework
   overheads: SNS publishes per edge, KV accesses for plan retrieval and
   sync-node coordination, and the KV-store relay for fan-in data).

Batches of 200 simulations run "until reaching a low coefficient of
variation below 0.05 ... or until a maximum of 2,000 samples" (§7.1).
The CoV here is of the *mean estimator* (relative standard error), the
standard Monte-Carlo stopping rule — the raw sample CoV would never
converge for wide distributions.  The mean is the "average case" used
for plan ordering and the 95th percentile the "tail case" used for
tolerance checks (§7.1).

Determinism note (RNG stream discipline)
----------------------------------------
Each plan is simulated from its *own* derived substream: at
construction the estimator draws a single 63-bit salt from the
caller-supplied generator, and ``estimate_profile`` seeds a fresh
``numpy`` generator from ``derive_seed(salt, plan.digest())``.  Two
consequences the solver stack relies on:

* profiles are **order-independent** — the order in which hours are
  solved (or a re-ordered cache-warming schedule) cannot perturb any
  plan's draws;
* re-profiling the same plan on the same estimator reproduces the same
  result, which is what makes a digest-keyed profile cache semantically
  transparent (a hit equals a recompute).

Within one plan's profile run, randomness is consumed in *batch-major,
structure-minor* order, and only by ``_draw_batch``.  Every bootstrap
draw is an *index* into the support of the distribution it resamples
(``EmpiricalDistribution.support()``).  For every batch of ``B``
simulations it draws, in this exact sequence:

1. one uniform matrix ``rng.random((B, n_conditional_edges))`` realising
   every conditional edge for the whole batch (edges enumerated in
   ``dag.edges`` order; no call when the DAG has none);
2. one index matrix ``rng.integers(0, highs, size=(m, B))``, where
   ``highs`` is the ``(m, 1)`` int64 column of support lengths (built
   once per plan, ``_PlanSteps.highs``) in this order: the end-user
   input sizes; then, for each node in (lexicographic) topological
   order, each incoming edge's payload-size support (in
   ``dag.in_edges`` order) followed by the node's per-region
   execution-time support.  Row ``i`` indexes distribution ``i``.

The matrix is exactly what ``m`` separate
``rng.integers(0, len(support), size=B)`` calls in that order would
return, row for row, and it leaves the generator in the same state:
numpy fills a broadcast output in C order, each element through the
same bounded 32-bit Lemire draw a scalar-bound call makes, and a
support of length 1 consumes nothing in either form.  That equality is
the contract (``tests/test_montecarlo_kernel.py::
TestBroadcastDrawDifferential``, on the newest numpy and CI's
``numpy-floor`` job); the per-distribution calls it replaced are the
oracle's ``_draw_batch``.  Indices are drawn for *every* edge and
node, even those a particular sample skips — bootstrap draws are
i.i.d., so masking unused values leaves the estimate's distribution
unchanged.

What is computed when
~~~~~~~~~~~~~~~~~~~~~
Everything the kernel derives from a drawn value — Eq. 7.2-7.4 energy,
Lambda cost, egress cost, transfer latency — is an *elementwise*
function ``f`` of it, so ``f(support)[idx] == f(support[idx])`` bit for
bit.  Each quantity is therefore paid for at the rate it changes:

* **once per estimator** (lazily, per key): the DAG walk order, in-edges,
  sync nodes, guaranteed nodes (``WorkflowDAG.guaranteed_nodes``), every
  ``node_*`` / ``edge_probability`` / ``*_dist`` read of ``data``; per
  *(node, region)* the durations, energy and execution cost over the
  execution-time support; per *(client, region)* arrival latency and
  egress over the input-size support; per *route* three scalars
  (one-way latency, bandwidth, USD/GB); per region the SNS publish and
  KV request costs.  The models' ``*_batch`` methods run here, on the
  supports, with all their validation;
* **once per plan**: dictionary lookups resolving the plan against those
  tables, and the column of support lengths the draw reads
  (``_plan_steps``); one accumulator buffer, every result vector a row
  of it;
* **once per batch**: the two draw calls, one 1-D gather per table, the
  route arithmetic on the gathered payload sizes, and the accumulation.

Because validation runs on a whole support, it is *stricter* than a
per-sample check: a negative payload size or a non-positive duration
among the observations raises the models' ``ValueError`` even if no
sample would have drawn it.

This rests on one assumption: **``data`` does not change under a live
estimator.**  Its answers are read once and kept; build a new estimator
after new observations are collected (every caller does —
``EvaluationCache`` already assumes it).

Masks are static where the DAG allows it: a *guaranteed* node runs in
every sample and an *always-active* edge (unconditional, from a
guaranteed node) is taken in every sample, so the kernel adds their
contributions unmasked.  That is exact, not approximate —
``np.where(all_true, x, 0.0)`` is ``x`` — and the sequence of additions
into each per-sample accumulator is the scalar path's, term for term
(float addition is not associative).

The tests hold the path this kernel replaced as an oracle
(``tests/montecarlo_oracle.py::ScalarReferenceEstimator``): it draws
the same indices one ``integers`` call per distribution, reads
``support[idx[i]]`` and prices that one value with the scalar model
methods, one sample at a time.  The two
produce bit-identical :class:`PlanProfile`\\ s (and therefore
bit-identical :class:`WorkflowEstimate`\\ s) from identical seeds — the
property the differential tests in ``tests/test_montecarlo.py`` and
``tests/test_montecarlo_kernel.py`` lock down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.rng import derive_seed
from repro.common.units import GB
from repro.metrics.carbon import CarbonModel
from repro.metrics.cost import CostModel
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.latency import TransferLatencyModel
from repro.model.dag import WorkflowDAG
from repro.model.plan import DeploymentPlan

BATCH_SIZE = 200
MAX_SAMPLES = 2000
COV_THRESHOLD = 0.05


class WorkflowModelData(Protocol):
    """What the estimator needs to know about a workflow's behaviour.

    Implemented by the Metrics Manager (learned from logs) and by tests
    (hand-built fixtures).
    """

    def execution_time_dist(self, node: str, region: str) -> EmpiricalDistribution:
        """Execution-time distribution of ``node`` in ``region``.

        Implementations fall back to the home region's distribution when
        a region has no history (§7.1)."""
        ...

    def edge_probability(self, src: str, dst: str) -> float:
        """Observed invocation probability of the edge."""
        ...

    def edge_size_dist(self, src: str, dst: str) -> EmpiricalDistribution:
        """Payload-size distribution (bytes) across the edge."""
        ...

    def node_memory_mb(self, node: str) -> int:
        ...

    def node_vcpu(self, node: str) -> float:
        ...

    def node_cpu_utilization(self, node: str) -> float:
        """Average vCPU utilisation (from Lambda-Insights data)."""
        ...

    def node_external_bytes(self, node: str) -> Tuple[Optional[str], float]:
        """(region, bytes) of fixed external data the node reads, or
        ``(None, 0.0)``.  External services stay at/near the home region
        (§9.1 fairness rule 1), so moving the node moves this traffic."""
        ...

    def input_size_dist(self) -> EmpiricalDistribution:
        """Distribution of end-user input payload sizes.

        The invocation client sits at/near the home region (§6.2) — the
        estimator's ``client_region`` — so a plan that moves the start
        node pays this transfer cross-region; without it the solver
        would under-price offloading the entry stage of input-heavy
        workflows."""
        ...


class EstimatorStatsSink(Protocol):
    """Counter sink the estimator increments (see ``SolverStats``)."""

    simulations_run: int
    samples_drawn: int


@dataclass(frozen=True)
class WorkflowEstimate:
    """Estimator output for one (plan, hour) pair."""

    mean_latency_s: float
    tail_latency_s: float
    mean_cost_usd: float
    tail_cost_usd: float
    mean_carbon_g: float
    tail_carbon_g: float
    mean_exec_carbon_g: float
    mean_trans_carbon_g: float
    n_samples: int

    def metric(self, priority: str) -> float:
        """The scalar the solver orders plans by (§5.1)."""
        if priority == "carbon":
            return self.mean_carbon_g
        if priority == "cost":
            return self.mean_cost_usd
        if priority == "latency":
            return self.mean_latency_s
        raise ValueError(f"unknown priority {priority!r}")


_sum = np.add.reduce


def _scalar(value: float) -> "np.ndarray":
    """``value`` as a 0-d float array: the same double in every ufunc,
    minus the Python-float conversion numpy repeats on each call."""
    out = np.array(value, dtype=float)
    out.setflags(write=False)
    return out


_BYTES_PER_GB = _scalar(GB)
_ZERO = _scalar(0.0)


def _mean(values: "np.ndarray") -> float:
    """``float(values.mean())`` of a non-empty 1-D float array: the
    ufunc reduction and the division numpy's wrapper ends in, without
    its argument handling (see :func:`_mean_and_std`)."""
    return float(_sum(values) / values.size)


def _mean_and_std(values: "np.ndarray") -> Tuple[float, float]:
    """``(values.mean(), values.std(ddof=1))`` of a 1-D float array of
    at least two elements — the same doubles, spelt as the four ufunc
    calls numpy's own wrappers end in.  Their per-call argument handling
    cost more than the arithmetic on a few hundred samples, twice per
    convergence check; the equality is the contract
    (``tests/test_montecarlo.py::TestConvergedDifferential``).
    """
    n = values.size
    mean = _sum(values) / n
    deviations = values - mean
    deviations *= deviations
    return float(mean), math.sqrt(_sum(deviations) / (n - 1))


def _p95(values: "np.ndarray") -> float:
    """The 95th percentile of a finite 1-D float array — the same double
    as ``float(np.percentile(values, 95))``.

    ``np.percentile``'s default (linear) method on one quantile is a
    partition around the two neighbouring order statistics plus numpy's
    lerp; doing just that skips its general-purpose argument handling,
    which dominated re-pricing a profile.  The partition runs in place
    on a copy — what the ``np.partition`` wrapper does, minus its
    dispatch.  The equality is the contract
    (``tests/test_montecarlo.py::TestP95Differential``), not an
    approximation.
    """
    n = values.size
    virtual = (n - 1) * 0.95
    lo = math.floor(virtual)
    hi = min(lo + 1, n - 1)
    part = values.copy()
    part.partition((lo, hi))
    below = float(part[lo])
    above = float(part[hi])
    t = virtual - lo
    diff = above - below
    if t >= 0.5:
        return above - diff * (1 - t)
    return below + diff * t


@dataclass
class PlanProfile:
    """Hour-independent Monte-Carlo profile of one deployment plan.

    For a fixed plan, the only hour-dependent inputs are the grid
    intensities: execution carbon is ``sum_n E_n * I(region_n)`` and
    transmission carbon ``sum_routes S_route * mean(I_src, I_dst) * EF``
    (Eq. 7.1/7.5).  Latency and USD cost do not depend on the hour at
    all.  The profile therefore stores, per simulation sample, the
    energy aggregated per region and the bytes aggregated per route, so
    the 24 hourly evaluations of §5.1 can re-price a single simulation
    run exactly instead of re-running it.

    Each quantity is paid for at the rate it changes: the latency and
    cost statistics and the check that no route carries negative bytes
    happen once per profile, on its first pricing; only the carbon
    vector, its mean and its p95 are per hour.  That is sound because
    the arrays never change afterwards — the estimator hands them over
    read-only; whoever builds a profile by hand must not write to them
    after the first pricing.  Nothing derived from the arrays is kept:
    a profile cache holds thousands of profiles, so even a few hundred
    bytes each show in peak memory.

    Attributes:
        latencies / costs: Per-sample end-to-end values.
        energy_by_region: ``{region: (n,) kWh vector}`` (PUE-adjusted).
        bytes_by_route: ``{(src_region, dst_region): (n,) byte vector}``.
            Routes a plan *could* use are always present; a sample that
            skipped a route simply holds 0 bytes there.
    """

    latencies: "np.ndarray"
    costs: "np.ndarray"
    energy_by_region: Dict[str, "np.ndarray"]
    bytes_by_route: Dict[Tuple[str, str], "np.ndarray"]
    carbon_model: CarbonModel
    #: (mean latency, p95 latency, mean cost, p95 cost), set by the
    #: first pricing together with the route-bytes check.
    _hour_independent: Optional[Tuple[float, float, float, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_samples(self) -> int:
        return len(self.latencies)

    def carbon_samples(
        self, carbon_at: Callable[[str], float]
    ) -> "np.ndarray":
        """Per-sample total carbon under the given hourly intensities."""
        self._first_pricing()
        return self._add_transmission(
            self._exec_carbon_samples(carbon_at), carbon_at
        )

    def estimate_at(self, carbon_at: Callable[[str], float]) -> WorkflowEstimate:
        """Full :class:`WorkflowEstimate` under the given intensities."""
        mean_latency, tail_latency, mean_cost, tail_cost = self._first_pricing()
        exec_only = self._exec_carbon_samples(carbon_at)
        carbon = self._add_transmission(exec_only, carbon_at)
        return WorkflowEstimate(
            mean_latency_s=mean_latency,
            tail_latency_s=tail_latency,
            mean_cost_usd=mean_cost,
            tail_cost_usd=tail_cost,
            mean_carbon_g=_mean(carbon),
            tail_carbon_g=_p95(carbon),
            mean_exec_carbon_g=_mean(exec_only),
            mean_trans_carbon_g=_mean(carbon - exec_only),
            n_samples=self.n_samples,
        )

    def _first_pricing(self) -> Tuple[float, float, float, float]:
        stats = self._hour_independent
        if stats is None:
            for sizes in self.bytes_by_route.values():
                if np.any(sizes < 0):
                    raise ValueError("size_bytes must be non-negative")
            stats = self._hour_independent = (
                _mean(self.latencies),
                _p95(self.latencies),
                _mean(self.costs),
                _p95(self.costs),
            )
        return stats

    def _exec_carbon_samples(
        self, carbon_at: Callable[[str], float]
    ) -> "np.ndarray":
        out = np.zeros(self.n_samples)
        for region, energy in self.energy_by_region.items():
            out += energy * carbon_at(region)
        return out

    def _add_transmission(
        self, exec_carbon: "np.ndarray", carbon_at: Callable[[str], float]
    ) -> "np.ndarray":
        """``exec_carbon`` plus Eq. 7.5 per route, as a new vector.  The
        energy factor depends on the route only through ``src == dst``,
        so the scenario is asked twice per call, not once per route."""
        energy_factor = self.carbon_model.scenario.energy_factor
        intra, inter = energy_factor(True), energy_factor(False)
        out = exec_carbon.copy()
        for (src, dst), sizes in self.bytes_by_route.items():
            route_intensity = (carbon_at(src) + carbon_at(dst)) / 2.0
            factor = intra if src == dst else inter
            out += (route_intensity * factor) * (sizes / _BYTES_PER_GB)
        return out


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


@dataclass(frozen=True)
class _EdgeSpec:
    """One DAG edge as the estimator sees it; read from ``data`` once."""

    key: Tuple[str, str]
    src: str
    #: Column of the batch's uniform matrix, ``None`` if unconditional.
    cond_col: Optional[int]
    probability: float
    #: Unconditional from a guaranteed node: taken in every sample.
    always_active: bool
    sizes: "np.ndarray"  # payload-size support, bytes


@dataclass(frozen=True)
class _NodeSpec:
    """One DAG node's region-independent facts; read from ``data`` once."""

    name: str
    in_edges: Tuple[_EdgeSpec, ...]
    is_sync: bool
    #: Runs in every sample (``WorkflowDAG.guaranteed_nodes``).
    guaranteed: bool
    memory_mb: float
    n_vcpu: float
    cpu_utilization: float
    #: ``(region, bytes)`` of pinned external data, or ``None``.
    external: Optional[Tuple[str, float]]


@dataclass(frozen=True)
class _WorkflowSpec:
    """The plan-independent half of a profile run."""

    nodes: Tuple[_NodeSpec, ...]  # topological order
    n_conditional: int
    input_sizes: "np.ndarray"  # end-user input-size support, bytes


@dataclass(frozen=True)
class _NodeTable:
    """A node priced in one region, over its execution-time support.

    ``durations`` is the support plus the (scalar) external-data read
    latency; ``energy`` (kWh, PUE-adjusted) and ``exec_cost`` (USD) are
    the models' ``*_batch`` methods applied to it.  Gathering any of the
    three by a drawn index vector gives what the same method returns on
    the drawn durations, bit for bit — all three are elementwise.
    """

    exec_times: "np.ndarray"
    durations: "np.ndarray"
    energy: "np.ndarray"
    exec_cost: "np.ndarray"
    external_route: Optional[Tuple[str, str]]
    external_bytes: "np.ndarray"  # 0-d, like the next
    external_cost: "np.ndarray"


@dataclass(frozen=True)
class _InputTable:
    """The end-user input priced from the client to one start region,
    over the input-size support."""

    route: Tuple[str, str]  # (client, start region)
    arrival: "np.ndarray"  # s
    egress: "np.ndarray"  # USD


#: One network leg of an edge: ``(route, one-way s, bandwidth B/s, USD/GB)``
#: — scalars only (as 0-d arrays, see ``_scalar``); the batch combines
#: them with the gathered payload sizes.
_Leg = Tuple[Tuple[str, str], "np.ndarray", "np.ndarray", "np.ndarray"]


class _NodeStep(NamedTuple):
    """A node under one plan: its spec, region and priced tables, and per
    in-edge the legs its payload travels (one, or two through the KV
    region for a sync node).  Built per profile, hence a tuple."""

    spec: _NodeSpec
    region: str
    table: _NodeTable
    input_table: Optional[_InputTable]  # start node only
    legs: Tuple[Tuple[_Leg, ...], ...]
    publish_cost: "np.ndarray"  # 0-d


class _PlanSteps(NamedTuple):
    """A plan resolved against the estimator's tables, in topological
    order: everything a batch needs besides its random draws."""

    workflow: "_WorkflowSpec"
    nodes: Tuple[_NodeStep, ...]
    #: 0-d: plan retrieval per executed node; and a sync fan-in's
    #: annotation update + data write + data read.
    kv_read_cost: "np.ndarray"
    kv_relay_cost: "np.ndarray"
    #: ``(m, 1)`` int64: the length of every support a batch draws
    #: indices into, one row per distribution in draw order.
    highs: "np.ndarray"


def _add(target: "np.ndarray", values, mask: Optional["np.ndarray"]) -> None:
    """``target += values`` where ``mask`` holds; everywhere if ``None``.

    The unmasked form is exact, not an approximation of the masked one:
    ``np.where(all_true, values, 0.0)`` *is* ``values``.
    """
    if mask is None:
        target += values
    else:
        target += np.where(mask, values, 0.0)


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


class MonteCarloEstimator:
    """Estimates end-to-end workflow metrics for a deployment plan.

    ``data`` must not change while the estimator is in use: everything
    read from it (and everything the pricing models derive from it) is
    computed once and kept for the estimator's lifetime — see "What is
    computed when" in the module docstring.  Build the estimator after
    the metrics have been collected, and a new one after they move.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        data: WorkflowModelData,
        carbon_model: CarbonModel,
        cost_model: CostModel,
        latency_model: TransferLatencyModel,
        rng: np.random.Generator,
        kv_region: Optional[str] = None,
        client_region: Optional[str] = None,
        batch_size: int = BATCH_SIZE,
        max_samples: int = MAX_SAMPLES,
        cov_threshold: float = COV_THRESHOLD,
        stats: Optional[EstimatorStatsSink] = None,
    ):
        """Args:
        dag: The workflow structure.
        data: Learned behaviour (distributions, probabilities).
        carbon_model / cost_model / latency_model: Pricing models.
        rng: Random stream (callers pass a solver-owned stream).
        kv_region: Region hosting the distributed KV store; sync-node
            intermediate data is relayed through it (§4 / Fig. 5).
            Defaults to the plan's start-node region per evaluation.
        client_region: Region the invocation client sits at/near (§6.2)
            — the source of the end-user input transfer.  The
            :class:`~repro.core.solver.evaluation.PlanEvaluator` threads
            the workflow home region here; when ``None`` the estimator
            falls back to ``kv_region`` and then to the plan's
            start-node region (so a shifted start node would be priced
            as free input transfer — a ``UserWarning`` is emitted at
            construction; pass it explicitly).
        batch_size / max_samples / cov_threshold: Stopping rule knobs
            (paper defaults: 200 / 2000 / 0.05).
        stats: Optional counter sink (``SolverStats``); the estimator
            increments ``simulations_run`` and ``samples_drawn``.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        if client_region is None:
            warnings.warn(
                "MonteCarloEstimator constructed without client_region: the "
                "end-user input transfer will be priced from the KV region "
                "or the plan's start-node region, so a plan that shifts the "
                "start node gets its input transfer under-priced (or free). "
                "Pass the workflow home region explicitly.",
                UserWarning,
                stacklevel=2,
            )
        self._dag = dag
        self._data = data
        self._carbon = carbon_model
        self._cost = cost_model
        self._latency = latency_model
        self._rng = rng
        # One salt drawn up front; every plan's draws come from a fresh
        # substream keyed by (salt, plan digest) — see the module
        # docstring's determinism note.
        self._plan_salt = int(rng.integers(0, 2**63 - 1))
        self._kv_region = kv_region
        self._client_region = client_region
        self._batch = batch_size
        self._max = max_samples
        self._cov = cov_threshold
        self._stats = stats
        self._order = dag.topological_order()
        # Everything read from ``data`` or priced by the models, filled
        # on first use and kept for the estimator's lifetime.
        self._workflow: Optional[_WorkflowSpec] = None
        self._node_tables: Dict[Tuple[str, str], _NodeTable] = {}
        self._input_tables: Dict[Tuple[str, str], _InputTable] = {}
        self._route_legs: Dict[Tuple[str, str], _Leg] = {}
        self._publish_costs: Dict[str, np.ndarray] = {}
        self._kv_costs: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def estimate(
        self,
        plan: DeploymentPlan,
        carbon_at: Callable[[str], float],
    ) -> WorkflowEstimate:
        """Run simulations until the stopping rule fires.

        Args:
            plan: Candidate deployment plan covering every DAG node.
            carbon_at: ``region -> gCO2eq/kWh`` at the hour under
                evaluation (actual or forecast intensity).
        """
        return self.estimate_profile(plan).estimate_at(carbon_at)

    def estimate_profile(self, plan: DeploymentPlan) -> PlanProfile:
        """Run the Monte-Carlo simulation collecting an hour-independent
        :class:`PlanProfile` (see its docstring).  The stopping rule is
        applied to the latency and cost estimators, since carbon is a
        deterministic re-pricing of the collected energy/byte vectors.

        Results accumulate into one preallocated ``max_samples`` buffer
        through slice views, so each convergence check reads a
        contiguous prefix.  The final batch is clamped
        to the remaining budget, so the sample cap is honoured exactly
        even when ``batch_size`` does not divide ``max_samples``.
        """
        self._check_coverage(plan)
        rng = self.plan_rng(plan)
        steps = self._plan_steps(plan)
        full = self._make_accumulators(steps, self._max)
        n_total = 0
        while n_total < self._max:
            n = min(self._batch, self._max - n_total)
            draws = self._draw_batch(steps, n, rng)
            self._simulate_batch(steps, draws, full.window(n_total, n_total + n))
            n_total += n
            if self._converged(full.latency[:n_total], full.cost[:n_total]):
                break

        if self._stats is not None:
            self._stats.simulations_run += 1
            self._stats.samples_drawn += n_total
        return self._profile_from(full, n_total)

    def estimate_profiles(
        self, plans: Sequence[DeploymentPlan]
    ) -> List[PlanProfile]:
        """Profile many candidate plans: one :meth:`estimate_profile`
        run per distinct plan, in first-seen order.

        Each plan draws from its own digest-keyed substream, so results
        are bit-identical to per-plan :meth:`estimate_profile` calls in
        any order.  Duplicate plans (same digest) are simulated once and
        share the resulting profile object.
        """
        for plan in plans:
            self._check_coverage(plan)
        by_digest: Dict[str, PlanProfile] = {}
        for plan in plans:
            digest = plan.digest()
            if digest not in by_digest:
                by_digest[digest] = self.estimate_profile(plan)
        return [by_digest[plan.digest()] for plan in plans]

    # -- internals -----------------------------------------------------------
    def _check_coverage(self, plan: DeploymentPlan) -> None:
        if not plan.covers(self._dag):
            missing = set(self._dag.node_names) - set(plan.assignments)
            raise ValueError(f"plan does not cover nodes: {sorted(missing)}")

    def _profile_from(self, full: _BatchAccumulators, n: int) -> PlanProfile:
        # One copy of the filled prefix, read-only so what the profile
        # computes once on its first pricing can never go stale; every
        # vector the profile holds is a row of it.
        buffer = full.buffer[:, :n].copy()
        buffer.setflags(write=False)
        rows = _BatchAccumulators(buffer, full.energy, full.route_bytes)
        return PlanProfile(
            latencies=rows.latency,
            costs=rows.cost,
            energy_by_region=rows.energy,
            bytes_by_route=rows.route_bytes,
            carbon_model=self._carbon,
        )

    def _converged(self, *series: "np.ndarray") -> bool:
        """Relative-standard-error stopping rule, with the degenerate
        cases handled explicitly:

        * fewer than two samples: never converged (``std(ddof=1)`` of a
          single sample is NaN, which would silently compare False);
        * exactly zero variance: converged — the series is
          deterministic, whatever its mean (including 0, e.g. a cost
          series under all-free pricing);
        * non-positive mean with spread: *not* converged — a relative
          error is meaningless there, so sampling continues to the cap
          rather than stopping blind.
        """
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

    def _client_and_kv(self, plan: DeploymentPlan) -> Tuple[str, str]:
        """Resolve the client and KV regions for one evaluation."""
        kv = self._kv_region or plan.region_of(self._dag.start_node)
        client = self._client_region or kv
        return client, kv

    def plan_rng(self, plan: DeploymentPlan) -> np.random.Generator:
        """The plan's dedicated substream (fresh generator each call)."""
        return np.random.default_rng(
            derive_seed(self._plan_salt, plan.digest())
        )

    # -- per-estimator tables (filled lazily, never invalidated) -----------
    def _workflow_spec(self) -> _WorkflowSpec:
        """The DAG in topological order with every region-independent
        fact the kernel needs, read from ``data`` exactly once."""
        if self._workflow is not None:
            return self._workflow
        dag, data = self._dag, self._data
        guaranteed = dag.guaranteed_nodes()
        cond_cols = {
            (e.src, e.dst): j
            for j, e in enumerate(e for e in dag.edges if e.conditional)
        }
        specs = []
        for node in self._order:
            in_edges = []
            for e in dag.in_edges(node):
                key = (e.src, e.dst)
                sizes = data.edge_size_dist(e.src, e.dst).support()
                # Routes are priced from scalars on the gathered sizes,
                # past the models' ``*_batch`` methods: their size check
                # is made here instead, once.
                if np.any(sizes < 0):
                    raise ValueError("size_bytes must be non-negative")
                in_edges.append(
                    _EdgeSpec(
                        key=key,
                        src=e.src,
                        cond_col=cond_cols.get(key),
                        probability=(
                            data.edge_probability(e.src, e.dst)
                            if e.conditional
                            else 1.0
                        ),
                        always_active=(
                            not e.conditional and e.src in guaranteed
                        ),
                        sizes=sizes,
                    )
                )
            ext_region, ext_bytes = data.node_external_bytes(node)
            specs.append(
                _NodeSpec(
                    name=node,
                    in_edges=tuple(in_edges),
                    is_sync=dag.is_sync_node(node),
                    guaranteed=node in guaranteed,
                    memory_mb=data.node_memory_mb(node),
                    n_vcpu=data.node_vcpu(node),
                    cpu_utilization=data.node_cpu_utilization(node),
                    external=(
                        (ext_region, ext_bytes)
                        if ext_region is not None and ext_bytes > 0
                        else None
                    ),
                )
            )
        self._workflow = _WorkflowSpec(
            nodes=tuple(specs),
            n_conditional=len(cond_cols),
            input_sizes=data.input_size_dist().support(),
        )
        return self._workflow

    def _node_table(self, spec: _NodeSpec, region: str) -> _NodeTable:
        table = self._node_tables.get((spec.name, region))
        if table is not None:
            return table
        exec_times = self._data.execution_time_dist(spec.name, region).support()
        durations = exec_times
        external_route, external_bytes, external_cost = None, _ZERO, _ZERO
        if spec.external is not None:
            # Fixed external data reads follow the node when it moves
            # (§9.1: external storage stays at the home region).
            ext_region, external_bytes = spec.external
            external_route = (ext_region, region)
            durations = exec_times + self._latency.estimate(
                ext_region, region, external_bytes
            )
            external_cost = _scalar(
                self._cost.transmission_cost(ext_region, region, external_bytes)
            )
            external_bytes = _scalar(external_bytes)
        energy = (
            self._carbon.execution_energy_kwh_batch(
                durations_s=durations,
                memory_mb=spec.memory_mb,
                n_vcpu=spec.n_vcpu,
                cpu_total_times_s=durations * spec.n_vcpu * spec.cpu_utilization,
            )
            * self._carbon.pue
        )
        table = self._node_tables[(spec.name, region)] = _NodeTable(
            exec_times=exec_times,
            durations=durations,
            energy=energy,
            exec_cost=self._cost.execution_cost_batch(
                region, durations, spec.memory_mb
            ),
            external_route=external_route,
            external_bytes=external_bytes,
            external_cost=external_cost,
        )
        return table

    def _input_table(self, client: str, region: str) -> _InputTable:
        table = self._input_tables.get((client, region))
        if table is None:
            sizes = self._workflow_spec().input_sizes
            table = self._input_tables[(client, region)] = _InputTable(
                route=(client, region),
                arrival=self._latency.estimate_batch(client, region, sizes),
                egress=self._cost.transmission_cost_batch(client, region, sizes),
            )
        return table

    def _leg(self, src: str, dst: str) -> _Leg:
        leg = self._route_legs.get((src, dst))
        if leg is None:
            one_way, bandwidth = self._latency.route_terms(src, dst)
            leg = self._route_legs[(src, dst)] = (
                (src, dst),
                _scalar(one_way),
                _scalar(bandwidth),
                _scalar(self._cost.egress_per_gb(src, dst)),
            )
        return leg

    def _plan_steps(self, plan: DeploymentPlan) -> _PlanSteps:
        """Resolve ``plan`` against the tables: dictionary lookups only,
        once every key it touches has been priced."""
        client, kv = self._client_and_kv(plan)
        kv_costs = self._kv_costs.get(kv)
        if kv_costs is None:
            kv_costs = self._kv_costs[kv] = (
                _scalar(self._cost.kv_cost(kv, n_reads=1)),
                _scalar(self._cost.kv_cost(kv, n_reads=1, n_writes=2)),
            )
        workflow = self._workflow_spec()
        region_of = plan.assignments
        nodes = []
        highs = [len(workflow.input_sizes)]
        for spec in workflow.nodes:
            region = region_of[spec.name]
            input_table = None
            if not spec.in_edges:
                # The end-user input arrives from the client near the
                # home region (§6.2); a shifted start node pays for it.
                input_table = self._input_table(client, region)
                legs: Tuple[Tuple[_Leg, ...], ...] = ()
            elif spec.is_sync:
                # Fan-in data is relayed through the KV store (Fig. 5):
                # src -> KV region -> sync node.
                kv_to_node = self._leg(kv, region)
                legs = tuple(
                    (self._leg(region_of[e.src], kv), kv_to_node)
                    for e in spec.in_edges
                )
            else:
                legs = tuple(
                    (self._leg(region_of[e.src], region),)
                    for e in spec.in_edges
                )
            publish_cost = self._publish_costs.get(region)
            if publish_cost is None:
                publish_cost = self._publish_costs[region] = _scalar(
                    self._cost.messaging_cost(region)
                )
            table = self._node_table(spec, region)
            for edge in spec.in_edges:
                highs.append(len(edge.sizes))
            highs.append(len(table.exec_times))
            nodes.append(
                _NodeStep(spec, region, table, input_table, legs, publish_cost)
            )
        return _PlanSteps(
            workflow,
            tuple(nodes),
            *kv_costs,
            np.array(highs, dtype=np.int64).reshape(-1, 1),
        )

    # -- per-batch work ------------------------------------------------------
    def _draw_batch(
        self, steps: _PlanSteps, n: int, rng: np.random.Generator
    ) -> _BatchDraws:
        """Draw one batch of randomness in the canonical order (see the
        determinism note in the module docstring): at most one
        ``random`` and exactly one ``integers`` call.  The only place a
        profile consumes its RNG stream."""
        workflow = steps.workflow
        uniforms = None
        if workflow.n_conditional:
            uniforms = rng.random((n, workflow.n_conditional))
        rows = iter(rng.integers(0, steps.highs, size=(len(steps.highs), n)))
        input_idx = next(rows)
        edge_idx: Dict[Tuple[str, str], np.ndarray] = {}
        exec_idx: Dict[str, np.ndarray] = {}
        for step in steps.nodes:
            for edge in step.spec.in_edges:
                edge_idx[edge.key] = next(rows)
            exec_idx[step.spec.name] = next(rows)
        return _BatchDraws(
            n=n,
            uniforms=uniforms,
            input_idx=input_idx,
            edge_idx=edge_idx,
            exec_idx=exec_idx,
        )

    def _make_accumulators(
        self, steps: _PlanSteps, n: int
    ) -> _BatchAccumulators:
        """One zeroed buffer with a row for every energy region and byte
        route the plan can touch, keyed in processing order (see
        :class:`_BatchAccumulators`)."""
        regions: Dict[str, None] = {}
        routes: Dict[Tuple[str, str], None] = {}
        for step in steps.nodes:
            if step.input_table is not None:
                routes[step.input_table.route] = None
            for edge_legs in step.legs:
                for route, _one_way, _bandwidth, _per_gb in edge_legs:
                    routes[route] = None
            if step.table.external_route is not None:
                routes[step.table.external_route] = None
            regions[step.region] = None
        buffer = np.zeros((2 + len(regions) + len(routes), n))
        return _BatchAccumulators(buffer, regions, routes)

    def _simulate_batch(
        self, steps: _PlanSteps, draws: _BatchDraws, acc: _BatchAccumulators
    ) -> None:
        """The production kernel: one topological walk prices the whole
        batch with ``(n,)`` array ops, gathering every per-sample
        quantity from the priced tables by the drawn indices.

        ``None`` as an execution mask means *every sample*: guaranteed
        nodes and always-active edges (a property of the DAG alone) take
        the unmasked arithmetic, everything else the masked one.
        """
        n = draws.n
        cost = acc.cost
        route_bytes = acc.route_bytes
        kv_read_cost = steps.kv_read_cost
        executed: Dict[str, Optional[np.ndarray]] = {}
        finish: Dict[str, np.ndarray] = {}
        # The start node runs in every sample, so the running maximum is
        # over a non-empty set for each of them.
        latency = None

        for spec, region, table, input_table, legs, publish in steps.nodes:
            exec_mask = None
            if input_table is not None:
                idx = draws.input_idx
                arrival = input_table.arrival[idx]
                route_bytes[input_table.route] += (
                    steps.workflow.input_sizes[idx]
                )
                cost += input_table.egress[idx]
            else:
                arrival = _ZERO
                for edge, edge_legs in zip(spec.in_edges, legs):
                    if edge.always_active:
                        active = None
                    else:
                        active = executed[edge.src]
                        if edge.cond_col is not None:
                            taken = (
                                draws.uniforms[:, edge.cond_col]
                                < edge.probability
                            )
                            active = taken if active is None else taken & active
                        if not active.any():
                            continue
                    sizes = edge.sizes[draws.edge_idx[edge.key]]
                    size_gb = sizes / _BYTES_PER_GB
                    edge_latency = None
                    for route, one_way, bandwidth, per_gb in edge_legs:
                        hop = one_way + sizes / bandwidth
                        edge_latency = (
                            hop if edge_latency is None else edge_latency + hop
                        )
                        _add(route_bytes[route], sizes, active)
                        _add(cost, per_gb * size_gb, active)
                    if spec.is_sync:
                        # Annotation update + data write + data read.
                        _add(cost, steps.kv_relay_cost, active)
                    # One SNS publish per taken edge (§6.2).
                    _add(cost, publish, active)
                    reached = np.maximum(arrival, finish[edge.src] + edge_latency)
                    if active is None:
                        arrival = reached
                    else:
                        arrival = np.where(active, reached, arrival)
                        exec_mask = (
                            active if exec_mask is None else exec_mask | active
                        )
                if spec.guaranteed:
                    exec_mask = None
                elif exec_mask is None:
                    # No in-edge fired in any sample of this batch.
                    exec_mask = np.zeros(n, dtype=bool)

            idx = draws.exec_idx[spec.name]
            if table.external_route is not None:
                _add(
                    route_bytes[table.external_route],
                    table.external_bytes,
                    exec_mask,
                )
                _add(cost, table.external_cost, exec_mask)
            done = finish[spec.name] = arrival + table.durations[idx]
            executed[spec.name] = exec_mask
            _add(acc.energy[region], table.energy[idx], exec_mask)
            _add(cost, table.exec_cost[idx], exec_mask)
            # Per-execution DP retrieval from the KV store (§6.2).
            _add(cost, kv_read_cost, exec_mask)
            if exec_mask is None:
                latency = done if latency is None else np.maximum(latency, done)
            else:
                latency = np.where(exec_mask, np.maximum(latency, done), latency)
        acc.latency[:] = latency

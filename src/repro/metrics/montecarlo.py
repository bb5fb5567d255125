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
caller-supplied generator, and a profile run seeds a fresh ``numpy``
generator from ``derive_seed(salt, plan.digest())``.  Two consequences
the solver stack relies on:

* profiles are **order-independent** — the order in which hours are
  solved, which plans share a cohort (see below), or a re-ordered
  cache-warming schedule cannot perturb any plan's draws;
* re-profiling the same plan on the same estimator reproduces the same
  result, which is what makes a digest-keyed profile cache semantically
  transparent (a hit equals a recompute).

Within one plan's profile run, randomness is consumed in *batch-major,
structure-minor* order, and only by ``_draw``.  Every bootstrap
draw is an *index* into the support of the distribution it resamples
(``EmpiricalDistribution.support()``).  For every batch of ``B``
simulations it draws, in this exact sequence:

1. one uniform matrix ``rng.random((B, n_conditional_edges))`` realising
   every conditional edge for the whole batch (edges enumerated in
   ``dag.edges`` order; no call when the DAG has none);
2. one index matrix ``rng.integers(0, highs, size=(m, B))``, where
   ``highs`` is the ``(m, 1)`` int64 column of support lengths (built
   once per plan, ``_Cohort.highs``) in this order: the end-user
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
The kernel profiles a *cohort*: ``estimate_profiles(plans)`` simulates
every distinct plan of the list together, and ``estimate_profile`` is
the cohort of one.  Everything the kernel derives from a drawn value —
Eq. 7.2-7.4 energy, Lambda cost, egress cost, transfer latency — is an
*elementwise* function ``f`` of it, so ``f(support)[idx] ==
f(support[idx])`` bit for bit, and an elementwise op on a ``(plans,
samples)`` array gives each plan's row what the same op gives that row
alone.  Each quantity is therefore paid for at the rate it changes:

* **once per estimator** (lazily, per key): the DAG walk order, in-edges,
  sync nodes, guaranteed nodes (``WorkflowDAG.guaranteed_nodes``), every
  ``node_*`` / ``edge_probability`` / ``*_dist`` read of ``data``; per
  *(node, region)* the durations, energy and execution cost over the
  execution-time support, appended to one array per quantity and node
  (``_Gather``); per *(client, region)* arrival latency and egress over
  the input-size support, appended likewise; per *route* three scalars
  (one-way latency, bandwidth, USD/GB); per region the SNS publish
  cost.  The models' ``*_batch`` methods run here, on the supports,
  with all their validation.  The two KV request costs at the home
  region are priced at construction;
* **once per plan**: its substream, and dictionary lookups resolving it
  against those tables (``_compile``): where each of its tables starts
  in the gathered arrays, the rows its regions and routes own in the
  run's result buffer, its route and cost scalars, and the column of
  support lengths its draw reads;
* **once per cohort**: those per-plan lists as one float and one int
  matrix, whose columns are the ``(P, 1)`` scalars and ``(P,)`` rows a
  batch reads, and one zeroed result buffer holding a block of rows per
  plan — latency, cost, one energy row per region, one byte row per
  route — every result vector of a profile a row of it;
* **once per cohort batch**: each running plan's two draw calls on its
  own stream; per table one gather through the per-plan offsets; the
  route arithmetic on the gathered payload sizes; each plan's additions
  into its own rows, in the order a lone run makes them; and the
  stopping rule, last-axis reductions over every running plan's
  latency and cost series at once (``_converged``).  A plan that has
  converged leaves the cohort, which is compiled again for the plans
  that run on; they all share the sample count, so the last batch is
  clamped for all of them.  A lone plan's batch runs on 1-D arrays, as
  a per-plan kernel would: its scalars are 0-d and its rows row
  numbers rather than columns and index arrays (cheaper numpy calls,
  the same doubles).

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
(float addition is not associative).  A batch skips an edge that no
sample of any plan takes; a plan whose own samples all skip it adds
``0.0``, which changes no accumulator.

The tests hold the path this kernel replaced as an oracle
(``tests/montecarlo_oracle.py::ScalarReferenceEstimator``): one plan at
a time, it draws the same indices one ``integers`` call per
distribution, reads ``support[idx[i]]`` and prices that one value with
the scalar model methods, one sample at a time.  The two produce
bit-identical :class:`PlanProfile`\\ s (and therefore bit-identical
:class:`WorkflowEstimate`\\ s) from identical seeds, whatever the cohort —
the property the differential tests in ``tests/test_montecarlo.py``,
``tests/test_montecarlo_kernel.py`` and ``tests/test_batched_eval.py``
lock down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
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
        estimator's ``home_region`` — so a plan that moves the start
        node pays this transfer cross-region; without it the solver
        would under-price offloading the entry stage of input-heavy
        workflows."""
        ...


class EstimatorStatsSink(Protocol):
    """Counter sink the estimator increments (see ``SolverStats``)."""

    simulations_run: int
    samples_drawn: int


class WorkflowEstimate:
    """Estimator output for one (plan, hour) pair.

    The means are computed when the estimate is made.  The three 95th
    percentiles are computed on first read and kept: only tolerance
    checks, the exact solver and verification read them.  For that the
    estimate holds its profile and the hour's intensity lookup — a
    reference to the evaluator's shared per-hour table, not a copy.
    Two estimates are equal when their nine public values are.
    """

    __slots__ = (
        "mean_latency_s",
        "mean_cost_usd",
        "mean_carbon_g",
        "mean_exec_carbon_g",
        "mean_trans_carbon_g",
        "n_samples",
        "_profile",
        "_carbon_at",
        "_tail_carbon_g",
    )

    def __init__(
        self,
        profile: "PlanProfile",
        carbon_at: Callable[[str], float],
        mean_latency_s: float,
        mean_cost_usd: float,
        mean_carbon_g: float,
        mean_exec_carbon_g: float,
        mean_trans_carbon_g: float,
    ):
        self.mean_latency_s = mean_latency_s
        self.mean_cost_usd = mean_cost_usd
        self.mean_carbon_g = mean_carbon_g
        self.mean_exec_carbon_g = mean_exec_carbon_g
        self.mean_trans_carbon_g = mean_trans_carbon_g
        self.n_samples = profile.n_samples
        self._profile = profile
        self._carbon_at = carbon_at
        self._tail_carbon_g: Optional[float] = None

    @property
    def tail_latency_s(self) -> float:
        return self._profile._tails()[0]

    @property
    def tail_cost_usd(self) -> float:
        return self._profile._tails()[1]

    @property
    def tail_carbon_g(self) -> float:
        tail = self._tail_carbon_g
        if tail is None:
            tail = self._tail_carbon_g = _p95(
                self._profile.carbon_samples(self._carbon_at)
            )
        return tail

    def metric(self, priority: str) -> float:
        """The scalar the solver orders plans by (§5.1)."""
        if priority == "carbon":
            return self.mean_carbon_g
        if priority == "cost":
            return self.mean_cost_usd
        if priority == "latency":
            return self.mean_latency_s
        raise ValueError(f"unknown priority {priority!r}")

    def _values(self) -> Tuple[float, ...]:
        return tuple(getattr(self, name) for name in _ESTIMATE_FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowEstimate):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        values = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(_ESTIMATE_FIELDS, self._values())
        )
        return f"WorkflowEstimate({values})"


#: A :class:`WorkflowEstimate`'s nine public values, compared by ``==``.
_ESTIMATE_FIELDS = (
    "mean_latency_s",
    "tail_latency_s",
    "mean_cost_usd",
    "tail_cost_usd",
    "mean_carbon_g",
    "tail_carbon_g",
    "mean_exec_carbon_g",
    "mean_trans_carbon_g",
    "n_samples",
)


_sum = np.add.reduce
_min = np.minimum.reduce


def _scalar(value: float) -> "np.ndarray":
    """``value`` as a 0-d float array: the same double in every ufunc,
    minus the Python-float conversion numpy repeats on each call."""
    out = np.array(value, dtype=float)
    out.setflags(write=False)
    return out


_BYTES_PER_GB = _scalar(GB)
_ZERO = _scalar(0.0)


def _mean_and_std(
    values: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """``(values.mean(axis=-1), values.std(axis=-1, ddof=1))`` of a float
    array with at least two elements per row — the same doubles, spelt
    as the ufunc calls numpy's own wrappers end in, minus their per-call
    argument handling.  A row of a ``(plans, n)`` cohort gets exactly
    what its own 1-D series would: the reductions run along the
    contiguous last axis.  Both equalities are the contract
    (``tests/test_montecarlo.py::TestConvergedDifferential``).
    """
    n = values.shape[-1]
    mean = _sum(values, axis=-1) / n
    deviations = values - mean[..., None]
    deviations *= deviations
    return mean, np.sqrt(_sum(deviations, axis=-1) / (n - 1))


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
    cost means, the per-region energy means, the per-route byte means
    and the check that no route carries negative bytes happen once per
    profile, on its first pricing, and the latency and cost p95s once,
    on the first read of either tail.  An hour's mean carbon is then a
    sum over regions and routes; only a carbon tail, when read, builds
    the hour's per-sample carbon vector.  That is sound because the
    arrays never change afterwards — the estimator hands them over
    read-only; whoever builds a profile by hand must not write to them
    after the first pricing.  Nothing else derived from the arrays is
    kept: a profile cache holds thousands of profiles, so even a few
    hundred bytes each show in peak memory.

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
    #: (mean latency, mean cost, per-region energy means, per-route
    #: byte means in GB), in ``energy_by_region`` / ``bytes_by_route``
    #: order; set by the first pricing together with the route-bytes
    #: check.
    _means: Optional[
        Tuple[float, float, Tuple[float, ...], Tuple[float, ...]]
    ] = field(default=None, init=False, repr=False, compare=False)
    #: (p95 latency, p95 cost), set by the first read of either tail.
    _tail_values: Optional[Tuple[float, float]] = field(
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
        """:class:`WorkflowEstimate` under the given intensities.

        Eq. 7.1/7.5 are linear in the intensities, so the mean carbon is
        priced from the per-region energy means and per-route byte means
        as an O(regions + routes) sum — within a few ulps of the mean of
        :meth:`carbon_samples`, which only the carbon tail reads."""
        mean_latency, mean_cost, energy_means, gb_means = self._first_pricing()
        exec_carbon = 0.0
        for region, energy in zip(self.energy_by_region, energy_means):
            exec_carbon += energy * carbon_at(region)
        energy_factor = self.carbon_model.scenario.energy_factor
        intra, inter = energy_factor(True), energy_factor(False)
        trans_carbon = 0.0
        for (src, dst), size_gb in zip(self.bytes_by_route, gb_means):
            route_intensity = (carbon_at(src) + carbon_at(dst)) / 2.0
            factor = intra if src == dst else inter
            trans_carbon += (route_intensity * factor) * size_gb
        return WorkflowEstimate(
            self,
            carbon_at,
            mean_latency_s=mean_latency,
            mean_cost_usd=mean_cost,
            mean_carbon_g=exec_carbon + trans_carbon,
            mean_exec_carbon_g=exec_carbon,
            mean_trans_carbon_g=trans_carbon,
        )

    def _first_pricing(
        self,
    ) -> Tuple[float, float, Tuple[float, ...], Tuple[float, ...]]:
        means = self._means
        if means is None:
            n_regions = len(self.energy_by_region)
            rows = np.array(
                [
                    self.latencies,
                    self.costs,
                    *self.energy_by_region.values(),
                    *self.bytes_by_route.values(),
                ]
            )
            if self.bytes_by_route and _min(rows[2 + n_regions:], axis=None) < 0:
                raise ValueError("size_bytes must be non-negative")
            # Row by row the double ``np.add.reduce(row) / n`` gives each
            # row alone (the axis-1 reduction contract ``_mean_and_std``
            # relies on).
            row_means = (_sum(rows, axis=1) / rows.shape[1]).tolist()
            means = self._means = (
                row_means[0],
                row_means[1],
                tuple(row_means[2:2 + n_regions]),
                tuple(m / GB for m in row_means[2 + n_regions:]),
            )
        return means

    def _tails(self) -> Tuple[float, float]:
        """(p95 latency, p95 cost), computed on the first call."""
        tails = self._tail_values
        if tails is None:
            tails = self._tail_values = (_p95(self.latencies), _p95(self.costs))
        return tails

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
    external_cost: float  # USD per execution, 0.0 without external data


@dataclass(frozen=True)
class _InputTable:
    """The end-user input priced from the client to one start region,
    over the input-size support."""

    route: Tuple[str, str]  # (client, start region)
    arrival: "np.ndarray"  # s
    egress: "np.ndarray"  # USD


class _Gather:
    """Tables of one kind laid end to end, so a cohort gathers every
    plan's values with one index array: ``offset[key]`` is where the
    table of ``key`` (a region, or a ``(client, region)`` route) starts
    in each of ``arrays``.  Grown by appending, never reordered."""

    __slots__ = ("offset", "arrays")

    def __init__(self) -> None:
        self.offset: Dict[object, int] = {}
        self.arrays: Tuple["np.ndarray", ...] = ()

    def append(self, key: object, arrays: Sequence["np.ndarray"]) -> None:
        size = len(self.arrays[0]) if self.arrays else 0
        self.offset[key] = size
        self.arrays = (
            tuple(np.concatenate(pair) for pair in zip(self.arrays, arrays))
            if self.arrays
            else tuple(arrays)
        )


class _Leg(NamedTuple):
    """One network leg of an edge across a cohort: per plan, the result
    row its route's bytes accumulate in, and the route's one-way latency
    (s), bandwidth (B/s) and USD/GB as ``(P, 1)`` columns."""

    rows: "np.ndarray"  # (P,) int
    one_way: "np.ndarray"
    bandwidth: "np.ndarray"
    per_gb: "np.ndarray"


class _InputStep(NamedTuple):
    """The start node's end-user input across a cohort."""

    at: "np.ndarray"  # (P, 1) offsets into ``arrival`` / ``egress``
    rows: "np.ndarray"  # (P,) rows of the (client, start region) routes
    arrival: "np.ndarray"
    egress: "np.ndarray"


class _NodeStep(NamedTuple):
    """One DAG node across a cohort: what each plan's placement of it
    adds to a batch, as per-plan offsets, rows and columns."""

    spec: _NodeSpec
    #: Rows of the index draw: each in-edge's payload size, then the
    #: execution time.
    edge_draws: Tuple[int, ...]
    exec_draw: int
    input: Optional[_InputStep]  # start node only
    #: Per in-edge, its legs (one, or two through the KV region for a
    #: sync node).
    legs: Tuple[Tuple[_Leg, ...], ...]
    external_rows: Optional["np.ndarray"]  # (P,), with pinned data only
    external_bytes: "np.ndarray"  # 0-d
    external_cost: "np.ndarray"  # (P, 1)
    at: "np.ndarray"  # (P, 1) offsets into the node's gathered tables
    energy_rows: "np.ndarray"  # (P,)
    publish_cost: "np.ndarray"  # (P, 1)
    durations: "np.ndarray"
    energy: "np.ndarray"
    exec_cost: "np.ndarray"


class _Layout(NamedTuple):
    """One plan's block of result rows: latency, cost, then a row for
    every energy region and byte route the plan *could* touch, numbered
    in processing order.  The two dicts keep that order too, so the
    kernel and the tests' scalar oracle accumulate — and the profile
    later sums — in the same key order, which bit-identity needs."""

    regions: Dict[str, int]
    routes: Dict[Tuple[str, str], int]

    @property
    def size(self) -> int:
        return 2 + len(self.regions) + len(self.routes)


class _Cohort(NamedTuple):
    """Plans resolved against the estimator's tables, in topological
    order: everything a batch needs besides its random draws.  Result
    rows are rows of the run's buffer, where each plan owns a block.
    A lone plan's ``(P, 1)`` columns are 0-d and its ``(P,)`` rows one
    row number (see ``MonteCarloEstimator._compile``)."""

    layouts: Tuple[_Layout, ...]
    #: (P,) the first row of each plan's block.
    starts: "np.ndarray"
    nodes: Tuple[_NodeStep, ...]
    #: Per plan, the ``(m, 1)`` int64 column of the length of every
    #: support a batch draws indices into, one row per distribution in
    #: draw order.
    highs: Tuple["np.ndarray", ...]


def _add(target: "np.ndarray", values, mask: Optional["np.ndarray"]) -> None:
    """``target += values`` where ``mask`` holds; everywhere if ``None``.

    The unmasked form is exact, not an approximation of the masked one:
    ``np.where(all_true, values, 0.0)`` *is* ``values``.
    """
    if mask is None:
        target += values
    else:
        target += np.where(mask, values, 0.0)


def _add_rows(
    target: "np.ndarray",
    rows: "np.ndarray",
    values,
    mask: Optional["np.ndarray"],
) -> None:
    """:func:`_add` into ``target[rows]``: one row per plan (an index
    array, or a lone plan's row number), so no row appears twice."""
    if mask is None:
        target[rows] += values
    else:
        target[rows] += np.where(mask, values, 0.0)


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
        home_region: str,
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
        home_region: The workflow's home region.  It hosts the
            framework KV store, through which sync-node intermediate
            data is relayed (§4 / Fig. 5), and the invocation client sits
            at/near it (§6.2), so it is the source of the end-user input
            transfer: a plan that shifts the start node pays for it.
        batch_size / max_samples / cov_threshold: Stopping rule knobs
            (paper defaults: 200 / 2000 / 0.05).
        stats: Optional counter sink (``SolverStats``); the estimator
            increments ``simulations_run`` and ``samples_drawn``.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
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
        self._home = home_region
        # Per executed node: the plan retrieval; per taken sync fan-in
        # edge: the annotation update + data write + data read.
        self._kv_read_cost = _scalar(cost_model.kv_cost(home_region, n_reads=1))
        self._kv_relay_cost = _scalar(
            cost_model.kv_cost(home_region, n_reads=1, n_writes=2)
        )
        self._batch = batch_size
        self._max = max_samples
        self._cov = cov_threshold
        self._stats = stats
        self._order = dag.topological_order()
        # Everything read from ``data`` or priced by the models, filled
        # on first use and kept for the estimator's lifetime.
        self._workflow: Optional[_WorkflowSpec] = None
        self._node_tables: Dict[Tuple[str, str], _NodeTable] = {}
        self._node_gathers: Dict[str, _Gather] = {}
        self._input_tables: Dict[Tuple[str, str], _InputTable] = {}
        self._input_gather = _Gather()
        self._route_legs: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
        self._publish_costs: Dict[str, float] = {}

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
        :class:`PlanProfile` (see its docstring): a cohort of one, see
        :meth:`estimate_profiles`."""
        self._check_coverage(plan)
        return self._profile_cohort([plan])[0]

    def estimate_profiles(
        self, plans: Sequence[DeploymentPlan]
    ) -> List[PlanProfile]:
        """Profile many candidate plans as one cohort: every batch
        simulates all of its still-running plans with ``(plans,
        samples)``-wide array ops.

        Each plan draws from its own digest-keyed substream and stops on
        its own, so every profile is bit-identical to a solo
        :meth:`estimate_profile` call, in any order and in any company.
        Duplicate plans (same digest) are simulated once and share the
        resulting profile object.
        """
        for plan in plans:
            self._check_coverage(plan)
        distinct: Dict[str, DeploymentPlan] = {}
        for plan in plans:
            distinct.setdefault(plan.digest(), plan)
        if not distinct:
            return []
        by_digest = dict(
            zip(distinct, self._profile_cohort(list(distinct.values())))
        )
        return [by_digest[plan.digest()] for plan in plans]

    # -- internals -----------------------------------------------------------
    def _check_coverage(self, plan: DeploymentPlan) -> None:
        if not plan.covers(self._dag):
            missing = set(self._dag.node_names) - set(plan.assignments)
            raise ValueError(f"plan does not cover nodes: {sorted(missing)}")

    def _profile_cohort(
        self, plans: Sequence[DeploymentPlan]
    ) -> List[PlanProfile]:
        """Simulate distinct ``plans`` batch by batch until each plan's
        stopping rule fires.

        Every plan accumulates into its own block of rows of one
        preallocated ``max_samples``-wide buffer, so each convergence
        check reads a prefix.  Running plans share the sample count, so
        the final batch is clamped to the remaining budget for all of
        them and the sample cap is honoured exactly even when
        ``batch_size`` does not divide ``max_samples``.  A plan that has
        converged leaves the cohort; the others run on.
        """
        rngs = [self.plan_rng(plan) for plan in plans]
        cohort = self._compile(plans)
        starts = cohort.starts
        sizes = [layout.size for layout in cohort.layouts]
        full = np.zeros((sum(sizes), self._max))
        profiles: List[Optional[PlanProfile]] = [None] * len(plans)
        running = list(range(len(plans)))
        n_total = 0
        while True:
            first = cohort.starts
            n = min(self._batch, self._max - n_total)
            hi = n_total + n
            latency, cost = self._simulate(
                cohort,
                *self._draw([rngs[i] for i in running], cohort.highs, n),
                full[:, n_total:hi],
            )
            full[first, n_total:hi] = latency
            full[first + 1, n_total:hi] = cost
            n_total = hi
            if n_total == self._max:
                stopped = [True] * len(running)
            elif n_total == n:  # the first batch is the whole prefix
                stopped = self._converged(latency, cost).reshape(-1).tolist()
            else:
                stopped = self._converged(
                    full[first, :hi], full[first + 1, :hi]
                ).tolist()
            for i, layout, stop in zip(running, cohort.layouts, stopped):
                if stop:
                    start = starts[i]
                    profiles[i] = self._profile_from(
                        full[start:start + sizes[i], :hi].copy(), layout
                    )
            if all(stopped):
                break
            if any(stopped):
                running = [i for i, stop in zip(running, stopped) if not stop]
                cohort = self._compile(
                    [plans[i] for i in running], starts[running]
                )

        if self._stats is not None:
            self._stats.simulations_run += len(plans)
            self._stats.samples_drawn += sum(p.n_samples for p in profiles)
        return profiles

    def _profile_from(self, buffer: "np.ndarray", layout: _Layout) -> PlanProfile:
        # A copy of the plan's filled prefix, read-only so what the
        # profile computes once on its first pricing can never go stale;
        # every vector the profile holds is a row of it.
        buffer.setflags(write=False)
        return PlanProfile(
            latencies=buffer[0],
            costs=buffer[1],
            energy_by_region={r: buffer[i] for r, i in layout.regions.items()},
            bytes_by_route={k: buffer[i] for k, i in layout.routes.items()},
            carbon_model=self._carbon,
        )

    def _converged(self, *series: "np.ndarray") -> "np.ndarray":
        """Relative-standard-error stopping rule, per row of the
        ``(plans, n)`` series (a 1-D series is one plan's, and gets a
        0-d answer), with the degenerate cases handled explicitly:

        * fewer than two samples: never converged (``std(ddof=1)`` of a
          single sample is NaN, which would silently compare False);
        * exactly zero variance: converged — the series is
          deterministic, whatever its mean (including 0, e.g. a cost
          series under all-free pricing);
        * non-positive mean with spread: *not* converged — a relative
          error is meaningless there, so sampling continues to the cap
          rather than stopping blind.

        The series are stacked and decided in one pass.  A row's
        decision is the one a single plan's 1-D series would get: the
        last-axis reductions give each row the doubles a 1-D reduction
        gives it (``tests/test_montecarlo.py::
        TestConvergedDifferential``, on the numpy floor too).
        """
        values = np.array(series)
        n = values.shape[-1]
        if n < 2:
            return np.zeros(values.shape[1:-1], dtype=bool)
        mean, std = _mean_and_std(values)
        # Rows with a non-positive mean are decided by ``mean <= 0``;
        # dividing them by 1.0 instead keeps the division quiet.
        relative_error = std / math.sqrt(n) / np.where(mean > 0, mean, 1.0)
        converged = (std == 0.0) | ~((mean <= 0) | (relative_error >= self._cov))
        return converged.all(axis=0)

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
        external_route, external_cost = None, 0.0
        if spec.external is not None:
            # Fixed external data reads follow the node when it moves
            # (§9.1: external storage stays at the home region).
            ext_region, external_bytes = spec.external
            external_route = (ext_region, region)
            durations = exec_times + self._latency.estimate(
                ext_region, region, external_bytes
            )
            external_cost = self._cost.transmission_cost(
                ext_region, region, external_bytes
            )
        energy = (
            self._carbon.execution_energy_kwh_batch(
                durations_s=durations,
                memory_mb=spec.memory_mb,
                n_vcpu=spec.n_vcpu,
                cpu_total_times_s=durations * spec.n_vcpu * spec.cpu_utilization,
            )
            * self._carbon.pue
        )
        table = _NodeTable(
            exec_times=exec_times,
            durations=durations,
            energy=energy,
            exec_cost=self._cost.execution_cost_batch(
                region, durations, spec.memory_mb
            ),
            external_route=external_route,
            external_cost=external_cost,
        )
        self._node_tables[(spec.name, region)] = table
        gather = self._node_gathers.setdefault(spec.name, _Gather())
        gather.append(region, (table.durations, table.energy, table.exec_cost))
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
            self._input_gather.append(
                (client, region), (table.arrival, table.egress)
            )
        return table

    def _leg(self, src: str, dst: str) -> Tuple[float, float, float]:
        """A route's ``(one-way s, bandwidth B/s, USD/GB)``."""
        leg = self._route_legs.get((src, dst))
        if leg is None:
            one_way, bandwidth = self._latency.route_terms(src, dst)
            leg = self._route_legs[(src, dst)] = (
                one_way,
                bandwidth,
                self._cost.egress_per_gb(src, dst),
            )
        return leg

    def _publish_cost(self, region: str) -> float:
        cost = self._publish_costs.get(region)
        if cost is None:
            cost = self._publish_costs[region] = self._cost.messaging_cost(region)
        return cost

    # -- per cohort ---------------------------------------------------------
    def _compile(
        self,
        plans: Sequence[DeploymentPlan],
        starts: Optional[Sequence[int]] = None,
    ) -> _Cohort:
        """Resolve ``plans`` against the tables, once every key they
        touch has been priced: dictionary lookups into two flat lists
        per plan, then one float and one int matrix for the cohort whose
        columns every batch reads.  Plan ``i``'s result rows start at
        ``starts[i]`` (default: each plan's block right after the
        previous one's)."""
        workflow = self._workflow_spec()
        node_tables = self._node_tables
        node_gathers = self._node_gathers
        input_offset = self._input_gather.offset
        route_legs = self._route_legs
        publish_costs = self._publish_costs
        kv = client = self._home
        floats_by_plan, ints_by_plan, bounds_by_plan = [], [], []
        layouts, block_starts = [], []
        start = 0
        for p, plan in enumerate(plans):
            if starts is not None:
                start = int(starts[p])
            block_starts.append(start)
            region_of = plan.assignments
            # Region or route -> its row in the plan's block, numbered in
            # processing order after the latency and cost rows.
            regions: Dict[str, int] = {}
            routes: Dict[Tuple[str, str], int] = {}
            floats = []
            ints = []
            bounds = [len(workflow.input_sizes)]
            for spec in workflow.nodes:
                region = region_of[spec.name]
                table = node_tables.get((spec.name, region)) or self._node_table(
                    spec, region
                )
                if not spec.in_edges:
                    # The end-user input arrives from the client near
                    # the home region (§6.2); a shifted start node pays
                    # for it.
                    route = (client, region)
                    if route not in input_offset:
                        self._input_table(client, region)
                    ints.append(input_offset[route])
                    ints.append(
                        start
                        + routes.setdefault(route, 2 + len(regions) + len(routes))
                    )
                for edge in spec.in_edges:
                    src = region_of[edge.src]
                    # Fan-in data is relayed through the KV store
                    # (Fig. 5): src -> KV region -> sync node.
                    for route in (
                        ((src, kv), (kv, region))
                        if spec.is_sync
                        else ((src, region),)
                    ):
                        ints.append(
                            start
                            + routes.setdefault(route, 2 + len(regions) + len(routes))
                        )
                        floats.extend(route_legs.get(route) or self._leg(*route))
                    bounds.append(len(edge.sizes))
                route = table.external_route
                if route is not None:
                    ints.append(
                        start + routes.setdefault(route, 2 + len(regions) + len(routes))
                    )
                    floats.append(table.external_cost)
                ints.append(node_gathers[spec.name].offset[region])
                ints.append(
                    start + regions.setdefault(region, 2 + len(regions) + len(routes))
                )
                publish = publish_costs.get(region)
                floats.append(
                    publish if publish is not None else self._publish_cost(region)
                )
                bounds.append(len(table.exec_times))
            layout = _Layout(regions, routes)
            layouts.append(layout)
            start += layout.size
            floats_by_plan.append(floats)
            ints_by_plan.append(ints)
            bounds_by_plan.append(bounds)

        # The same walk again, over the columns in the order they were
        # filled.  A column is every plan's value as a ``(P, 1)`` array
        # broadcast along its samples, and a row column every plan's
        # ``(P,)`` result rows.  A lone plan's batch is 1-D (see
        # ``_draw``): its columns are 0-d, which numpy broadcasts at the
        # cost of a same-shape op (a ``(P, 1)`` column costs twice
        # that), and its rows are row numbers, whose ``+=`` updates a
        # view in place instead of gathering and scattering a copy.
        values = np.array(floats_by_plan, dtype=float)
        index = np.array(ints_by_plan, dtype=np.intp)
        if len(plans) == 1:
            columns = values.reshape(-1)
            offsets = index.reshape(-1)
            rows = index[0].tolist()
        else:
            columns = values.T[:, :, None]
            offsets = index.T[:, :, None]
            rows = index.T
        f, i, draw = 0, 0, 1  # draw row 0 is the end-user input size
        nodes = []
        for spec in workflow.nodes:
            input_step = None
            if not spec.in_edges:
                input_step = _InputStep(
                    offsets[i, ...], rows[i + 1], *self._input_gather.arrays
                )
                i += 2
            legs = []
            for _edge in spec.in_edges:
                edge_legs = []
                for _hop in range(2 if spec.is_sync else 1):
                    edge_legs.append(
                        _Leg(
                            rows[i],
                            columns[f, ...],
                            columns[f + 1, ...],
                            columns[f + 2, ...],
                        )
                    )
                    i += 1
                    f += 3
                legs.append(tuple(edge_legs))
            external_rows, external_bytes, external_cost = None, _ZERO, _ZERO
            if spec.external is not None:
                external_rows = rows[i]
                external_bytes = _scalar(spec.external[1])
                external_cost = columns[f, ...]
                i += 1
                f += 1
            edge_draws = tuple(range(draw, draw + len(spec.in_edges)))
            draw += len(spec.in_edges)
            nodes.append(
                _NodeStep(
                    spec,
                    edge_draws,
                    draw,
                    input_step,
                    tuple(legs),
                    external_rows,
                    external_bytes,
                    external_cost,
                    offsets[i, ...],
                    rows[i + 1],
                    columns[f, ...],
                    *node_gathers[spec.name].arrays,
                )
            )
            i += 2
            f += 1
            draw += 1
        highs = np.array(bounds_by_plan, dtype=np.int64)[:, :, None]
        return _Cohort(
            layouts=tuple(layouts),
            starts=np.array(block_starts),
            nodes=tuple(nodes),
            highs=tuple(highs),
        )

    # -- per batch ------------------------------------------------------------
    def _draw(
        self,
        rngs: Sequence[np.random.Generator],
        highs: Sequence["np.ndarray"],
        n: int,
    ) -> Tuple["np.ndarray", Optional["np.ndarray"]]:
        """One batch of randomness per plan, in the canonical order (see
        the determinism note in the module docstring): at most one
        ``random`` and exactly one ``integers`` call on each plan's own
        stream — the only place a profile consumes it.  Returns the
        ``(P, m, n)`` support indices and the ``(P, n, conditional
        edges)`` uniforms (``None`` without conditional edges); a lone
        plan's keep their own ``(m, n)`` and ``(n, conditional edges)``
        shapes, so its batch runs on 1-D arrays."""
        n_conditional = self._workflow_spec().n_conditional
        uniforms = []
        indices = []
        for rng, high in zip(rngs, highs):
            if n_conditional:
                uniforms.append(rng.random((n, n_conditional)))
            indices.append(rng.integers(0, high, size=(len(high), n)))
        if len(indices) == 1:
            return indices[0], uniforms[0] if uniforms else None
        return np.array(indices), np.array(uniforms) if uniforms else None

    def _simulate(
        self,
        cohort: _Cohort,
        indices: "np.ndarray",
        uniforms: Optional["np.ndarray"],
        rows: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The production kernel: one topological walk prices the batch
        of every plan in the cohort with ``(P, n)`` array ops, gathering
        every per-sample quantity from the priced tables by the drawn
        indices.  Energy and bytes accumulate into ``rows`` (the batch's
        columns of the run's buffer, zero on entry); returns the latency
        and cost.

        ``None`` as an execution mask means *every sample of every
        plan*: guaranteed nodes and always-active edges (a property of
        the DAG alone) take the unmasked arithmetic, everything else the
        masked one.  A plan none of whose samples takes an edge adds
        ``0.0`` where a lone run of it would skip the edge: the same
        doubles, since no accumulator holds ``-0.0``.
        """
        shape = indices.shape[:-2] + indices.shape[-1:]  # (P, n), or (n,)
        cost = np.zeros(shape)
        kv_read_cost = self._kv_read_cost
        executed: Dict[str, Optional[np.ndarray]] = {}
        finish: Dict[str, np.ndarray] = {}
        # The start node runs in every sample, so the running maximum is
        # over a non-empty set for each of them.
        latency = None

        for step in cohort.nodes:
            spec = step.spec
            exec_mask = None
            if step.input is not None:
                drawn = indices[..., 0, :]
                at = drawn + step.input.at
                arrival = step.input.arrival[at]
                rows[step.input.rows] += self._workflow.input_sizes[drawn]
                cost += step.input.egress[at]
            else:
                arrival = _ZERO
                for edge, draw, legs in zip(
                    spec.in_edges, step.edge_draws, step.legs
                ):
                    if edge.always_active:
                        active = None
                    else:
                        active = executed[edge.src]
                        if edge.cond_col is not None:
                            taken = (
                                uniforms[..., edge.cond_col] < edge.probability
                            )
                            active = taken if active is None else taken & active
                        if not active.any():
                            continue
                    sizes = edge.sizes[indices[..., draw, :]]
                    size_gb = sizes / _BYTES_PER_GB
                    edge_latency = None
                    for leg_rows, one_way, bandwidth, per_gb in legs:
                        hop = one_way + sizes / bandwidth
                        edge_latency = (
                            hop if edge_latency is None else edge_latency + hop
                        )
                        _add_rows(rows, leg_rows, sizes, active)
                        _add(cost, per_gb * size_gb, active)
                    if spec.is_sync:
                        # Annotation update + data write + data read.
                        _add(cost, self._kv_relay_cost, active)
                    # One SNS publish per taken edge (§6.2).
                    _add(cost, step.publish_cost, active)
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
                    exec_mask = np.zeros(shape, dtype=bool)

            at = indices[..., step.exec_draw, :] + step.at
            if step.external_rows is not None:
                _add_rows(rows, step.external_rows, step.external_bytes, exec_mask)
                _add(cost, step.external_cost, exec_mask)
            done = finish[spec.name] = arrival + step.durations[at]
            executed[spec.name] = exec_mask
            _add_rows(rows, step.energy_rows, step.energy[at], exec_mask)
            _add(cost, step.exec_cost[at], exec_mask)
            # Per-execution DP retrieval from the KV store (§6.2).
            _add(cost, kv_read_cost, exec_mask)
            if exec_mask is None:
                latency = done if latency is None else np.maximum(latency, done)
            else:
                latency = np.where(exec_mask, np.maximum(latency, done), latency)
        return latency, cost

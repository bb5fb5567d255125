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
caller-supplied generator, and a profile run seeds a fresh
``Generator(PCG64(derive_seed(salt, plan.digest())))`` — what
``np.random.default_rng`` builds for that int seed.  The SHA-256
digest is taken there and nowhere else on the solver's path: once per
profile built.  Two consequences the solver stack relies on:

* profiles are **order-independent** — the order in which hours are
  solved, which plans share a cohort (see below), or a re-ordered
  cache-warming schedule cannot perturb any plan's draws;
* re-profiling the same placement on the same estimator reproduces the
  same result, which is what makes a profile cache keyed by placement
  semantically transparent (a hit equals a recompute).

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
  region are priced at construction.  Every value a cohort reads per
  (node, region), per region and per route is also entered, on first
  use, in one flat table addressed by region ids (``_Tables``);
* **once per plan**: its substream, its regions as ids, and the rows its
  regions and routes own in the run's result buffer, numbered in
  processing order (``_Layout``, a walk over the plan's nodes);
* **once per cohort**: one gather from that table by the plans'
  region-id rows (``_compile``) gives every plan's table offsets, route
  and cost scalars and support lengths as one matrix, whose columns
  are the ``(P, 1)`` scalars a batch reads; its result rows make the
  ``(P,)`` row columns; and one zeroed result buffer holds a block of
  rows per plan — latency, cost, one energy row per region, one byte
  row per route — every result vector of a profile a row of it;
* **once per cohort batch**: each running plan's two draw calls on its
  own stream; per table one gather through the per-plan offsets; the
  route arithmetic on the gathered payload sizes; each plan's additions
  into its own rows, in the order a lone run makes them; and the
  stopping rule, last-axis reductions over every running plan's
  latency and cost series at once (``_converged``).  A plan that has
  converged leaves the cohort, whose matrices keep the rows of the
  plans that run on; they all share the sample count, so the last batch
  is clamped for all of them.  A lone plan's batch runs on 1-D arrays, as
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
    #: The ``(2 + regions + routes, n)`` array whose rows are the
    #: latencies, the costs, the energy vectors and the byte vectors, in
    #: that order.  The estimator hands over its read-only result buffer,
    #: whose rows the other fields are; a hand-built profile gets them
    #: stacked on construction.
    rows: Optional["np.ndarray"] = field(default=None, repr=False, compare=False)
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

    def __post_init__(self) -> None:
        if self.rows is None:
            self.rows = np.array(
                [
                    self.latencies,
                    self.costs,
                    *self.energy_by_region.values(),
                    *self.bytes_by_route.values(),
                ]
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
        exec_carbon, trans_carbon = self._mean_carbon(
            carbon_at, energy_means, gb_means
        )
        return WorkflowEstimate(
            self,
            carbon_at,
            mean_latency_s=mean_latency,
            mean_cost_usd=mean_cost,
            mean_carbon_g=exec_carbon + trans_carbon,
            mean_exec_carbon_g=exec_carbon,
            mean_trans_carbon_g=trans_carbon,
        )

    def metric_at(self, priority: str, carbon_at: Callable[[str], float]) -> float:
        """``estimate_at(carbon_at).metric(priority)`` — the same double,
        without the estimate: the HBSS walk prices each new candidate
        with it, and only a carbon priority sums the carbon terms."""
        mean_latency, mean_cost, energy_means, gb_means = self._first_pricing()
        if priority == "latency":
            return mean_latency
        if priority == "cost":
            return mean_cost
        if priority != "carbon":
            raise ValueError(f"unknown priority {priority!r}")
        exec_carbon, trans_carbon = self._mean_carbon(
            carbon_at, energy_means, gb_means
        )
        return exec_carbon + trans_carbon

    def _mean_carbon(
        self,
        carbon_at: Callable[[str], float],
        energy_means: Tuple[float, ...],
        gb_means: Tuple[float, ...],
    ) -> Tuple[float, float]:
        """(execution, transmission) mean carbon: Eq. 7.1 per region,
        then Eq. 7.5 per route, each added in key order."""
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
        return exec_carbon, trans_carbon

    def _first_pricing(
        self,
    ) -> Tuple[float, float, Tuple[float, ...], Tuple[float, ...]]:
        means = self._means
        if means is None:
            n_regions = len(self.energy_by_region)
            rows = self.rows
            if self.bytes_by_route and _min(rows[2 + n_regions:], axis=None) < 0:
                raise ValueError("size_bytes must be non-negative")
            # Row by row the double ``np.add.reduce(row) / n`` gives each
            # row alone (the axis-1 reduction contract ``_mean_and_std``
            # relies on), so reducing the buffer itself, not a stacked
            # copy of its rows, changes no mean.
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

    def profile_order(self) -> List[int]:
        """The block's rows in :class:`PlanProfile` order: latency, cost,
        the regions', then the routes'."""
        return [0, 1, *self.regions.values(), *self.routes.values()]


class _Cohort(NamedTuple):
    """Plans resolved against the estimator's tables, in topological
    order: everything a batch needs besides its random draws.  Result
    rows are rows of the run's buffer, where each plan owns a block.
    A lone plan's ``(P, 1)`` columns are 0-d and its ``(P,)`` rows one
    row number (see ``MonteCarloEstimator._assemble``)."""

    layouts: Tuple[_Layout, ...]
    #: (P,) the first row of each plan's block.
    starts: "np.ndarray"
    nodes: Tuple[_NodeStep, ...]
    #: Per plan, the ``(m, 1)`` int64 column of the length of every
    #: support a batch draws indices into, one row per distribution in
    #: draw order.
    highs: Tuple["np.ndarray", ...]
    #: The ``(P, ·)`` matrices the other fields are views of — the
    #: gathered floats, the gathered table offsets, the result rows and
    #: the support lengths — so the plans that run on after others
    #: converge are a row subset (``MonteCarloEstimator._assemble``).
    parts: Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]


class _Tables:
    """Every value a cohort reads per (node, region), per region and per
    route, in one flat array addressed by region ids, so that resolving
    a cohort is one gather rather than dictionary lookups per plan.

    With ``c`` the capacity (region ids run below it) and ``j`` a node's
    topological position, ``values`` holds each route's ``(one-way s,
    bandwidth B/s, USD/GB)`` at ``3 * (src * c + dst)``, then each
    region's SNS publish cost, then per (node, region) the
    external-data cost, the offset into the node's gathered tables and
    the execution-time support length, then each start region's offset
    into the input tables, then the support lengths no placement
    changes.  Offsets and lengths are integers well below 2**53, so
    their doubles convert back exactly.  Entry ``e`` is priced once
    ``priced[e]`` is.

    Column ``k`` of a cohort is an affine function of each plan's
    region-id row: ``[*ids, 1] @ weights[:, k]``, the last weight row
    being the column's base.  The float columns come first
    (``n_floats``), then the table offsets (``n_offsets``), then the
    support lengths in draw order.  The home region, which hosts the
    KV relay, is region id 0, so a sync hop's fixed end adds nothing.
    """

    __slots__ = (
        "capacity", "values", "priced", "weights", "n_floats", "n_offsets",
        "_publish", "_node", "_input",
    )

    def __init__(
        self,
        workflow: _WorkflowSpec,
        position: Dict[str, int],
        capacity: int,
    ):
        c = capacity
        n = len(workflow.nodes)
        self.capacity = c
        self._publish = 3 * c * c
        self._node = self._publish + c  # 3 entries per (node, region)
        self._input = self._node + 3 * n * c
        constants = [len(workflow.input_sizes)] + [
            len(edge.sizes) for spec in workflow.nodes for edge in spec.in_edges
        ]
        constant = self._input + c
        self.values = np.zeros(constant + len(constants))
        self.priced = np.zeros(len(self.values), dtype=bool)
        self.values[constant:] = constants
        self.priced[constant:] = True

        floats: List[Tuple[Dict[int, int], int]] = []
        offsets: List[Tuple[Dict[int, int], int]] = []
        highs: List[Tuple[Dict[int, int], int]] = [({}, constant)]
        for j, spec in enumerate(workflow.nodes):
            node = self._node + 3 * j * c
            if not spec.in_edges:
                offsets.append(({j: 1}, self._input))
            for edge in spec.in_edges:
                u = position[edge.src]
                # (src, dst) as weights on the two ends' region ids; the
                # KV end of a sync hop is id 0.
                hops = ((u, None), (None, j)) if spec.is_sync else ((u, j),)
                for src, dst in hops:
                    weights: Dict[int, int] = {}
                    if src is not None:
                        weights[src] = 3 * c
                    if dst is not None:
                        weights[dst] = 3
                    floats += [(weights, k) for k in range(3)]
                constant += 1
                highs.append(({}, constant))
            if spec.external is not None:
                floats.append(({j: 3}, node))
            floats.append(({j: 1}, self._publish))
            offsets.append(({j: 3}, node + 1))
            highs.append(({j: 3}, node + 2))
        columns = floats + offsets + highs
        self.n_floats = len(floats)
        self.n_offsets = len(offsets)
        self.weights = np.zeros((n + 1, len(columns)), dtype=np.int64)
        for k, (weights, base) in enumerate(columns):
            for j, w in weights.items():
                self.weights[j, k] += w
            self.weights[n, k] = base

    def set_node(
        self, j: int, region: int, external_cost: float, offset: int, length: int
    ) -> None:
        at = self._node + 3 * (j * self.capacity + region)
        self.values[at:at + 3] = external_cost, offset, length
        self.priced[at:at + 3] = True

    def set_input(self, region: int, offset: int) -> None:
        self.values[self._input + region] = offset
        self.priced[self._input + region] = True

    def set_leg(self, src: int, dst: int, leg: Tuple[float, float, float]) -> None:
        at = 3 * (src * self.capacity + dst)
        self.values[at:at + 3] = leg
        self.priced[at:at + 3] = True

    def set_publish(self, region: int, cost: float) -> None:
        self.values[self._publish + region] = cost
        self.priced[self._publish + region] = True


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
        self._position = {node: j for j, node in enumerate(self._order)}
        # Everything read from ``data`` or priced by the models, filled
        # on first use and kept for the estimator's lifetime.
        self._workflow: Optional[_WorkflowSpec] = None
        #: Region name -> id, in first-seen order; the home region is 0.
        self._region_ids: Dict[str, int] = {home_region: 0}
        self._tables: Optional[_Tables] = None
        #: Per node in topological order, built with ``_workflow``: what
        #: numbers a block's rows (start node?, in-edge sources'
        #: positions, sync node?, pinned data's region or None) ...
        self._layout_steps: List[Tuple[bool, Tuple[int, ...], bool, Optional[str]]] = []
        #: ... and what its cohort step holds whatever the cohort (see
        #: ``_templates``).
        self._node_templates: List[
            Tuple[_NodeSpec, Tuple[int, ...], int, range, Optional["np.ndarray"]]
        ] = []
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
        return self._profile_cohort([plan], [plan.regions_for(self._order)])[0]

    def estimate_profiles(
        self, plans: Sequence[DeploymentPlan]
    ) -> List[PlanProfile]:
        """Profile many candidate plans as one cohort: every batch
        simulates all of its still-running plans with ``(plans,
        samples)``-wide array ops.

        Each plan draws from its own digest-keyed substream and stops on
        its own, so every profile is bit-identical to a solo
        :meth:`estimate_profile` call, in any order and in any company.
        Duplicate plans (equal placements) are simulated once and share
        the resulting profile object.
        """
        keys = [plan.regions_for(self._order) for plan in plans]
        distinct: Dict[Tuple[str, ...], DeploymentPlan] = {}
        for key, plan in zip(keys, plans):
            distinct.setdefault(key, plan)
        if not distinct:
            return []
        by_key = dict(
            zip(
                distinct,
                self._profile_cohort(list(distinct.values()), list(distinct)),
            )
        )
        return [by_key[key] for key in keys]

    # -- internals -----------------------------------------------------------
    def _profile_cohort(
        self,
        plans: Sequence[DeploymentPlan],
        regions: Sequence[Tuple[str, ...]],
    ) -> List[PlanProfile]:
        """Simulate distinct ``plans`` batch by batch until each plan's
        stopping rule fires.

        Every plan accumulates into its own block of rows of one
        preallocated ``max_samples``-wide buffer, so each convergence
        check reads a prefix.  Running plans share the sample count, so
        the final batch is clamped to the remaining budget for all of
        them and the sample cap is honoured exactly even when
        ``batch_size`` does not divide ``max_samples``.  A plan that has
        converged leaves the cohort; the others run on.  ``regions[i]``
        is plan ``i``'s regions in topological order.
        """
        rngs = [self.plan_rng(plan) for plan in plans]
        cohort = self._compile(regions)
        starts = cohort.starts.tolist()
        full = np.zeros(
            (sum(layout.size for layout in cohort.layouts), self._max)
        )
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
            if any(stopped):
                # One copy of every stopping plan's filled prefix, each
                # block's rows in profile order; a profile's vectors are
                # rows of its block, read-only so what the profile
                # computes once on its first pricing can never go stale.
                done = [
                    (i, layout)
                    for i, layout, stop in zip(running, cohort.layouts, stopped)
                    if stop
                ]
                copied = full[
                    [
                        starts[i] + row
                        for i, layout in done
                        for row in layout.profile_order()
                    ],
                    :hi,
                ]
                copied.setflags(write=False)
                at = 0
                for i, layout in done:
                    profiles[i] = self._profile_from(
                        copied[at:at + layout.size], layout
                    )
                    at += layout.size
            if all(stopped):
                break
            if any(stopped):
                keep = [k for k, stop in enumerate(stopped) if not stop]
                running = [running[k] for k in keep]
                cohort = self._assemble(
                    [cohort.layouts[k] for k in keep],
                    cohort.starts[keep],
                    *(part[keep] for part in cohort.parts),
                )

        if self._stats is not None:
            self._stats.simulations_run += len(plans)
            self._stats.samples_drawn += sum(p.n_samples for p in profiles)
        return profiles

    def _profile_from(self, buffer: "np.ndarray", layout: _Layout) -> PlanProfile:
        n_regions = len(layout.regions)
        return PlanProfile(
            latencies=buffer[0],
            costs=buffer[1],
            energy_by_region=dict(zip(layout.regions, buffer[2:2 + n_regions])),
            bytes_by_route=dict(zip(layout.routes, buffer[2 + n_regions:])),
            carbon_model=self._carbon,
            rows=buffer,
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
        """The plan's dedicated substream (fresh generator each call):
        ``Generator(PCG64(seed))`` is what ``default_rng(seed)`` builds
        for an int seed, minus its argument dispatch."""
        random = np.random
        return random.Generator(
            random.PCG64(derive_seed(self._plan_salt, plan.digest()))
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
        position = self._position
        self._layout_steps = [
            (
                not spec.in_edges,
                tuple(position[edge.src] for edge in spec.in_edges),
                spec.is_sync,
                spec.external[0] if spec.external is not None else None,
            )
            for spec in specs
        ]
        self._node_templates = self._templates(specs)
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
    def _compile(self, regions: Sequence[Tuple[str, ...]]) -> _Cohort:
        """Resolve a cohort — each plan as its regions in topological
        order — against the tables, pricing whatever it is the first to
        touch.  Every value is gathered from :class:`_Tables` by the
        plans' region ids; only the row numbering of each plan's block
        (its :class:`_Layout`, whose key order bit-identity needs) is a
        walk per plan.  Plan ``i``'s block starts right after plan
        ``i - 1``'s."""
        workflow = self._workflow_spec()
        tables = self._tables
        region_ids = self._region_ids
        try:
            ids = [[region_ids[r] for r in plan] for plan in regions]
        except KeyError:
            for plan in regions:
                for region in plan:
                    region_ids.setdefault(region, len(region_ids))
            ids = [[region_ids[r] for r in plan] for plan in regions]
        if tables is None or len(region_ids) > tables.capacity:
            # Room for the regions seen so far, doubled as more appear; a
            # new table starts unpriced and fills from the memos below.
            capacity = 2
            while capacity < len(region_ids):
                capacity *= 2
            tables = self._tables = _Tables(workflow, self._position, capacity)
        at = np.array([[*plan_ids, 1] for plan_ids in ids]) @ tables.weights
        if not tables.priced[at].all():
            missing = np.flatnonzero(~tables.priced[at].all(axis=1)).tolist()
            self._price([regions[p] for p in missing], [ids[p] for p in missing])
        gathered = tables.values[at]
        n_floats = tables.n_floats
        ints = gathered[:, n_floats:].astype(np.int64)

        kv = client = self._home
        steps = self._layout_steps
        layouts = []
        block_rows = []
        starts = []
        start = 0
        for plan in regions:
            # Region (a str) or route (a pair) -> its row in the plan's
            # block, numbered in processing order after the latency and
            # cost rows.
            seen: Dict[object, int] = {}
            rows = []
            add = rows.append
            for (first, sources, sync, external), region in zip(steps, plan):
                if first:
                    # The end-user input arrives from the client near
                    # the home region (§6.2).
                    add(seen.setdefault((client, region), 2 + len(seen)))
                for u in sources:
                    if sync:
                        # Fan-in data is relayed through the KV store
                        # (Fig. 5): src -> KV region -> sync node.
                        add(seen.setdefault((plan[u], kv), 2 + len(seen)))
                        add(seen.setdefault((kv, region), 2 + len(seen)))
                    else:
                        add(seen.setdefault((plan[u], region), 2 + len(seen)))
                if external is not None:
                    add(seen.setdefault((external, region), 2 + len(seen)))
                add(seen.setdefault(region, 2 + len(seen)))
            layout = _Layout(
                {k: row for k, row in seen.items() if k.__class__ is str},
                {k: row for k, row in seen.items() if k.__class__ is tuple},
            )
            layouts.append(layout)
            block_rows.append([start + row for row in rows])
            starts.append(start)
            start += layout.size
        return self._assemble(
            layouts,
            np.array(starts),
            gathered[:, :n_floats],
            ints[:, :tables.n_offsets],
            np.array(block_rows, dtype=np.intp),
            ints[:, tables.n_offsets:],
        )

    def _price(self, regions: Sequence[Tuple[str, ...]], ids: List[List[int]]) -> None:
        """Price every table, route and region the cohort touches that
        no earlier cohort has, and enter it in :class:`_Tables`."""
        workflow = self._workflow_spec()
        tables = self._tables
        kv = client = self._home
        position = self._position
        for plan, plan_ids in zip(regions, ids):
            for j, (spec, region, r) in enumerate(zip(workflow.nodes, plan, plan_ids)):
                table = self._node_table(spec, region)
                tables.set_node(
                    j,
                    r,
                    table.external_cost,
                    self._node_gathers[spec.name].offset[region],
                    len(table.exec_times),
                )
                if not spec.in_edges:
                    # The end-user input arrives from the client near
                    # the home region (§6.2); a shifted start node pays
                    # for it.
                    self._input_table(client, region)
                    tables.set_input(r, self._input_gather.offset[(client, region)])
                for edge in spec.in_edges:
                    u = position[edge.src]
                    src, s = plan[u], plan_ids[u]
                    if spec.is_sync:
                        tables.set_leg(s, 0, self._leg(src, kv))
                        tables.set_leg(0, r, self._leg(kv, region))
                    else:
                        tables.set_leg(s, r, self._leg(src, region))
                tables.set_publish(r, self._publish_cost(region))

    def _assemble(
        self,
        layouts: Sequence[_Layout],
        starts: "np.ndarray",
        values: "np.ndarray",
        offsets: "np.ndarray",
        rows: "np.ndarray",
        highs: "np.ndarray",
    ) -> _Cohort:
        """The cohort's per-node steps over its ``(P, ·)`` matrices, read
        column by column in the order :class:`_Tables` and
        :meth:`_compile` fill them.  A column is every plan's value as a
        ``(P, 1)`` array broadcast along its samples, and a row column
        every plan's ``(P,)`` result rows.  A lone plan's batch is 1-D
        (see ``_draw``): its columns are 0-d, which numpy broadcasts at
        the cost of a same-shape op (a ``(P, 1)`` column costs twice
        that), and its rows are row numbers, whose ``+=`` updates a view
        in place instead of gathering and scattering a copy."""
        parts = (values, offsets, rows, highs)
        if len(layouts) == 1:
            values, offsets = values.reshape(-1), offsets.reshape(-1)
            columns = iter([values[f, ...] for f in range(len(values))])
            at = iter([offsets[o, ...] for o in range(len(offsets))])
            rows = iter(rows[0].tolist())
        else:
            columns = iter(values.T[:, :, None])
            at = iter(offsets.T[:, :, None])
            rows = iter(rows.T)
        nodes = []
        for spec, edge_draws, exec_draw, hops, external_bytes in self._node_templates:
            input_step = None
            if not spec.in_edges:
                input_step = _InputStep(
                    next(at), next(rows), *self._input_gather.arrays
                )
            legs = []
            for _edge in edge_draws:
                edge_legs = []
                for _hop in hops:
                    edge_legs.append(
                        _Leg(next(rows), next(columns), next(columns), next(columns))
                    )
                legs.append(tuple(edge_legs))
            external_rows, external_cost = None, _ZERO
            if external_bytes is not None:
                external_rows, external_cost = next(rows), next(columns)
            nodes.append(
                _NodeStep(
                    spec,
                    edge_draws,
                    exec_draw,
                    input_step,
                    tuple(legs),
                    external_rows,
                    external_bytes if external_bytes is not None else _ZERO,
                    external_cost,
                    next(at),
                    next(rows),
                    next(columns),
                    *self._node_gathers[spec.name].arrays,
                )
            )
        return _Cohort(
            layouts=tuple(layouts),
            starts=starts,
            nodes=tuple(nodes),
            highs=tuple(highs[:, :, None]),
            parts=parts,
        )

    @staticmethod
    def _templates(
        specs: Sequence[_NodeSpec],
    ) -> List[Tuple[_NodeSpec, Tuple[int, ...], int, range, Optional["np.ndarray"]]]:
        """Per node in topological order, what its step holds whatever
        the cohort: its spec, the draw rows of its in-edges' payload
        sizes and of its execution time, its hops per in-edge, and its
        pinned data's bytes (``None`` without)."""
        templates = []
        draw = 1  # draw row 0 is the end-user input size
        for spec in specs:
            edge_draws = tuple(range(draw, draw + len(spec.in_edges)))
            draw += len(spec.in_edges)
            templates.append(
                (
                    spec,
                    edge_draws,
                    draw,
                    range(2 if spec.is_sync else 1),
                    _scalar(spec.external[1]) if spec.external is not None else None,
                )
            )
            draw += 1
        return templates

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

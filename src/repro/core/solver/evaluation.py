"""Plan evaluation shared by all solvers.

Wraps the Monte-Carlo estimator with: per-plan profile caching (one
simulation run re-priced across the 24 hourly intensities, see
:class:`~repro.metrics.montecarlo.PlanProfile`), compliance filtering of
candidate regions (workflow- and function-level, §8), and QoS tolerance
checks against the home-region baseline (§9.4: a plan violates QoS when
its 95th-percentile tail exceeds the home-region tail augmented by the
developer's tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.carbon import CarbonModel
from repro.metrics.cost import CostModel
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.montecarlo import (
    MonteCarloEstimator,
    PlanProfile,
    WorkflowEstimate,
    WorkflowModelData,
)
from repro.model.config import WorkflowConfig
from repro.model.dag import WorkflowDAG
from repro.model.plan import DeploymentPlan


@dataclass(frozen=True)
class SolverSettings:
    """Tunables for the solver stack.

    The Monte-Carlo fidelity knobs default *below* the paper's 200/2000
    values because the solver's inner loop evaluates hundreds of plans;
    final candidate ranking can be re-run at full fidelity by callers.
    ``alpha_per_node_region`` is the 6 in Alg. 1 line 2
    (``alpha = |N| x |R| x 6``); ``beta`` its bias, ``gamma`` the initial
    temperature with ``gamma_decay`` applied per accepted move.

    ``solver`` picks which search strategy the harness/CLI runs:
    ``"hbss"`` (Alg. 1, the production default), ``"coarse"``
    (single-region), or ``"exact"`` (provably optimal branch-and-bound,
    see :mod:`repro.core.solver.exact`).
    """

    batch_size: int = 100
    max_samples: int = 400
    cov_threshold: float = 0.08
    alpha_per_node_region: int = 6
    beta: float = 0.2
    gamma: float = 1.0
    gamma_decay: float = 0.99
    solver: str = "hbss"

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.max_samples <= 0:
            raise ValueError("Monte-Carlo sample knobs must be positive")
        if self.cov_threshold <= 0:
            raise ValueError(
                f"cov_threshold must be positive, got {self.cov_threshold}"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.alpha_per_node_region <= 0:
            raise ValueError("alpha_per_node_region must be positive")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not 0.0 < self.gamma_decay <= 1.0:
            raise ValueError(
                f"gamma_decay must be in (0, 1], got {self.gamma_decay}"
            )
        if self.solver not in ("hbss", "coarse", "exact"):
            raise ValueError(
                f"solver must be one of 'hbss', 'coarse', 'exact', "
                f"got {self.solver!r}"
            )


@dataclass
class SolverStats:
    """Instrumentation counters shared across one solver run.

    The :class:`PlanEvaluator` owns one (or accepts a caller-provided
    instance) and threads it into the Monte-Carlo estimator.  All
    counters are cumulative over the evaluator's lifetime, so a 24-hour
    ``solve_day`` reports totals.  Per distinct plan exactly one profile
    build happens; every other lookup is a hit.  The profile counters
    count *requests*: a profile :meth:`PlanEvaluator.prefetch_profiles`
    built counts as built when a request first asks for it, so they do
    not depend on which plans were prefetched together.

    Attributes:
        simulations_run: Monte-Carlo profile runs actually simulated.
        samples_drawn: Total simulation samples across those runs.
        profiles_built / profile_cache_hits: :meth:`PlanEvaluator.profile`
            misses vs hits — the hit rate is the payoff of the
            hour-independent :class:`PlanProfile` re-pricing contract.
            Every estimate reads its plan's profile, so it counts here.
        bnb_nodes_expanded / bnb_nodes_pruned: Branch-and-bound search
            states expanded vs cut by the admissible bound
            (:class:`~repro.core.solver.exact.ExactSolver` only; zero
            for every other solver).
        bnb_hours_solved: Hour solves the exact solver completed;
            divides ``bnb_bound_tightness_pct`` (a cumulative sum of
            per-hour root-bound/optimum ratios) into an average.
    """

    simulations_run: int = 0
    samples_drawn: int = 0
    profiles_built: int = 0
    profile_cache_hits: int = 0
    bnb_nodes_expanded: int = 0
    bnb_nodes_pruned: int = 0
    bnb_hours_solved: int = 0
    bnb_bound_tightness_pct: float = 0.0

    def summary(self) -> str:
        """One-line human-readable digest for CLI/harness output."""
        total_profile = self.profiles_built + self.profile_cache_hits
        hit_rate = (
            self.profile_cache_hits / total_profile if total_profile else 0.0
        )
        line = (
            f"{self.simulations_run} simulations "
            f"({self.samples_drawn} samples), "
            f"{self.profiles_built} profiles built, "
            f"profile cache hit rate {hit_rate:.0%}"
        )
        if self.bnb_hours_solved:
            tightness = self.bnb_bound_tightness_pct / self.bnb_hours_solved
            line += (
                f", B&B {self.bnb_nodes_expanded} expanded / "
                f"{self.bnb_nodes_pruned} pruned "
                f"(bound tightness {tightness:.0f}%)"
            )
        return line


class EvaluationCache:
    """Persistent store of plan profiles, keyed by placement.

    A :class:`PlanEvaluator` is cheap, stateless glue over its inputs;
    the *expensive* state — Monte-Carlo :class:`PlanProfile` runs —
    lives here, keyed by the plan's regions in ``dag.node_names`` order
    (:meth:`PlanEvaluator.plan_key`) so it survives evaluator
    reconstruction (the Deployment Manager builds a fresh evaluator on
    every token check, §5.2, but the workload's plan space barely moves
    between checks).  Equal placements share one entry, whatever their
    dict order or metadata.

    Entries are only valid for one version of the learned inputs:
    callers declare the current ``(metrics_version, forecast_version)``
    pair via :meth:`sync` and the cache clears itself whenever the pair
    changes (new telemetry collected, forecasts refit).
    """

    def __init__(self) -> None:
        self._profiles: Dict[Tuple[str, ...], PlanProfile] = {}
        #: Profiles :meth:`PlanEvaluator.prefetch_profiles` built that no
        #: request has asked for yet (see ``SolverStats``).
        self._prefetched: Dict[Tuple[str, ...], PlanProfile] = {}
        self._version: Optional[Tuple[object, object]] = None
        #: Times :meth:`sync` dropped a populated cache (observability).
        self.invalidations = 0

    def sync(self, metrics_version: object, forecast_version: object) -> bool:
        """Declare the current input versions; returns True if stale
        entries were dropped."""
        version = (metrics_version, forecast_version)
        if version == self._version:
            return False
        had_entries = bool(self._profiles or self._prefetched)
        self._profiles.clear()
        self._prefetched.clear()
        self._version = version
        if had_entries:
            self.invalidations += 1
        return had_entries

    @property
    def profiles_cached(self) -> int:
        return len(self._profiles) + len(self._prefetched)


def requested_hours(hours: Optional[Sequence[int]]) -> List[int]:
    """The hours a ``solve_day`` call solves for (default: all 24).

    An empty list, or one naming an hour twice, is a ``ValueError``:
    a second solve of the same hour would silently replace the first
    one's plan (and, on the Deployment Manager's per-hour registry
    streams, draw on from where the first walk stopped).
    """
    hour_list = list(hours) if hours is not None else list(range(24))
    if not hour_list:
        raise ValueError("need at least one hour to solve for")
    if len(set(hour_list)) != len(hour_list):
        raise ValueError(f"hours must be distinct, got {hour_list}")
    return hour_list


class LazyTable(dict):
    """A dict that computes a missing key's value with ``fill(key)`` on
    first lookup and keeps it — hits stay plain C dict lookups, and a
    key nobody asks for never runs ``fill``.  ``table(key)`` is
    ``table[key]``, so a table is its own lookup function."""

    __call__ = dict.__getitem__

    def __init__(self, fill: Callable[[str], float]):
        super().__init__()
        self._fill = fill

    def __missing__(self, key: str) -> float:
        value = self[key] = self._fill(key)
        return value


class PlanEvaluator:
    """Answers metric/tolerance queries over a shared evaluation cache.

    The same placement is only ever simulated once per cache version,
    and the per-plan RNG substreams of the underlying estimator make
    every cached value independent of build order.

    Plans are priced two ways over the same profiles.  The plan methods
    (:meth:`profile`, :meth:`estimate`, :meth:`metric`,
    :meth:`tolerance_violated`) serve every solver.  The key methods
    (:meth:`profiled`, :meth:`metric_of`, :meth:`checked_metric`) serve
    the HBSS walk, which holds a deployment as its key and builds a
    :class:`DeploymentPlan` only for a key whose profile is not built
    yet: they make no plan, no digest and — unless a tolerance needs
    the tails — no :class:`WorkflowEstimate`.  Both count requests in
    ``SolverStats`` alike, and give the same doubles.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        config: WorkflowConfig,
        data: WorkflowModelData,
        regions: Sequence[str],
        intensity_fn: Callable[[str, int], float],
        carbon_model: CarbonModel,
        cost_model: CostModel,
        latency_model: TransferLatencyModel,
        rng: np.random.Generator,
        settings: SolverSettings = SolverSettings(),
        stats: Optional[SolverStats] = None,
        cache: Optional[EvaluationCache] = None,
    ):
        """Args:
        dag / config / data: The workflow and its learned behaviour.
        regions: Candidate regions (the provider's available set).
        intensity_fn: ``(region, hour) -> gCO2eq/kWh``; typically the
            Metrics Manager's forecast-aware accessor.
        carbon_model / cost_model / latency_model: Pricing models.
        rng: Solver-owned random stream.
        settings: Fidelity and HBSS hyper-parameters.
        stats: Counter object to accumulate into (a fresh
            :class:`SolverStats` is created when omitted).
        cache: Shared :class:`EvaluationCache` to read/write (a private
            one is created when omitted, restoring the old
            evaluator-lifetime caching).  Callers owning a persistent
            cache must :meth:`EvaluationCache.sync` it whenever the
            learned metrics or forecasts feeding this evaluator change.
        """
        self.dag = dag
        self.config = config
        self.settings = settings
        self.stats = stats if stats is not None else SolverStats()
        self._intensity_fn = intensity_fn
        #: ``{hour: {region: intensity}}``, filled on first lookup.
        self._intensities: Dict[int, LazyTable] = {}
        self._data = data
        self._carbon_model = carbon_model
        self._cost_model = cost_model
        self._latency_model = latency_model
        self._estimator = MonteCarloEstimator(
            dag,
            data,
            carbon_model,
            cost_model,
            latency_model,
            rng,
            config.home_region,
            batch_size=settings.batch_size,
            max_samples=settings.max_samples,
            cov_threshold=settings.cov_threshold,
            stats=self.stats,
        )
        self._cache = cache if cache is not None else EvaluationCache()
        self._permitted: Dict[str, Tuple[str, ...]] = {}
        for node in dag.node_names:
            function = dag.node(node).function
            allowed = config.permitted_regions_for_function(function, regions)
            if not allowed:
                raise ValueError(
                    f"compliance constraints leave no region for node "
                    f"{node!r} (function {function!r})"
                )
            self._permitted[node] = allowed
        self.regions = tuple(regions)
        self._nodes = dag.node_names
        self._home_plan = DeploymentPlan.single_region(dag, config.home_region)
        #: ``{hour: the home plan's estimate}``, the QoS anchor of every
        #: tolerance check that hour.
        self._baselines: Dict[int, WorkflowEstimate] = {}
        tol = config.tolerances
        self._checks_tolerances = not (
            tol.latency is None and tol.carbon is None and tol.cost is None
        )

    # -- model access (read-only; the exact solver's bound tables price
    # -- minimum-support contributions through the same models the
    # -- Monte-Carlo kernel uses) --------------------------------------------
    @property
    def data(self) -> WorkflowModelData:
        return self._data

    @property
    def carbon_model(self) -> CarbonModel:
        return self._carbon_model

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def latency_model(self) -> TransferLatencyModel:
        return self._latency_model

    def intensity(self, region: str, hour: int) -> float:
        """The grid intensity :meth:`estimate` prices ``hour`` with.

        ``intensity_fn`` runs at most once per (region, hour) over the
        evaluator's lifetime, so it is taken to be a pure function for
        that long.
        """
        return self._intensities_at(hour)[region]

    def _intensities_at(self, hour: int) -> LazyTable:
        table = self._intensities.get(hour)
        if table is None:
            fn = self._intensity_fn
            table = self._intensities[hour] = LazyTable(
                lambda region: fn(region, hour)
            )
        return table

    # -- candidate space -----------------------------------------------------
    def permitted_regions(self, node: str) -> Tuple[str, ...]:
        """Regions node may be deployed to after compliance filtering."""
        return self._permitted[node]

    def search_space_size(self) -> int:
        size = 1
        for node in self.dag.node_names:
            size *= len(self._permitted[node])
            if size > 10**15:  # avoid astronomically large ints downstream
                return 10**15
        return size

    def home_plan(self) -> DeploymentPlan:
        """The all-home deployment — one object per evaluator, so its
        digest and hash are computed once however often it is priced."""
        return self._home_plan

    def is_plan_compliant(self, plan: DeploymentPlan) -> bool:
        return all(
            plan.region_of(node) in self._permitted[node]
            for node in self.dag.node_names
        )

    # -- evaluation -------------------------------------------------------------
    def plan_key(self, plan: DeploymentPlan) -> Tuple[str, ...]:
        """``plan``'s regions in ``dag.node_names`` order: its key in the
        evaluation cache (a ``ValueError`` if it misses a node)."""
        return plan.regions_for(self._nodes)

    def profiled(self, key: Tuple[str, ...]) -> bool:
        """Whether the profile of the placement ``key`` is built, so
        pricing it simulates nothing."""
        cache = self._cache
        return key in cache._profiles or key in cache._prefetched

    def _profile_of(
        self, key: Tuple[str, ...], plan: Optional[DeploymentPlan] = None
    ) -> PlanProfile:
        """One profile request: the cached profile of ``key``, built
        from ``plan`` (or a plan made from the key) on a miss."""
        profiles = self._cache._profiles
        profile = profiles.get(key)
        if profile is not None:
            self.stats.profile_cache_hits += 1
            return profile
        profile = self._cache._prefetched.pop(key, None)
        if profile is None:
            if plan is None:
                plan = DeploymentPlan(dict(zip(self._nodes, key)))
            profile = self._estimator.estimate_profile(plan)
        profiles[key] = profile
        self.stats.profiles_built += 1
        return profile

    def profile(self, plan: DeploymentPlan) -> PlanProfile:
        return self._profile_of(self.plan_key(plan), plan)

    def prefetch_profiles(self, plans: Sequence[DeploymentPlan]) -> int:
        """Build the profiles of ``plans`` not built yet as one
        Monte-Carlo cohort (:meth:`MonteCarloEstimator.estimate_profiles`);
        returns how many it built.

        Values are bit-identical to per-plan :meth:`profile` builds
        (each plan draws from its own digest-keyed substream), so
        prefetching only changes *when* profiles are built, never what
        they contain.  Nor does it change ``SolverStats``' profile
        counters: a prefetched profile counts as built when the first
        request finds it (the estimator's ``simulations_run`` and
        ``samples_drawn`` count at build time).
        """
        missing: Dict[Tuple[str, ...], DeploymentPlan] = {}
        for plan in plans:
            key = self.plan_key(plan)
            if not self.profiled(key):
                missing.setdefault(key, plan)
        if missing:
            self._cache._prefetched.update(
                zip(missing, self._estimator.estimate_profiles(list(missing.values())))
            )
        return len(missing)

    def estimate(self, plan: DeploymentPlan, hour: int) -> WorkflowEstimate:
        """``plan`` priced at ``hour``: its cached profile re-priced."""
        return self.profile(plan).estimate_at(self._intensities_at(hour))

    def baseline(self, hour: int) -> WorkflowEstimate:
        """Home-region single-deployment estimate: the QoS anchor, made
        once per hour (its tails, once read, are kept with it)."""
        base = self._baselines.get(hour)
        if base is None:
            base = self._baselines[hour] = self.estimate(self._home_plan, hour)
        return base

    def metric(self, plan: DeploymentPlan, hour: int) -> float:
        return self._profile_of(self.plan_key(plan), plan).metric_at(
            self.config.priority, self._intensities_at(hour)
        )

    def metric_of(self, key: Tuple[str, ...], hour: int) -> float:
        """:meth:`metric` of the placement ``key``."""
        return self._profile_of(key).metric_at(
            self.config.priority, self._intensities_at(hour)
        )

    def checked_metric(self, key: Tuple[str, ...], hour: int) -> Optional[float]:
        """The placement ``key``'s metric at ``hour``, or ``None`` when it
        violates a tolerance: :meth:`tolerance_violated` and then
        :meth:`metric`, counted as those two requests, but priced once."""
        if not self._checks_tolerances:
            return self.metric_of(key, hour)
        est = self._profile_of(key).estimate_at(self._intensities_at(hour))
        if self._violates(est, hour):
            return None
        self.stats.profile_cache_hits += 1  # the metric's request
        return est.metric(self.config.priority)

    @property
    def plans_profiled(self) -> int:
        return self._cache.profiles_cached

    # -- tolerances -----------------------------------------------------------
    def tolerance_violated(self, plan: DeploymentPlan, hour: int) -> bool:
        """Alg. 1's ``ToleranceViolated``: tail metrics vs the augmented
        home baseline (§9.4)."""
        if not self._checks_tolerances:
            return False
        return self._violates(self.estimate(plan, hour), hour)

    def _violates(self, est: WorkflowEstimate, hour: int) -> bool:
        tol = self.config.tolerances
        base = self.baseline(hour)
        if tol.latency is not None and est.tail_latency_s > base.tail_latency_s * (
            1.0 + tol.latency
        ):
            return True
        if tol.carbon is not None and est.tail_carbon_g > base.tail_carbon_g * (
            1.0 + tol.carbon
        ):
            return True
        if tol.cost is not None and est.tail_cost_usd > base.tail_cost_usd * (
            1.0 + tol.cost
        ):
            return True
        return False

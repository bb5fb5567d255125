"""The Monte-Carlo production kernel against its scalar reference
(``tests/montecarlo_oracle.py``).

The kernel prices each distribution's *support* once per estimator and
gathers by drawn indices; the reference prices every drawn value on its
own.  "Elementwise on the support equals elementwise on the sample" is
what makes the two bit-identical, and it has to hold on the oldest
numpy ``pyproject.toml`` admits too (CI's ``numpy-floor`` job runs this
file).  So does the draw: one broadcast ``integers`` call per batch
stands in for one call per distribution (``TestBroadcastDrawDifferential``).
Work counts — how often ``data`` is asked for anything, how many draw
calls a batch makes — are pinned here as well: they are what the
kernel's speed rests on.
"""

import collections
import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.cloud.provider import SimulatedCloud
from repro.data.latency import LatencySource
from repro.data.pricing import PricingSource
from repro.core.lifecycle import deploy_benchmark, warm_up
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.cost import CostModel
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.latency import TransferLatencyModel
from repro.metrics.manager import MetricsManager
from repro.metrics.montecarlo import MonteCarloEstimator
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.model.plan import DeploymentPlan
from tests.montecarlo_oracle import ScalarReferenceEstimator

REGIONS = ("us-east-1", "us-west-1", "us-west-2", "ca-central-1")


class TableData:
    """A WorkflowModelData answering from plain dictionaries."""

    def __init__(self, exec_times, edge_sizes, probabilities=None,
                 external=None, input_sizes=(1e6, 5e6, 20e6)):
        self.exec_times = exec_times  # node -> samples (region-scaled)
        self.edge_sizes = edge_sizes  # (src, dst) -> samples
        self.probabilities = probabilities or {}
        self.external = external or {}
        self.input_sizes = input_sizes

    def execution_time_dist(self, node, region):
        slowdown = 1.0 + 0.25 * REGIONS.index(region)
        return EmpiricalDistribution(
            [t * slowdown for t in self.exec_times[node]]
        )

    def edge_probability(self, src, dst):
        return self.probabilities.get((src, dst), 1.0)

    def edge_size_dist(self, src, dst):
        return EmpiricalDistribution(self.edge_sizes[(src, dst)])

    def node_memory_mb(self, node):
        return 1769

    def node_vcpu(self, node):
        return 1.0

    def node_cpu_utilization(self, node):
        return 0.7

    def node_external_bytes(self, node):
        return self.external.get(node, (None, 0.0))

    def input_size_dist(self):
        return EmpiricalDistribution(self.input_sizes)


def diamond_data(cond_prob=0.5, **overrides):
    """Wide supports on the conftest diamond, pinned data on ``b``."""
    spec = dict(
        exec_times={n: [0.7, 0.9, 1.0, 1.3, 2.1] for n in "abcd"},
        edge_sizes={e: [1e6, 2e6, 3e6, 8e6]
                    for e in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))},
        probabilities={("a", "c"): cond_prob},
        external={"b": ("us-east-1", 25e6)},
    )
    spec.update(overrides)
    return TableData(**spec)


def make_estimator(dag, data, vectorized=True, seed=123,
                   kv_region="us-east-1", client_region="us-east-1",
                   cloud=None, **kwargs):
    kwargs.setdefault("cov_threshold", 1e-9)  # run to the cap
    estimator = MonteCarloEstimator if vectorized else ScalarReferenceEstimator
    return estimator(
        dag,
        data,
        CarbonModel(TransmissionScenario.best_case()),
        CostModel(cloud.pricing_source if cloud else PricingSource()),
        TransferLatencyModel(cloud.latency_source if cloud else LatencySource()),
        np.random.default_rng(seed),
        kv_region=kv_region,
        client_region=client_region,
        **kwargs,
    )


def random_plans(dag, n, seed=7):
    rng = np.random.default_rng(seed)
    return [
        DeploymentPlan({
            node: REGIONS[int(rng.integers(len(REGIONS)))]
            for node in dag.node_names
        })
        for _ in range(n)
    ]


def assert_profiles_identical(got, want):
    assert got.n_samples == want.n_samples
    assert np.array_equal(got.latencies, want.latencies)
    assert np.array_equal(got.costs, want.costs)
    assert list(got.energy_by_region) == list(want.energy_by_region)
    for region, energy in got.energy_by_region.items():
        assert np.array_equal(energy, want.energy_by_region[region]), region
    assert list(got.bytes_by_route) == list(want.bytes_by_route)
    for route, sizes in got.bytes_by_route.items():
        assert np.array_equal(sizes, want.bytes_by_route[route]), route


def assert_kernel_equals_reference(dag, data, plans, **kwargs):
    production = make_estimator(dag, data, vectorized=True, **kwargs)
    reference = make_estimator(dag, data, vectorized=False, **kwargs)
    for plan in plans:
        assert_profiles_identical(
            production.estimate_profile(plan),
            reference.estimate_profile(plan),
        )


# ------------------------------------------------------------ the five apps
@functools.lru_cache(maxsize=None)
def learned_app(app_name):
    """One warmed-up deployment per app: ``(cloud, dag, metrics)``."""
    app = ALL_APPS[app_name]
    cloud = SimulatedCloud(seed=5)
    deployed, executor, _ = deploy_benchmark(app, cloud)
    warm_up(executor, app, "small", n=8)
    metrics = MetricsManager(
        deployed.dag, deployed.config, cloud.ledger, cloud.carbon_source
    )
    metrics.declare_function_external_data(deployed.workflow.functions)
    metrics.collect(cloud.now())
    return cloud, deployed.dag, metrics


class TestAppsDifferential:
    """Every Table-1 app, learned metrics, 20 random plans each."""

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    @pytest.mark.parametrize("kv_region", ["us-east-1", None])
    def test_bit_identical_to_the_scalar_reference(self, app_name, kv_region):
        cloud, dag, metrics = learned_app(app_name)
        plans = random_plans(dag, 20)
        if kv_region is None and len(dag) > 1:
            # The KV region is then the *plan's* start region: the
            # tables must not be shared across plans that differ in it.
            starts = {plan.region_of(dag.start_node) for plan in plans}
            assert len(starts) > 1
        assert_kernel_equals_reference(
            dag, metrics, plans, cloud=cloud, kv_region=kv_region,
            batch_size=40, max_samples=100,
        )

    def test_convergence_stops_both_at_the_same_batch(self):
        cloud, dag, metrics = learned_app("text2speech_censoring")
        kwargs = dict(cloud=cloud, batch_size=20, max_samples=400,
                      cov_threshold=0.01)
        production = make_estimator(dag, metrics, vectorized=True, **kwargs)
        reference = make_estimator(dag, metrics, vectorized=False, **kwargs)
        stopped_at = set()
        for plan in random_plans(dag, 6):
            got = production.estimate_profile(plan)
            assert_profiles_identical(got, reference.estimate_profile(plan))
            assert got.n_samples % 20 == 0
            stopped_at.add(got.n_samples)
        # Several batches each, none simply run to the cap, and not
        # all stopping together.
        assert 20 < min(stopped_at) < max(stopped_at) < 400


# ------------------------------------------------------- hand-built shapes
class TestShapesDifferential:
    @pytest.mark.parametrize("cond_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kv_region", ["us-west-2", None])
    def test_conditional_probabilities(self, diamond_dag, cond_prob,
                                       kv_region):
        # 0: ``c`` never runs (its in-edge never fires, so neither does
        # c -> d); 1: the conditional edge fires in every sample but is
        # still masked — "always active" is a property of the DAG, not
        # of the probability.
        assert_kernel_equals_reference(
            diamond_dag, diamond_data(cond_prob),
            random_plans(diamond_dag, 12), kv_region=kv_region,
            batch_size=50, max_samples=150,
        )

    def test_node_with_external_data_that_may_not_run(self, diamond_dag):
        data = diamond_data(0.5, external={"c": ("us-east-1", 40e6),
                                           "d": ("us-west-1", 1e6)})
        assert_kernel_equals_reference(
            diamond_dag, data, random_plans(diamond_dag, 12),
            batch_size=50, max_samples=100,
        )

    def test_many_batches_and_a_batch_that_does_not_divide_the_cap(
            self, diamond_dag, chain_dag):
        assert_kernel_equals_reference(
            diamond_dag, diamond_data(0.5), random_plans(diamond_dag, 4),
            batch_size=20, max_samples=400,
        )
        chain = TableData(
            exec_times={n: [0.5, 0.6, 2.0] for n in "abc"},
            edge_sizes={("a", "b"): [1e5, 9e6], ("b", "c"): [4e6]},
        )
        production = make_estimator(chain_dag, chain, batch_size=30,
                                    max_samples=100)
        reference = make_estimator(chain_dag, chain, vectorized=False,
                                   batch_size=30, max_samples=100)
        for plan in random_plans(chain_dag, 4):
            got = production.estimate_profile(plan)
            assert got.n_samples == 100  # 30 + 30 + 30 + 10
            assert_profiles_identical(got, reference.estimate_profile(plan))

    def test_reprofiling_a_plan_reuses_the_tables_and_the_stream(
            self, diamond_dag):
        est = make_estimator(diamond_dag, diamond_data(0.5),
                             batch_size=50, max_samples=100)
        plans = random_plans(diamond_dag, 5)
        first = [est.estimate_profile(p) for p in plans]
        for plan, profile in zip(reversed(plans), reversed(first)):
            assert_profiles_identical(est.estimate_profile(plan), profile)


# ------------------------------------------------------- random small DAGs
@st.composite
def small_workflows(draw):
    """A random single-start DAG of up to six nodes with random
    conditional edges, supports, probabilities, pinned data and plan."""
    n = draw(st.integers(1, 6))
    names = [f"n{i}" for i in range(n)]
    dag = WorkflowDAG("random")
    for name in names:
        dag.add_node(Node(name=name, function=name))
    positive = st.floats(0.01, 50.0, allow_nan=False)
    sizes = st.floats(0.0, 5e7, allow_nan=False)
    edge_sizes, probabilities = {}, {}
    for i in range(1, n):
        # At least one predecessor each: exactly one start node.
        for p in sorted(draw(st.sets(st.integers(0, i - 1), min_size=1,
                                     max_size=3))):
            conditional = draw(st.booleans())
            dag.add_edge(Edge(names[p], names[i], conditional=conditional))
            edge_sizes[(names[p], names[i])] = draw(
                st.lists(sizes, min_size=1, max_size=4))
            if conditional:
                probabilities[(names[p], names[i])] = draw(
                    st.sampled_from([0.0, 0.3, 1.0]))
    dag.validate()
    data = TableData(
        exec_times={name: draw(st.lists(positive, min_size=1, max_size=4))
                    for name in names},
        edge_sizes=edge_sizes,
        probabilities=probabilities,
        external={
            name: (draw(st.sampled_from(REGIONS)), draw(sizes) + 1.0)
            for name in draw(st.sets(st.sampled_from(names), max_size=2))
        },
        input_sizes=draw(st.lists(sizes, min_size=1, max_size=3)),
    )
    plan = DeploymentPlan(
        {name: draw(st.sampled_from(REGIONS)) for name in names}
    )
    return dag, data, plan


class TestRandomDagProperty:
    @settings(max_examples=60, deadline=None)
    @given(workflow=small_workflows(),
           kv_region=st.sampled_from((None,) + REGIONS),
           seed=st.integers(0, 2**32 - 1))
    def test_kernel_equals_reference(self, workflow, kv_region, seed):
        dag, data, plan = workflow
        assert_kernel_equals_reference(
            dag, data, [plan], seed=seed, kv_region=kv_region,
            batch_size=7, max_samples=20,
        )


# ------------------------------------------------------------- work counts
class CountingData:
    """Counts every call the estimator makes on a WorkflowModelData,
    per method and arguments."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def counted(*args):
            self.calls[(name,) + args] += 1
            return method(*args)

        return counted


class TestDataIsReadOncePerKey:
    ACCESSORS = {
        "execution_time_dist", "edge_probability", "edge_size_dist",
        "node_memory_mb", "node_vcpu", "node_cpu_utilization",
        "node_external_bytes", "input_size_dist",
    }

    def test_however_many_plans_are_profiled(self, diamond_dag):
        data = CountingData(diamond_data(0.5))
        est = make_estimator(diamond_dag, data, kv_region=None,
                             batch_size=20, max_samples=100)
        for plan in random_plans(diamond_dag, 40):
            est.estimate_profile(plan)
        after_forty = dict(data.calls)
        assert {key[0] for key in after_forty} == self.ACCESSORS
        assert set(after_forty.values()) == {1}
        # 40 random plans over 4 regions reach every (node, region).
        assert sum(k[0] == "execution_time_dist" for k in after_forty) == 16
        # Only the conditional edge's probability is ever asked for.
        assert [k for k in after_forty if k[0] == "edge_probability"] == [
            ("edge_probability", "a", "c")
        ]
        for plan in random_plans(diamond_dag, 40, seed=8):
            est.estimate_profile(plan)
        assert dict(data.calls) == after_forty

    def test_on_learned_metrics(self):
        cloud, dag, metrics = learned_app("image_processing")
        data = CountingData(metrics)
        est = make_estimator(dag, data, cloud=cloud, batch_size=30,
                             max_samples=60)
        for plan in random_plans(dag, 30):
            est.estimate_profile(plan)
        assert set(data.calls.values()) == {1}
        assert len(data.calls) <= (
            len(dag) * len(REGIONS)  # execution_time_dist
            + len(dag.edges)  # edge_size_dist (no conditional edges)
            + 4 * len(dag)  # node_* accessors
            + 1  # input_size_dist
        )


# ------------------------------------------------- validation on the support
class TestSupportIsValidatedWhole:
    """The models' ``*_batch`` checks run once, on a whole support — so
    a bad observation raises even where no sample would have met it.
    Same ``ValueError`` text as the per-sample checks they replace."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_negative_size_on_an_edge_that_never_fires(self, diamond_dag,
                                                       vectorized):
        data = diamond_data(0.0)
        data.edge_sizes[("a", "c")] = [1e6, -1.0]
        est = make_estimator(diamond_dag, data, vectorized=vectorized,
                             batch_size=5, max_samples=5)
        with pytest.raises(ValueError, match="size_bytes must be non-negative"):
            est.estimate_profile(random_plans(diamond_dag, 1)[0])

    def test_negative_input_size(self, chain_dag):
        data = TableData(
            exec_times={n: [1.0] for n in "abc"},
            edge_sizes={("a", "b"): [1e6], ("b", "c"): [1e6]},
            input_sizes=[1e6] * 200 + [-5.0],
        )
        est = make_estimator(chain_dag, data, batch_size=1, max_samples=1)
        with pytest.raises(ValueError, match="size_bytes must be non-negative"):
            est.estimate_profile(random_plans(chain_dag, 1)[0])

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_non_positive_duration_on_a_node_that_never_runs(
            self, diamond_dag, vectorized):
        data = diamond_data(0.0)
        data.exec_times["c"] = [1.0] * 200 + [0.0]
        est = make_estimator(diamond_dag, data, vectorized=vectorized,
                             batch_size=1, max_samples=1)
        with pytest.raises(ValueError,
                           match="duration and vCPU count must be positive"):
            est.estimate_profile(random_plans(diamond_dag, 1)[0])

    def test_a_failed_table_is_not_kept(self, diamond_dag):
        data = diamond_data(0.5)
        bad = list(data.exec_times["d"])
        data.exec_times["d"] = bad + [-1.0]
        est = make_estimator(diamond_dag, data, batch_size=10, max_samples=10)
        plan = random_plans(diamond_dag, 1)[0]
        for _ in range(2):
            with pytest.raises(ValueError):
                est.estimate_profile(plan)


# ------------------------------------------------------------------ the draw
def _twin_draws(seed, highs, n, n_cond):
    """The per-distribution calls and the broadcast call from twin
    generators: ``(rows, matrix, reference, twin)``."""
    reference = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    if n_cond:
        assert np.array_equal(
            reference.random((n, n_cond)), twin.random((n, n_cond))
        )
    rows = [reference.integers(0, int(h), size=n) for h in highs]
    column = np.array(highs, dtype=np.int64).reshape(-1, 1)
    matrix = twin.integers(0, column, size=(len(highs), n))
    return rows, matrix, reference, twin


class TestBroadcastDrawDifferential:
    """One ``rng.integers(0, highs, size=(m, n))`` call is the ``m``
    calls ``rng.integers(0, highs[i], size=n)`` it replaced: the same
    rows, the same generator state afterwards — the buffered 32-bit half
    (``has_uint32`` / ``uinteger``) included — and the same next draw.
    numpy promises none of this; CI's ``numpy-floor`` job checks it on
    the oldest numpy ``pyproject.toml`` admits."""

    def test_equals_one_call_per_distribution(self):
        shapes = np.random.default_rng(2024)
        buffered = collections.Counter()
        for seed in range(2400):
            m = int(shapes.integers(1, 21))
            highs = np.where(
                shapes.random(m) < 0.5,
                shapes.choice([1, 2, 2**20], size=m),
                shapes.integers(1, 2**20 + 1, size=m),
            )
            if seed % 50 == 0:
                highs[:] = 1
            n = (1, 37, 100)[seed % 3]
            n_cond = (0, 1 + seed % 5)[seed % 2]
            rows, matrix, reference, twin = _twin_draws(seed, highs, n, n_cond)
            assert matrix.shape == (m, n)
            if seed % 100 == 0:  # length-1 supports consume nothing
                assert not matrix.any()
                assert twin.bit_generator.state == (
                    np.random.default_rng(seed).bit_generator.state
                )
            for row, want in zip(matrix, rows):
                assert np.array_equal(row, want), seed
            state = twin.bit_generator.state
            assert state == reference.bit_generator.state, seed
            buffered[state["has_uint32"]] += 1
            assert twin.random() == reference.random()
        # Both parities of 32-bit draws came up: the buffered half was
        # exercised, not just skipped.
        assert buffered[0] > 100 and buffered[1] > 100

    @pytest.mark.parametrize("app_name", sorted(ALL_APPS))
    def test_production_draw_equals_the_oracle_draw(self, app_name):
        _cloud, dag, metrics = learned_app(app_name)
        est = make_estimator(dag, metrics, kv_region=None)
        for plan in random_plans(dag, 10):
            steps = est._plan_steps(plan)
            reference, twin = est.plan_rng(plan), est.plan_rng(plan)
            for n in (1, 37, 200):
                got = MonteCarloEstimator._draw_batch(est, steps, n, twin)
                want = ScalarReferenceEstimator._draw_batch(
                    est, steps, n, reference
                )
                assert (got.uniforms is None) == (want.uniforms is None)
                if got.uniforms is not None:
                    assert np.array_equal(got.uniforms, want.uniforms)
                assert np.array_equal(got.input_idx, want.input_idx)
                for got_idx, want_idx in ((got.edge_idx, want.edge_idx),
                                          (got.exec_idx, want.exec_idx)):
                    assert list(got_idx) == list(want_idx)
                    for key, idx in got_idx.items():
                        assert np.array_equal(idx, want_idx[key]), key
                assert twin.bit_generator.state == reference.bit_generator.state


class CountingGenerator(np.random.Generator):
    """``integers`` and ``random`` as Python methods, so ``sys.setprofile``
    sees them (numpy's own are compiled); the stream is untouched."""

    def integers(self, *args, **kwargs):
        return super().integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return super().random(*args, **kwargs)


def _draw_calls(estimator, plan):
    """``(profile, integers calls, random calls)`` of one profile run
    drawing from a :class:`CountingGenerator` on the plan's stream."""
    plan_rng = estimator.plan_rng
    estimator.plan_rng = lambda p: CountingGenerator(plan_rng(p).bit_generator)
    calls = collections.Counter()
    codes = {
        CountingGenerator.integers.__code__: "integers",
        CountingGenerator.random.__code__: "random",
    }

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = estimator.estimate_profile(plan)
    finally:
        sys.setprofile(None)
        del estimator.plan_rng
    return result, calls["integers"], calls["random"]


class TestDrawWorkCounts:
    """One ``integers`` call per batch, and one ``random`` call per batch
    of a DAG with conditional edges — whatever the number of
    distributions."""

    def test_one_integers_call_per_batch(self, diamond_dag):
        data = diamond_data(0.5)
        kwargs = dict(batch_size=30, max_samples=100)  # 30 + 30 + 30 + 10
        counted = make_estimator(diamond_dag, data, **kwargs)
        plain = make_estimator(diamond_dag, data, **kwargs)
        for plan in random_plans(diamond_dag, 5):
            profile, integers, random = _draw_calls(counted, plan)
            assert_profiles_identical(profile, plain.estimate_profile(plan))
            assert profile.n_samples == 100
            assert integers == random == 4

    def test_on_an_app_without_conditional_edges(self):
        cloud, dag, metrics = learned_app("image_processing")
        assert not any(e.conditional for e in dag.edges)
        est = make_estimator(dag, metrics, cloud=cloud, batch_size=40,
                             max_samples=80)
        for plan in random_plans(dag, 3):
            profile, integers, random = _draw_calls(est, plan)
            assert (integers, random) == (2, 0)

    def test_the_oracle_is_what_was_counted(self, diamond_dag):
        """The former draw: one ``integers`` call per distribution."""
        est = make_estimator(diamond_dag, diamond_data(0.5), vectorized=False,
                             batch_size=50, max_samples=100)
        distributions = 1 + len(diamond_dag.edges) + len(diamond_dag)
        _profile, integers, random = _draw_calls(
            est, random_plans(diamond_dag, 1)[0]
        )
        assert (integers, random) == (2 * distributions, 2)

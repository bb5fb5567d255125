"""Property-based tests (hypothesis) on core data structures and models."""


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.simulator import SimulationEnvironment
from repro.data.carbon import generate_carbon_trace
from repro.data.latency import LatencySource
from repro.data.regions import EVALUATION_REGIONS
from repro.metrics.carbon import CarbonModel, TransmissionScenario
from repro.metrics.distributions import EmpiricalDistribution
from repro.metrics.forecast import HoltWintersForecaster
from repro.model.dag import Edge, Node, WorkflowDAG
from repro.model.plan import DeploymentPlan, HourlyPlanSet

regions_st = st.sampled_from(list(EVALUATION_REGIONS))


# ----------------------------------------------------------------- DAG props
@st.composite
def random_dags(draw):
    """Random valid single-start DAGs: edges only go forward in index
    order, node 0 reaches everything."""
    n = draw(st.integers(min_value=2, max_value=8))
    names = [f"n{i}" for i in range(n)]
    dag = WorkflowDAG("prop")
    for name in names:
        dag.add_node(Node(name, name))
    # Ensure connectivity: every node i>0 gets an edge from some j<i.
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        conditional = draw(st.booleans())
        dag.add_edge(Edge(names[j], names[i], conditional=conditional))
    # Extra forward edges.
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        if not dag.has_edge(names[a], names[b]):
            dag.add_edge(Edge(names[a], names[b]))
    dag.validate()
    return dag


class TestDagProperties:
    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_topological_order_respects_edges(self, dag):
        order = {n: i for i, n in enumerate(dag.topological_order())}
        for edge in dag.edges:
            assert order[edge.src] < order[edge.dst]

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_single_start_and_reachability(self, dag):
        start = dag.start_node
        reachable = dag.descendants(start) | {start}
        assert reachable == set(dag.node_names)

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_sync_nodes_have_multiple_in_edges(self, dag):
        for node in dag.node_names:
            assert dag.is_sync_node(node) == (len(dag.in_edges(node)) > 1)


# -------------------------------------------------------------- plan props
class TestPlanProperties:
    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            regions_st, min_size=1, max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_plan_serialization_roundtrip(self, assignments):
        plan = DeploymentPlan(assignments)
        assert DeploymentPlan.from_dict(plan.to_dict()) == plan

    @given(
        st.dictionaries(st.integers(min_value=0, max_value=23), regions_st,
                        min_size=1, max_size=24),
    )
    @settings(max_examples=50, deadline=None)
    def test_plan_set_every_hour_resolves(self, hours_to_region):
        plans = {
            h: DeploymentPlan({"n": r}) for h, r in hours_to_region.items()
        }
        plan_set = HourlyPlanSet(plans)
        for h in range(24):
            plan = plan_set.plan_for_hour(h)
            assert plan.region_of("n") in EVALUATION_REGIONS


# ----------------------------------------------------------- carbon props
class TestCarbonModelProperties:
    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.001, max_value=7200.0),
        st.floats(min_value=128, max_value=10240),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_execution_carbon_non_negative_and_monotone_in_intensity(
        self, intensity, duration, memory, utilisation
    ):
        model = CarbonModel(TransmissionScenario.best_case())
        n_vcpu = memory / 1769.0
        carbon = model.execution_carbon_g(
            intensity, duration, memory, n_vcpu,
            cpu_total_time_s=duration * n_vcpu * utilisation,
        )
        assert carbon >= 0.0
        doubled = model.execution_carbon_g(
            intensity * 2, duration, memory, n_vcpu,
            cpu_total_time_s=duration * n_vcpu * utilisation,
        )
        assert doubled == pytest.approx(2 * carbon, rel=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1e10),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_transmission_carbon_linear_in_size(self, intensity, size, intra):
        model = CarbonModel(TransmissionScenario.best_case())
        c1 = model.transmission_carbon_g(intensity, size, intra)
        c2 = model.transmission_carbon_g(intensity, 2 * size, intra)
        assert c1 >= 0
        assert c2 == pytest.approx(2 * c1, rel=1e-9, abs=1e-15)

    @given(st.floats(min_value=0.001, max_value=3600))
    @settings(max_examples=50, deadline=None)
    def test_power_bounded_by_pmin_pmax(self, duration):
        model = CarbonModel(TransmissionScenario.best_case())
        for cpu_fraction in (0.0, 0.3, 1.0, 5.0):
            p = model.vcpu_power_kw(duration * cpu_fraction, duration, 1.0)
            assert model.p_min <= p <= model.p_max


# --------------------------------------------------------- dist props
class TestDistributionProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_mean_between_min_and_max(self, samples):
        dist = EmpiricalDistribution(samples)
        eps = 1e-9 * max(1.0, abs(dist.min()), abs(dist.max()))
        assert dist.min() - eps <= dist.mean() <= dist.max() + eps
        assert dist.min() - eps <= dist.percentile(50) <= dist.max() + eps

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1,
                    max_size=100),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_window_keeps_newest(self, samples, window):
        dist = EmpiricalDistribution(samples, max_samples=window)
        expected = samples[-window:]
        assert list(dist.samples) == expected

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1,
                    max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_bootstrap_samples_come_from_data(self, samples):
        dist = EmpiricalDistribution(samples)
        rng = np.random.default_rng(0)
        draws = dist.sample(rng, size=20)
        for d in draws:
            assert d in samples


# ------------------------------------------------------- simulator props
class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_events_always_execute_in_order(self, delays):
        env = SimulationEnvironment()
        seen = []
        for d in delays:
            env.schedule(d, lambda t=d: seen.append(env.now()))
        env.run_until_idle()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


# ------------------------------------------------------- forecast props
class TestForecastProperties:
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=72))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_forecasts_always_finite_nonnegative(self, seed, horizon):
        trace = generate_carbon_trace("US-CAISO", 24 * 7, seed=seed)
        pred = HoltWintersForecaster().fit(trace).forecast(horizon)
        assert len(pred) == horizon
        assert np.all(np.isfinite(pred))
        assert np.all(pred >= 0)


# --------------------------------------------------------- latency props
class TestLatencyProperties:
    @given(regions_st, regions_st)
    @settings(max_examples=30, deadline=None)
    def test_rtt_symmetric_and_positive(self, a, b):
        src = LatencySource()
        assert src.rtt(a, b) == pytest.approx(src.rtt(b, a))
        assert src.rtt(a, b) > 0

    @given(regions_st, regions_st, regions_st)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_roughly_holds(self, a, b, c):
        # Geodesic-derived latencies honour the triangle inequality up
        # to the fixed per-hop overhead.
        src = LatencySource()
        direct = src.one_way(a, c)
        via = src.one_way(a, b) + src.one_way(b, c)
        assert direct <= via + 1e-9

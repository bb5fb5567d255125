"""Tests for empirical distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.distributions import EmpiricalDistribution


class TestEmpiricalDistribution:
    def test_basic_stats(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert dist.mean() == pytest.approx(2.5)
        assert dist.min() == 1.0
        assert dist.max() == 4.0
        assert len(dist) == 4

    def test_percentiles(self):
        dist = EmpiricalDistribution(range(1, 101))
        assert dist.percentile(50) == pytest.approx(50.5)
        assert dist.p95() == pytest.approx(95.05)

    def test_percentile_bounds(self):
        dist = EmpiricalDistribution([1.0])
        with pytest.raises(ValueError):
            dist.percentile(101)

    def test_empty_queries_raise(self):
        dist = EmpiricalDistribution()
        assert not dist
        with pytest.raises(ValueError):
            dist.mean()
        with pytest.raises(ValueError):
            dist.sample(np.random.default_rng(0))

    def test_non_finite_rejected(self):
        dist = EmpiricalDistribution()
        with pytest.raises(ValueError):
            dist.add(float("nan"))
        with pytest.raises(ValueError):
            dist.add(float("inf"))

    def test_sliding_window_caps_samples(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0], max_samples=3)
        dist.add(4.0)
        dist.add(5.0)
        assert list(dist.samples) == [3.0, 4.0, 5.0]

    def test_stats_track_adds_and_equal_the_list_based_results(self):
        # The statistics read the cached observation array; it must be
        # rebuilt on every add (also past the sliding-window cap) and
        # give the very doubles numpy gives for the sample list.
        rng = np.random.default_rng(7)
        dist = EmpiricalDistribution(max_samples=40)
        for value in rng.lognormal(0.0, 2.0, size=100):
            dist.add(float(value))
            samples = list(dist.samples)
            assert dist.mean() == float(np.mean(samples))
            assert dist.std() == float(np.std(samples))
            assert dist.min() == float(np.min(samples))
            assert dist.max() == float(np.max(samples))
            for q in (0, 50, 95, 100):
                assert dist.percentile(q) == float(np.percentile(samples, q))

    def test_sampling_draws_from_observations(self):
        dist = EmpiricalDistribution([10.0, 20.0])
        rng = np.random.default_rng(0)
        draws = dist.sample(rng, size=100)
        assert set(np.unique(draws)) <= {10.0, 20.0}

    def test_single_sample_draw(self):
        dist = EmpiricalDistribution([7.0])
        assert dist.sample(np.random.default_rng(0)) == 7.0

    def test_support_is_a_read_only_snapshot_in_arrival_order(self):
        dist = EmpiricalDistribution([3.0, 1.0, 2.0], max_samples=3)
        support = dist.support()
        assert support.tolist() == [3.0, 1.0, 2.0]
        assert support is dist.support()
        with pytest.raises(ValueError):
            support[0] = 9.0
        dist.add(5.0)  # drops the oldest; the old snapshot is untouched
        assert support.tolist() == [3.0, 1.0, 2.0]
        assert dist.support().tolist() == [1.0, 2.0, 5.0]

    def test_support_of_nothing_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            EmpiricalDistribution().support()

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(max_samples=0)


def one_by_one(samples, max_samples):
    """The constructor as it was: ``add(float(s))`` per sample."""
    dist = EmpiricalDistribution(max_samples=max_samples)
    for s in samples:
        dist.add(float(s))
    return dist


def built(make):
    try:
        return make().samples
    except Exception as exc:  # the very error, compared by type and text
        return (type(exc), str(exc))


class TestOneStepConstruction:
    """``EmpiricalDistribution(samples)`` keeps and rejects exactly what
    adding the samples one by one keeps and rejects."""

    sample = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10**6, 10**6),
        st.sampled_from(("1.5", "inf", "x", None, 10**400)),
    )

    @settings(max_examples=300)
    @given(st.lists(sample, max_size=40), st.integers(1, 12), st.booleans())
    def test_equals_adding_one_by_one(self, samples, max_samples, as_generator):
        source = iter(samples) if as_generator else samples
        assert built(lambda: EmpiricalDistribution(source, max_samples)) == built(
            lambda: one_by_one(samples, max_samples)
        )

    def test_the_kept_list_is_its_own(self):
        samples = [1.0, 2.0, 3.0]
        dist = EmpiricalDistribution(samples)
        samples.append(4.0)
        dist.add(5.0)
        assert dist.samples == (1.0, 2.0, 3.0, 5.0)
        assert samples == [1.0, 2.0, 3.0, 4.0]

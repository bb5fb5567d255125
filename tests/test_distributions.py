"""Tests for empirical distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.distributions import MAX_SAMPLES, EmpiricalDistribution


class TestEmpiricalDistribution:
    def test_basic_stats(self):
        dist = EmpiricalDistribution([3.0, 1.0, 4.0, 2.0])
        assert dist.min() == 1.0
        assert len(dist) == 4
        assert dist.support().tolist() == [3.0, 1.0, 4.0, 2.0]

    def test_empty_queries_raise(self):
        dist = EmpiricalDistribution()
        assert len(dist) == 0
        with pytest.raises(ValueError, match="no samples"):
            dist.min()

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                EmpiricalDistribution([1.0, bad])

    def test_sliding_window_caps_samples(self):
        dist = EmpiricalDistribution(range(MAX_SAMPLES + 3))
        assert MAX_SAMPLES == 2000
        assert len(dist) == MAX_SAMPLES
        assert dist.support().tolist() == [float(i) for i in range(3, MAX_SAMPLES + 3)]

    def test_stats_track_adds_and_equal_the_list_based_results(self):
        # min() reads the frozen support and gives the very double
        # numpy gives for the sample list, whatever its length.
        values = np.random.default_rng(7).lognormal(0.0, 2.0, size=100).tolist()
        for n in range(1, len(values) + 1):
            dist = EmpiricalDistribution(values[:n])
            assert dist.min() == float(np.min(values[:n]))
            assert dist.support().tolist() == values[:n]

    def test_sampling_draws_from_observations(self):
        # The Monte-Carlo kernel's bootstrap draw: indices into the
        # support, below len().
        dist = EmpiricalDistribution([10.0, 20.0])
        idx = np.random.default_rng(0).integers(0, len(dist), size=100)
        assert set(np.unique(dist.support()[idx])) == {10.0, 20.0}

    def test_single_sample_draw(self):
        dist = EmpiricalDistribution([7.0])
        idx = np.random.default_rng(0).integers(0, len(dist), size=10)
        assert dist.support()[idx].tolist() == [7.0] * 10

    def test_support_is_a_read_only_snapshot_in_arrival_order(self):
        dist = EmpiricalDistribution([3.0, 1.0, 2.0])
        support = dist.support()
        assert support.tolist() == [3.0, 1.0, 2.0]
        assert support.dtype == np.float64
        assert support is dist.support()
        with pytest.raises(ValueError):
            support[0] = 9.0

    def test_support_of_nothing_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            EmpiricalDistribution().support()


def newest_finite(samples):
    """The rule, one sample at a time: convert, reject the first
    non-finite value, keep the newest ``MAX_SAMPLES`` in order."""
    kept = []
    for s in samples:
        value = float(s)
        if not math.isfinite(value):
            raise ValueError(f"sample must be finite, got {value}")
        kept.append(value)
        del kept[:-MAX_SAMPLES]
    return kept


def kept(samples):
    dist = EmpiricalDistribution(samples)
    return dist.support().tolist() if len(dist) else []


def outcome(make):
    """What ``make`` returns, or the very error it raises (compared by
    type and text)."""
    try:
        return make()
    except Exception as exc:
        return (type(exc), str(exc))


class TestOneStepConstruction:
    """``EmpiricalDistribution(samples)`` keeps and rejects exactly what
    the one-sample-at-a-time rule keeps and rejects: the newest 2,000
    finite samples, in order."""

    sample = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10**6, 10**6),
        st.sampled_from(("1.5", "inf", "x", None, 10**400)),
    )

    @settings(max_examples=300)
    @given(st.integers(0, MAX_SAMPLES + 12), st.lists(sample, max_size=40), st.booleans())
    def test_equals_adding_one_by_one(self, n_older, samples, as_generator):
        # ``n_older`` plain samples first, so the window's edge moves
        # through the drawn ones.
        samples = [float(i) for i in range(n_older)] + samples
        source = iter(samples) if as_generator else samples
        assert outcome(lambda: kept(source)) == outcome(lambda: newest_finite(samples))

    def test_the_kept_list_is_its_own(self):
        samples = [1.0, 2.0, 3.0]
        dist = EmpiricalDistribution(samples)
        samples.append(4.0)
        samples[0] = 9.0
        assert dist.support().tolist() == [1.0, 2.0, 3.0]
        assert samples == [9.0, 2.0, 3.0, 4.0]

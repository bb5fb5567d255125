"""Property-based tests for the token bucket (§5.2 invariants)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trigger import TokenBucket, TriggerSettings

positive = st.floats(min_value=0.01, max_value=1e4)


class TestBucketInvariants:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=3600.0),
        st.floats(min_value=128.0, max_value=10240.0),
        positive,
        positive,
    )
    @settings(max_examples=60, deadline=None)
    def test_tokens_never_negative_never_exceed_capacity(
        self, invocations, runtime, memory, home_i, best_i
    ):
        bucket = TokenBucket(n_nodes=5, n_regions=4)
        bucket.earn(
            invocations=invocations, avg_runtime_s=runtime,
            avg_memory_mb=memory, home_intensity=home_i,
            best_intensity=best_i, period_s=3600.0,
        )
        assert 0.0 <= bucket.tokens_g <= bucket.capacity_g + 1e-12

    @given(positive)
    @settings(max_examples=40, deadline=None)
    def test_consume_conserves_tokens(self, intensity):
        bucket = TokenBucket(n_nodes=5, n_regions=4)
        # Fund exactly what this intensity's solve needs plus margin
        # (the capacity is pegged to a nominal 400 g/kWh grid, so a very
        # dirty framework region can cost more than "capacity").
        bucket.tokens_g = bucket.solve_cost_g(intensity, 24) * 1.5
        before = bucket.tokens_g
        spent = bucket.consume(intensity, 24)
        assert bucket.tokens_g == pytest.approx(before - spent)
        assert spent == pytest.approx(bucket.solve_cost_g(intensity, 24))

    @given(positive, st.integers(min_value=1, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_solve_cost_monotone_in_granularity(self, intensity, hours):
        bucket = TokenBucket(n_nodes=3, n_regions=4)
        assert bucket.solve_cost_g(intensity, hours) <= bucket.solve_cost_g(
            intensity, 24
        ) + 1e-12

    @given(positive)
    @settings(max_examples=40, deadline=None)
    def test_check_delay_always_within_bounds(self, intensity):
        settings_ = TriggerSettings()
        bucket = TokenBucket(n_nodes=5, n_regions=4, settings=settings_)
        for fill in (0.0, 0.5, 1.0):
            bucket.tokens_g = fill * bucket.capacity_g
            delay = bucket.next_check_delay_s(intensity)
            assert settings_.min_check_period_s <= delay <= settings_.max_check_period_s

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10**4), positive),
            min_size=1, max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_affordable_granularity_consistent_with_costs(self, history):
        bucket = TokenBucket(n_nodes=4, n_regions=4)
        for invocations, home_i in history:
            bucket.earn(
                invocations=invocations, avg_runtime_s=2.0,
                avg_memory_mb=1769.0, home_intensity=home_i,
                best_intensity=home_i * 0.1, period_s=3600.0,
            )
        granularity = bucket.affordable_granularity(400.0)
        if granularity == 24:
            assert bucket.tokens_g >= bucket.solve_cost_g(400.0, 24)
        elif granularity == 1:
            assert bucket.tokens_g >= bucket.solve_cost_g(400.0, 1)
            assert bucket.tokens_g < bucket.solve_cost_g(400.0, 24)
        else:
            assert bucket.tokens_g < bucket.solve_cost_g(400.0, 1)


class TestSteepnessScaling:
    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_delay_equals_the_band_scaled_form(self, min_s, extra_s, fill, rate):
        """Scaling the numerator by 8 instead of dividing the band by 8
        moves no delay on a normal band."""
        s = TriggerSettings(min_check_period_s=min_s, max_check_period_s=min_s + extra_s)
        bucket = TokenBucket(n_nodes=5, n_regions=4, settings=s)
        cost = bucket.solve_cost_g(400.0, 24)
        bucket.tokens_g = fill * cost
        bucket._last_earn_rate_g_per_s = rate
        band = s.max_check_period_s - s.min_check_period_s
        deficit = max(0.0, cost - bucket.tokens_g)
        if deficit == 0.0 or band == 0.0:
            expected = s.min_check_period_s
        else:
            midpoint = (s.min_check_period_s + s.max_check_period_s) / 2.0
            z = max(-700.0, (deficit / rate - midpoint) / (band / 8.0))
            sigmoid = 1.0 / (1.0 + math.exp(-z))
            expected = s.min_check_period_s + sigmoid * band
        assert bucket.next_check_delay_s(400.0) == expected

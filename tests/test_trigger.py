"""Tests for the token-bucket solve trigger (§5.2)."""

import pytest

from repro.core.trigger import EarnReport, TokenBucket, TriggerSettings


@pytest.fixture
def bucket():
    return TokenBucket(n_nodes=7, n_regions=4)


class TestSolveCost:
    def test_scales_with_complexity(self):
        small = TokenBucket(n_nodes=1, n_regions=4).solve_cost_g(400.0)
        big = TokenBucket(n_nodes=10, n_regions=4).solve_cost_g(400.0)
        assert big == pytest.approx(10 * small)

    def test_scales_with_granularity(self, bucket):
        hourly = bucket.solve_cost_g(400.0, granularity_hours=24)
        daily = bucket.solve_cost_g(400.0, granularity_hours=1)
        assert hourly == pytest.approx(24 * daily)

    def test_scales_with_framework_intensity(self, bucket):
        # Solving from a clean framework region is cheaper (§5.2).
        assert bucket.solve_cost_g(34.0) < bucket.solve_cost_g(400.0) / 10

    def test_calibrated_to_paper_anchor(self):
        # §9.7: ~534 s for 24 hourly solves of Text2Speech (5 nodes, 4
        # regions + framework machinery) -> per-node-region ~0.8 s.
        bucket = TokenBucket(n_nodes=7, n_regions=4)
        seconds = (
            bucket.settings.solve_seconds_per_node_region * 7 * 4 * 24
        )
        assert 300 < seconds < 800

    def test_invalid_args(self, bucket):
        with pytest.raises(ValueError):
            bucket.solve_cost_g(400.0, granularity_hours=0)
        with pytest.raises(ValueError):
            TokenBucket(n_nodes=0, n_regions=4)


class TestEarning:
    def test_earn_proportional_to_traffic(self, bucket):
        report = bucket.earn(
            invocations=1000, avg_runtime_s=5.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
        )
        assert isinstance(report, EarnReport)
        assert report.earned_g > 0
        double = TokenBucket(n_nodes=7, n_regions=4)
        report2 = double.earn(
            invocations=2000, avg_runtime_s=5.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
        )
        assert report2.earned_g == pytest.approx(2 * report.earned_g)

    def test_no_differential_no_tokens(self, bucket):
        report = bucket.earn(
            invocations=1000, avg_runtime_s=5.0, avg_memory_mb=1769,
            home_intensity=34.0, best_intensity=400.0, period_s=3600.0,
        )
        assert report.earned_g == 0.0

    def test_realized_savings_add(self, bucket):
        base = bucket.earn(
            invocations=10, avg_runtime_s=1.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
        )
        bucket2 = TokenBucket(n_nodes=7, n_regions=4)
        extra = bucket2.earn(
            invocations=10, avg_runtime_s=1.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
            realized_saving_g=5.0,
        )
        assert extra.earned_g == pytest.approx(base.earned_g + 5.0)

    def test_capacity_cap(self, bucket):
        bucket.earn(
            invocations=10**9, avg_runtime_s=100.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
        )
        assert bucket.tokens_g == pytest.approx(bucket.capacity_g)

    def test_invalid_earn_args(self, bucket):
        with pytest.raises(ValueError):
            bucket.earn(-1, 1.0, 1769, 400.0, 34.0, 3600.0)
        with pytest.raises(ValueError):
            bucket.earn(1, 1.0, 1769, 400.0, 34.0, 0.0)


class TestDecisions:
    def fill(self, bucket, target_g):
        bucket.tokens_g = target_g

    def test_granularity_ladder(self, bucket):
        # §5.2: hourly when rich, daily when tight, none when broke.
        hourly_cost = bucket.solve_cost_g(400.0, 24)
        daily_cost = bucket.solve_cost_g(400.0, 1)
        self.fill(bucket, hourly_cost * 1.1)
        assert bucket.affordable_granularity(400.0) == 24
        self.fill(bucket, daily_cost * 1.5)
        assert bucket.affordable_granularity(400.0) == 1
        self.fill(bucket, daily_cost * 0.5)
        assert bucket.affordable_granularity(400.0) is None

    def test_consume_deducts(self, bucket):
        cost = bucket.solve_cost_g(400.0, 24)
        self.fill(bucket, cost * 2)
        spent = bucket.consume(400.0, 24)
        assert spent == pytest.approx(cost)
        assert bucket.tokens_g == pytest.approx(cost)

    def test_consume_insufficient_raises(self, bucket):
        with pytest.raises(ValueError, match="insufficient"):
            bucket.consume(400.0, 24)


class TestCheckCadence:
    def test_full_bucket_checks_fast(self, bucket):
        bucket.tokens_g = bucket.solve_cost_g(400.0, 24) * 2
        assert bucket.next_check_delay_s(400.0) == pytest.approx(
            bucket.settings.min_check_period_s
        )

    def test_no_earn_rate_checks_slow(self, bucket):
        assert bucket.next_check_delay_s(400.0) == pytest.approx(
            bucket.settings.max_check_period_s
        )

    def test_cadence_tracks_invocation_rate(self):
        # §5.2: busier workflows are checked more often.
        slow = TokenBucket(n_nodes=7, n_regions=4)
        fast = TokenBucket(n_nodes=7, n_regions=4)
        for bucket, invocations in ((slow, 10), (fast, 100000)):
            bucket.earn(
                invocations=invocations, avg_runtime_s=5.0,
                avg_memory_mb=1769, home_intensity=400.0,
                best_intensity=34.0, period_s=3600.0,
            )
        assert fast.next_check_delay_s(400.0) <= slow.next_check_delay_s(400.0)

    def test_delay_bounded(self, bucket):
        bucket.earn(
            invocations=50, avg_runtime_s=1.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
        )
        delay = bucket.next_check_delay_s(400.0)
        s = bucket.settings
        assert s.min_check_period_s <= delay <= s.max_check_period_s


class TestCadenceContract:
    """Regression coverage for the trigger/manager loop (§5.2)."""

    def _earning_bucket(self, settings=TriggerSettings()):
        bucket = TokenBucket(n_nodes=7, n_regions=4, settings=settings)
        bucket.earn(
            invocations=500, avg_runtime_s=2.0, avg_memory_mb=1769,
            home_intensity=400.0, best_intensity=34.0, period_s=3600.0,
        )
        return bucket

    def test_delay_always_within_bounds(self):
        bucket = self._earning_bucket()
        s = bucket.settings
        cost = bucket.solve_cost_g(400.0, 24)
        for fill in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5):
            bucket.tokens_g = min(cost * fill, bucket.capacity_g)
            delay = bucket.next_check_delay_s(400.0)
            assert s.min_check_period_s <= delay <= s.max_check_period_s

    def test_delay_monotone_in_deficit(self):
        # With a fixed earn rate, a larger deficit can only push the
        # next check further out, never closer.
        bucket = self._earning_bucket()
        cost = bucket.solve_cost_g(400.0, 24)
        delays = []
        for fill in (1.0, 0.75, 0.5, 0.25, 0.0):  # growing deficit
            bucket.tokens_g = cost * fill
            delays.append(bucket.next_check_delay_s(400.0))
        assert delays == sorted(delays)

    def _full_deficit_bucket(self, min_s, max_s):
        bucket = self._earning_bucket(
            TriggerSettings(min_check_period_s=min_s, max_check_period_s=max_s)
        )
        bucket.tokens_g = 0.0  # earn rate retained
        return bucket

    def test_empty_band_checks_at_the_fixed_period(self):
        # min == max used to divide by zero in the sigmoid's steepness.
        bucket = self._full_deficit_bucket(3600.0, 3600.0)
        assert bucket.next_check_delay_s(400.0) == 3600.0
        for bad in ((0.0, 3600.0), (-1.0, 3600.0), (7200.0, 3600.0)):
            with pytest.raises(ValueError, match="check periods"):
                TriggerSettings(
                    min_check_period_s=bad[0], max_check_period_s=bad[1]
                )

    def test_narrow_band_does_not_overflow(self):
        # A one-second band puts z near -4 * (min + max): exp(-z) used
        # to raise OverflowError.
        bucket = self._full_deficit_bucket(3600.0, 3601.0)
        assert 3600.0 <= bucket.next_check_delay_s(400.0) <= 3601.0

    def test_no_deficit_checks_at_min_period(self):
        bucket = self._earning_bucket()
        bucket.tokens_g = bucket.solve_cost_g(400.0, 24)
        assert bucket.next_check_delay_s(400.0) == pytest.approx(
            bucket.settings.min_check_period_s
        )

    def test_consume_unaffordable_daily_granularity_raises(self):
        bucket = TokenBucket(n_nodes=7, n_regions=4)
        bucket.tokens_g = bucket.solve_cost_g(400.0, 1) * 0.5
        with pytest.raises(ValueError, match="insufficient"):
            bucket.consume(400.0, 1)

    def test_consume_returns_cost_actually_charged(self):
        bucket = TokenBucket(n_nodes=7, n_regions=4)
        daily = bucket.solve_cost_g(400.0, 1)
        bucket.tokens_g = daily * 1.5
        charged = bucket.consume(400.0, 1)
        assert charged == pytest.approx(daily)
        assert charged < bucket.solve_cost_g(400.0, 24)

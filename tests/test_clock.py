"""Tests for the virtual clock."""

import pytest

from repro.common.clock import DEFAULT_EPOCH, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=100.0).now() == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        assert clock.advance(5.0) == 5.0
        assert clock.now() == 5.0

    def test_advance_zero_is_noop(self):
        clock = VirtualClock(start=3.0)
        clock.advance(0.0)
        assert clock.now() == 3.0

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_past_rejected(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_default_epoch_is_evaluation_window_start(self):
        # §9.1: carbon data from 2023-10-15.
        assert DEFAULT_EPOCH.year == 2023
        assert DEFAULT_EPOCH.month == 10
        assert DEFAULT_EPOCH.day == 15

"""Tests for RNG streams and unit helpers."""

import numpy as np

from repro.common.rng import RngRegistry
from repro.common.units import GB, KB, MB, kb, mb


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(seed=1)
        assert reg.get("a") is reg.get("a")

    def test_different_names_are_independent(self):
        reg = RngRegistry(seed=1)
        a = reg.get("a").random(5)
        b = reg.get("b").random(5)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        a = RngRegistry(seed=7).get("net").random(10)
        b = RngRegistry(seed=7).get("net").random(10)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).get("x").random(5)
        b = RngRegistry(seed=2).get("x").random(5)
        assert not np.allclose(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(seed=3)
        reg1.get("x").random(3)  # consume
        after_other = reg1.get("x").random(3)

        reg2 = RngRegistry(seed=3)
        reg2.get("x").random(3)
        reg2.get("brand-new")  # create an unrelated stream in between
        assert np.allclose(after_other, reg2.get("x").random(3))

    def test_fresh_resets_stream(self):
        reg = RngRegistry(seed=5)
        first = reg.get("s").random(4)
        reg.fresh("s")
        again = reg.get("s").random(4)
        assert np.allclose(first, again)


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024 * 1024
        assert GB == 1024**3

    def test_helpers(self):
        assert kb(2) == 2048
        assert mb(1) == MB

"""Tests for the core CPI model."""

import pytest

from repro.cpu.core import DEFAULT_CORE
from repro.cpu.isa import DEFAULT_MIX


class TestCoreModel:
    def test_load_hit_levels(self):
        assert DEFAULT_CORE.load_hit_cycles(1) == 2
        assert DEFAULT_CORE.load_hit_cycles(2) == 13

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            DEFAULT_CORE.load_hit_cycles(3)

    def test_miss_onchip_portion(self):
        assert DEFAULT_CORE.load_miss_onchip_cycles() == 17

    def test_ideal_ipc_bounded_by_one(self):
        assert 0 < DEFAULT_CORE.ideal_ipc(DEFAULT_MIX, 0.25) <= 1.0

    def test_ideal_ipc_drops_with_memory_fraction(self):
        low = DEFAULT_CORE.ideal_ipc(DEFAULT_MIX, 0.1)
        high = DEFAULT_CORE.ideal_ipc(DEFAULT_MIX, 0.5)
        assert high < low

    def test_rejects_bad_memory_fraction(self):
        with pytest.raises(ValueError):
            DEFAULT_CORE.ideal_ipc(DEFAULT_MIX, 1.0)


class TestNonmemCpi:
    def test_matches_mix(self):
        assert DEFAULT_CORE.nonmem_cpi(DEFAULT_MIX) == pytest.approx(
            DEFAULT_MIX.base_cpi()
        )

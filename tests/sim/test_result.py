"""Tests for SimResult metrics and comparisons."""

import pytest

from repro.core.controller import ControllerStats
from repro.cpu.trace import EnergyEvents
from repro.power.model import EnergyBreakdown
from repro.sim.result import SimResult, performance_overhead, power_overhead


def make_result(cycles: float, n_instructions: int = 1000,
                memory_nj: float = 10.0) -> SimResult:
    return SimResult(
        scheme_name="test",
        benchmark="bench/ref",
        cycles=cycles,
        n_instructions=n_instructions,
        controller=ControllerStats(real_accesses=10, dummy_accesses=5),
        epochs=[],
        energy=EnergyEvents(n_instructions=n_instructions),
        breakdown=EnergyBreakdown(
            core_nj=100.0, cache_dynamic_nj=50.0, cache_leakage_nj=25.0,
            memory_nj=memory_nj,
        ),
    )


class TestMetrics:
    def test_ipc(self):
        assert make_result(cycles=2000.0).ipc == 0.5

    def test_power_is_energy_over_time(self):
        result = make_result(cycles=185.0, memory_nj=10.0)
        assert result.power_watts == pytest.approx(1.0)

    def test_memory_power_portion(self):
        result = make_result(cycles=100.0, memory_nj=60.0)
        assert result.memory_power_watts == pytest.approx(0.6)

    def test_dummy_fraction(self):
        assert make_result(1000.0).dummy_fraction == pytest.approx(5 / 15)

    def test_describe_fields(self):
        text = make_result(1000.0).describe()
        assert "bench/ref" in text
        assert "IPC" in text
        assert "dummy" in text


class TestComparisons:
    def test_performance_overhead(self):
        slow = make_result(cycles=3000.0)
        fast = make_result(cycles=1000.0)
        assert performance_overhead(slow, fast) == 3.0

    def test_mismatched_instructions_rejected(self):
        a = make_result(1000.0, n_instructions=1000)
        b = make_result(1000.0, n_instructions=2000)
        with pytest.raises(ValueError):
            performance_overhead(a, b)

    def test_power_overhead(self):
        hungry = make_result(cycles=100.0, memory_nj=200.0)
        frugal = make_result(cycles=100.0, memory_nj=0.0)
        assert power_overhead(hungry, frugal) > 1.0

"""Tests pinning the ORAM timing/energy derivation to the paper's numbers."""

import pytest

from repro.memory.dram import average_bucket_overhead_cycles
from repro.oram.config import PAPER_ORAM_CONFIG
from repro.oram.timing import (
    DramLinkParameters,
    PAPER_ORAM_TIMING,
    derive_timing,
    paper_timing,
)


class TestPaperConstants:
    def test_latency_1488(self):
        assert PAPER_ORAM_TIMING.latency_cycles == 1488

    def test_bytes_24_2_kb(self):
        """Section 3.1: each access transfers 24.2 KB over the pins."""
        assert PAPER_ORAM_TIMING.bytes_per_access == 2 * 758 * 16
        assert PAPER_ORAM_TIMING.bytes_per_access / 1000 == pytest.approx(24.3, abs=0.2)

    def test_dram_cycles_1984(self):
        assert PAPER_ORAM_TIMING.dram_cycles_per_access == 1984

    def test_energy_984_nj(self):
        """Section 9.1.4: 2*758*(0.416+0.134) + 1984*0.076 = ~984 nJ."""
        assert PAPER_ORAM_TIMING.energy_nj == pytest.approx(984.6, abs=1.0)

    def test_describe(self):
        assert "1488" in paper_timing().describe()


class TestDerivation:
    def test_derived_latency_within_tolerance(self):
        bucket = PAPER_ORAM_CONFIG.data_geometry().bucket_bytes
        link = DramLinkParameters(
            row_overhead_cycles_per_bucket=average_bucket_overhead_cycles(bucket)
        )
        derived = derive_timing(PAPER_ORAM_CONFIG, link)
        assert derived.latency_cycles == pytest.approx(1488, rel=0.08)

    def test_derived_bytes_within_tolerance(self):
        derived = derive_timing(PAPER_ORAM_CONFIG)
        assert derived.bytes_per_access == pytest.approx(24_256, rel=0.05)

    def test_derived_energy_within_tolerance(self):
        derived = derive_timing(PAPER_ORAM_CONFIG)
        assert derived.energy_nj == pytest.approx(984.6, rel=0.08)

    def test_clock_ratio(self):
        link = DramLinkParameters()
        assert link.cpu_cycles_per_dram_cycle == pytest.approx(1.0 / 1.334, rel=1e-6)
        # 1984 DRAM cycles at 1.334 GHz == 1488 CPU cycles at 1 GHz.
        assert 1984 * link.cpu_cycles_per_dram_cycle == pytest.approx(1488, abs=1)

    def test_smaller_oram_is_faster(self):
        from repro.oram.config import ORAMConfig
        from repro.util.units import MB

        small = derive_timing(ORAMConfig(capacity_bytes=64 * MB))
        assert small.latency_cycles < derive_timing(PAPER_ORAM_CONFIG).latency_cycles

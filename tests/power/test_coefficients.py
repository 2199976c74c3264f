"""Tests pinning Table 2 energy coefficients."""

import pytest

from repro.power.coefficients import (
    PAPER_COEFFICIENTS,
    PAPER_ORAM_ACCESS_NJ,
)


class TestTable2Values:
    def test_core_coefficients(self):
        c = PAPER_COEFFICIENTS
        assert c.alu_fpu_per_instruction == 0.0148
        assert c.regfile_int_per_instruction == 0.0032
        assert c.regfile_fp_per_instruction == 0.0048
        assert c.fetch_buffer_access == 0.0003

    def test_cache_coefficients(self):
        c = PAPER_COEFFICIENTS
        assert c.l1i_hit_or_refill == 0.162
        assert c.l1d_hit_64bit == 0.041
        assert c.l1d_refill_line == 0.320
        assert c.l2_hit_or_refill_line == 0.810

    def test_leakage_coefficients(self):
        c = PAPER_COEFFICIENTS
        assert c.l1i_leak_per_cycle == 0.018
        assert c.l1d_leak_per_cycle == 0.019
        assert c.l2_leak_per_hit_or_refill == 0.767

    def test_oram_controller_coefficients(self):
        c = PAPER_COEFFICIENTS
        assert c.aes_per_chunk == 0.416
        assert c.stash_per_chunk == 0.134
        assert c.dram_ctrl_per_dram_cycle == 0.076


class TestORAMAccessEnergy:
    def test_section_914_derivation(self):
        """2*758*(0.416+0.134) + 1984*0.076 = ~984 nJ."""
        assert PAPER_ORAM_ACCESS_NJ == pytest.approx(984.58, abs=0.1)

    def test_custom_chunks(self):
        smaller = PAPER_COEFFICIENTS.oram_access_nj(chunks_per_access=758, dram_cycles=992)
        assert smaller == pytest.approx(PAPER_ORAM_ACCESS_NJ / 2, rel=0.01)

    def test_oram_dwarfs_dram_energy(self):
        """One ORAM access costs ~3000x one DRAM line transfer - the whole
        reason dummy-access energy dominates static schemes."""
        ratio = PAPER_ORAM_ACCESS_NJ / PAPER_COEFFICIENTS.dram_controller_line
        assert ratio > 3000

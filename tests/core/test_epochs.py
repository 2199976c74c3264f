"""Tests for epoch schedules and their counting arithmetic (Section 6)."""

import pytest

from repro.core.epochs import (
    EpochSchedule,
    paper_schedule,
    sim_schedule,
)


class TestPaperCounting:
    def test_doubling_expends_32_epochs(self):
        """Example 6.1: first epoch 2^30, doubling, Tmax 2^62 -> 32 epochs."""
        assert paper_schedule(growth=2).max_epochs == 32

    def test_e4_expends_16_epochs(self):
        """Section 9.3: dynamic_R4_E4 expends 16 epochs."""
        assert paper_schedule(growth=4).max_epochs == 16

    def test_e8_expends_11_epochs(self):
        # (62 - 30) / 3 = 10.67 -> 11
        assert paper_schedule(growth=8).max_epochs == 11

    def test_e16_expends_8_epochs(self):
        """Section 9.5: dynamic_R4_E16 -> 8 epochs in Tmax = 2^62."""
        assert paper_schedule(growth=16).max_epochs == 8


class TestEpochLengths:
    def test_geometric_growth(self):
        schedule = EpochSchedule(first_epoch_cycles=1 << 10, growth=4)
        assert schedule.epoch_length(0) == 1 << 10
        assert schedule.epoch_length(1) == 1 << 12
        assert schedule.epoch_length(3) == 1 << 16

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            EpochSchedule().epoch_length(-1)

    def test_rejects_growth_below_two(self):
        """The paper's family requires each epoch >= 2x the previous."""
        with pytest.raises(ValueError):
            EpochSchedule(growth=1)

    def test_rejects_tmax_below_first(self):
        with pytest.raises(ValueError):
            EpochSchedule(first_epoch_cycles=1 << 40, tmax_cycles=1 << 30)


class TestBoundaries:
    def test_cumulative_boundaries(self):
        schedule = EpochSchedule(first_epoch_cycles=100, growth=2, tmax_cycles=10**9)
        boundaries = list(schedule.boundaries(horizon_cycles=1000))
        assert boundaries[:3] == [100, 300, 700]

    def test_epochs_until(self):
        schedule = EpochSchedule(first_epoch_cycles=100, growth=2, tmax_cycles=10**9)
        assert schedule.epochs_until(50) == 1
        assert schedule.epochs_until(100) == 1
        assert schedule.epochs_until(101) == 2
        assert schedule.epochs_until(700) == 3

    def test_paper_runs_expend_9_to_11_epochs(self):
        """Section 9.4: 1-5 trillion cycles under doubling from 2^30
        completes 9-11 epochs."""
        schedule = paper_schedule(growth=2)
        assert 9 <= schedule.epochs_until(10**12) <= 11
        assert 9 <= schedule.epochs_until(5 * 10**12) <= 13

    def test_sim_scale_preserves_epoch_counts(self):
        """A ~10M-cycle scaled run expends a comparable epoch count."""
        schedule = sim_schedule(growth=2)
        assert 7 <= schedule.epochs_until(10_000_000) <= 11


class TestDescribe:
    def test_mentions_growth_and_bounds(self):
        text = paper_schedule(growth=4).describe()
        assert "E4" in text
        assert "16" in text

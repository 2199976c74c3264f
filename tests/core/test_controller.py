"""Tests for the timing-protected controller's slot machine and waste
accounting (Section 7.1.1, Figure 4)."""

import pytest

from repro.core.controller import (
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.core.epochs import EpochSchedule
from repro.core.learner import AveragingLearner
from repro.core.rates import PAPER_RATES

OLAT = 1488


def static_controller(rate: int = 1000) -> TimingProtectedController:
    return TimingProtectedController(oram_latency=OLAT, initial_rate=rate)


class TestSlotTiming:
    def test_first_slot_at_rate(self):
        """First access starts `rate` cycles in: request at t=0 waits."""
        controller = static_controller(rate=1000)
        completion = controller.serve(0.0)
        assert completion == 1000 + OLAT

    def test_next_access_rate_after_completion(self):
        """An ORAM rate of r: next access starts r after last completes."""
        controller = static_controller(rate=1000)
        first = controller.serve(0.0)
        second = controller.serve(first)  # request exactly at completion
        assert second == first + 1000 + OLAT

    def test_request_between_slots_waits_for_slot(self):
        controller = static_controller(rate=1000)
        first = controller.serve(0.0)  # completes at 2488
        # Arrives 100 cycles after completion; slot is at 3488.
        second = controller.serve(first + 100)
        assert second == first + 1000 + OLAT

    def test_late_request_served_by_next_slot_after_dummies(self):
        """If the program is idle, dummies fire; a request arriving in the
        inter-slot gap is served by the very next slot (Req 1)."""
        controller = static_controller(rate=1000)
        # Dummy #1 occupies 1000..2488; next slot at 3488.
        completion = controller.serve(3000.0)  # arrives in the 2488-3488 gap
        assert completion == 3488 + OLAT
        assert controller.stats.dummy_accesses == 1


class TestDummies:
    def test_idle_program_generates_dummies(self):
        controller = static_controller(rate=1000)
        controller.finalize(10_000.0)
        # Slots at 1000, 3488, 5976, 8464 -> 4 dummies before 10k.
        assert controller.stats.dummy_accesses == 4
        assert controller.stats.real_accesses == 0

    def test_busy_program_generates_no_dummies(self):
        controller = static_controller(rate=100)
        t = 0.0
        for _ in range(10):
            t = controller.serve(t)
        assert controller.stats.dummy_accesses == 0
        assert controller.stats.real_accesses == 10

    def test_dummy_fraction(self):
        controller = static_controller(rate=1000)
        controller.serve(0.0)
        controller.finalize(20_000.0)
        stats = controller.stats
        assert stats.total_accesses == stats.real_accesses + stats.dummy_accesses
        assert 0 < stats.dummy_fraction < 1


class TestWasteAccounting:
    def test_req1_overset_waste_at_most_rate(self):
        """Figure 4 Req 1: waiting between slots costs <= rate."""
        controller = static_controller(rate=1000)
        first = controller.serve(0.0)
        controller.serve(first + 900)  # arrives 900 after completion
        # Second request waited 1000-900=100 cycles.
        assert controller.counters.waste == pytest.approx(1000 + 100)

    def test_req2_underset_waste_includes_dummy_remainder(self):
        """Figure 4 Req 2: arriving mid-dummy costs ride-out + gap."""
        controller = static_controller(rate=1000)
        controller.finalize(1500.0)  # one dummy in flight (1000-2488)
        before = controller.counters.waste
        controller.serve(1500.0)
        # Ride out dummy (988 cycles) + slot gap (1000).
        assert controller.counters.waste - before == pytest.approx(988 + 1000)

    def test_req3_queued_behind_real_costs_one_rate(self):
        """Figure 4 Req 3: back-to-back requests charge rate only."""
        controller = static_controller(rate=1000)
        controller.serve(0.0)
        before = controller.counters.waste
        controller.serve(10.0)  # queued while first access in flight
        assert controller.counters.waste - before == pytest.approx(1000)


class TestEpochTransitions:
    def make_dynamic(self, first_epoch: int = 10_000, growth: int = 2):
        schedule = EpochSchedule(
            first_epoch_cycles=first_epoch, growth=growth, tmax_cycles=1 << 40
        )
        learner = AveragingLearner(PAPER_RATES)
        return TimingProtectedController(
            oram_latency=OLAT,
            initial_rate=10_000,
            schedule=schedule,
            learner=learner,
        )

    def test_rate_changes_only_at_boundaries(self):
        controller = self.make_dynamic()
        controller.finalize(100_000.0)
        # Epoch records: each has a start cycle on the boundary lattice.
        boundaries = {10_000.0, 30_000.0, 70_000.0, 150_000.0}
        for record in controller.epochs[1:]:
            assert record.start_cycle in boundaries

    def test_counters_reset_each_epoch(self):
        controller = self.make_dynamic()
        t = 0.0
        for _ in range(30):
            t = controller.serve(t)
        # By now at least one transition happened; counters reflect only
        # the current epoch (bounded by its access count).
        assert len(controller.epochs) >= 2
        assert controller.counters.access_count < 30

    def test_idle_program_converges_to_slowest(self):
        """A program that never touches ORAM drives the rate to max(R)."""
        controller = self.make_dynamic()
        controller.finalize(500_000.0)
        assert controller.epochs[-1].rate == PAPER_RATES.slowest

    def test_saturating_program_converges_to_fastest(self):
        controller = self.make_dynamic()
        t = 0.0
        while t < 300_000.0:
            t = controller.serve(t)
        assert controller.epochs[-1].rate == PAPER_RATES.fastest

    def test_rates_always_from_r(self):
        controller = self.make_dynamic()
        t = 0.0
        for index in range(50):
            t = controller.serve(t + (index % 7) * 500)
        for record in controller.epochs[1:]:
            assert record.rate in set(PAPER_RATES)

    def test_schedule_requires_learner(self):
        with pytest.raises(ValueError):
            TimingProtectedController(
                oram_latency=OLAT,
                initial_rate=100,
                schedule=EpochSchedule(first_epoch_cycles=1000),
            )


class TestUnprotectedController:
    def test_back_to_back_service(self):
        controller = UnprotectedController(OLAT)
        first = controller.serve(0.0)
        assert first == OLAT
        second = controller.serve(0.0)  # queued
        assert second == 2 * OLAT

    def test_idle_then_immediate(self):
        controller = UnprotectedController(OLAT)
        assert controller.serve(5000.0) == 5000.0 + OLAT

    def test_no_dummies_ever(self):
        controller = UnprotectedController(OLAT)
        controller.serve(0.0)
        controller.finalize(1_000_000.0)
        assert controller.stats.dummy_accesses == 0

    def test_no_epochs(self):
        assert UnprotectedController(OLAT).rate_history == []


class TestFlatDramController:
    def test_flat_latency(self):
        controller = FlatDramController(latency=40)
        assert controller.serve(100.0) == 140.0

    def test_unlimited_bandwidth(self):
        controller = FlatDramController(latency=40)
        assert controller.serve(0.0) == controller.serve(0.0)

    def test_counts_accesses(self):
        controller = FlatDramController()
        controller.serve(0.0)
        controller.serve(0.0)
        assert controller.stats.real_accesses == 2


class TestObservableTrace:
    """The security property: the observable slot schedule is independent
    of whether slots carry real or dummy work."""

    def test_slot_times_independent_of_load(self):
        # Controller A: no requests at all (all dummies).
        idle = static_controller(rate=1000)
        idle.finalize(50_000.0)
        # Controller B: saturated with requests.
        busy = static_controller(rate=1000)
        t = 0.0
        while t < 50_000.0:
            t = busy.serve(t)
        busy.finalize(50_000.0)
        # Identical number of accesses before 50k cycles, at identical
        # times (periodic lattice), regardless of load.
        total_idle = idle.stats.total_accesses
        total_busy = busy.stats.total_accesses
        assert abs(total_idle - total_busy) <= 1

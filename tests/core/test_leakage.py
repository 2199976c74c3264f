"""Tests for bit-leakage accounting (Sections 2.1, 6, 10)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.epochs import paper_schedule
from repro.core.leakage import (
    ChannelTraceCount,
    compose_channels,
    dynamic_timing_leakage_bits,
    probabilistic_overleak,
    replayed_leakage_bits,
    report_for_dynamic,
    report_for_static,
    static_timing_leakage_bits,
    termination_leakage_bits,
    total_leakage_bits,
    unprotected_leakage_bits,
    unprotected_trace_count,
)


class TestHeadlineNumbers:
    def test_dynamic_r4_e4_is_32_bits(self):
        """Section 9.3: 16 epochs * lg 4 = 32 bits."""
        assert dynamic_timing_leakage_bits(16, 4) == 32.0

    def test_dynamic_r4_e2_is_64_bits(self):
        """Example 6.1: 32 epochs * lg 4 = 64 bits."""
        assert dynamic_timing_leakage_bits(32, 4) == 64.0

    def test_dynamic_r4_e16_is_16_bits(self):
        """Section 9.5: 8 epochs * lg 4 = 16 bits."""
        assert dynamic_timing_leakage_bits(8, 4) == 16.0

    def test_termination_is_62_bits(self):
        """Section 9.1.5: lg Tmax = 62 bits for Tmax = 2^62."""
        assert termination_leakage_bits() == 62.0

    def test_discretized_termination_32_bits(self):
        """Section 6: rounding up to 2^30 cycles leaves 32 bits."""
        assert termination_leakage_bits(1 << 62, 1 << 30) == 32.0

    def test_static_is_zero(self):
        assert static_timing_leakage_bits() == 0.0

    def test_example_61_total_126_bits(self):
        """Example 6.1: 64 + 62 = 126 bits with early termination."""
        report = report_for_dynamic(paper_schedule(growth=2), 4)
        assert report.total_bits == 126.0

    def test_section_93_total_94_bits(self):
        """Section 9.3: 62 + 32 = 94 bits total for dynamic_R4_E4."""
        report = report_for_dynamic(paper_schedule(growth=4), 4)
        assert report.total_bits == 94.0

    def test_static_report_total(self):
        assert report_for_static().total_bits == 62.0

    def test_total_leakage_via_schedule(self):
        assert total_leakage_bits(paper_schedule(growth=4), 4) == 94.0


class TestMonotonicity:
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=32))
    def test_more_epochs_leak_more(self, n_epochs, n_rates):
        assert dynamic_timing_leakage_bits(n_epochs + 1, n_rates) > (
            dynamic_timing_leakage_bits(n_epochs, n_rates)
        )

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=32))
    def test_more_rates_leak_more(self, n_epochs, n_rates):
        assert dynamic_timing_leakage_bits(n_epochs, n_rates * 2) > (
            dynamic_timing_leakage_bits(n_epochs, n_rates)
        )

    def test_single_rate_leaks_nothing(self):
        """|R| = 1 degenerates to a static scheme."""
        assert dynamic_timing_leakage_bits(32, 1) == 0.0


class TestUnprotectedCount:
    def test_base_cases(self):
        # T=1, OLAT=1: exactly one trace (access at t=1).
        assert unprotected_trace_count(1, 1) == 1
        # T=2, OLAT=1: t=1 gives 1; t=2 gives C(2,1)+C(2,2)=3.
        assert unprotected_trace_count(2, 1) == 4

    def test_olat_one_closed_form(self):
        """For OLAT=1 the count is sum over t of (2^t - 1)."""
        for total_time in (3, 6, 10):
            expected = sum(2**t - 1 for t in range(1, total_time + 1))
            assert unprotected_trace_count(total_time, 1) == expected

    def test_latency_reduces_traces(self):
        assert unprotected_trace_count(100, 10) < unprotected_trace_count(100, 2)

    def test_astronomical_vs_dynamic(self):
        """Example 6.1's point: unprotected leakage dwarfs the 64-bit bound
        even at tiny time scales."""
        bits = unprotected_leakage_bits(2000, 1488)
        assert bits > 0
        # At realistic scales the estimate explodes.
        from repro.core.leakage import unprotected_leakage_bits_estimate

        assert unprotected_leakage_bits_estimate(2.0**40, 1488) > 10**8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            unprotected_trace_count(0, 1)
        with pytest.raises(ValueError):
            unprotected_trace_count(1, 0)


class TestComposition:
    """Section 10: bit leakage across channels is additive."""

    def test_two_channels_add(self):
        channels = [
            ChannelTraceCount("oram-timing", 32.0),
            ChannelTraceCount("termination", 62.0),
        ]
        assert compose_channels(channels) == 94.0

    def test_empty_composition(self):
        assert compose_channels([]) == 0.0

    def test_from_count(self):
        channel = ChannelTraceCount.from_count("x", 2**20)
        assert channel.leakage_bits == pytest.approx(20.0)

    def test_from_huge_count(self):
        channel = ChannelTraceCount.from_count("big", 1 << 500)
        assert channel.leakage_bits == pytest.approx(500.0, rel=1e-9)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8))
    def test_additivity_property(self, bits):
        channels = [ChannelTraceCount(f"c{i}", b) for i, b in enumerate(bits)]
        assert compose_channels(channels) == pytest.approx(sum(bits))


class TestProbabilisticSubtlety:
    def test_paper_formula(self):
        """Section 10: adversary learns L' bits with prob (2^L - 1)/2^L'."""
        assert probabilistic_overleak(1.0, 3) == pytest.approx(1.0 / 8.0)

    def test_probability_decreases_with_l_prime(self):
        assert probabilistic_overleak(1.0, 10) < probabilistic_overleak(1.0, 5)

    def test_requires_l_prime_above_l(self):
        with pytest.raises(ValueError):
            probabilistic_overleak(4.0, 4)


class TestReplayAccounting:
    def test_n_replays_multiply(self):
        """Section 4.3: N replays of an L-bit scheme leak N*L bits."""
        assert replayed_leakage_bits(32.0, 5) == 160.0

    def test_single_run(self):
        assert replayed_leakage_bits(32.0, 1) == 32.0

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            replayed_leakage_bits(32.0, 0)

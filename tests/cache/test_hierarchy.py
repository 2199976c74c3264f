"""Tests for the functional cache hierarchy pass."""

import numpy as np
import pytest

from repro.cache.hierarchy import (
    HierarchyConfig,
    PAPER_HIERARCHY,
    StreamingHierarchyPass,
    simulate_hierarchy,
)
from repro.cpu.trace import MemoryTrace
from repro.util.units import KB, MB


def make_trace(addresses, stores=None, gaps=None, **kwargs) -> MemoryTrace:
    n = len(addresses)
    return MemoryTrace(
        name="t",
        input_name="t",
        addresses=np.asarray(addresses, dtype=np.uint64),
        is_store=np.asarray(stores if stores is not None else [False] * n, dtype=bool),
        gap_instructions=np.asarray(gaps if gaps is not None else [10] * n, dtype=np.int64),
        **kwargs,
    )


class TestConfig:
    def test_paper_defaults(self):
        assert PAPER_HIERARCHY.l2_bytes == 1 * MB
        assert PAPER_HIERARCHY.l2_ways == 16
        assert PAPER_HIERARCHY.l1d_bytes == 32 * KB

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            HierarchyConfig(l2_bytes=3 * 64 * 16)


class TestMissBehaviour:
    def test_cold_misses_recorded(self):
        trace = make_trace([0, 64 * 1024, 128 * 1024])
        result = simulate_hierarchy(trace)
        assert result.n_requests == 3
        assert result.is_blocking.all()

    def test_rereference_hits(self):
        trace = make_trace([0, 0, 0, 0])
        result = simulate_hierarchy(trace)
        assert result.n_requests == 1
        assert result.energy.l1d_hits >= 3

    def test_store_miss_non_blocking(self):
        trace = make_trace([0], stores=[True])
        result = simulate_hierarchy(trace)
        assert result.n_requests == 1
        assert not result.is_blocking[0]

    def test_dirty_eviction_generates_writeback(self):
        # Write one line, then sweep enough distinct lines through its L2
        # set to evict it: 1 MB 16-way -> same set every 64 KB.
        lines = [0] + [(way + 1) * 64 * 1024 for way in range(16)]
        trace = make_trace(lines, stores=[True] + [False] * 16)
        result = simulate_hierarchy(trace)
        assert result.energy.writebacks == 1
        # Non-blocking requests: the store-miss fetch and the writeback.
        assert (~result.is_blocking).sum() == 2

    def test_working_set_below_l2_eventually_stops_missing(self):
        region_lines = 512  # 32 KB of lines -> fits L2 easily
        addresses = [(i % region_lines) * 64 for i in range(4 * region_lines)]
        result = simulate_hierarchy(make_trace(addresses))
        assert result.n_requests == region_lines  # cold misses only


class TestGapAccounting:
    def test_instruction_count(self):
        trace = make_trace([0, 64], gaps=[5, 7])
        result = simulate_hierarchy(trace)
        assert result.n_instructions == 5 + 7 + 2

    def test_gap_cycles_scale_with_instructions(self):
        fast = simulate_hierarchy(make_trace([0, 1 * MB], gaps=[0, 0]))
        slow = simulate_hierarchy(make_trace([0, 1 * MB], gaps=[0, 1000]))
        assert slow.gap_cycles[1] > fast.gap_cycles[1] + 900

    def test_instruction_index_monotone(self):
        addresses = [i * 64 * 1024 for i in range(20)]
        result = simulate_hierarchy(make_trace(addresses))
        assert (np.diff(result.instruction_index) >= 0).all()


class TestWarmup:
    def test_warmup_suppresses_early_requests(self):
        addresses = [i * 64 * 1024 for i in range(20)]
        cold = simulate_hierarchy(make_trace(addresses))
        warm = simulate_hierarchy(make_trace(addresses), warmup_instructions=60)
        assert warm.n_requests < cold.n_requests
        assert warm.n_instructions < cold.n_instructions

    def test_warmup_keeps_cache_state(self):
        # Touch a line during warmup (first ref lands at instruction 11,
        # inside the 15-instruction warmup); the post-warmup re-touch hits.
        addresses = [4096, 0, 4096]
        result = simulate_hierarchy(make_trace(addresses), warmup_instructions=15)
        # Only the middle (cold) line misses after warmup.
        assert result.n_requests == 1


class TestEnergyEvents:
    def test_l1i_hits_scale_with_instructions(self):
        result = simulate_hierarchy(make_trace([0] * 100, gaps=[15] * 100))
        assert result.energy.l1i_hits == result.n_instructions // 16

    def test_local_refs_counted_into_l1d(self):
        trace = make_trace([0] * 10, gaps=[100] * 10)
        result = simulate_hierarchy(trace)
        implicit = int((result.n_instructions - 10) * trace.local_ref_fraction)
        assert result.energy.l1d_hits >= implicit

    def test_llc_misses_match_blocking_plus_store_fetches(self):
        addresses = [i * 64 * 1024 for i in range(8)]
        result = simulate_hierarchy(make_trace(addresses))
        assert result.energy.llc_misses == 8


class TestResumablePassLifecycle:
    def test_feed_after_finish_raises(self):
        trace = make_trace([0, 64, 128])
        machine = StreamingHierarchyPass(trace)
        machine.feed(trace)
        machine.finish()
        with pytest.raises(RuntimeError, match="after finish"):
            machine.feed(trace)

    def test_second_finish_raises(self):
        trace = make_trace([0, 64, 128])
        machine = StreamingHierarchyPass(trace)
        machine.feed(trace)
        machine.finish()
        with pytest.raises(RuntimeError, match="twice"):
            machine.finish()

"""Chunk-straddling cases of the vectorized functional-pass machine.

:class:`~repro.cache.vectorized.VectorizedHierarchyPass` carries its
run, window, warm-up and accumulator state across ``feed`` calls and
across its own sub-slices.  Each case here places a cut where one of
those carries matters and compares the output byte for byte with the
scalar oracle, ``simulate_hierarchy_reference``.  Cuts are given as
reference indices into the trace.
"""

import numpy as np
import pytest

from repro.cache.hierarchy import (
    MissChunk,
    StreamingHierarchyPass,
    functional_pass,
    simulate_hierarchy_reference,
)
from repro.cache.streaming import stream_functional
from repro.cache.vectorized import VectorizedHierarchyPass
from repro.cpu.core import DEFAULT_CORE
from repro.ingest import header_for, trace_chunks
from repro.ingest.formats import TraceChunk
from tests.cache.test_vectorized_equivalence import TINY, make_trace


def slice_chunk(trace, lo, hi):
    return TraceChunk(
        trace.addresses[lo:hi], trace.is_store[lo:hi], trace.gap_instructions[lo:hi]
    )


def run_cut(trace, cuts, config=TINY, warmup=0, chunk_refs=None):
    """Feed ``trace`` split at ``cuts``; return the MissTrace and machine."""
    kwargs = {} if chunk_refs is None else {"chunk_refs": chunk_refs}
    machine = VectorizedHierarchyPass(
        header_for(trace), config, DEFAULT_CORE, warmup_instructions=warmup, **kwargs
    )
    bounds = [0, *cuts, trace.n_references]
    parts = [machine.feed(slice_chunk(trace, lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    summary = machine.finish()
    return summary.with_requests(_concat(parts)), machine


def _concat(parts):
    return MissChunk(
        gap_cycles=np.concatenate([p.gap_cycles for p in parts]),
        is_blocking=np.concatenate([p.is_blocking for p in parts]),
        instruction_index=np.concatenate([p.instruction_index for p in parts]),
    )


def assert_matches_oracle(trace, streamed, config=TINY, warmup=0):
    ref = simulate_hierarchy_reference(
        trace, config, DEFAULT_CORE, warmup_instructions=warmup
    )
    assert streamed.gap_cycles.tobytes() == ref.gap_cycles.tobytes()
    assert streamed.is_blocking.tobytes() == ref.is_blocking.tobytes()
    assert streamed.instruction_index.tobytes() == ref.instruction_index.tobytes()
    assert streamed.total_compute_cycles == ref.total_compute_cycles
    assert type(streamed.total_compute_cycles) is float
    assert streamed.n_instructions == ref.n_instructions
    assert streamed.energy == ref.energy
    assert streamed.checksum() == ref.checksum()
    return ref


def hot_loop(n, lines=(0, 1, 2, 3)):
    """``n`` references cycling over lines that all fit TINY's L1."""
    return [lines[i % len(lines)] for i in range(n)]


class TestRunsAcrossCuts:
    def test_store_after_the_cut_dirties_the_run(self):
        # Line 8 is read three times, then stored to once, all in one
        # same-line run; the cut puts the store alone in the second
        # chunk.  Later even lines evict line 8 from L1 and L2, so its
        # dirty bit decides whether a writeback request appears.
        lines = [8, 8, 8, 8] + [10, 12, 14, 16, 18, 20, 22]
        stores = [False, False, False, True] + [False] * 7
        trace = make_trace(lines, stores, [2] * len(lines))
        for cut in (1, 2, 3):
            streamed, _ = run_cut(trace, [cut])
            ref = assert_matches_oracle(trace, streamed)
        assert ref.energy.writebacks > 0, "the run's store must reach a writeback"

    def test_run_cut_at_every_position(self):
        rng = np.random.default_rng(5)
        lines = np.repeat(rng.integers(0, 24, size=40), rng.integers(1, 6, size=40))
        n = len(lines)
        trace = make_trace(lines.tolist(), (rng.random(n) < 0.3).tolist(),
                           rng.integers(0, 9, size=n).tolist())
        for cut in range(1, n):
            streamed, _ = run_cut(trace, [cut])
            assert_matches_oracle(trace, streamed)


class TestVectorWindowsAcrossCuts:
    def test_cut_inside_a_fully_hit_window(self):
        # 2000 hits over four resident lines: the first scalar burst
        # promotes the machine to vector mode, whose windows then commit
        # whole hit ranges in bulk.
        n = 2000
        trace = make_trace(hot_loop(n), [i % 7 == 0 for i in range(n)], [1] * n)
        for cut in (700, 1033, 1500):
            machine = VectorizedHierarchyPass(header_for(trace), TINY, DEFAULT_CORE)
            first = machine.feed(slice_chunk(trace, 0, cut))
            assert machine._vector_mode, "the cut must fall in vector mode"
            rest = machine.feed(slice_chunk(trace, cut, n))
            streamed = machine.finish().with_requests(_concat([first, rest]))
            assert_matches_oracle(trace, streamed)

    def test_cut_inside_a_mixed_window_with_back_invalidations(self):
        # A hot loop over lines 0, 1 and 3 with one fresh even line every
        # 60 references.  Line 0 stays in L1 (it is always more recent
        # than the last fresh line), but L1 hits never refresh L2's LRU,
        # so every fourth fresh line evicts it from L2 and back-
        # invalidates it: vector windows mix bulk hits with
        # back-invalidations, and line 0's stores become writebacks.
        lines, stores = [], []
        fresh = 100
        for i in range(3000):
            if i % 60 == 59:
                lines.append(fresh)
                fresh += 2
            else:
                lines.append((0, 1, 3)[i % 3])
            stores.append(i % 5 == 0)
        trace = make_trace(lines, stores, [i % 4 for i in range(3000)])
        ref = simulate_hierarchy_reference(trace, TINY, DEFAULT_CORE)
        n_fresh = (fresh - 100) // 2
        # Beyond the hot lines' first fetches and one per fresh line,
        # every LLC miss re-fetches line 0 after a back-invalidation.
        assert ref.energy.llc_misses > n_fresh + 3
        assert ref.energy.writebacks > 0
        for cut in (620, 1111, 1799):
            machine = VectorizedHierarchyPass(header_for(trace), TINY, DEFAULT_CORE)
            first = machine.feed(slice_chunk(trace, 0, cut))
            assert machine._vector_mode, "the cut must fall in vector mode"
            rest = machine.feed(slice_chunk(trace, cut, trace.n_references))
            streamed = machine.finish().with_requests(_concat([first, rest]))
            assert_matches_oracle(trace, streamed)

    def test_scalar_to_vector_flip_across_a_cut(self):
        # Miss-dense start (scalar mode), then a long hot loop: the
        # promotion to vector mode happens after the cut.
        rng = np.random.default_rng(9)
        n = 4600
        lines = rng.integers(0, 4096, size=600).tolist() + hot_loop(n - 600)
        trace = make_trace(lines, [i % 3 == 0 for i in range(n)],
                           rng.integers(0, 5, size=n).tolist())
        for cut in (500, 600, 700):
            machine = VectorizedHierarchyPass(header_for(trace), TINY, DEFAULT_CORE)
            first = machine.feed(slice_chunk(trace, 0, cut))
            assert not machine._vector_mode
            rest = machine.feed(slice_chunk(trace, cut, n))
            assert machine._vector_mode
            streamed = machine.finish().with_requests(_concat([first, rest]))
            assert_matches_oracle(trace, streamed)


class TestWarmupAcrossCuts:
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "at", "after"])
    def test_warmup_boundary_near_a_cut(self, offset):
        rng = np.random.default_rng(3)
        n = 400
        trace = make_trace(rng.integers(0, 20, size=n).tolist(),
                           (rng.random(n) < 0.4).tolist(),
                           rng.integers(0, 12, size=n).tolist())
        warmup = 1500
        # Index of the first counted reference: the first whose running
        # instruction count reaches the warm-up budget.
        first_counted = int(np.searchsorted(
            np.cumsum(trace.gap_instructions + 1), warmup, side="left"
        ))
        assert 0 < first_counted < n - 2
        cut = first_counted + offset
        streamed, _ = run_cut(trace, [cut], warmup=warmup)
        assert_matches_oracle(trace, streamed, warmup=warmup)

    def test_trace_ending_inside_warmup_across_cuts(self):
        trace = make_trace([1, 2, 3, 1, 2], [True, False, True, False, False], [7] * 5)
        streamed, _ = run_cut(trace, [1, 3], warmup=10_000)
        ref = assert_matches_oracle(trace, streamed, warmup=10_000)
        assert ref.n_instructions == 40


class TestDegenerateChunkings:
    def test_empty_chunks_change_nothing(self):
        rng = np.random.default_rng(4)
        n = 300
        trace = make_trace(rng.integers(0, 32, size=n).tolist(),
                           (rng.random(n) < 0.3).tolist(),
                           rng.integers(0, 20, size=n).tolist())
        streamed, _ = run_cut(trace, [0, 0, 100, 100, 100, 299, n, n], warmup=37)
        assert_matches_oracle(trace, streamed, warmup=37)

    def test_empty_trace(self):
        streamed, _ = run_cut(make_trace([], [], []), [0, 0])
        assert_matches_oracle(make_trace([], [], []), streamed)

    @pytest.mark.parametrize("warmup", [0, 200])
    def test_one_reference_per_chunk(self, warmup):
        rng = np.random.default_rng(6)
        n = 500
        lines = np.concatenate([
            rng.integers(0, 32, size=200), np.array(hot_loop(300)),
        ])
        trace = make_trace(lines.tolist(), (rng.random(n) < 0.3).tolist(),
                           rng.integers(0, 6, size=n).tolist())
        streamed, _ = run_cut(trace, list(range(1, n)), warmup=warmup)
        assert_matches_oracle(trace, streamed, warmup=warmup)

    @pytest.mark.parametrize("chunk_refs", [1, 2, 5])
    def test_sub_slices_inside_feeds(self, chunk_refs):
        # The machine's own sub-slicing composes with the caller's cuts.
        rng = np.random.default_rng(8)
        n = 600
        lines = np.repeat(rng.integers(0, 40, size=200), 3)
        trace = make_trace(lines.tolist(), (rng.random(n) < 0.3).tolist(),
                           rng.integers(0, 6, size=n).tolist())
        streamed, _ = run_cut(trace, [7, 8, 250, 251, 599], warmup=300,
                              chunk_refs=chunk_refs)
        assert_matches_oracle(trace, streamed, warmup=300)

    def test_paper_geometry_workload_streams(self):
        from repro.workloads.registry import build_trace

        trace = build_trace("libquantum", seed=2, n_instructions=60_000)
        chunks, machine = stream_functional(header_for(trace), trace_chunks(trace, 333))
        assert isinstance(machine, VectorizedHierarchyPass)
        parts = list(chunks)
        result = machine.finish().with_requests(_concat(parts))
        assert_matches_oracle(trace, result, config=None)


class TestLifecycle:
    def test_feed_after_finish_raises(self):
        trace = make_trace([0, 1, 2], [False] * 3, [0] * 3)
        machine = VectorizedHierarchyPass(trace)
        machine.feed(trace)
        machine.finish()
        with pytest.raises(RuntimeError, match="after finish"):
            machine.feed(trace)

    def test_second_finish_raises(self):
        trace = make_trace([0, 1, 2], [False] * 3, [0] * 3)
        machine = VectorizedHierarchyPass(trace)
        machine.feed(trace)
        machine.finish()
        with pytest.raises(RuntimeError, match="twice"):
            machine.finish()

    def test_invalid_chunk_refs_rejected(self):
        trace = make_trace([0], [False], [0])
        with pytest.raises(ValueError, match="chunk_refs"):
            VectorizedHierarchyPass(trace, chunk_refs=0)

    def test_mode_picks_the_machine(self):
        trace = make_trace([0], [False], [0])
        assert isinstance(functional_pass(trace), VectorizedHierarchyPass)
        assert isinstance(functional_pass(trace, mode="reference"), StreamingHierarchyPass)
        _, machine = stream_functional(header_for(trace), [], mode="reference")
        assert isinstance(machine, StreamingHierarchyPass)
        with pytest.raises(ValueError, match="mode"):
            functional_pass(trace, mode="turbo")

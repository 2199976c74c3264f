"""Streaming kernels are bit-identical to the in-memory kernels.

The streaming variants exist for bounded memory, not approximate
answers: for ANY chunking of the input — including chunk=1, a chunk
larger than the whole trace, and chunks that straddle epoch boundaries
of the dynamic scheme — the functional pass must produce a MissTrace
with the same ``checksum()`` as the scalar oracle's in-memory pass
(:func:`simulate_hierarchy` in reference mode), with the fast machine's
lockstep mode forced off and forced on, and the timing replay must
produce the same cycles, counters, epoch history, and power as
:func:`run_timing`.  Chunk boundaries are an implementation detail;
these properties make that a theorem.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import simulate_hierarchy
from repro.cache.streaming import run_functional_streaming, stream_functional
from repro.core.epochs import EpochSchedule
from repro.core.scheme import (
    BaseDramScheme,
    BaseOramScheme,
    DynamicScheme,
    StaticScheme,
)
from repro.cpu.trace import EnergyEvents, MissTrace
from repro.ingest import header_for, trace_chunks
from repro.sim.streaming import miss_trace_chunks, run_timing_streaming
from repro.sim.timing import run_timing
from repro.workloads.registry import build_trace

# Tiny epochs force many rate transitions, so nearly every random chunk
# boundary lands inside some epoch and many straddle a transition.
FAST_EPOCHS = EpochSchedule(first_epoch_cycles=1 << 10, growth=2, tmax_cycles=1 << 40)

SCHEMES = [
    BaseDramScheme(),
    BaseOramScheme(oram_latency=37),
    StaticScheme(rate=19, oram_latency=37),
    StaticScheme(rate=500, oram_latency=1488),
    DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
]
SCHEME_IDS = ["base_dram", "base_oram", "static_19", "static_500", "dynamic"]


@pytest.fixture(scope="module")
def workload_trace():
    return build_trace("mcf", seed=3, n_instructions=60_000)


@pytest.fixture(scope="module")
def miss_trace(workload_trace):
    return simulate_hierarchy(workload_trace)


def oracle(trace, warmup=0):
    """The scalar oracle's in-memory functional pass."""
    return simulate_hierarchy(trace, warmup_instructions=warmup, mode="reference")


def assert_timing_identical(miss_trace, scheme, chunk_requests, mode, entries=8):
    reference = run_timing(
        miss_trace, scheme, write_buffer_entries=entries, record_requests=False
    )
    streamed = run_timing_streaming(
        miss_trace_chunks(miss_trace, chunk_requests),
        miss_trace,
        scheme,
        write_buffer_entries=entries,
        mode=mode,
    )
    assert streamed.cycles == reference.cycles
    assert streamed.n_instructions == reference.n_instructions
    assert streamed.controller.real_accesses == reference.controller.real_accesses
    assert streamed.controller.dummy_accesses == reference.controller.dummy_accesses
    assert streamed.controller.total_waste == reference.controller.total_waste
    assert streamed.epochs == reference.epochs
    assert streamed.power_watts == reference.power_watts


@pytest.mark.usefixtures("functional_routing")
class TestFunctionalStreaming:
    @pytest.mark.parametrize("chunk_refs", [1, 7, 100, 1 << 30],
                             ids=["chunk1", "chunk7", "chunk100", "chunk>trace"])
    @pytest.mark.parametrize("warmup", [0, 30_000])
    def test_checksum_matches_in_memory(self, workload_trace, chunk_refs, warmup):
        reference = oracle(workload_trace, warmup=warmup)
        streamed = run_functional_streaming(
            workload_trace, warmup_instructions=warmup, chunk_refs=chunk_refs
        )
        assert streamed.checksum() == reference.checksum()

    @given(chunk_refs=st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=25, deadline=None)
    def test_checksum_invariant_under_any_chunking(self, chunk_refs):
        trace = build_trace("mcf", seed=3, n_instructions=60_000)
        streamed = run_functional_streaming(trace, chunk_refs=chunk_refs)
        assert streamed.checksum() == oracle(trace).checksum()

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_both_modes_accepted(self, workload_trace, mode):
        streamed = run_functional_streaming(workload_trace, mode=mode, chunk_refs=997)
        assert streamed.checksum() == oracle(workload_trace).checksum()

    def test_unknown_mode_rejected(self, workload_trace):
        with pytest.raises(ValueError, match="mode"):
            run_functional_streaming(workload_trace, mode="psychic")

    def test_explicit_header_and_chunks_seam(self, workload_trace):
        # The (header, chunks) entry point — what the ingest pipeline
        # feeds — matches the whole-trace entry point.
        streamed = run_functional_streaming(
            header_for(workload_trace),
            chunks=trace_chunks(workload_trace, chunk_refs=1111),
        )
        assert streamed.checksum() == oracle(workload_trace).checksum()


class TestTimingStreaming:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    @pytest.mark.parametrize("chunk_requests", [1, 3, 50, 1 << 30],
                             ids=["chunk1", "chunk3", "chunk50", "chunk>trace"])
    def test_matches_in_memory_replay(self, miss_trace, scheme, mode, chunk_requests):
        assert_timing_identical(miss_trace, scheme, chunk_requests, mode)

    @given(chunk_requests=st.integers(min_value=1, max_value=5000),
           scheme_index=st.integers(0, len(SCHEMES) - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_any_chunking(self, chunk_requests, scheme_index):
        trace = build_trace("mcf", seed=3, n_instructions=60_000)
        assert_timing_identical(
            simulate_hierarchy(trace), SCHEMES[scheme_index], chunk_requests, "fast"
        )

    def test_single_entry_write_buffer(self, miss_trace):
        for scheme in SCHEMES:
            assert_timing_identical(miss_trace, scheme, 17, "fast", entries=1)

    def test_epoch_straddling_chunks(self, miss_trace):
        # The dynamic scheme's epoch history must be identical even when
        # a single chunk spans several epoch transitions and when every
        # chunk holds one request.
        scheme = DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37)
        reference = run_timing(miss_trace, scheme, record_requests=False)
        assert len(reference.epochs) > 3, "need several epochs for this to bite"
        for chunk_requests in (1, len(reference.epochs), 1 << 30):
            assert_timing_identical(miss_trace, scheme, chunk_requests, "fast")

    def test_unknown_mode_rejected(self, miss_trace):
        with pytest.raises(ValueError, match="mode"):
            run_timing_streaming(
                miss_trace_chunks(miss_trace, 10), miss_trace,
                BaseDramScheme(), mode="psychic",
            )

    @pytest.mark.usefixtures("functional_routing")
    def test_callable_summary_enables_lazy_pipelines(self, workload_trace):
        # The full lazy pipeline: functional chunks flow straight into
        # the timing replay, and the summary is only materialized after
        # the chunks drain (machine.finish is the callable).
        scheme = StaticScheme(rate=100, oram_latency=200)
        chunks, machine = stream_functional(
            header_for(workload_trace), trace_chunks(workload_trace, 911)
        )
        streamed = run_timing_streaming(chunks, machine.finish, scheme)
        reference = run_timing(oracle(workload_trace), scheme, record_requests=False)
        assert streamed.cycles == reference.cycles
        assert streamed.power_watts == reference.power_watts


class TestChunkBounding:
    def test_reader_reslices_oversized_writer_blocks(self, tmp_path):
        # A file written with huge blocks must still stream in
        # reader-sized chunks: downstream memory is bounded by the
        # reader's chunk_refs, not by how the producer wrote the file.
        import io

        from repro.ingest import open_trace_stream, write_binary_trace

        trace = build_trace("mcf", seed=1, n_instructions=20_000)
        buffer = io.BytesIO()
        write_binary_trace(trace, buffer, block_refs=1_000_000)
        buffer.seek(0)
        header, chunks = open_trace_stream(buffer, source="big", chunk_refs=64)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) <= 64
        assert sum(sizes) == trace.n_references


class TestDegenerateTraces:
    def test_empty_miss_trace_streams(self):
        empty = MissTrace(
            gap_cycles=np.zeros(0), is_blocking=np.zeros(0, bool),
            instruction_index=np.zeros(0, np.int64),
            total_compute_cycles=55.0, n_instructions=10,
            energy=EnergyEvents(n_instructions=10, n_memory_refs=0),
            source_name="empty", source_input="x",
        )
        for scheme in SCHEMES:
            assert_timing_identical(empty, scheme, 8, "fast")

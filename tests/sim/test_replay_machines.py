"""Replay-machine edge cases the equivalence suites do not pin.

``run_timing`` feeds a replay machine the whole miss trace as one chunk
and ``run_timing_streaming`` feeds it miss chunks, so every state the
machine carries across a chunk boundary must reproduce the one-chunk
replay.  base_dram carries the last ``entries`` store completions into
its vectorized write-buffer-stall check; the straddling tests below make
a store stall on an entry admitted in an earlier chunk.
"""

import numpy as np
import pytest

from repro.cache.write_buffer import WriteBuffer
from repro.core.scheme import BaseDramScheme, scheme_from_spec
from repro.cpu.trace import EnergyEvents, MissTrace
from repro.sim.streaming import miss_trace_chunks, run_timing_streaming
from repro.sim.timing import run_timing, run_timing_batch


def store_heavy_trace(n=400, seed=0) -> MissTrace:
    """Mostly stores, short gaps, and zero-gap store bursts that overflow
    even an 8-entry buffer at base_dram's 40-cycle latency."""
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 30.0, n))
    gaps[rng.random(n) < 0.05] = 400.5
    blocking = rng.random(n) < 0.15
    for start in range(20, n - 20, 97):
        gaps[start:start + 20] = 0.0
        blocking[start:start + 20] = False
    return MissTrace(
        gap_cycles=gaps,
        is_blocking=blocking,
        instruction_index=np.arange(1, n + 1, dtype=np.int64) * 5,
        total_compute_cycles=77.25,
        n_instructions=n * 5,
        energy=EnergyEvents(n_instructions=n * 5, n_memory_refs=n),
        source_name="stores",
        source_input="x",
    )


def stalls_with_blockers(miss_trace, entries) -> list[tuple[int, int]]:
    """(stalled store, store it waits for) request indices under base_dram,
    read off the reference controller and write buffer."""
    controller = BaseDramScheme().build_controller()
    buffer = WriteBuffer(entries=entries)
    admitted: list[int] = []
    pairs = []
    core = 0.0
    requests = zip(miss_trace.gap_cycles.tolist(), miss_trace.is_blocking.tolist())
    for index, (gap, blocking) in enumerate(requests):
        issue = core + gap
        completion = controller.serve(issue)
        if blocking:
            core = completion
            continue
        stalls_before = buffer.full_stalls
        core = buffer.admit(issue, completion)
        if buffer.full_stalls > stalls_before:
            # A full buffer holds exactly the last `entries` admits.
            pairs.append((index, admitted[-entries]))
        admitted.append(index)
    return pairs


STRADDLE_CASES = [
    (entries, chunk)
    for entries in (1, 2, 8)
    for chunk in range(1, 2 * entries + 2)
]


class TestBaseDramStallsAcrossChunks:
    @pytest.mark.parametrize(
        "entries,chunk", STRADDLE_CASES,
        ids=[f"entries{e}-chunk{c}" for e, c in STRADDLE_CASES],
    )
    def test_streamed_matches_reference(self, entries, chunk):
        miss_trace = store_heavy_trace()
        pairs = stalls_with_blockers(miss_trace, entries)
        carried = [
            (stalled, blocker) for stalled, blocker in pairs
            if blocker // chunk < stalled // chunk
        ]
        assert carried, "some store must wait on an entry from an earlier chunk"

        reference = run_timing(
            miss_trace, BaseDramScheme(), write_buffer_entries=entries,
            record_requests=False, mode="reference",
        )
        streamed = run_timing_streaming(
            miss_trace_chunks(miss_trace, chunk), miss_trace, BaseDramScheme(),
            write_buffer_entries=entries,
        )
        assert streamed.cycles == reference.cycles
        assert streamed.controller.real_accesses == reference.controller.real_accesses
        assert streamed.power_watts == reference.power_watts


#: Every replay entry point, as ``replay(miss_trace, scheme, entries)``.
#: The batch path adds two slot schemes so the batched kernel runs too.
REPLAY_PATHS = {
    "run_timing-fast": lambda trace, scheme, entries: run_timing(
        trace, scheme, write_buffer_entries=entries, mode="fast"
    ),
    "run_timing-reference": lambda trace, scheme, entries: run_timing(
        trace, scheme, write_buffer_entries=entries, mode="reference"
    ),
    "run_timing_batch": lambda trace, scheme, entries: run_timing_batch(
        trace,
        [scheme, scheme_from_spec("static:300"), scheme_from_spec("dynamic:4x4")],
        write_buffer_entries=entries,
    ),
    "run_timing_streaming": lambda trace, scheme, entries: run_timing_streaming(
        miss_trace_chunks(trace, 7), trace, scheme, write_buffer_entries=entries
    ),
}


class TestWriteBufferDepthValidation:
    @pytest.mark.parametrize("entries", [0, -1])
    @pytest.mark.parametrize("path", sorted(REPLAY_PATHS))
    @pytest.mark.parametrize(
        "spec", ["base_dram", "base_oram", "static:300", "dynamic:4x4"]
    )
    def test_non_positive_depth_is_a_value_error(self, path, spec, entries):
        with pytest.raises(ValueError, match="entries must be positive"):
            REPLAY_PATHS[path](store_heavy_trace(n=60), scheme_from_spec(spec), entries)

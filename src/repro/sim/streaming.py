"""Chunked/streaming variant of the timing replay.

:func:`run_timing_streaming` consumes the miss-request stream as bounded
:class:`~repro.cache.streaming.MissChunk` windows (typically straight
out of the functional-pass machine that
:func:`~repro.cache.streaming.stream_functional` returns: the vectorized
:class:`~repro.cache.vectorized.VectorizedHierarchyPass` by default, or
the scalar :class:`~repro.cache.hierarchy.StreamingHierarchyPass`) plus
the trace-level :class:`~repro.cache.streaming.FunctionalSummary`, and
produces a :class:`~repro.sim.result.SimResult` **bit-identical** to
``run_timing`` on the assembled trace — for every controller type, every
``mode``, and every chunking.  It holds no replay loop of its own: it
feeds the chunks to the same resumable replay machine
(:mod:`repro.sim.timing`) that ``run_timing`` feeds the whole trace as
one chunk, so carrying the state across chunk boundaries changes nothing
about the arithmetic or its float-addition order.

Streaming results never record per-request arrays or the observable
trace — those are whole-trace artifacts by definition; use the
in-memory path when you need them.
"""

from __future__ import annotations

from typing import Iterable

from repro.cache.streaming import FunctionalSummary, MissChunk
from repro.cpu.trace import MissTrace
from repro.sim.result import SimResult
from repro.sim.timing import _build_result, _open_replay


def miss_trace_chunks(miss_trace: MissTrace, chunk_requests: int):
    """Slice an in-memory miss trace into streamed chunks (test helper)."""
    if chunk_requests <= 0:
        raise ValueError(f"chunk_requests must be positive, got {chunk_requests}")
    n = len(miss_trace.gap_cycles)
    for start in range(0, n, chunk_requests):
        stop = start + chunk_requests
        yield MissChunk(
            gap_cycles=miss_trace.gap_cycles[start:stop],
            is_blocking=miss_trace.is_blocking[start:stop],
            instruction_index=miss_trace.instruction_index[start:stop],
        )


def run_timing_streaming(
    miss_chunks: Iterable[MissChunk],
    summary: FunctionalSummary | MissTrace,
    scheme,
    write_buffer_entries: int = 8,
    mode: str = "fast",
) -> SimResult:
    """Streaming counterpart of :func:`repro.sim.timing.run_timing`.

    ``summary`` may be a :class:`FunctionalSummary`, an in-memory
    ``MissTrace`` whose totals are used directly, or — for lazy
    pipelining straight out of :func:`repro.cache.streaming
    .stream_functional` — a zero-argument callable evaluated only after
    the miss-chunk iterator is exhausted (e.g. ``machine.finish``).
    """
    controller, machine = _open_replay(
        scheme, write_buffer_entries, record_requests=False, mode=mode
    )
    for chunk in miss_chunks:
        machine.feed(chunk)
    if callable(summary):
        summary = summary()
    end_time = machine.finish(summary.total_compute_cycles)
    # Without per-request arrays the result needs only the trace-level
    # totals and labels, which a summary carries under MissTrace's names.
    return _build_result(
        summary, scheme, controller, end_time,
        completions=None, record_requests=False, record_observable_trace=False,
    )

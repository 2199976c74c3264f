"""Chunked/streaming driver of the functional cache pass.

Both functional-pass kernels are resumable machines with one interface:
``feed(chunk) -> MissChunk`` advances the L1/L2 state over one bounded
:class:`~repro.ingest.formats.TraceChunk`, and ``finish() ->
FunctionalSummary`` returns the trace-level totals.
:func:`~repro.cache.hierarchy.functional_pass` picks the machine by
``mode``: the vectorized
:class:`~repro.cache.vectorized.VectorizedHierarchyPass` for ``"fast"``
(the default), the scalar oracle
:class:`~repro.cache.hierarchy.StreamingHierarchyPass` for
``"reference"``.  ``simulate_hierarchy`` is a one-chunk run of the same
machines.  This module feeds them streamed chunks:
:func:`stream_functional` is the lazy pipeline stage (trace chunks in,
miss chunks out) and :func:`run_functional_streaming` assembles the
result in memory.  Feeding a trace in *any* chunking — including one
reference at a time — produces the exact per-reference arithmetic of the
one-chunk run, so the emitted request stream is **bit-identical** to
``simulate_hierarchy`` on the same trace under either mode; only peak
memory changes (one chunk plus the cache resident sets, instead of the
whole trace).  The vectorized machine further works through each chunk
in sub-slices of at most its own ``chunk_refs`` references, so a large
reader chunk does not grow its working arrays.

``tests/ingest/test_streaming_equivalence.py`` pins the digest equality
across randomized and pathological chunk sizes, and
``tests/cache/test_functional_machine.py`` the chunk-straddling cases of
the vectorized machine.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.cpu.core import CoreModel
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.cache.hierarchy import (
    FunctionalSummary,
    HierarchyConfig,
    MissChunk,
    StreamingHierarchyPass,
    functional_pass,
)
from repro.cache.vectorized import VectorizedHierarchyPass
from repro.ingest.formats import (
    DEFAULT_CHUNK_REFS,
    TraceChunk,
    TraceHeader,
    header_for,
    trace_chunks,
)

__all__ = [
    "FunctionalSummary",
    "MissChunk",
    "StreamingHierarchyPass",
    "VectorizedHierarchyPass",
    "run_functional_streaming",
    "stream_functional",
]


def stream_functional(
    header: TraceHeader,
    chunks: Iterable[TraceChunk],
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
    mode: str = "fast",
) -> tuple[Iterator[MissChunk], StreamingHierarchyPass | VectorizedHierarchyPass]:
    """Lazy pipeline stage: trace chunks in, miss chunks out.

    Returns the miss-chunk iterator plus the machine ``mode`` picks;
    call ``machine.finish()`` after exhausting the iterator to obtain
    the :class:`FunctionalSummary` the timing replay needs.
    """
    machine = functional_pass(
        header, config, core, warmup_instructions=warmup_instructions, mode=mode
    )

    def emit() -> Iterator[MissChunk]:
        for chunk in chunks:
            yield machine.feed(chunk)

    return emit(), machine


def run_functional_streaming(
    trace: MemoryTrace | TraceHeader,
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
    mode: str = "fast",
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    chunks: Iterable[TraceChunk] | None = None,
) -> MissTrace:
    """Streaming counterpart of :func:`repro.cache.hierarchy.simulate_hierarchy`.

    Accepts either an in-memory trace (chunked internally at
    ``chunk_refs``) or a ``TraceHeader`` plus an external chunk iterable
    (the ingest path).  ``mode`` picks the machine as in
    ``simulate_hierarchy``; output is bit-identical to the in-memory
    kernels for every chunking and either mode.
    """
    if isinstance(trace, MemoryTrace):
        if chunks is not None:
            raise ValueError("pass either a MemoryTrace or (header, chunks), not both")
        header = header_for(trace)
        chunks = trace_chunks(trace, chunk_refs)
    else:
        header = trace
        if chunks is None:
            raise ValueError("streaming from a TraceHeader needs a chunk iterable")

    miss_chunks, machine = stream_functional(
        header, chunks, config, core,
        warmup_instructions=warmup_instructions, mode=mode,
    )
    collected = [c for c in miss_chunks if len(c)]
    summary = machine.finish()
    if collected:
        requests = MissChunk(
            gap_cycles=np.concatenate([c.gap_cycles for c in collected]),
            is_blocking=np.concatenate([c.is_blocking for c in collected]),
            instruction_index=np.concatenate([c.instruction_index for c in collected]),
        )
    else:
        requests = MissChunk.empty()
    return summary.with_requests(requests)

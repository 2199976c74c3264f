"""Chunked/streaming driver of the functional cache pass.

The scalar functional pass is a resumable machine,
:class:`~repro.cache.hierarchy.StreamingHierarchyPass`, whose
:meth:`~repro.cache.hierarchy.StreamingHierarchyPass.feed` advances the
L1/L2 state over one bounded :class:`~repro.ingest.formats.TraceChunk` at
a time; ``simulate_hierarchy_reference`` is a one-chunk run of the same
machine.  This module feeds it streamed chunks: :func:`stream_functional`
is the lazy pipeline stage (trace chunks in, miss chunks out) and
:func:`run_functional_streaming` assembles the result in memory.  Feeding
a trace in *any* chunking — including one reference at a time — produces
the exact per-reference execution of the one-chunk run, so the emitted
request stream is **bit-identical** to ``simulate_hierarchy`` on the
same trace; only peak memory changes (one chunk plus the cache resident
sets, instead of the whole trace).

Both ``mode="fast"`` and ``mode="reference"`` run this same machine:
the in-memory fast and reference kernels are themselves bit-identical
(the equivalence suite enforces it), so the scalar machine serves as
the streaming counterpart of both.
``tests/ingest/test_streaming_equivalence.py`` pins the digest equality
across randomized and pathological chunk sizes.
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
)
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
    "run_functional_streaming",
    "stream_functional",
]


def stream_functional(
    header: TraceHeader,
    chunks: Iterable[TraceChunk],
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
) -> tuple[Iterator[MissChunk], StreamingHierarchyPass]:
    """Lazy pipeline stage: trace chunks in, miss chunks out.

    Returns the miss-chunk iterator plus the machine itself; call
    ``machine.finish()`` after exhausting the iterator to obtain the
    :class:`FunctionalSummary` the timing replay needs.
    """
    machine = StreamingHierarchyPass(
        header, config, core, warmup_instructions=warmup_instructions
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
    (the ingest path).  Output is bit-identical to the in-memory kernels
    for every chunking; ``mode`` is accepted for seam compatibility and
    validated, but both values run the single streaming machine (the
    in-memory fast and reference kernels already agree bit-for-bit).
    """
    if mode not in ("fast", "reference"):
        raise ValueError(f"mode must be 'fast' or 'reference', got {mode!r}")
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
        header, chunks, config, core, warmup_instructions=warmup_instructions
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
        requests = MissChunk(
            gap_cycles=np.zeros(0, dtype=np.float64),
            is_blocking=np.zeros(0, dtype=bool),
            instruction_index=np.zeros(0, dtype=np.int64),
        )
    return summary.with_requests(requests)

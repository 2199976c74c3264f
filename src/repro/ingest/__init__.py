"""Trace ingestion: real trace files in, engine-native workloads out.

The pipeline has three seams, each importable on its own:

- :mod:`repro.ingest.formats` — pluggable parsers/serializers for the
  text address-trace format, the packed binary ``.rtb`` format, and
  gzip-wrapped variants of both, all streaming in bounded chunks.
- :mod:`repro.ingest.errors` — the typed error family every malformed
  input raises (precise line/byte-offset reporting, never a crash).
- :mod:`repro.ingest.store` — content-addressed import keyed by
  ``MemoryTrace.content_digest()``, so imported traces flow through the
  Engine, caches, frontier, tenancy, and service layers unchanged under
  workload names like ``ingest:<digest>``.

The streaming drivers live with their in-memory pairs:
``repro.cache.streaming`` (functional pass) and ``repro.sim.streaming``
(timing replay) feed bounded chunks to the same resumable machines the
in-memory paths run as one chunk.
"""

from repro.ingest.errors import (
    IngestError,
    StoreError,
    TraceFormatError,
    TraceValidationError,
)
from repro.ingest.formats import (
    DEFAULT_CHUNK_REFS,
    TraceChunk,
    TraceHeader,
    assemble_trace,
    detect_format,
    header_for,
    load_memory_trace,
    open_trace_stream,
    trace_chunks,
    write_binary_trace,
    write_text_trace,
)
from repro.ingest.store import IngestStore, default_store_dir, streaming_digest

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "IngestError",
    "IngestStore",
    "StoreError",
    "TraceChunk",
    "TraceFormatError",
    "TraceHeader",
    "TraceValidationError",
    "assemble_trace",
    "default_store_dir",
    "detect_format",
    "header_for",
    "load_memory_trace",
    "open_trace_stream",
    "streaming_digest",
    "trace_chunks",
    "write_binary_trace",
    "write_text_trace",
]

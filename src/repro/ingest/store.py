"""Content-addressed import store for ingested traces.

Importing a trace transcodes it (streaming, bounded memory) into the
canonical packed binary form under ``<cache>/ingest/<digest>.rtb``,
where ``<digest>`` is exactly ``MemoryTrace.content_digest()`` — the
same sha-256 the rest of the stack keys on.  That one invariant is what
lets imported traces flow through the Engine, persistent caches,
frontier sweeps, tenancy, and the service daemon unchanged: the
simulator memoizes an external trace's functional pass by this digest,
so an imported SPEC trace and a synthetic workload trace are the same
kind of object to it.

The digest is computed without ever materializing the trace: the
canonical file is written first, then hashed in three sequential
streaming passes (addresses, store flags, gaps — the byte order
``content_digest`` uses), so import RSS is bounded by one chunk
regardless of trace size.

Durability follows the api-layer cache discipline: temp file + fsync +
``os.replace``, fault-injection sites (``ingest-import``,
``ingest-write-trace``) for chaos scenarios, and quarantine-on-read for
corrupt entries — a torn import is preserved as evidence, reads as a
miss, and a re-import lands byte-identical under the same digest.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Iterator

from repro.api.cache import _fsync_dir, default_cache_dir, quarantine_artifact
from repro.cpu.trace import MemoryTrace
from repro.faults.plan import corrupt_bytes, fault_point
from repro.ingest.errors import IngestError, StoreError
from repro.ingest.formats import (
    DEFAULT_CHUNK_REFS,
    TraceChunk,
    TraceHeader,
    assemble_trace,
    open_trace_stream,
    read_binary_trace,
    write_binary_trace,
)

#: Canonical stored-entry suffix (packed binary, uncompressed).
ENTRY_SUFFIX = ".rtb"

#: Workload-name prefix routing registry lookups to the ingest store.
WORKLOAD_PREFIX = "ingest:"

#: Pseudo input name reported for imported traces.
IMPORTED_INPUT = "imported"


def default_store_dir() -> Path:
    """Ingest entries live beside the trace/result caches."""
    return default_cache_dir() / "ingest"


def streaming_digest(path: Path) -> str:
    """``MemoryTrace.content_digest()`` of a stored entry, three-pass.

    ``content_digest`` hashes all address bytes, then all store-flag
    bytes, then all gap bytes, then the metadata repr.  A single pass
    over the file sees those interleaved per block, so the file is
    walked once per component — still O(chunk) memory for any trace
    size.
    """
    hasher = hashlib.sha256()
    header: TraceHeader | None = None
    for component in ("addresses", "is_store", "gap_instructions"):
        header, chunks = read_binary_trace(path)
        for chunk in chunks:
            array = getattr(chunk, component)
            hasher.update(array.tobytes())
    assert header is not None
    hasher.update(header.digest_suffix())
    return hasher.hexdigest()


class IngestStore:
    """Content-addressed store of imported traces.

    >>> import numpy as np, tempfile
    >>> from repro.cpu.trace import MemoryTrace
    >>> trace = MemoryTrace("demo", "ref", np.array([64, 128]),
    ...                     np.array([False, True]), np.array([3, 0]))
    >>> with tempfile.TemporaryDirectory() as root:
    ...     store = IngestStore(root)
    ...     source = Path(root) / "demo.rtb"
    ...     write_binary_trace(trace, source)
    ...     digest = store.import_trace(source)
    ...     digest == trace.content_digest()
    ...     store.load(digest).content_digest() == digest
    True
    True
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}{ENTRY_SUFFIX}"

    # ------------------------------------------------------------------
    # Import
    # ------------------------------------------------------------------

    def import_trace(
        self,
        path_or_stream,
        source: str | None = None,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ) -> str:
        """Stream a trace in any supported format into the store.

        Returns the entry's content digest.  The input is parsed and
        transcoded chunk-by-chunk, so peak memory is bounded by
        ``chunk_refs`` references, never by the trace.  Idempotent: an
        already-present digest is rewritten in place (atomic replace),
        which is also how a quarantined tear gets healed.
        """
        fault_point("ingest-import")
        header, chunks = open_trace_stream(
            path_or_stream, source=source, chunk_refs=chunk_refs
        )
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix="import.", suffix=".tmp")
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as handle:
                write_binary_trace(header, handle, chunks=chunks)
                handle.flush()
                os.fsync(handle.fileno())
            # The digest comes from the intact canonical bytes *before*
            # the fault site below may tear them: a torn import must
            # still land under its true name, so the read path detects
            # and quarantines it and a clean re-import heals it in place.
            digest = streaming_digest(tmp)
            if len(corrupt_bytes("ingest-write-trace", b"xx")) != 2:
                # A corrupt fault fired.  Model the torn write on the
                # file itself — payloads stream through this site, so
                # the sentinel consumes the firing slot and the
                # truncation reproduces ``corrupt_bytes`` semantics.
                with open(tmp, "r+b") as handle:
                    handle.truncate(tmp.stat().st_size // 2)
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self._path(digest))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(self.root)
        return digest

    def validate(self, path_or_stream, source: str | None = None) -> tuple[TraceHeader, int]:
        """Parse an input fully (streaming) without storing anything.

        Returns the header and the reference count; any malformation
        raises the parser's typed :class:`IngestError`.
        """
        header, chunks = open_trace_stream(path_or_stream, source=source)
        return header, sum(len(chunk) for chunk in chunks)

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def has(self, digest: str) -> bool:
        """Cheap existence check (no parse)."""
        return self._path(digest).is_file()

    def resolve(self, prefix: str) -> str:
        """Expand a digest prefix to the unique stored digest.

        Raises :class:`StoreError` when nothing (or more than one entry)
        matches — ambiguity is an error, not a guess.
        """
        if self.has(prefix):
            return prefix
        matches = sorted(
            path.name[: -len(ENTRY_SUFFIX)]
            for path in self.root.glob(f"{prefix}*{ENTRY_SUFFIX}")
        ) if self.root.is_dir() else []
        if not matches:
            raise StoreError(f"no ingested trace matches digest {prefix!r}",
                             source=str(self.root))
        if len(matches) > 1:
            raise StoreError(
                f"digest prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches: {', '.join(m[:12] for m in matches)})",
                source=str(self.root),
            )
        return matches[0]

    def load(self, digest: str) -> MemoryTrace | None:
        """Materialize a stored trace; None on miss, quarantine on corruption.

        A torn or bit-rotted entry (CRC / truncation / digest mismatch)
        moves to ``quarantine/`` — evidence preserved, key reads as a
        miss — exactly the discipline the api-layer caches follow.
        """
        path = self._path(digest)
        if not path.is_file():
            return None
        try:
            header, chunks = read_binary_trace(path)
            trace = assemble_trace(header, chunks)
        except IngestError:
            quarantine_artifact(path)
            return None
        if trace.content_digest() != digest:
            quarantine_artifact(path)
            return None
        return trace

    def open_stream(
        self, digest: str, chunk_refs: int = DEFAULT_CHUNK_REFS
    ) -> tuple[TraceHeader, Iterator[TraceChunk]]:
        """Open a stored entry for streaming replay (bounded memory)."""
        path = self._path(self.resolve(digest))
        return read_binary_trace(path, chunk_refs=chunk_refs)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def list_entries(self) -> list[dict]:
        """Summaries of every stored entry (corrupt ones excluded)."""
        entries = []
        if not self.root.is_dir():
            return entries
        for path in sorted(self.root.glob(f"*{ENTRY_SUFFIX}")):
            digest = path.name[: -len(ENTRY_SUFFIX)]
            try:
                header, chunks = read_binary_trace(path)
                n_references = sum(len(chunk) for chunk in chunks)
            except IngestError:
                continue  # verify()/gc() handle corruption; listing skips
            entries.append({
                "digest": digest,
                "name": header.name,
                "input": header.input_name,
                "n_references": n_references,
                "bytes": path.stat().st_size,
            })
        return entries

    def gc(self) -> dict:
        """Sweep the store: drop stale temp files, quarantine bad entries.

        An entry is bad when it fails to parse (torn write, bit rot) or
        its content digest no longer matches its filename (schema drift,
        tampering).  Returns counts: ``{"kept": .., "quarantined": ..,
        "removed_tmp": ..}``.
        """
        kept = quarantined = removed = 0
        if not self.root.is_dir():
            return {"kept": 0, "quarantined": 0, "removed_tmp": 0}
        for stray in self.root.glob("import.*.tmp"):
            try:
                stray.unlink()
                removed += 1
            except OSError:
                pass
        for path in sorted(self.root.glob(f"*{ENTRY_SUFFIX}")):
            digest = path.name[: -len(ENTRY_SUFFIX)]
            try:
                ok = streaming_digest(path) == digest
            except IngestError:
                ok = False
            if ok:
                kept += 1
            elif quarantine_artifact(path) is not None:
                quarantined += 1
        return {"kept": kept, "quarantined": quarantined, "removed_tmp": removed}

    def describe(self) -> str:
        """One-line summary of location and entry count."""
        count = (
            len(list(self.root.glob(f"*{ENTRY_SUFFIX}"))) if self.root.is_dir() else 0
        )
        return f"ingest store at {self.root}: {count} traces"


def workload_spec_for(digest_or_prefix: str, store: IngestStore | None = None):
    """A registry-compatible :class:`WorkloadSpec` for a stored trace.

    Registered under ``ingest:<digest>`` by the workload registry's
    fallback path, so every engine surface that takes a benchmark name —
    ``repro run``, sweeps, tenancy, the service daemon — accepts an
    imported trace with zero special-casing.  The builder ignores the
    seed and instruction budget (the trace is fixed recorded history);
    the simulator's warmup split still applies downstream.
    """
    from repro.workloads.base import WorkloadSpec

    store = store if store is not None else IngestStore()
    digest = store.resolve(digest_or_prefix)

    def build(seed: int, n_instructions: int) -> MemoryTrace:
        trace = store.load(digest)
        if trace is None:
            raise StoreError(
                f"ingested trace {digest[:12]} vanished or was quarantined; re-import it",
                source=str(store.root),
            )
        return trace

    return WorkloadSpec(
        name=f"{WORKLOAD_PREFIX}{digest}",
        inputs=(IMPORTED_INPUT,),
        category="imported",
        description=f"imported trace {digest[:12]} from the ingest store",
        build=build,
    )

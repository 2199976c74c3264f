"""Persistent on-disk caches for the experiment engine.

Two content-addressed stores under one root directory:

- ``traces/`` — pickled :class:`~repro.cpu.trace.MissTrace` objects, keyed
  by a digest of everything that determines the functional cache pass
  (workload, seed, instruction budget, hierarchy, core).  This extends
  the simulator's process-wide pass memo across processes and sessions:
  pool workers and repeated sweeps reuse each benchmark's expensive
  functional pass instead of recomputing it.
- ``results/`` — JSON :class:`~repro.api.records.RunRecord` rows keyed by
  the spec cell's content hash, so a warm repeated sweep runs nothing at
  all.

Writes are atomic **and durable** (temp file + ``fsync`` +
``os.replace``), so concurrent pool workers may race on the same key
without corrupting entries and a host crash cannot persist a torn
artifact.  Result entries are written in batches
(:meth:`ResultCache.put_many`): every entry still gets its own temp
file, file ``fsync`` and rename, and the ``results/`` directory is
fsynced once per batch, after its last rename.  Corrupt entries —
truncated pickles, bad JSON, wrong shapes — are never silently
discarded: they move to a ``quarantine/`` sibling directory (evidence
for triage), count into the ``artifacts_quarantined`` counter of
:mod:`repro.obs`, and the key reads as a miss so the artifact is
recomputed.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable

from repro import obs
from repro.api.records import RunRecord
from repro.api.spec import TRACE_SCHEMA_VERSION
from repro.cpu.trace import MissTrace
from repro.faults.plan import corrupt_bytes

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory (per store) where corrupt artifacts are preserved.
QUARANTINE_DIR = "quarantine"

#: Result entries are strict RFC-8259 JSON with sorted keys; built once,
#: not per entry as ``json.dumps(..., sort_keys=True)`` would.
_RESULT_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _replace_durably(path: Path, payload: bytes) -> None:
    """Write via a sibling temp file so readers never see partial entries.

    The temp file is fsync'd *before* ``os.replace`` — without it a host
    crash can replace the entry with zero-length or torn bytes that the
    digest check would then silently discard forever.  The rename itself
    is durable only once the directory is fsync'd (:func:`_fsync_dir`).
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # platform without directory fsync; file bytes are safe


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """One durable entry: :func:`_replace_durably`, then its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    _replace_durably(path, payload)
    _fsync_dir(path.parent)


def quarantine_artifact(path: Path) -> Path | None:
    """Move a corrupt artifact into its store's ``quarantine/`` subdir.

    Keeps every generation (suffixing duplicates) so repeated corruption
    of one key never destroys evidence.  Returns the quarantine path, or
    None when the file vanished or could not be moved (a concurrent
    reader may have quarantined it first — that reader counted it).
    """
    if not path.is_file():
        return None
    target_dir = path.parent / QUARANTINE_DIR
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    target = target_dir / path.name
    generation = 0
    while target.exists():
        generation += 1
        target = target_dir / f"{path.name}.{generation}"
    try:
        os.replace(path, target)
    except OSError:
        return None
    obs.bump("artifacts_quarantined")
    return target


class TraceCache:
    """Content-addressed store of pickled miss traces.

    Satisfies the :class:`repro.sim.simulator.TraceStore` protocol, so it
    plugs straight into ``SecureProcessorSim.miss_trace(..., store=...)``.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        # The simulator computes keys without knowledge of the api-layer
        # schema, so the trace schema version is folded in here.  Traces
        # version independently of results (TRACE_SCHEMA_VERSION vs
        # CACHE_SCHEMA_VERSION): a result-shape change must not orphan
        # the expensive functional passes.
        return self.root / f"v{TRACE_SCHEMA_VERSION}-{key}.pkl"

    def get(self, key: str) -> MissTrace | None:
        """Load a trace; None on miss, quarantine-then-None on corruption."""
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            return None  # plain miss — nothing on disk for this key
        try:
            trace = pickle.loads(payload)
        except Exception:
            # Truncated/zero-length pickle, torn write, unpicklable
            # garbage: preserve the evidence and recompute.
            quarantine_artifact(path)
            return None
        if not isinstance(trace, MissTrace):
            quarantine_artifact(path)
            return None
        return trace

    def put(self, key: str, trace: MissTrace) -> None:
        """Persist a trace under its digest."""
        payload = corrupt_bytes("cache-write-trace", pickle.dumps(trace, protocol=4))
        _atomic_write_bytes(self._path(key), payload)

    def has(self, key: str) -> bool:
        """Cheap existence check (no deserialization)."""
        return self._path(key).is_file()

    def entry_count(self) -> int:
        """Number of persisted traces (a gauge, not a pass count: a
        recompute rewrites its file, and concurrent runs add theirs)."""
        return len(list(self.root.glob("*.pkl"))) if self.root.is_dir() else 0


class ResultCache:
    """Content-addressed store of finished run records (JSON, one per cell)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, cell_hash: str) -> Path:
        return self.root / f"{cell_hash}.json"

    def get(self, cell_hash: str) -> RunRecord | None:
        """Load a record; None on miss, quarantine-then-None on corruption."""
        path = self._path(cell_hash)
        try:
            text = path.read_text()
        except OSError:
            return None  # plain miss
        try:
            return RunRecord.from_dict(json.loads(text))
        except (ValueError, TypeError, KeyError):
            # Bad JSON, wrong schema/shape, zero-length file: quarantine
            # and let the engine recompute the cell.
            quarantine_artifact(path)
            return None

    def put(self, cell_hash: str, record: RunRecord) -> None:
        """Persist one record under its cell hash (a batch of one).

        The package writes through :meth:`put_many`; this stays because
        ``perfbench/tracing.py`` wraps it by name.
        """
        self.put_many(((cell_hash, record),))

    def put_many(self, entries: Iterable[tuple[str, RunRecord]]) -> None:
        """Persist ``(cell_hash, record)`` pairs as strict RFC-8259 JSON.

        Each entry gets its own temp file, file ``fsync`` and rename, and
        arms the ``cache-write-result`` fault site once.  The directory
        is fsynced once, after the last rename and before returning —
        also when an entry fails, so the renames before it are durable.
        """
        entries = list(entries)
        if not entries:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            for cell_hash, record in entries:
                payload = _RESULT_JSON.encode(record.to_dict()).encode()
                _replace_durably(
                    self._path(cell_hash), corrupt_bytes("cache-write-result", payload)
                )
        finally:
            _fsync_dir(self.root)


class ExperimentCache:
    """The engine's two-level persistent cache rooted at one directory."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.traces = TraceCache(self.root / "traces")
        self.results = ResultCache(self.root / "results")

    def describe(self) -> str:
        """One-line summary of location and entry counts."""
        n_traces = len(list(self.traces.root.glob("*.pkl"))) if self.traces.root.is_dir() else 0
        n_results = len(list(self.results.root.glob("*.json"))) if self.results.root.is_dir() else 0
        return f"cache at {self.root}: {n_traces} traces, {n_results} results"

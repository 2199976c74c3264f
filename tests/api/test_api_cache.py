"""Tests for the persistent trace/result caches."""

import numpy as np

from repro.api.cache import ExperimentCache, ResultCache, TraceCache, default_cache_dir
from repro.cpu.trace import EnergyEvents, MissTrace
from tests.api.conftest import build_record


def tiny_miss_trace() -> MissTrace:
    return MissTrace(
        gap_cycles=np.array([10.0, 20.0]),
        is_blocking=np.array([True, False]),
        instruction_index=np.array([5, 15], dtype=np.int64),
        total_compute_cycles=7.0,
        n_instructions=20,
        energy=EnergyEvents(n_instructions=20),
        source_name="mcf",
        source_input="inp",
    )


class TestTraceCache:
    def test_miss_returns_none(self, tmp_path):
        assert TraceCache(tmp_path).get("nothing") is None

    def test_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", tiny_miss_trace())
        loaded = cache.get("k")
        assert loaded is not None
        np.testing.assert_array_equal(loaded.gap_cycles, [10.0, 20.0])
        assert loaded.source_name == "mcf"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", tiny_miss_trace())
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        assert cache.get("k") is None

    def test_entries_are_schema_versioned(self, tmp_path):
        """Bumping TRACE_SCHEMA_VERSION must orphan trace entries."""
        cache = TraceCache(tmp_path)
        cache.put("k", tiny_miss_trace())
        (entry,) = tmp_path.glob("*.pkl")
        assert entry.name.startswith("v")


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec = build_record(epoch_rates=(10_000, 256))
        cache.put("h", rec)
        assert cache.get("h") == rec

    def test_miss_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None


class TestExperimentCache:
    def test_layout_and_describe(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        cache.traces.put("t", tiny_miss_trace())
        cache.results.put("r", build_record())
        assert cache.traces.root == tmp_path / "traces"
        assert "1 traces, 1 results" in cache.describe()

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"


class TestResultBatchWrite:
    """``ResultCache.put_many``: per-entry durability, one directory fsync."""

    @staticmethod
    def entries(n=4):
        return [(f"h{i}", build_record(seed=i, cycles=1000.0 + i)) for i in range(n)]

    def test_durability_order(self, tmp_path, monkeypatch):
        import os
        import stat

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "dir-fsync" if stat.S_ISDIR(info.st_mode) else "file-fsync"
            events.append((kind, info.st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        cache = ResultCache(tmp_path / "results")
        entries = self.entries()
        cache.put_many(entries)
        monkeypatch.undo()

        renames = [i for i, (kind, _) in enumerate(events) if kind == "replace"]
        assert len(renames) == len(entries)
        for cell_hash, record in entries:
            path = cache._path(cell_hash)
            rename = events.index(("replace", str(path)))
            # The entry's bytes were fsynced (same inode: rename keeps
            # it) before the rename made them visible.
            assert events.index(("file-fsync", path.stat().st_ino)) < rename
            assert cache.get(cell_hash) == record
        dir_syncs = [i for i, (kind, _) in enumerate(events) if kind == "dir-fsync"]
        assert dir_syncs == [len(events) - 1]
        assert dir_syncs[0] > renames[-1]
        assert events[-1][1] == cache.root.stat().st_ino

    def test_fault_site_armed_once_per_entry(self, tmp_path):
        from repro.faults.plan import FaultPlan, FaultSpec

        entries = self.entries()
        for torn in range(1, len(entries) + 1):
            cache = ResultCache(tmp_path / f"results-{torn}")
            plan = FaultPlan(
                faults=(FaultSpec(kind="corrupt", site="cache-write-result", at=torn),),
                token_dir=str(tmp_path / f"tokens-{torn}"),
            )
            with plan.activated():
                cache.put_many(entries)
            readable = [cache.get(cell_hash) is not None for cell_hash, _ in entries]
            assert readable == [i != torn for i in range(1, len(entries) + 1)]

    def test_single_put_is_a_batch_of_one(self, tmp_path, monkeypatch):
        batches = []
        real_put_many = ResultCache.put_many

        def recording(self, entries):
            entries = list(entries)
            batches.append([cell_hash for cell_hash, _ in entries])
            return real_put_many(self, entries)

        monkeypatch.setattr(ResultCache, "put_many", recording)
        cache = ResultCache(tmp_path)
        cache.put("h", build_record())
        assert batches == [["h"]]
        assert cache.get("h") == build_record()

    def test_empty_batch_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.put_many([])
        assert not cache.root.exists()

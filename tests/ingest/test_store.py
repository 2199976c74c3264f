"""The content-addressed import store and its engine integration.

The store's one invariant — entry filename == ``content_digest()`` of
the trace inside — is what lets imported traces flow through the rest
of the stack unchanged, so most tests here pivot on digests: import is
idempotent, ``streaming_digest`` agrees with the in-memory digest,
corrupt entries quarantine rather than load, and the workload registry
resolves ``ingest:<digest>`` names straight out of the store.
"""

import io

import numpy as np
import pytest

import repro.ingest.store as store_module
from repro.cpu.trace import MemoryTrace
from repro.ingest import (
    IngestStore,
    StoreError,
    streaming_digest,
    write_binary_trace,
    write_text_trace,
)
from repro.workloads.registry import build_trace, get_workload


def make_trace(seed=5, n=300, name="store-test") -> MemoryTrace:
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        name, "ref",
        rng.integers(0, 1 << 32, size=n, dtype=np.uint64) * 8,
        rng.random(n) < 0.25,
        rng.integers(0, 40, size=n, dtype=np.int64),
    )


@pytest.fixture
def store(tmp_path):
    return IngestStore(tmp_path / "ingest")


def import_trace(store, trace, writer=write_binary_trace, **kwargs) -> str:
    buffer = io.BytesIO()
    writer(trace, buffer, **kwargs)
    buffer.seek(0)
    return store.import_trace(buffer, source="mem")


class TestImport:
    def test_digest_is_content_digest(self, store):
        trace = make_trace()
        assert import_trace(store, trace) == trace.content_digest()

    def test_directory_fsynced_after_the_entry_lands(self, store, monkeypatch):
        trace = make_trace()
        digest = trace.content_digest()
        synced = []
        real_fsync_dir = store_module._fsync_dir

        def recording(directory):
            synced.append((directory, store._path(digest).exists()))
            real_fsync_dir(directory)

        monkeypatch.setattr(store_module, "_fsync_dir", recording)
        assert import_trace(store, trace) == digest
        assert synced == [(store.root, True)]

    def test_idempotent_reimport(self, store):
        trace = make_trace()
        first = import_trace(store, trace)
        before = store._path(first).read_bytes()
        assert import_trace(store, trace) == first
        assert store._path(first).read_bytes() == before
        assert len(store.list_entries()) == 1

    def test_all_formats_converge_on_one_entry(self, store):
        trace = make_trace()
        digests = {
            import_trace(store, trace, write_binary_trace),
            import_trace(store, trace, write_text_trace),
            import_trace(store, trace, write_text_trace, compress=True),
            import_trace(store, trace, write_binary_trace, compress=True),
        }
        assert digests == {trace.content_digest()}
        assert len(store.list_entries()) == 1

    def test_streaming_digest_matches_in_memory(self, store):
        trace = make_trace()
        digest = import_trace(store, trace)
        assert streaming_digest(store._path(digest)) == trace.content_digest()

    def test_corrupt_input_imports_nothing(self, store):
        with pytest.raises(ValueError):
            store.import_trace(io.BytesIO(b"garbage"), source="mem")
        assert store.list_entries() == []
        assert not list(store.root.glob("import.*.tmp"))

    def test_validate_counts_without_storing(self, store, tmp_path):
        trace = make_trace(n=123)
        path = tmp_path / "v.rtb"
        write_binary_trace(trace, path)
        header, n_refs = store.validate(path)
        assert (header.name, n_refs) == (trace.name, 123)
        assert store.list_entries() == []


class TestResolveAndLoad:
    def test_prefix_resolution(self, store):
        digest = import_trace(store, make_trace())
        assert store.resolve(digest[:10]) == digest
        assert store.resolve(digest) == digest

    def test_unknown_prefix_raises(self, store):
        import_trace(store, make_trace())
        with pytest.raises(StoreError, match="no ingested trace matches"):
            store.resolve("feedface")

    def test_ambiguous_prefix_raises(self, store):
        a = import_trace(store, make_trace(seed=1))
        b = import_trace(store, make_trace(seed=2))
        common = 0
        while a[common] == b[common]:
            common += 1
        # The empty prefix matches both entries; longer shared prefixes
        # (if any) must fail the same way.
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve(a[:common])

    def test_load_roundtrips(self, store):
        trace = make_trace()
        digest = import_trace(store, trace)
        loaded = store.load(digest)
        assert loaded.content_digest() == digest
        np.testing.assert_array_equal(loaded.addresses, trace.addresses)

    def test_load_miss_returns_none(self, store):
        assert store.load("00" * 32) is None

    def test_corrupt_entry_quarantines_and_misses(self, store):
        digest = import_trace(store, make_trace())
        path = store._path(digest)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])  # torn write
        assert store.load(digest) is None
        assert not path.exists()
        assert len(list((store.root / "quarantine").iterdir())) == 1

    def test_digest_mismatch_quarantines(self, store):
        # A well-formed file under the wrong name (tampering / schema
        # drift) is just as much a miss as a torn one.
        digest = import_trace(store, make_trace(seed=1))
        other = make_trace(seed=2)
        write_binary_trace(other, store._path(digest))
        assert store.load(digest) is None
        assert not store._path(digest).exists()


class TestMaintenance:
    def test_gc_clean_store(self, store):
        import_trace(store, make_trace(seed=1))
        import_trace(store, make_trace(seed=2))
        assert store.gc() == {"kept": 2, "quarantined": 0, "removed_tmp": 0}

    def test_gc_sweeps_tears_and_strays(self, store):
        good = import_trace(store, make_trace(seed=1))
        bad = import_trace(store, make_trace(seed=2))
        path = store._path(bad)
        path.write_bytes(path.read_bytes()[:40])
        (store.root / "import.stray.tmp").write_bytes(b"half-finished")
        counts = store.gc()
        assert counts == {"kept": 1, "quarantined": 1, "removed_tmp": 1}
        assert store.has(good) and not store.has(bad)

    def test_list_entries_skips_corrupt(self, store):
        good = import_trace(store, make_trace(seed=1))
        bad = import_trace(store, make_trace(seed=2))
        path = store._path(bad)
        path.write_bytes(path.read_bytes()[:40])
        entries = store.list_entries()
        assert [e["digest"] for e in entries] == [good]
        assert entries[0]["n_references"] == 300

    def test_describe_mentions_count(self, store):
        import_trace(store, make_trace())
        assert ": 1 traces" in store.describe()


class TestRegistryIntegration:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        # Point the default store (what the registry fallback uses) at a
        # throwaway directory.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_ingest_names_resolve_from_the_store(self):
        trace = make_trace(name="imported-one")
        digest = import_trace(IngestStore(), trace)
        spec = get_workload(f"ingest:{digest[:12]}")
        assert spec.name == f"ingest:{digest}"
        assert spec.inputs == ("imported",)
        assert spec.category == "imported"
        # seed and instruction budget are ignored: fixed recorded history
        built = build_trace(f"ingest:{digest}", seed=99, n_instructions=5)
        assert built.content_digest() == digest

    def test_unknown_ingest_digest_raises_store_error(self):
        with pytest.raises(StoreError, match="no ingested trace matches"):
            get_workload("ingest:feedface")

    def test_unknown_plain_workload_still_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown workload"):
            get_workload("not-a-benchmark")

    def test_quarantined_trace_fails_loudly_at_build_time(self):
        store = IngestStore()
        digest = import_trace(store, make_trace())
        spec = get_workload(f"ingest:{digest}")
        path = store._path(digest)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(StoreError, match="vanished or was quarantined"):
            spec.build(0, 0)

"""Cache corruption handling: quarantine + recompute, never crash.

Every corruption shape a crashed writer or bit-rot can leave behind —
truncated pickle, bad JSON, wrong schema/shape, zero-length file — must
read as a miss (after quarantining the evidence), so the engine
recomputes the cell instead of aborting the sweep.
"""

import json

import pytest

from repro.api.cache import QUARANTINE_DIR, ExperimentCache, ResultCache, TraceCache
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec
from repro.faults import counters
from repro.sim.simulator import clear_pass_memo
from tests.api.conftest import build_record
from tests.api.test_api_cache import tiny_miss_trace


def quarantined(cache_root):
    return list((cache_root / QUARANTINE_DIR).glob("*"))


class TestTraceCorruption:
    def put_and_corrupt(self, tmp_path, payload: bytes) -> TraceCache:
        cache = TraceCache(tmp_path)
        cache.put("k", tiny_miss_trace())
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(payload)
        return cache

    def test_truncated_pickle_quarantined(self, tmp_path):
        cache = self.put_and_corrupt(tmp_path, b"\x80\x04\x95")
        before = counters.snapshot()
        assert cache.get("k") is None
        assert counters.delta(before)["artifacts_quarantined"] == 1
        assert len(quarantined(tmp_path)) == 1
        assert not list(tmp_path.glob("*.pkl"))   # original moved, not copied

    def test_zero_length_file_quarantined(self, tmp_path):
        cache = self.put_and_corrupt(tmp_path, b"")
        assert cache.get("k") is None
        assert len(quarantined(tmp_path)) == 1

    def test_wrong_object_type_quarantined(self, tmp_path):
        import pickle

        cache = self.put_and_corrupt(tmp_path, pickle.dumps({"not": "a trace"}))
        assert cache.get("k") is None
        assert len(quarantined(tmp_path)) == 1

    def test_quarantine_preserves_multiple_generations(self, tmp_path):
        cache = self.put_and_corrupt(tmp_path, b"junk one")
        assert cache.get("k") is None
        cache.put("k", tiny_miss_trace())
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"junk two")
        assert cache.get("k") is None
        assert len(quarantined(tmp_path)) == 2    # both kept as evidence

    def test_quarantined_entries_not_counted(self, tmp_path):
        cache = self.put_and_corrupt(tmp_path, b"junk")
        assert cache.get("k") is None
        assert cache.entry_count() == 0

    def test_absent_entry_is_plain_miss_without_quarantine(self, tmp_path):
        cache = TraceCache(tmp_path)
        before = counters.snapshot()
        assert cache.get("nothing") is None
        assert counters.delta(before)["artifacts_quarantined"] == 0


class TestResultCorruption:
    def put_and_corrupt(self, tmp_path, text: str) -> ResultCache:
        cache = ResultCache(tmp_path)
        cache.put("h", build_record())
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(text)
        return cache

    def test_bad_json_quarantined(self, tmp_path):
        cache = self.put_and_corrupt(tmp_path, '{"benchmark": "mcf", tru')
        before = counters.snapshot()
        assert cache.get("h") is None
        assert counters.delta(before)["artifacts_quarantined"] == 1
        assert len(quarantined(tmp_path)) == 1

    def test_wrong_schema_shape_quarantined(self, tmp_path):
        # Parses fine, but is not a RunRecord payload (e.g. a record
        # written by an imagined future schema with renamed fields).
        cache = self.put_and_corrupt(
            tmp_path, json.dumps({"schema_version": 999, "rows": []})
        )
        assert cache.get("h") is None
        assert len(quarantined(tmp_path)) == 1

    def test_zero_length_file_quarantined(self, tmp_path):
        cache = self.put_and_corrupt(tmp_path, "")
        assert cache.get("h") is None
        assert len(quarantined(tmp_path)) == 1


class TestEngineRecomputesThroughCorruption:
    SPEC = dict(benchmarks=("mcf",), schemes=("base_dram", "static:300"),
                seeds=(0,), n_instructions=20_000)

    @pytest.mark.parametrize("rot", [
        lambda p: p.write_text("{torn"),
        lambda p: p.write_text(""),
        lambda p: p.write_text('{"schema_version": 999}'),
    ])
    def test_digest_identical_after_result_rot(self, tmp_path, rot):
        spec = ExperimentSpec(**self.SPEC)
        root = tmp_path / "cache"
        baseline = Engine(cache=ExperimentCache(root)).run(spec)
        for path in ExperimentCache(root).results.root.glob("*.json"):
            rot(path)
        clear_pass_memo()
        second = Engine(cache=ExperimentCache(root)).run(spec)
        assert second.digest() == baseline.digest()
        assert second.meta["cache_hits"] == 0
        assert second.meta["cells_run"] == spec.n_cells

    def test_digest_identical_after_trace_rot(self, tmp_path):
        spec = ExperimentSpec(**self.SPEC)
        root = tmp_path / "cache"
        cache = ExperimentCache(root)
        baseline = Engine(cache=cache).run(spec)
        for path in cache.traces.root.glob("*.pkl"):
            path.write_bytes(path.read_bytes()[:32])
        for path in cache.results.root.glob("*.json"):
            path.unlink()                     # force cells through the trace
        clear_pass_memo()
        second = Engine(cache=ExperimentCache(root)).run(spec)
        assert second.digest() == baseline.digest()
        assert len(quarantined(cache.traces.root)) >= 1


class TestAtomicWriteDurability:
    def test_no_partial_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("h", build_record())
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["h.json"]            # no .tmp droppings

    def test_rewrite_replaces_in_place(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("k", tiny_miss_trace())
        cache.put("k", tiny_miss_trace())
        assert cache.entry_count() == 1

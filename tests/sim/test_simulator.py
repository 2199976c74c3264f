"""Tests for the simulator facade and its caching."""

import sys
import threading

import repro.sim.simulator as simulator_module
from repro.core.scheme import BaseDramScheme, BaseOramScheme
from repro.sim.simulator import SecureProcessorSim, SimConfig, clear_pass_memo
from repro.sim.timing import run_timing_batch


class TestCaching:
    def test_miss_trace_cached(self, shared_sim):
        first = shared_sim.miss_trace("mcf")
        second = shared_sim.miss_trace("mcf")
        assert first is second

    def test_input_distinguishes_cache_entries(self, shared_sim):
        rivers = shared_sim.miss_trace("astar", "rivers")
        biglakes = shared_sim.miss_trace("astar", "biglakes")
        assert rivers is not biglakes


class TestRun:
    def test_run_returns_result(self, shared_sim):
        result = shared_sim.run("mcf", BaseDramScheme(), record_requests=False)
        assert result.scheme_name == "base_dram"
        assert result.cycles > 0

    def test_timing_batch_shares_functional_pass(self, shared_sim):
        results = {
            result.scheme_name: result
            for result in run_timing_batch(
                shared_sim.miss_trace("libquantum"),
                [BaseDramScheme(), BaseOramScheme()],
                record_requests=False,
            )
        }
        assert set(results) == {"base_dram", "base_oram"}
        assert results["base_oram"].cycles > results["base_dram"].cycles

    def test_instruction_counts_match_across_schemes(self, shared_sim):
        dram = shared_sim.run("gobmk", BaseDramScheme(), record_requests=False)
        oram = shared_sim.run("gobmk", BaseOramScheme(), record_requests=False)
        assert dram.n_instructions == oram.n_instructions


class TestExternalTraces:
    def test_run_trace(self, shared_sim):
        from repro.workloads.malicious import build_p1_trace

        trace = build_p1_trace([0, 1, 0, 1])
        result = shared_sim.run_trace(trace, BaseOramScheme())
        assert result.controller.real_accesses >= 2

    def test_same_name_and_length_do_not_collide(self, shared_sim):
        """Distinct traces sharing (name, input, n_references) must not
        alias in the cache — keys are content digests, not labels."""
        from repro.workloads.malicious import build_p1_trace

        import numpy as np

        low_high = build_p1_trace([0, 1])
        high_low = build_p1_trace([1, 0])
        assert low_high.name == high_low.name
        assert low_high.input_name == high_low.input_name
        assert low_high.n_references == high_low.n_references
        assert low_high.content_digest() != high_low.content_digest()
        miss_a = shared_sim.miss_trace_for(low_high)
        miss_b = shared_sim.miss_trace_for(high_low)
        assert miss_a is not miss_b
        # The wait-then-load trace places its miss later in the program
        # than load-then-wait, so the request positions must differ.
        assert not np.array_equal(miss_a.instruction_index, miss_b.instruction_index)

    def test_content_digest_stable(self):
        from repro.workloads.malicious import build_p1_trace

        assert (build_p1_trace([0, 1]).content_digest()
                == build_p1_trace([0, 1]).content_digest())


class TestTraceStore:
    class RecordingStore:
        def __init__(self):
            self.entries = {}
            self.gets = 0

        def get(self, key):
            self.gets += 1
            return self.entries.get(key)

        def put(self, key, trace):
            self.entries[key] = trace

        def has(self, key):
            return key in self.entries

    def test_store_populated_and_consulted(self):
        store = self.RecordingStore()
        config = SimConfig(n_instructions=50_000, seed=5)
        clear_pass_memo()
        trace = SecureProcessorSim(config).miss_trace("mcf", store=store)
        assert len(store.entries) == 1

        # With the process memo cleared, a fresh simulator hits the store
        # and never recomputes.
        clear_pass_memo()
        second = SecureProcessorSim(config)
        assert second.miss_trace("mcf", store=store) is trace
        assert store.gets == 2

    def test_memo_hit_backfills_a_store_lacking_the_pass(self):
        config = SimConfig(n_instructions=50_000, seed=5)
        trace = SecureProcessorSim(config).miss_trace("mcf")
        store = self.RecordingStore()
        assert SecureProcessorSim(config).miss_trace("mcf", store=store) is trace
        assert list(store.entries.values()) == [trace]
        assert store.gets == 0

    def test_store_key_depends_on_config(self):
        store = self.RecordingStore()
        SecureProcessorSim(SimConfig(n_instructions=50_000, seed=5)).miss_trace(
            "mcf", store=store
        )
        SecureProcessorSim(SimConfig(n_instructions=50_000, seed=6)).miss_trace(
            "mcf", store=store
        )
        assert len(store.entries) == 2


class TestPassKey:
    def test_golden_keys(self):
        # Persisted trace caches are keyed by these digests: a change
        # orphans every cached functional pass.
        config = SimConfig(n_instructions=40_000, seed=0)
        assert config.pass_key("mcf") == (
            "fef523702a136b3d8d2ed0d2c611968d8780392f435fd9047eee5fa36f351906"
        )
        assert config.pass_key("astar", "rivers") == (
            "39619d0b22ce881e7c9a4fd483666221d4f994d91f3f6d3571f90e10844a5fa5"
        )

    def test_timing_knobs_share_a_key_and_pass_knobs_do_not(self):
        key = SimConfig(n_instructions=40_000).pass_key("mcf")
        assert SimConfig(n_instructions=40_000, write_buffer_entries=2).pass_key("mcf") == key
        assert SimConfig(n_instructions=40_000, kernel_mode="reference").pass_key("mcf") == key
        assert SimConfig(n_instructions=40_000, seed=1).pass_key("mcf") != key
        assert SimConfig(n_instructions=40_000, warmup_fraction=0.1).pass_key("mcf") != key


class TestPassMemo:
    def test_fast_simulators_share_one_pass(self):
        config = SimConfig(n_instructions=50_000, seed=7)
        assert (SecureProcessorSim(config).miss_trace("mcf")
                is SecureProcessorSim(config).miss_trace("mcf"))

    def test_reference_simulator_recomputes_a_memoized_pass(self, monkeypatch):
        config = SimConfig(n_instructions=50_000, seed=7)
        fast = SecureProcessorSim(config).miss_trace("mcf")
        modes = []
        real = simulator_module.simulate_hierarchy

        def recording(*args, **kwargs):
            modes.append(kwargs["mode"])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "simulate_hierarchy", recording)
        reference_config = SimConfig(n_instructions=50_000, seed=7, kernel_mode="reference")
        reference = SecureProcessorSim(reference_config)
        trace = reference.miss_trace("mcf")
        assert reference.miss_trace("mcf") is trace
        assert modes == ["reference"]
        assert trace is not fast
        assert trace.checksum() == fast.checksum()

    def test_the_memo_keeps_only_the_most_recently_used_passes(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "PASS_MEMO_ENTRIES", 2)
        memo = simulator_module._PassMemo()
        memo["a"], memo["b"] = "A", "B"
        assert memo.get("a") == "A"  # "a" is now the most recent
        memo["c"] = "C"
        assert (memo.get("a"), memo.get("b"), memo.get("c")) == ("A", None, "C")
        assert len(memo) == 2

    def test_the_memo_stays_bounded_under_concurrent_threads(self, monkeypatch):
        """Eight threads hammer a 4-entry memo; every hit is the value
        stored under its key and the bound always holds."""
        monkeypatch.setattr(simulator_module, "PASS_MEMO_ENTRIES", 4)
        memo = simulator_module._PassMemo()
        errors = []

        def hammer(worker):
            try:
                for i in range(2000):
                    key = (worker + i) % 12
                    memo[key] = ("trace", key)
                    got = memo.get((key + 5) % 12)
                    if got is not None and got != ("trace", (key + 5) % 12):
                        errors.append(got)
                    if len(memo) > 4:
                        errors.append(len(memo))
            except Exception as error:  # a lost update surfaces as KeyError
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == 4


class TestWarmupConfig:
    def test_warmup_reduces_requests(self):
        cold = SecureProcessorSim(SimConfig(n_instructions=60_000, warmup_fraction=0.0))
        warm = SecureProcessorSim(SimConfig(n_instructions=60_000, warmup_fraction=0.5))
        cold_trace = cold.miss_trace("hmmer")
        warm_trace = warm.miss_trace("hmmer")
        assert warm_trace.n_requests < cold_trace.n_requests

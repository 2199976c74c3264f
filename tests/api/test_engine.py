"""Tests for the engine: backend equivalence, caching, figure specs.

The acceptance properties of the api subsystem live here:

- ProcessPoolBackend produces a ResultSet byte-identical (after the
  canonical row sort) to SerialBackend for the same spec;
- a repeated sweep against a warm persistent cache re-runs zero
  functional cache passes;
- changing any result-determining spec field invalidates the cache.
"""

import pytest

import repro.sim.simulator as simulator_module
from repro.api.backends import ProcessPoolBackend, default_start_method
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine, run_spec
from repro.api.execution import sim_for_cell
from repro.api.spec import ExperimentSpec

N_INSTRUCTIONS = 40_000


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        benchmarks=("mcf", "astar/rivers"),
        schemes=("base_dram", "static:300", "dynamic:4x4"),
        seeds=(0,),
        n_instructions=N_INSTRUCTIONS,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture
def count_functional_passes(monkeypatch):
    """Counter around simulate_hierarchy as the simulator calls it."""
    calls = {"n": 0}
    real = simulator_module.simulate_hierarchy

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "simulate_hierarchy", counting)
    return calls


class TestSerialEngine:
    def test_runs_all_cells(self):
        results = Engine().run(tiny_spec())
        assert len(results) == 6
        assert results.meta["cells_run"] == 6

    def test_functional_pass_shared_across_schemes(self, count_functional_passes):
        Engine().run(tiny_spec())
        # 2 benchmarks, 3 schemes: one pass per benchmark, not per cell.
        assert count_functional_passes["n"] == 2

    def test_two_engines_different_cache_dirs_do_not_cross_pollute(self, tmp_path):
        spec = tiny_spec(benchmarks=("mcf",), schemes=("base_dram",))
        cache_a = ExperimentCache(tmp_path / "a")
        cache_b = ExperimentCache(tmp_path / "b")
        Engine(cache=cache_a).run(spec)
        Engine(cache=cache_b).run(spec, use_cache=False)
        # The second engine's functional pass must land in its own cache,
        # not keep writing to the first engine's store.
        assert len(list(cache_a.traces.root.glob("*.pkl"))) == 1
        assert len(list(cache_b.traces.root.glob("*.pkl"))) == 1

    def test_timing_only_config_change_shares_functional_pass(
        self, count_functional_passes
    ):
        spec = tiny_spec(benchmarks=("mcf",), schemes=("base_oram",))
        Engine().run(spec)
        Engine().run(tiny_spec(benchmarks=("mcf",), schemes=("base_oram",),
                               write_buffer_entries=16))
        # write_buffer_entries only affects the timing replay; the
        # process-local trace store shares the functional pass.
        assert count_functional_passes["n"] == 1

    def test_process_local_sims_reused_across_engines(self, count_functional_passes):
        Engine().run(tiny_spec())
        assert count_functional_passes["n"] == 2
        # A second engine in the same process replays the warm in-memory
        # traces of the engine-owned simulators.
        Engine().run(tiny_spec())
        assert count_functional_passes["n"] == 2

    def test_cached_serial_run_persists_one_trace_per_benchmark(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        Engine(cache=cache).run(tiny_spec())
        assert len(list(cache.traces.root.glob("*.pkl"))) == 2

    def test_sim_for_cell_follows_cell_config(self):
        cells = list(tiny_spec(seeds=(0, 1)).cells())
        sims = {(cell.benchmark, cell.scheme_spec, cell.seed): sim_for_cell(cell)
                for cell in cells}
        for cell in cells:
            sim = sims[cell.benchmark, cell.scheme_spec, cell.seed]
            assert (sim.config.n_instructions, sim.config.seed) == \
                (cell.n_instructions, cell.seed)
        # One simulator per configuration, shared by every benchmark and
        # scheme under it.
        assert len({id(sim) for sim in sims.values()}) == 2
        other = next(iter(tiny_spec(n_instructions=N_INSTRUCTIONS + 8).cells()))
        assert sim_for_cell(other).config.n_instructions == N_INSTRUCTIONS + 8
        assert sim_for_cell(other) not in sims.values()


class TestBackendEquivalence:
    def test_pool_matches_serial_byte_identical(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1), n_windows=6)
        serial = Engine().run(spec)
        parallel = Engine(ProcessPoolBackend(max_workers=3)).run(spec)
        assert serial.records == parallel.records
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        serial.save(a)
        parallel.save(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(
        default_start_method() != "fork",
        reason="only forked workers inherit the parent's simulators",
    )
    def test_forked_pool_reuses_warm_parent_traces(self, monkeypatch):
        spec = tiny_spec(seeds=(0, 1))
        serial = Engine().run(spec)

        def no_functional_pass(*args, **kwargs):
            raise AssertionError("worker recomputed a trace its parent held")

        monkeypatch.setattr(simulator_module, "simulate_hierarchy", no_functional_pass)
        pool = Engine(ProcessPoolBackend(max_workers=2)).run(spec)
        assert pool.records == serial.records

    def test_pool_starts_workers_with_default_method(self, monkeypatch):
        import repro.api.backends as backends_module

        seen = {}

        def recording_executor(**kwargs):
            seen.update(kwargs)

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", recording_executor)
        ProcessPoolBackend()._make_pool(2, "traces-root")
        assert seen["max_workers"] == 2
        assert seen["mp_context"].get_start_method() == default_start_method()
        # Workers receive only the persistent trace cache's location.
        assert seen["initargs"] == ("traces-root",)

    def test_single_worker_pool_degrades_to_serial(self):
        spec = tiny_spec()
        assert Engine(ProcessPoolBackend(max_workers=1)).run(spec).records == \
            Engine().run(spec).records

    def test_run_spec_convenience(self, tmp_path):
        results = run_spec(tiny_spec(), parallel=False, cache_dir=tmp_path / "c")
        assert len(results) == 6


class TestPersistentCache:
    def test_warm_result_cache_runs_nothing(self, tmp_path, count_functional_passes):
        engine = Engine(cache=ExperimentCache(tmp_path))
        cold = engine.run(tiny_spec())
        passes_after_cold = count_functional_passes["n"]
        assert passes_after_cold == 2
        assert cold.meta["cache_hits"] == 0

        # A fresh engine and fresh process-local sims: everything must
        # come from disk, with zero functional cache passes re-run.
        from repro.api.execution import reset_local_sims

        reset_local_sims()
        warm_engine = Engine(cache=ExperimentCache(tmp_path))
        warm = warm_engine.run(tiny_spec())
        assert warm.meta == {"backend": "serial", "cells": 6,
                             "cache_hits": 6, "cells_run": 0}
        assert count_functional_passes["n"] == passes_after_cold
        assert warm.records == cold.records

    def test_warm_trace_cache_skips_functional_passes(
        self, tmp_path, count_functional_passes
    ):
        cache = ExperimentCache(tmp_path)
        cold = Engine(cache=cache).run(tiny_spec())
        assert count_functional_passes["n"] == 2

        # Drop cached *results* but keep traces: cells re-run, yet the
        # functional passes all come from disk.
        for entry in cache.results.root.glob("*.json"):
            entry.unlink()
        from repro.api.execution import reset_local_sims

        reset_local_sims()
        rerun = Engine(cache=cache).run(tiny_spec())
        assert rerun.meta["cells_run"] == 6
        assert count_functional_passes["n"] == 2
        assert rerun.records == cold.records

    @pytest.mark.skipif(
        default_start_method() != "fork",
        reason="spawned workers do not inherit the patched functional pass",
    )
    def test_warm_trace_pool_rerun_computes_no_functional_pass(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_spec(seeds=(0, 1))
        cache = ExperimentCache(tmp_path)
        cold = Engine(cache=cache).run(spec)
        from repro.api.execution import reset_local_sims

        reset_local_sims()

        def no_functional_pass(*args, **kwargs):
            raise AssertionError("functional pass recomputed despite a warm trace cache")

        monkeypatch.setattr(simulator_module, "simulate_hierarchy", no_functional_pass)
        # Four (benchmark, seed) groups across two workers: every worker
        # must read its miss traces from the persistent cache.
        rerun = Engine(ProcessPoolBackend(max_workers=2), cache).run(spec, use_cache=False)
        assert rerun.meta["cells_run"] == 12
        assert rerun.records == cold.records

    def test_worker_entry_point_reads_persistent_trace_cache(self, tmp_path, monkeypatch):
        from repro.api import execution
        from repro.api.records import ResultSet

        spec = tiny_spec()
        cache = ExperimentCache(tmp_path)
        cold = Engine(cache=cache).run(spec)
        execution.reset_local_sims()
        monkeypatch.setattr(execution, "_WORKER_TRACE_CACHE", None)
        execution._init_worker(str(cache.traces.root))

        def no_functional_pass(*args, **kwargs):
            raise AssertionError("functional pass recomputed despite a warm trace cache")

        monkeypatch.setattr(simulator_module, "simulate_hierarchy", no_functional_pass)
        # The pool's entry points, run in this process: one batch per
        # functional pass, each reading its miss trace from disk.
        batches: dict[tuple, list] = {}
        for cell in spec.cells():
            batches.setdefault(execution.functional_pass_key(cell), []).append(cell)
        records = []
        for batch in batches.values():
            records.extend(execution._execute_batch_in_worker(batch))
        assert ResultSet(records=tuple(records)).records == cold.records

    def test_spec_change_invalidates(self, tmp_path):
        engine = Engine(cache=ExperimentCache(tmp_path))
        engine.run(tiny_spec())
        changed = engine.run(tiny_spec(n_instructions=N_INSTRUCTIONS + 8))
        assert changed.meta["cache_hits"] == 0
        assert changed.meta["cells_run"] == 6
        # Unchanged spec still fully cached afterwards.
        assert engine.run(tiny_spec()).meta["cache_hits"] == 6

    def test_use_cache_false_recomputes_but_persists(self, tmp_path):
        engine = Engine(cache=ExperimentCache(tmp_path))
        first = engine.run(tiny_spec())
        forced = engine.run(tiny_spec(), use_cache=False)
        assert forced.meta["cells_run"] == 6
        assert forced.records == first.records

    def test_parallel_workers_share_trace_cache(self, tmp_path):
        spec = ExperimentSpec(
            benchmarks=("mcf",),
            schemes=("base_dram", "static:300", "static:1300", "dynamic:4x4"),
            n_instructions=N_INSTRUCTIONS,
        )
        cache = ExperimentCache(tmp_path)
        results = Engine(ProcessPoolBackend(max_workers=2), cache=cache).run(spec)
        assert len(results) == 4
        # Exactly one functional pass was persisted for the benchmark.
        assert len(list(cache.traces.root.glob("*.pkl"))) == 1


class TestWindows:
    def test_windows_recorded_when_requested(self):
        results = Engine().run(tiny_spec(n_windows=5, schemes=("dynamic:4x4",)))
        record = results.get("mcf", "dynamic:4x4")
        assert len(record.ipc_windows) == 5
        assert len(record.access_windows) == 5
        assert record.epoch_rates  # epochs always captured for dynamic

    def test_no_windows_by_default(self):
        results = Engine().run(tiny_spec(schemes=("dynamic:4x4",)))
        record = results.get("mcf", "dynamic:4x4")
        assert record.ipc_windows == ()
        assert record.epoch_rates  # cheap scalars still captured

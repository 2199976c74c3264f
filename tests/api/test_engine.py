"""Tests for the engine: backend equivalence, caching, figure specs.

The acceptance properties of the api subsystem live here:

- ProcessPoolBackend produces a ResultSet byte-identical (after the
  canonical row sort) to SerialBackend for the same spec;
- a repeated sweep against a warm persistent cache re-runs zero
  functional cache passes;
- changing any result-determining spec field invalidates the cache.
"""

import sys
import threading

import pytest

import repro.sim.simulator as simulator_module
from repro.api.backends import ProcessPoolBackend, worker_start_method
from repro.api.cache import ExperimentCache, ResultCache
from repro.api.engine import Engine
from repro.api.execution import execute_cell, execute_cells_batch, trace_store_key
from repro.api.spec import ExperimentSpec
from repro.sim.simulator import SecureProcessorSim, SimConfig, clear_pass_memo

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

    def test_concurrent_engines_different_cache_dirs_do_not_cross_pollute(
        self, tmp_path
    ):
        specs = {
            name: tiny_spec(benchmarks=benchmarks, schemes=("base_dram",),
                            n_instructions=300_000)
            for name, benchmarks in (
                ("a", ("mcf", "astar/rivers", "gobmk")),
                ("b", ("libquantum", "h264ref", "sjeng")),
                ("c", ("omnetpp", "gcc", "perlbench/diffmail")),
                ("d", ("hmmer", "bzip2", "astar/biglakes")),
            )
        }
        caches = {name: ExperimentCache(tmp_path / name) for name in specs}
        errors = []
        passes = {}

        def run(name):
            try:
                results = Engine(cache=caches[name]).run(specs[name])
                passes[name] = results.meta["passes_computed"]
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(name,)) for name in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Same seed and budget: one configuration, but each engine's
        # passes must land in its own cache and nowhere else.
        for name, spec in specs.items():
            traces = caches[name].traces
            own = {trace_store_key(cell) for cell in spec.cells()}
            assert all(traces.has(key) for key in own)
            assert traces.entry_count() == len(own)
            # Each run's count holds its own passes and no other thread's.
            assert passes[name] == len(own)

    def test_trace_store_key_does_not_divert_a_running_pass(self, tmp_path):
        spec = tiny_spec(benchmarks=("mcf", "astar/rivers", "gobmk"),
                         schemes=("base_dram",), n_instructions=300_000)
        cells = list(spec.cells())
        cache = ExperimentCache(tmp_path)
        done = threading.Event()

        def account():
            # The sweep daemon's per-key accounting call, racing the run.
            while not done.is_set():
                for cell in cells:
                    trace_store_key(cell)

        accountant = threading.Thread(target=account)
        accountant.start()
        try:
            Engine(cache=cache).run(spec)
        finally:
            done.set()
            accountant.join(timeout=60)
        assert not accountant.is_alive()
        assert all(cache.traces.has(trace_store_key(cell)) for cell in cells)

    def test_timing_only_config_change_shares_functional_pass(
        self, count_functional_passes
    ):
        spec = tiny_spec(benchmarks=("mcf",), schemes=("base_oram",))
        Engine().run(spec)
        Engine().run(tiny_spec(benchmarks=("mcf",), schemes=("base_oram",),
                               write_buffer_entries=16))
        # write_buffer_entries only affects the timing replay; the
        # pass memo shares the functional pass.
        assert count_functional_passes["n"] == 1

    def test_process_local_sims_reused_across_engines(self, count_functional_passes):
        Engine().run(tiny_spec())
        assert count_functional_passes["n"] == 2
        # A second engine in the same process replays the functional
        # passes memoized in this process.
        Engine().run(tiny_spec())
        assert count_functional_passes["n"] == 2

    def test_reference_sim_recomputes_a_pass_the_engine_memoized(self, monkeypatch):
        spec = tiny_spec(benchmarks=("mcf",), schemes=("dynamic:4x4",))
        (fast,) = Engine().run(spec).records
        modes = []
        real = simulator_module.simulate_hierarchy

        def recording(*args, **kwargs):
            modes.append(kwargs["mode"])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "simulate_hierarchy", recording)
        # How an output check recomputes a sampled cell on the oracle.
        (cell,) = spec.cells()
        reference = SecureProcessorSim(SimConfig(
            n_instructions=cell.n_instructions, seed=cell.seed, kernel_mode="reference",
        ))
        assert execute_cell(cell, sim=reference) == fast
        assert modes == ["reference"]

    def test_cached_serial_run_persists_one_trace_per_benchmark(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        Engine(cache=cache).run(tiny_spec())
        assert len(list(cache.traces.root.glob("*.pkl"))) == 2


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

    def test_pool_starts_workers_with_worker_start_method(self, monkeypatch):
        import repro.api.backends as backends_module

        seen = {}

        def recording_executor(**kwargs):
            seen.update(kwargs)

        monkeypatch.setattr(backends_module, "ProcessPoolExecutor", recording_executor)
        ProcessPoolBackend()._make_pool(2)
        assert seen["max_workers"] == 2
        assert seen["mp_context"].get_start_method() == worker_start_method()
        # Each batch carries its trace-cache root and fault plan; workers
        # keep no state.
        assert "initializer" not in seen

    def test_single_worker_pool_degrades_to_serial(self):
        spec = tiny_spec()
        assert Engine(ProcessPoolBackend(max_workers=1)).run(spec).records == \
            Engine().run(spec).records


class TestPersistentCache:
    def test_warm_result_cache_runs_nothing(self, tmp_path, count_functional_passes):
        engine = Engine(cache=ExperimentCache(tmp_path))
        cold = engine.run(tiny_spec())
        passes_after_cold = count_functional_passes["n"]
        assert passes_after_cold == 2
        assert cold.meta["cache_hits"] == 0

        # A fresh engine and an empty pass memo: everything must come
        # from disk, with zero functional cache passes re-run.
        clear_pass_memo()
        warm_engine = Engine(cache=ExperimentCache(tmp_path))
        warm = warm_engine.run(tiny_spec())
        assert warm.meta == {"backend": "serial", "cells": 6,
                             "cache_hits": 6, "cells_run": 0, "passes_computed": 0}
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
        clear_pass_memo()
        rerun = Engine(cache=cache).run(tiny_spec())
        assert rerun.meta["cells_run"] == 6
        assert count_functional_passes["n"] == 2
        assert rerun.records == cold.records

    def test_warm_trace_pool_rerun_computes_no_functional_pass(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        cache = ExperimentCache(tmp_path)
        cold = Engine(cache=cache).run(spec)
        # Four (benchmark, seed) groups across two workers.  Workers start
        # from the forkserver, not from this process, so the cold run's
        # pass memo cannot reach them: every worker must read its miss
        # traces from the persistent cache.
        with ProcessPoolBackend(max_workers=2) as backend:
            rerun = Engine(backend, cache).run(spec, use_cache=False)
        assert rerun.meta["cells_run"] == 12
        assert rerun.meta["passes_computed"] == 0
        assert rerun.records == cold.records

    def test_worker_entry_point_reads_persistent_trace_cache(self, tmp_path, monkeypatch):
        from repro.api import execution
        from repro.api.records import ResultSet

        spec = tiny_spec()
        cache = ExperimentCache(tmp_path)
        cold = Engine(cache=cache).run(spec)
        clear_pass_memo()

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
            batch_records, passes = execution._execute_batch_in_worker(
                batch, str(cache.root)
            )
            assert passes == 0
            records.extend(batch_records)
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
        first = engine.run(tiny_spec(), use_cache=False)
        forced = engine.run(tiny_spec(), use_cache=False)
        assert forced.meta["cells_run"] == 6
        assert forced.records == first.records
        warm = engine.run(tiny_spec())
        assert warm.meta["cache_hits"] == 6
        assert warm.records == first.records

    def test_pool_workers_persist_their_own_records(self, tmp_path, monkeypatch):
        # Two groups on a two-worker pool run in the workers, which write
        # their records themselves.  The workers start from the
        # forkserver, so this patch reaches only the calling process:
        # any result write here fails the run.
        def no_write_here(self, entries):
            raise AssertionError("a result write in the calling process")

        monkeypatch.setattr(ResultCache, "put_many", no_write_here)
        spec = tiny_spec()
        cache = ExperimentCache(tmp_path)
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = Engine(backend, cache).run(spec)
        assert pooled.meta["cells_run"] == spec.n_cells
        warm = Engine(cache=cache).run(spec)
        assert warm.meta["cache_hits"] == spec.n_cells
        assert warm.digest() == pooled.digest()

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


class TestResultWrites:
    """Whoever computes a record persists it, through
    ``execute_cells_batch``; the engine writes nothing."""

    def test_a_batch_call_writes_its_records_as_one_batch(self, tmp_path, monkeypatch):
        batches = []
        real_put_many = ResultCache.put_many

        def recording(self, entries):
            entries = list(entries)
            batches.append([cell_hash for cell_hash, _ in entries])
            return real_put_many(self, entries)

        monkeypatch.setattr(ResultCache, "put_many", recording)
        cells = list(tiny_spec().cells())  # two functional-pass groups
        cache = ExperimentCache(tmp_path)
        records = execute_cells_batch(cells, cache)
        assert batches == [[cell.content_hash() for cell in cells]]
        assert [cache.results.get(cell.content_hash()) for cell in cells] == records

    def test_a_batch_call_without_a_cache_writes_nothing(self, monkeypatch):
        def no_write(self, entries):
            raise AssertionError("a result write without a cache")

        monkeypatch.setattr(ResultCache, "put_many", no_write)
        cells = list(tiny_spec().cells())
        assert execute_cells_batch(cells) == [execute_cell(cell) for cell in cells]

    def test_a_batch_call_that_raises_writes_nothing(self, tmp_path, monkeypatch):
        from repro.api import execution

        cells = list(tiny_spec().cells())
        computed = []
        real = execution._record_from_result

        def fails_on_last(cell, *args):
            if cell == cells[-1]:
                raise RuntimeError("replay failed")
            computed.append(cell)
            return real(cell, *args)

        monkeypatch.setattr(execution, "_record_from_result", fails_on_last)
        cache = ExperimentCache(tmp_path)
        with pytest.raises(RuntimeError, match="replay failed"):
            execute_cells_batch(cells, cache)
        # The first group's records were computed, and none was kept.
        assert len(computed) == len(cells) - 1
        assert all(cache.results.get(cell.content_hash()) is None for cell in cells)

    def test_a_failing_result_write_fails_the_run(self, tmp_path, monkeypatch):
        def disk_full(self, entries):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultCache, "put_many", disk_full)
        with pytest.raises(OSError, match="No space left"):
            Engine(cache=ExperimentCache(tmp_path)).run(tiny_spec())

    def test_engine_writes_nothing_for_a_backend_that_does_not(self, tmp_path):
        class ComputeOnly:
            name = "compute_only"

            def run_cells(self, cells, cache=None):
                return [execute_cell(cell) for cell in cells]

        cache = ExperimentCache(tmp_path)
        engine = Engine(ComputeOnly(), cache)
        first = engine.run(tiny_spec())
        assert first.meta["cells_run"] == 6
        assert not list(cache.results.root.glob("*.json"))
        again = engine.run(tiny_spec())
        assert again.meta["cache_hits"] == 0
        assert again.records == first.records

    def test_worker_entry_point_writes_records_under_the_cache_root(self, tmp_path):
        from repro.api import execution

        cells = list(tiny_spec(benchmarks=("mcf",)).cells())
        records, _ = execution._execute_batch_in_worker(cells, str(tmp_path))
        cache = ExperimentCache(tmp_path)
        assert [cache.results.get(cell.content_hash()) for cell in cells] == records

    def test_pool_use_cache_false_recomputes_but_persists(self, tmp_path):
        spec = tiny_spec()
        cache = ExperimentCache(tmp_path)
        with ProcessPoolBackend(max_workers=2) as backend:
            forced = Engine(backend, cache).run(spec, use_cache=False)
        assert forced.meta["cells_run"] == spec.n_cells
        warm = Engine(cache=cache).run(spec)
        assert warm.meta["cache_hits"] == spec.n_cells
        assert warm.records == forced.records

    def test_lone_groups_on_a_pool_persist_their_records(self, tmp_path):
        # A run of one group on a fresh pool of several workers runs in
        # this process while the pool starts, and in a worker once it is
        # up: either way its records land in the cache.
        cache = ExperimentCache(tmp_path)
        with ProcessPoolBackend(max_workers=4) as backend:
            Engine(backend, cache).run(tiny_spec(benchmarks=("mcf",)))
            backend._shared_pool().result()
            Engine(backend, cache).run(tiny_spec(benchmarks=("astar/rivers",)))
        warm = Engine(cache=cache).run(tiny_spec())
        assert warm.meta["cache_hits"] == 6
        assert warm.digest() == Engine().run(tiny_spec()).digest()

    def test_pool_worker_write_arms_the_result_fault_site(self, tmp_path, monkeypatch):
        from repro.faults.plan import FaultPlan, FaultSpec

        def no_write_here(self, entries):
            raise AssertionError("a result write in the calling process")

        spec = tiny_spec()
        cache = ExperimentCache(tmp_path / "cache")
        plan = FaultPlan(
            faults=(FaultSpec(kind="corrupt", site="cache-write-result", at=1),),
            token_dir=str(tmp_path / "tokens"),
        )
        monkeypatch.setattr(ResultCache, "put_many", no_write_here)
        with plan.activated(), ProcessPoolBackend(max_workers=2) as backend:
            torn = Engine(backend, cache).run(spec)
        monkeypatch.undo()
        # One worker tore one entry: the next run quarantines it and
        # recomputes exactly that cell.
        assert plan.fired_count(plan.faults[0]) == 1
        clear_pass_memo()
        healed = Engine(cache=cache).run(spec)
        assert healed.meta["cells_run"] == 1
        assert healed.meta["cache_hits"] == spec.n_cells - 1
        assert healed.digest() == torn.digest()


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


class TestPassCount:
    """``meta["passes_computed"]`` counts the passes a run computed."""

    def test_serial_run_counts_cold_passes_and_none_warm(self, count_functional_passes):
        spec = tiny_spec(seeds=(0, 1))
        cold = Engine().run(spec)
        assert cold.meta["passes_computed"] == 4  # 2 benchmarks x 2 seeds
        assert count_functional_passes["n"] == 4
        warm = Engine().run(spec)
        assert warm.meta["passes_computed"] == 0
        assert count_functional_passes["n"] == 4

    def test_store_reads_and_backfills_count_nothing(self, tmp_path, count_functional_passes):
        spec = tiny_spec()
        cache = ExperimentCache(tmp_path / "a")
        assert Engine(cache=cache).run(spec).meta["passes_computed"] == 2
        # A memo hit backfills an empty store; no pass is computed.
        backfill = Engine(cache=ExperimentCache(tmp_path / "b")).run(spec)
        assert backfill.meta["passes_computed"] == 0
        # A cold memo reads the passes back from the store.
        clear_pass_memo()
        reread = Engine(cache=cache).run(spec, use_cache=False)
        assert reread.meta["passes_computed"] == 0
        assert count_functional_passes["n"] == 2

    def test_pool_counts_cold_passes_and_none_warm(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        pool = Engine(ProcessPoolBackend(max_workers=2), cache=ExperimentCache(tmp_path))
        # The workers compute every pass and hand the count back.
        assert pool.run(spec).meta["passes_computed"] == 4
        clear_pass_memo()
        assert pool.run(spec, use_cache=False).meta["passes_computed"] == 0

    @pytest.mark.parametrize("n_windows", [None, 4])
    def test_an_evicted_pass_is_never_recomputed(
        self, monkeypatch, count_functional_passes, n_windows
    ):
        """A group keeps its resolved pass: with a one-entry memo and a
        concurrent insert right after every lookup, nothing recomputes."""
        spec = tiny_spec(seeds=(0, 1), n_windows=n_windows)
        want = Engine().run(spec).digest()
        clear_pass_memo()
        count_functional_passes["n"] = 0
        monkeypatch.setattr(simulator_module, "PASS_MEMO_ENTRIES", 1)
        resolve = SecureProcessorSim.miss_trace

        def racing(self, *args, **kwargs):
            trace = resolve(self, *args, **kwargs)
            simulator_module._PASSES[("unrelated", id(trace))] = trace
            return trace

        monkeypatch.setattr(SecureProcessorSim, "miss_trace", racing)
        results = Engine().run(spec)
        assert results.meta["passes_computed"] == 4  # 2 benchmarks x 2 seeds
        assert count_functional_passes["n"] == 4
        assert results.digest() == want

"""`WorkQueueBackend`: equivalence with serial, recovery, poison.

The backend's contract is the engine's contract: for the same spec the
ResultSet is byte-identical no matter which backend ran it, how many
workers it used, or how many of them died.  The inline-worker mode
(``workers=0``) keeps most of these tests hermetic and fast; the rest
exercise real forked workers end to end.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.dist.backend as backend_module
from repro.api.backends import SerialBackend, worker_start_method
from repro.api.cache import ExperimentCache, ResultCache
from repro.api.engine import Engine
from repro.api.spec import Cell, ExperimentSpec
from repro.dist import WorkQueueBackend
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.simulator import clear_pass_memo

N_INSTRUCTIONS = 40_000


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        benchmarks=("mcf", "astar/rivers"),
        schemes=("base_dram", "static:300"),
        seeds=(0,),
        n_instructions=N_INSTRUCTIONS,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def inline_backend(**overrides) -> WorkQueueBackend:
    defaults = dict(workers=0, lease_ttl_s=5.0, poll_s=0.01)
    defaults.update(overrides)
    return WorkQueueBackend(**defaults)


class TestContract:
    def test_requires_persistent_cache(self):
        with pytest.raises(ValueError, match="persistent ExperimentCache"):
            inline_backend().run_cells(list(tiny_spec().cells()), cache=None)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WorkQueueBackend(workers=-1)

    def test_empty_cells_is_a_no_op(self, tmp_path):
        assert inline_backend().run_cells([], ExperimentCache(tmp_path)) == []

    def test_backend_name(self):
        assert WorkQueueBackend().name == "work_queue"


class TestEquivalence:
    def test_inline_worker_matches_serial_byte_identical(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1), n_windows=6)
        serial = Engine().run(spec)
        dist = Engine(inline_backend(), cache=ExperimentCache(tmp_path)).run(spec)
        assert serial.records == dist.records
        assert serial.digest() == dist.digest()
        a, b = tmp_path / "serial.json", tmp_path / "dist.json"
        serial.save(a)
        dist.save(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.slow
    def test_subprocess_fleet_matches_serial(self, tmp_path, monkeypatch):
        spawned = []
        real_start = backend_module.start_local_worker

        def recording_start(*args, **kwargs):
            spawned.append(real_start(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(backend_module, "start_local_worker", recording_start)
        spec = tiny_spec()
        serial = Engine().run(spec)
        backend = WorkQueueBackend(
            workers=2, lease_ttl_s=5.0, poll_s=0.02, wait_timeout_s=180.0
        )
        dist = Engine(backend, cache=ExperimentCache(tmp_path)).run(spec)
        assert dist.digest() == serial.digest()
        assert dist.meta["cells_run"] == spec.n_cells
        # The fleet really ran: both workers left heartbeat documents.
        assert backend.queue is not None
        assert len(backend.queue.workers_seen()) >= 1
        # And no local worker outlived the sweep.
        assert len(spawned) >= 2
        assert all(proc.exitcode is not None for proc in spawned)

    @pytest.mark.parametrize("backend", ["serial", "queue"])
    def test_one_result_write_per_cell(self, tmp_path, monkeypatch, backend):
        # Queue workers persist each record before its done marker, and
        # the backend reads them back out of the cache: the engine must
        # not write them a second time.
        puts = []
        real_put = ResultCache.put

        def counting_put(self, cell_hash, record):
            puts.append(cell_hash)
            return real_put(self, cell_hash, record)

        monkeypatch.setattr(ResultCache, "put", counting_put)
        spec = tiny_spec()
        runner = inline_backend() if backend == "queue" else SerialBackend()
        results = Engine(runner, cache=ExperimentCache(tmp_path)).run(spec)
        assert results.meta["cells_run"] == spec.n_cells
        assert sorted(puts) == sorted(cell.content_hash() for cell in spec.cells())

    def test_warm_rerun_hits_cache_entirely(self, tmp_path):
        spec = tiny_spec()
        cache = ExperimentCache(tmp_path)
        cold = Engine(inline_backend(), cache=cache).run(spec)
        assert cold.meta["cells_run"] == spec.n_cells
        warm = Engine(inline_backend(), cache=cache).run(spec)
        assert warm.meta["cache_hits"] == spec.n_cells
        assert warm.meta["cells_run"] == 0
        assert warm.records == cold.records

    def test_resubmission_reuses_completed_tasks(self, tmp_path):
        # Drain the queue out-of-band, then run the engine: every record
        # is already in the result cache, so the engine dispatches
        # nothing to the backend at all.
        from repro.dist.queue import WorkQueue
        from repro.dist.worker import Worker

        spec = tiny_spec(benchmarks=("mcf",))
        cache = ExperimentCache(tmp_path)
        cells = list(spec.cells())
        queue = WorkQueue.for_cells(cache.root, cells, lease_ttl_s=5.0)
        Worker(cache, queue, worker_id="external").run()
        assert queue.finished()
        results = Engine(inline_backend(), cache=cache).run(spec)
        assert results.meta["cache_hits"] == spec.n_cells
        assert results.digest() == Engine().run(spec).digest()


class TestRerun:
    @pytest.mark.parametrize("workers", [0, pytest.param(2, marks=pytest.mark.slow)])
    def test_reattached_board_reruns_cells_whose_results_were_lost(
        self, tmp_path, workers
    ):
        # Queue ids derive from the cells, so this rerun reattaches to
        # the first run's finished board.
        spec = tiny_spec(benchmarks=("mcf", "libquantum"), seeds=(0, 1),
                         n_instructions=30_000)
        cache = ExperimentCache(tmp_path)

        def backend():
            return inline_backend(workers=workers, wait_timeout_s=180.0)

        clear_pass_memo()
        cold = Engine(backend(), cache=cache).run(spec)
        assert cold.meta["passes_computed"] == 4  # 2 benchmarks x 2 seeds
        for path in cache.results.root.glob("*.json"):
            path.write_text("{")
        rerun = Engine(backend(), cache=cache).run(spec)
        assert len(rerun) == spec.n_cells
        assert "cells_poisoned" not in rerun.meta
        assert rerun.digest() == cold.digest()

    def test_inline_rerun_executes_every_cell_from_stored_passes(
        self, tmp_path, monkeypatch
    ):
        import repro.dist.worker as worker_module

        executed = []
        real = worker_module.execute_cells_batch

        def recording(cells, trace_store=None):
            executed.extend(cells)
            return real(cells, trace_store=trace_store)

        monkeypatch.setattr(worker_module, "execute_cells_batch", recording)
        spec = tiny_spec(seeds=(0, 1))
        cache = ExperimentCache(tmp_path)
        clear_pass_memo()
        cold = Engine(inline_backend(), cache=cache).run(spec)
        assert cold.meta["passes_computed"] == 4
        clear_pass_memo()
        rerun = Engine(inline_backend(), cache=cache).run(spec, use_cache=False)
        assert len(executed) == 2 * spec.n_cells
        assert rerun.meta["passes_computed"] == 0
        assert rerun.records == cold.records


class TestPoison:
    def test_unrunnable_cell_poisons_not_hangs(self, tmp_path):
        # A cell whose execution always raises must not wedge the sweep:
        # the task requeues, burns its attempts, poisons, and the engine
        # reports the loss in meta while every healthy cell completes.
        bad = Cell(
            benchmark="no-such-benchmark", input_name=None,
            scheme_spec="base_dram", seed=0, n_instructions=N_INSTRUCTIONS,
            warmup_fraction=0.3, write_buffer_entries=8,
            n_windows=None, record_requests=False,
        )
        good = list(tiny_spec(benchmarks=("mcf",)).cells())
        cache = ExperimentCache(tmp_path)
        backend = inline_backend(max_attempts=2)
        records = backend.run_cells(good + [bad], cache)
        assert records[-1] is None
        assert all(record is not None for record in records[:-1])
        assert backend.queue is not None
        bad_tasks = [
            t for t in backend.queue.task_ids() if backend.queue.is_poisoned(t)
        ]
        assert len(bad_tasks) == 1
        assert backend.queue.attempts_used(bad_tasks[0]) == 2
        # The failure markers carry the executor error for triage.
        marker = backend.queue.root / "failed" / f"{bad_tasks[0]}.1"
        assert "no-such-benchmark" in marker.read_text()

    def test_engine_reports_poisoned_cells(self, tmp_path, monkeypatch):
        import repro.dist.worker as worker_module

        def always_raises(cells, trace_store=None):
            raise RuntimeError("executor down")

        monkeypatch.setattr(worker_module, "execute_cells_batch", always_raises)
        spec = tiny_spec(benchmarks=("mcf",), schemes=("base_dram",))
        engine = Engine(
            inline_backend(max_attempts=2), cache=ExperimentCache(tmp_path)
        )
        results = engine.run(spec)
        assert len(results) == 0
        assert results.meta["cells_poisoned"] == 1
        assert results.meta["cells_run"] == 0


class TestLocalFleet:
    @pytest.mark.slow
    def test_concurrent_runs_on_one_backend_keep_their_own_fleets(
        self, tmp_path, monkeypatch
    ):
        # The daemon shares one backend across its job threads.  Both runs
        # spawn their fleets before either can finish (the barrier), and
        # the short run finishes first: no run may stop or replace a
        # worker of the other run's board.
        real_start = backend_module.start_local_worker
        barrier = threading.Barrier(2)
        lock = threading.Lock()
        board_of_thread: dict[int, str] = {}
        spawns: dict[str, int] = {}
        foreign_stops: list[tuple] = []

        def start(cache_root, queue_id, worker_id, **kwargs):
            proc = real_start(cache_root, queue_id, worker_id, **kwargs)
            with lock:
                first = threading.get_ident() not in board_of_thread
                board_of_thread[threading.get_ident()] = queue_id
                spawns[queue_id] = spawns.get(queue_id, 0) + 1
            terminate = proc.terminate

            def checked_terminate():
                stopper = board_of_thread.get(threading.get_ident())
                if stopper != queue_id:
                    foreign_stops.append((stopper, queue_id))
                terminate()

            proc.terminate = checked_terminate
            if first:
                barrier.wait(timeout=60)
            return proc

        monkeypatch.setattr(backend_module, "start_local_worker", start)
        backend = WorkQueueBackend(
            workers=1, lease_ttl_s=5.0, poll_s=0.02, wait_timeout_s=180.0
        )
        specs = {
            "short": tiny_spec(benchmarks=("mcf",), schemes=("base_dram",),
                               n_instructions=20_000),
            "long": tiny_spec(benchmarks=("libquantum", "astar/rivers", "h264ref"),
                              n_instructions=200_000),
        }
        results = {}

        def run(name):
            cache = ExperimentCache(tmp_path / name)
            results[name] = Engine(backend, cache=cache).run(specs[name])

        threads = [threading.Thread(target=run, args=(name,)) for name in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not any(thread.is_alive() for thread in threads)
        assert set(results) == set(specs)
        assert foreign_stops == []
        assert sorted(spawns.values()) == [1, 1]
        for name, spec in specs.items():
            assert results[name].meta["cells_run"] == spec.n_cells


class TestFleetFailure:
    def test_fleet_that_exits_before_claiming_fails_fast(
        self, tmp_path, monkeypatch
    ):
        def exits_at_once(*args, **kwargs):
            context = multiprocessing.get_context(worker_start_method())
            proc = context.Process(target=sys.exit)
            proc.start()
            return proc

        monkeypatch.setattr(backend_module, "start_local_worker", exits_at_once)
        backend = WorkQueueBackend(workers=2, wait_timeout_s=30.0)
        spec = tiny_spec(benchmarks=("mcf",), schemes=("base_dram",))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="respawns are spent") as error:
            Engine(backend, cache=ExperimentCache(tmp_path)).run(spec)
        assert time.monotonic() - started < 10.0
        assert "logs" in str(error.value)


class TestForkedWorkers:
    @pytest.mark.slow
    def test_fault_plan_activated_after_the_server_started_reaches_workers(
        self, tmp_path
    ):
        # Forked workers get the server's environment, not the caller's:
        # a plan published after the first queue run must still travel.
        spec = tiny_spec(benchmarks=("mcf",))

        def backend(lease_ttl_s):
            return WorkQueueBackend(workers=2, lease_ttl_s=lease_ttl_s,
                                    poll_s=0.02, wait_timeout_s=120.0)

        first = Engine(backend(5.0), cache=ExperimentCache(tmp_path / "first")).run(spec)
        assert first.meta["cells_run"] == spec.n_cells
        cache = ExperimentCache(tmp_path / "chaos")
        kill = FaultSpec(kind="kill", site="dist-cell", count=1)
        plan = FaultPlan.for_cache_root(cache.root, faults=(kill,))
        chaotic = backend(1.0)
        with plan.activated():
            results = Engine(chaotic, cache=cache).run(spec)
        assert plan.fired_count(kill) == 1
        assert list((chaotic.queue.root / "failed").glob("*"))
        assert "cells_poisoned" not in results.meta
        assert results.digest() == Engine().run(spec).digest()

    def test_worker_output_goes_to_its_log_not_the_callers_streams(self, tmp_path):
        # A fresh interpreter starts its own forkserver, which inherits
        # the caller's stdout and stderr; the worker's traceback (its
        # queue does not exist) must land in its log file instead.
        script = (
            "from pathlib import Path\n"
            "from repro.dist.backend import start_local_worker\n"
            f"proc = start_local_worker({str(tmp_path / 'cache')!r}, 'no-such-queue',"
            f" 'w-0', lease_ttl_s=5.0, max_attempts=3, log_dir=Path({str(tmp_path)!r}))\n"
            "proc.join(timeout=60)\n"
            "print('exited', proc.exitcode is not None)\n"
        )
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        caller = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert caller.returncode == 0, caller.stderr
        assert caller.stdout == "exited True\n"
        assert "no-such-queue" not in caller.stderr
        log = (tmp_path / "w-0.log").read_text()
        assert "Traceback" in log
        assert "FileNotFoundError" in log and "no-such-queue" in log

"""ProcessPoolBackend's warm pool: one set of workers for the backend's
lifetime, no more workers than a run has groups, a lone group inline
while the pool starts, fault plans handed over per batch, exact crash
attribution when runs share the pool, and no worker left after
``close()``.

Workers start from the forkserver, so a monkeypatch made in this process
cannot reach them: patching the functional pass to raise proves that a
run's groups ran in workers.  The tests read the pool's private
``_processes`` table for worker pids.
"""

import os
import sys
import threading
import time

import pytest

import repro.api.backends as backends_module
import repro.sim.simulator as simulator_module
from repro import obs
from repro.api.backends import ProcessPoolBackend
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec
from repro.faults.plan import FAULT_PLAN_ENV, FaultPlan, FaultSpec
from repro.sim.simulator import clear_pass_memo


def spec_for(seed: int, benchmarks=("mcf", "libquantum")) -> ExperimentSpec:
    return ExperimentSpec(
        benchmarks=benchmarks,
        schemes=("base_dram", "static:300"),
        seeds=(seed,),
        n_instructions=20_000,
    )


def warm_pool(backend: ProcessPoolBackend):
    """The backend's shared pool, once its first worker is up."""
    return backend._warm.result()


def worker_pids(backend: ProcessPoolBackend) -> set[int]:
    return set(warm_pool(backend)._processes)


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def no_functional_pass(*args, **kwargs):
    raise AssertionError("a group ran in the test process")


@pytest.fixture()
def pools_made(monkeypatch):
    """The ``max_workers`` of every executor a backend creates."""
    made = []
    real = backends_module.ProcessPoolExecutor

    def counting(**kwargs):
        made.append(kwargs["max_workers"])
        return real(**kwargs)

    monkeypatch.setattr(backends_module, "ProcessPoolExecutor", counting)
    return made


class TestWarmPool:
    def test_runs_share_one_pool_of_workers(self, monkeypatch, pools_made):
        want = [Engine().run(spec_for(seed)) for seed in (1, 2)]
        monkeypatch.setattr(simulator_module, "simulate_hierarchy", no_functional_pass)
        pids = []
        with ProcessPoolBackend(max_workers=2) as backend:
            for seed, expected in zip((1, 2), want):
                results = Engine(backend).run(spec_for(seed))
                assert results.records == expected.records
                assert results.meta["passes_computed"] == 2
                pids.append(worker_pids(backend))
        assert pools_made == [2]
        assert pids[0] == pids[1]
        assert 1 <= len(pids[0]) <= 2

    def test_a_run_forks_no_more_workers_than_it_has_groups(self):
        spec = spec_for(5, benchmarks=("mcf",))
        serial = Engine().run(spec)
        with ProcessPoolBackend(max_workers=8) as backend:
            cold = Engine(backend).run(spec)
            warm_pool(backend)
            warm = Engine(backend).run(spec)
            assert len(worker_pids(backend)) == 1
        assert cold.digest() == warm.digest() == serial.digest()

    def test_a_lone_group_runs_inline_while_the_pool_starts(self, monkeypatch):
        gate = threading.Event()
        real = backends_module._fork_first_worker

        def slow_start(pool, warm):
            gate.wait(timeout=60)
            real(pool, warm)

        monkeypatch.setattr(backends_module, "_fork_first_worker", slow_start)
        lone, pair = spec_for(3, benchmarks=("mcf",)), spec_for(3)
        want_lone, want_pair = Engine().run(lone), Engine().run(pair)
        clear_pass_memo()
        backend = ProcessPoolBackend(max_workers=2)
        got = []

        def run_pair():
            got.append(Engine(backend).run(pair))

        try:
            inline = Engine(backend).run(lone)
            assert not backend._warm.done()
            # A run of several groups waits for the pool instead.
            waiting = threading.Thread(target=run_pair)
            waiting.start()
            waiting.join(timeout=0.5)
            assert waiting.is_alive() and not got
            gate.set()
            waiting.join(timeout=120)
        finally:
            gate.set()
            backend.close()
        assert inline.records == want_lone.records
        assert inline.meta["passes_computed"] == 1
        assert got[0].records == want_pair.records

    def test_fault_plan_activated_after_the_pool_is_warm_reaches_workers(self, tmp_path):
        # Workers forked before the plan existed see it only because
        # each batch carries it.
        spec = spec_for(4)
        baseline = Engine().run(spec)
        kill = FaultSpec(kind="kill", site="worker-cell", at=1)
        plan = FaultPlan(faults=(kill,), token_dir=str(tmp_path / "tokens"))
        with ProcessPoolBackend(max_workers=2, retry_backoff_s=0.01) as backend:
            Engine(backend).run(spec)
            warm = warm_pool(backend)
            before = obs.snapshot()
            with plan.activated():
                recovered = Engine(backend).run(spec)
            delta = obs.delta(before)
            # The break retired the pool; the next run gets a fresh one.
            assert backend._warm is None
            assert Engine(backend).run(spec).digest() == baseline.digest()
            assert warm_pool(backend) is not warm
        assert plan.fired_count(kill) == 1
        assert recovered.digest() == baseline.digest()
        assert delta["pool_rebuilds"] == 1
        assert "cells_poisoned" not in recovered.meta

    def test_a_break_charges_no_attempt_to_the_groups_it_takes_down(
        self, tmp_path, monkeypatch
    ):
        # Run B's two groups sleep in their workers while run A's one
        # group kills its own worker on the shared pool.  The break takes
        # A's group and a sleeping B group down, but only A's group caused
        # it: with one attempt allowed, every group must survive on its
        # own retry pool.  Three half-second sleeps for two workers keep
        # one B group asleep past the other's result, the latest moment
        # the executor notices the dead worker (it watches a worker it
        # forked after its last wake-up only from its next one).
        spec_b, spec_a = spec_for(8), spec_for(9, benchmarks=("mcf",))
        want_b, want_a = Engine().run(spec_b), Engine().run(spec_a)
        slow = FaultPlan(
            faults=(FaultSpec(kind="delay", site="worker-cell", count=3, delay_s=0.5),),
            token_dir=str(tmp_path / "slow"),
        )
        kill = FaultSpec(kind="kill", site="worker-cell")
        killer = FaultPlan(faults=(kill,), token_dir=str(tmp_path / "kill"))
        backend = ProcessPoolBackend(max_workers=3, max_batch_attempts=1,
                                     retry_backoff_s=0.01)
        got = {}
        before = obs.snapshot()
        try:
            # Each run reads the plan once, as it starts.
            monkeypatch.setenv(FAULT_PLAN_ENV, slow.to_json())

            def run_b():
                got["b"] = Engine(backend).run(spec_b)

            thread_b = threading.Thread(target=run_b)
            thread_b.start()
            deadline = time.monotonic() + 60
            while backend._warm is None or not backend._warm.done() or len(
                warm_pool(backend)._pending_work_items
            ) < 2:
                assert time.monotonic() < deadline, "run B never reached the pool"
                time.sleep(0.005)
            monkeypatch.setenv(FAULT_PLAN_ENV, killer.to_json())
            got["a"] = Engine(backend).run(spec_a)
            monkeypatch.delenv(FAULT_PLAN_ENV)
            thread_b.join(timeout=120)
        finally:
            backend.close()
        delta = obs.delta(before)
        assert killer.fired_count(kill) == 1
        assert got["a"].digest() == want_a.digest()
        assert got["b"].digest() == want_b.digest()
        assert "cells_poisoned" not in got["a"].meta
        assert "cells_poisoned" not in got["b"].meta
        # A's group and at least one of B's were retried.
        assert delta["worker_retries"] >= 2
        # One shared pool broke, and only the run that retired it counts.
        assert delta["pool_rebuilds"] == 1

    def test_threads_sharing_a_new_backend_create_one_pool(self, pools_made):
        # A short switch interval makes the runs race the lazy creation.
        seeds = range(10, 18)
        want = {seed: Engine().run(spec_for(seed)).records for seed in seeds}
        clear_pass_memo()
        got = {}
        backend = ProcessPoolBackend(max_workers=3)

        def run(seed):
            got[seed] = Engine(backend).run(spec_for(seed)).records

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert not any(thread.is_alive() for thread in threads)
        assert got == want
        assert pools_made == [3]

    @pytest.mark.parametrize("use_with", [False, True])
    def test_no_worker_outlives_close(self, use_with):
        backend = ProcessPoolBackend(max_workers=2)
        if use_with:
            with backend:
                Engine(backend).run(spec_for(5))
                pids = worker_pids(backend)
        else:
            Engine(backend).run(spec_for(5))
            pids = worker_pids(backend)
            backend.close()
        assert pids
        assert not any(alive(pid) for pid in pids)

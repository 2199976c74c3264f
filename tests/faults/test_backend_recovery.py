"""ProcessPoolBackend crash recovery: retries, attribution, poison.

The contract under test: a fault-killed worker costs retries, never
results — the recovered sweep's digest is byte-identical to a fault-free
serial run — and a *deterministic* crasher is quarantined as poison
after ``max_batch_attempts`` instead of wedging the sweep.
"""

import os

import pytest

import repro.sim.simulator as simulator_module
from repro import obs
from repro.api.backends import ProcessPoolBackend, SerialBackend
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.simulator import clear_pass_memo

#: Two benchmarks -> two functional-pass groups -> a real 2-worker pool
#: (a lone group runs inline while a fresh pool starts; see TestLoneGroup).
SPEC = ExperimentSpec(
    benchmarks=("mcf", "libquantum"),
    schemes=("base_dram", "static:300"),
    seeds=(0,),
    n_instructions=20_000,
)


def make_plan(tmp_path, **spec_kwargs) -> FaultPlan:
    return FaultPlan(
        faults=(FaultSpec(site="worker-cell", **spec_kwargs),),
        token_dir=str(tmp_path / "tokens"),
    )


class TestKillRecovery:
    def test_digest_identical_after_worker_kill(self, tmp_path):
        baseline = Engine(backend=SerialBackend()).run(SPEC)
        plan = make_plan(tmp_path, kind="kill", at=1)
        before = obs.snapshot()
        with plan.activated():
            recovered = Engine(
                backend=ProcessPoolBackend(max_workers=2, retry_backoff_s=0.01)
            ).run(SPEC)
        delta = obs.delta(before)
        assert recovered.digest() == baseline.digest()
        assert delta["pool_rebuilds"] >= 1
        assert delta["worker_retries"] >= 1
        assert delta["cells_poisoned"] == 0
        assert "cells_poisoned" not in recovered.meta
        assert recovered.meta["cells_run"] == SPEC.n_cells

    def test_kill_fires_exactly_once_across_retries(self, tmp_path):
        plan = make_plan(tmp_path, kind="kill", at=1)
        with plan.activated():
            Engine(
                backend=ProcessPoolBackend(max_workers=2, retry_backoff_s=0.01)
            ).run(SPEC)
        assert plan.fired_count(plan.faults[0]) == 1

    def test_completed_groups_not_rerun(self, tmp_path, recwarn):
        """Recovery retries only the crashed cells: total functional work
        equals the fault-free amount plus the retried batch, never a
        full restart (the zero-redundant-pass analogue under faults)."""
        cache_root = tmp_path / "cache"
        plan = make_plan(tmp_path, kind="kill", at=1)
        with plan.activated():
            recovered = Engine(
                backend=ProcessPoolBackend(max_workers=2, retry_backoff_s=0.01),
                cache=cache_root,
            ).run(SPEC)
        assert recovered.meta["cells_run"] == SPEC.n_cells
        # Every cell's record was persisted exactly once.
        from repro.api.cache import ExperimentCache

        cache = ExperimentCache(cache_root)
        assert len(list(cache.results.root.glob("*.json"))) == SPEC.n_cells


class TestPoisonQuarantine:
    def test_deterministic_crasher_is_poisoned(self, tmp_path):
        # Unlimited kill budget: every retry dies too -> poison.
        plan = make_plan(tmp_path, kind="kill", at=1, count=64)
        backend = ProcessPoolBackend(
            max_workers=2, max_batch_attempts=2, retry_backoff_s=0.01
        )
        before = obs.snapshot()
        with plan.activated(), pytest.warns(RuntimeWarning, match="poisoned"):
            results = Engine(backend=backend).run(SPEC)
        delta = obs.delta(before)
        assert results.meta["cells_poisoned"] == SPEC.n_cells
        assert results.meta["cells_run"] == 0
        assert len(results.records) == 0          # sweep completed, empty
        assert delta["cells_poisoned"] == SPEC.n_cells

    def test_validates_attempt_floor(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="max_workers"):
                ProcessPoolBackend(max_workers=workers)
        with pytest.raises(ValueError, match="max_batch_attempts"):
            ProcessPoolBackend(max_batch_attempts=0)
        with pytest.raises(ValueError, match="retry_backoff_s"):
            ProcessPoolBackend(retry_backoff_s=-1.0)


class TestLoneGroup:
    """A run of one group on a backend of several workers runs inline
    while the pool starts, and in a worker once the pool is up."""

    SPEC = ExperimentSpec(benchmarks=("mcf",), schemes=("base_dram",),
                          seeds=(0,), n_instructions=20_000)

    def test_lone_group_runs_inline_while_the_pool_starts(self, monkeypatch):
        serial = Engine(backend=SerialBackend()).run(self.SPEC)
        inline = []
        run_inline = SerialBackend.run_cells

        def spy(backend, cells, cache=None):
            inline.append(len(cells))
            return run_inline(backend, cells, cache)

        monkeypatch.setattr(SerialBackend, "run_cells", spy)
        with ProcessPoolBackend(max_workers=8) as backend:
            pooled = Engine(backend=backend).run(self.SPEC)
            pids = set(backend._shared_pool().result()._processes)
        assert pooled.digest() == serial.digest()
        assert inline == [self.SPEC.n_cells]
        assert pids
        assert not any(alive(pid) for pid in pids)

    def test_lone_group_runs_in_a_worker_once_the_pool_is_up(self, monkeypatch):
        serial = Engine(backend=SerialBackend()).run(self.SPEC)
        clear_pass_memo()

        def no_functional_pass(*args, **kwargs):
            raise AssertionError("the lone group ran in the caller's process")

        with ProcessPoolBackend(max_workers=8) as backend:
            pool = backend._shared_pool().result()
            monkeypatch.setattr(simulator_module, "simulate_hierarchy", no_functional_pass)
            pooled = Engine(backend=backend).run(self.SPEC)
            pids = set(pool._processes)
        assert pooled.digest() == serial.digest()
        assert pooled.meta["cells_run"] == self.SPEC.n_cells
        assert pids
        assert not any(alive(pid) for pid in pids)


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True

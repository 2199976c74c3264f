"""ProcessPoolBackend crash recovery: retries, attribution, poison.

The contract under test: a fault-killed worker costs retries, never
results — the recovered sweep's digest is byte-identical to a fault-free
serial run — and a *deterministic* crasher is quarantined as poison
after ``max_batch_attempts`` instead of wedging the sweep.
"""

import pytest

from repro import obs
from repro.api.backends import ProcessPoolBackend, SerialBackend
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec
from repro.faults.plan import FaultPlan, FaultSpec

#: Two benchmarks -> two functional-pass groups -> a real 2-worker pool
#: (a single group would fall back to inline serial execution).
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


class TestSingleGroupFallback:
    def test_one_group_runs_inline_without_pool(self, tmp_path):
        spec = ExperimentSpec(benchmarks=("mcf",), schemes=("base_dram",),
                              seeds=(0,), n_instructions=20_000)
        serial = Engine(backend=SerialBackend()).run(spec)
        pooled = Engine(backend=ProcessPoolBackend(max_workers=8)).run(spec)
        assert pooled.digest() == serial.digest()

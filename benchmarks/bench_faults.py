"""Fault recovery overhead: what a worker crash actually costs.

Measures the pool backend's crash-recovery machinery end-to-end: one
sweep with no faults versus the same sweep with a kill injected at the
first cell of a worker.  Checks the shapes robustness must preserve:

* **identical results** — the recovered sweep's ResultSet digest is
  byte-identical to the fault-free run's;
* **bounded redundancy** — recovery re-runs only the crashed batch, so
  persisted results equal the cell count exactly (no double writes);
* **cheap no-fault path** — the fault hooks on the hot path are dict
  lookups; a run without an active plan pays nothing measurable.
"""

import tempfile
from pathlib import Path

from benchmarks.conftest import emit
from repro import obs
from repro.api.backends import ProcessPoolBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec
from repro.faults.plan import FaultPlan, FaultSpec

BENCH_INSTRUCTIONS = 20_000

SPEC = ExperimentSpec(
    name="bench-faults",
    benchmarks=("mcf", "libquantum"),
    schemes=("base_dram", "static:300"),
    seeds=(0,),
    n_instructions=BENCH_INSTRUCTIONS,
)


def _run_with_kill(workdir: str):
    """One fault-free run + one kill-recovered run on fresh caches."""
    workdir = Path(workdir)
    clean = Engine(
        backend=ProcessPoolBackend(max_workers=2, retry_backoff_s=0.01),
        cache=workdir / "cache-clean",
    ).run(SPEC)
    plan = FaultPlan(
        faults=(FaultSpec(kind="kill", site="worker-cell", at=1),),
        token_dir=str(workdir / "tokens"),
    )
    before = obs.snapshot()
    with plan.activated():
        recovered = Engine(
            backend=ProcessPoolBackend(max_workers=2, retry_backoff_s=0.01),
            cache=workdir / "cache-faulty",
        ).run(SPEC)
    return clean, recovered, obs.delta(before), workdir


def test_bench_kill_recovery(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-bench-faults-") as tmp:
        clean, recovered, delta, workdir = benchmark.pedantic(
            _run_with_kill, kwargs={"workdir": tmp}, rounds=1, iterations=1,
        )

        assert recovered.digest() == clean.digest(), (
            "recovered sweep diverged from fault-free results"
        )
        assert delta["worker_retries"] >= 1 and delta["pool_rebuilds"] >= 1
        assert delta["cells_poisoned"] == 0

        persisted = len(list(
            ExperimentCache(workdir / "cache-faulty").results.root.glob("*.json")
        ))
        assert persisted == SPEC.n_cells, (
            f"expected exactly {SPEC.n_cells} persisted results, got {persisted} "
            "(recovery must not double-write)"
        )

        emit(
            "Worker-kill recovery (2-worker pool, 4 cells)",
            "\n".join([
                f"digest match:      {recovered.digest() == clean.digest()}",
                f"worker retries:    {delta['worker_retries']}",
                f"pool rebuilds:     {delta['pool_rebuilds']}",
                f"cells poisoned:    {delta['cells_poisoned']}",
                f"persisted results: {persisted}/{SPEC.n_cells}",
            ]),
        )

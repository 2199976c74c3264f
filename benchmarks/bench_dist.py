"""Distributed backend: worker-count scaling and recovery cost.

Runs one scaled-down sweep through :class:`WorkQueueBackend` at fleet
sizes 1/2/4/8 (real subprocess workers, fresh cache each time) and
checks the shapes the distributed design must preserve:

* **backend-blind results** — every fleet size produces the ResultSet
  digest pinned in ``benchmarks/BENCH_dist.json``, which is also the
  serial engine's digest for the same spec;
* **throughput** — cells/sec per fleet size is reported (wall clock, so
  measured but never pinned);
* **recovery cost is proportional to loss** — restarting a sweep that
  already persisted a fraction of its results recomputes exactly the
  missing cells: the curve is linear in the loss, and **zero** for a
  fully-cached sweep (a crash costs only the cells in flight, never the
  sweep).

The pinned artifact regenerates via::

    PYTHONPATH=src python -m benchmarks.bench_dist --pin
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.api.spec import ExperimentSpec
from repro.dist import WorkQueueBackend

PINNED_PATH = Path(__file__).parent / "BENCH_dist.json"

BENCH_INSTRUCTIONS = 20_000
WORKER_COUNTS = (1, 2, 4, 8)

SPEC = ExperimentSpec(
    name="bench-dist",
    benchmarks=("mcf", "libquantum"),
    schemes=("base_dram", "static:300"),
    seeds=(0, 1),
    n_instructions=BENCH_INSTRUCTIONS,
)


def _run_fleet(workdir: Path, workers: int) -> tuple[float, str]:
    """One cold distributed sweep; returns (seconds, digest)."""
    backend = WorkQueueBackend(
        workers=workers, lease_ttl_s=10.0, poll_s=0.02, wait_timeout_s=300.0
    )
    engine = Engine(backend, cache=ExperimentCache(workdir / f"cache-w{workers}"))
    started = time.perf_counter()
    results = engine.run(SPEC)
    elapsed = time.perf_counter() - started
    assert results.meta["cells_run"] == SPEC.n_cells
    return elapsed, results.digest()


def _scaling_curve(workdir: str) -> dict:
    workdir = Path(workdir)
    curve = {}
    for workers in WORKER_COUNTS:
        elapsed, digest = _run_fleet(workdir, workers)
        curve[workers] = {
            "seconds": elapsed,
            "cells_per_second": SPEC.n_cells / elapsed,
            "digest": digest,
        }
    return curve


def test_bench_worker_scaling(benchmark, tmp_path):
    curve = benchmark.pedantic(
        _scaling_curve, kwargs={"workdir": str(tmp_path)}, rounds=1, iterations=1
    )
    pinned = json.loads(PINNED_PATH.read_text())

    digests = {entry["digest"] for entry in curve.values()}
    assert digests == {pinned["result_digest"]}, (
        "fleet sizes disagree on the ResultSet digest (or the pinned "
        "artifact is stale — regenerate with bench_dist.py --pin)"
    )
    assert list(curve) == list(pinned["worker_counts"])

    lines = [f"{'workers':>8}  {'seconds':>8}  {'cells/s':>8}"]
    for workers, entry in curve.items():
        lines.append(
            f"{workers:>8}  {entry['seconds']:>8.2f}  "
            f"{entry['cells_per_second']:>8.2f}"
        )
    lines.append(f"digest (all fleets): {pinned['result_digest'][:16]}…")
    emit(f"Distributed scaling ({SPEC.n_cells} cells, subprocess fleets)",
         "\n".join(lines))


def _recovery_curve(workdir: str) -> list[dict]:
    """Recompute cost after losing a fraction of persisted results.

    Populates a cache once (inline worker), then for each survival
    fraction deletes the complement, wipes the queue board (the crash
    model: the coordinator is gone too), and re-runs the sweep cold.
    """
    import shutil

    workdir = Path(workdir)
    cache = ExperimentCache(workdir / "cache-recovery")
    backend = WorkQueueBackend(workers=0, lease_ttl_s=10.0)
    Engine(backend, cache=cache).run(SPEC)

    points = []
    for kept_fraction in (1.0, 0.5, 0.0):
        entries = sorted(cache.results.root.glob("*.json"))
        keep = int(round(len(entries) * kept_fraction))
        for path in entries[keep:]:
            path.unlink()
        shutil.rmtree(cache.root / "queue", ignore_errors=True)
        started = time.perf_counter()
        results = Engine(
            WorkQueueBackend(workers=0, lease_ttl_s=10.0), cache=cache
        ).run(SPEC)
        elapsed = time.perf_counter() - started
        points.append({
            "kept_fraction": kept_fraction,
            "cells_recomputed": results.meta["cells_run"],
            "cache_hits": results.meta["cache_hits"],
            "seconds": elapsed,
            "digest": results.digest(),
        })
    return points


def test_bench_recovery_cost(benchmark, tmp_path):
    points = benchmark.pedantic(
        _recovery_curve, kwargs={"workdir": str(tmp_path)}, rounds=1, iterations=1
    )
    pinned = json.loads(PINNED_PATH.read_text())

    for point in points:
        expected_loss = SPEC.n_cells - int(round(SPEC.n_cells * point["kept_fraction"]))
        assert point["cells_recomputed"] == expected_loss, (
            f"restart after keeping {point['kept_fraction']:.0%} recomputed "
            f"{point['cells_recomputed']} cells, expected {expected_loss}"
        )
        assert point["digest"] == pinned["result_digest"]

    # The gate: a fully-cached sweep restarts with zero recompute, and
    # its wall clock is bounded by assembly overhead, not execution.
    warm = points[0]
    cold_equivalent = points[-1]
    assert warm["cells_recomputed"] == 0
    assert warm["cache_hits"] == SPEC.n_cells
    assert warm["seconds"] < max(0.5, 0.25 * cold_equivalent["seconds"]), (
        f"cached restart took {warm['seconds']:.2f}s vs {cold_equivalent['seconds']:.2f}s "
        "cold — cache-hit assembly should be near-free"
    )

    lines = [f"{'kept':>6}  {'recomputed':>10}  {'hits':>5}  {'seconds':>8}"]
    for point in points:
        lines.append(
            f"{point['kept_fraction']:>6.0%}  {point['cells_recomputed']:>10}  "
            f"{point['cache_hits']:>5}  {point['seconds']:>8.2f}"
        )
    emit("Distributed recovery cost (restart after partial loss)",
         "\n".join(lines))


def test_pinned_dist_artifact():
    pinned = json.loads(PINNED_PATH.read_text())
    assert pinned["worker_counts"] == list(WORKER_COUNTS)
    assert pinned["n_cells"] == SPEC.n_cells
    assert pinned["spec"] == {
        "benchmarks": list(SPEC.benchmarks),
        "schemes": list(SPEC.schemes),
        "seeds": list(SPEC.seeds),
        "n_instructions": SPEC.n_instructions,
    }
    # The pinned digest is the *serial* engine's digest for the spec:
    # whatever fleet runs it, distributed results must land here.
    serial = Engine().run(SPEC)
    assert serial.digest() == pinned["result_digest"], (
        "pinned digest diverged from a serial run — regenerate "
        "BENCH_dist.json with bench_dist.py --pin"
    )


def _pin() -> None:
    serial = Engine().run(SPEC)
    payload = {
        "spec": {
            "benchmarks": list(SPEC.benchmarks),
            "schemes": list(SPEC.schemes),
            "seeds": list(SPEC.seeds),
            "n_instructions": SPEC.n_instructions,
        },
        "n_cells": SPEC.n_cells,
        "worker_counts": list(WORKER_COUNTS),
        "result_digest": serial.digest(),
        "recovery_gate": {"cached_restart_recomputes": 0},
    }
    PINNED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"pinned {PINNED_PATH}: digest {serial.digest()}")


if __name__ == "__main__":
    import sys

    if "--pin" in sys.argv:
        _pin()
    else:
        print(__doc__)

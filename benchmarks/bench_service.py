"""Sweep service: saturation shape and the pinned load artifact.

Runs a scaled-down saturation sweep against a self-hosted daemon and
checks the shapes the long-running service must preserve:

* **zero redundancy** — across every load level, fresh functional
  passes never exceed the template pool's (benchmark, seed) lattice;
  concurrent clients hammering the same specs share one warm cache;
* **cold/warm split** — the first level pays the lattice, every later
  level against the stays-warm daemon runs pass-free;
* **liveness under load** — every submitted job completes; the daemon
  never drops or fails work while saturated;
* **artifact integrity** — ``benchmarks/BENCH_service.json`` pins only
  deterministic fields, carries zero redundant passes, and re-running
  its first level from the pinned profile reproduces the pinned row
  field-for-field.

The pinned full curve regenerates via::

    python -m repro load --self-hosted --levels 1,2,4,8 --requests 4 \
        -n 20000 --pin --out benchmarks/BENCH_service.json
"""

import json
import tempfile
from pathlib import Path

from benchmarks.conftest import emit
from repro.service import LoadProfile, ThreadedService, default_templates, run_saturation
from repro.sim.simulator import clear_pass_memo

PINNED_PATH = Path(__file__).parent / "BENCH_service.json"

BENCH_LEVELS = (1, 2, 4)
BENCH_REQUESTS = 2
BENCH_INSTRUCTIONS = 20_000


def _saturate(levels, requests_per_client, templates):
    """One cold daemon, one saturation sweep (fresh cache per call)."""
    # The daemon counts computed passes; a memo warmed by earlier runs in
    # this process would serve the lattice without computing it.
    clear_pass_memo()
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        with ThreadedService(cache=tmp, max_concurrency=2) as hosted:
            return run_saturation(
                hosted.address,
                levels=levels,
                base_profile=LoadProfile(
                    requests_per_client=requests_per_client, templates=templates
                ),
            )


def test_bench_service_saturation(benchmark):
    templates = default_templates(n_instructions=BENCH_INSTRUCTIONS)
    curve = benchmark.pedantic(
        _saturate,
        kwargs={
            "levels": BENCH_LEVELS,
            "requests_per_client": BENCH_REQUESTS,
            "templates": templates,
        },
        rounds=1,
        iterations=1,
    )

    lattice = LoadProfile(templates=templates).expected_passes()
    assert curve.levels[0].functional_passes_new == lattice
    for level in curve.levels[1:]:
        assert level.functional_passes_new == 0, (
            "a warm daemon recomputed a functional pass under load"
        )
    assert curve.total_redundant_passes == 0

    for clients, level in zip(BENCH_LEVELS, curve.levels):
        assert level.jobs_submitted == clients * BENCH_REQUESTS
        assert level.jobs_completed == level.jobs_submitted
        assert level.jobs_failed == 0
        assert level.throughput_jobs_s > 0.0

    emit("Service: saturation under concurrent sweep load", curve.render())


def test_pinned_service_artifact():
    pinned = json.loads(PINNED_PATH.read_text())

    # Structural integrity: deterministic fields only, zero redundancy.
    assert pinned["kind"] == "repro.service saturation curve"
    assert pinned["total_redundant_passes"] == 0
    base = pinned["base_profile"]
    levels = pinned["levels"]
    assert [level["profile"]["clients"] for level in levels] == base["levels"]
    for level in levels:
        assert level["redundant_passes"] == 0
        assert level["jobs_completed"] == level["jobs_submitted"]
        assert level["jobs_failed"] == 0
        assert "duration_s" not in level, (
            "BENCH_service.json carries wall-clock fields; regenerate with --pin"
        )
    # Cold/warm split: only the first level pays the lattice.
    assert levels[0]["functional_passes_new"] == levels[0]["expected_passes"]
    assert all(level["functional_passes_new"] == 0 for level in levels[1:])

    # Re-running the first pinned level from the pinned profile must
    # reproduce the pinned row exactly — what keeps the artifact
    # regenerable byte-for-byte.
    probe = levels[0]
    templates = default_templates(n_templates=len(base["templates"]))
    assert [t.name for t in templates] == base["templates"]
    assert [t.n_cells for t in templates] == base["template_cells"]
    rerun = _saturate(
        (probe["profile"]["clients"],), base["requests_per_client"], templates
    )
    assert rerun.levels[0].to_dict(deterministic=True) == probe, (
        "re-running the pinned level-1 load diverges from BENCH_service.json"
    )

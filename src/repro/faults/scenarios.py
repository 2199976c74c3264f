"""Scripted chaos scenarios: end-to-end fault drills with pass/fail checks.

Each scenario builds a tiny real sweep, injects one class of fault
through :mod:`repro.faults.plan`, and verifies the recovery contract the
repository promises: **fault-injected runs produce byte-identical
ResultSet digests to fault-free runs**, recovery counters move, and no
layer crashes.  ``repro faults --scenario worker-crash`` runs them from
the shell; CI runs the same entry points as its chaos step.

Scenarios (see ``docs/operations.md`` "Failure modes and recovery"):

- ``worker-crash``     kill a pool worker mid-batch; pool rebuilds and
  retries the lost cells.
- ``corrupt-artifact`` rot every cached trace/result on disk; the cache
  quarantines and the engine recomputes.
- ``torn-write``       tear a result write in flight (crash between
  write and fsync); the next run quarantines the stub.
- ``daemon-restart``   journal queued jobs, "crash", resume into a new
  daemon with dedup intact.
- ``client-retry``     refuse the client's first connects; retries with
  backoff land, and a truly dead address raises ``ServiceUnavailable``.
- ``corrupt-import``   tear a trace import mid-write; the read path
  quarantines the torn entry and a re-import heals it digest-identical.
- ``worker-kill-dist`` SIGKILL distributed queue workers mid-sweep —
  first a lease-holding subset (survivors and respawns finish the
  board), then *every* worker at random, followed by a cold restart
  that must complete with zero recomputation of cached cells.
"""

from __future__ import annotations

import asyncio
import random
import signal
import socket
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.faults.plan import FaultPlan, FaultSpec

#: Sweep shape shared by every scenario: 4 cells, 2 functional passes,
#: small enough that the full suite runs in seconds.
_BENCHMARKS = ("mcf", "libquantum")
_SCHEMES = ("base_dram", "static:300")
_N_INSTRUCTIONS = 20_000


def _chaos_spec(name: str = "chaos", seeds: tuple[int, ...] = (0,)):
    from repro.api.spec import ExperimentSpec

    return ExperimentSpec(
        name=name, benchmarks=_BENCHMARKS, schemes=_SCHEMES, seeds=seeds,
        n_instructions=_N_INSTRUCTIONS,
    )


def _check(checks: list, label: str, ok: bool, detail: str = "") -> None:
    checks.append({"check": label, "ok": bool(ok), "detail": detail})


def _report(name: str, checks: list) -> dict:
    return {"scenario": name, "ok": all(c["ok"] for c in checks), "checks": checks}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def scenario_worker_crash(workdir: Path) -> dict:
    """Kill a pool worker at its first cell; the sweep must still match
    the serial fault-free digest with zero poisoned cells."""
    from repro.api.backends import ProcessPoolBackend, SerialBackend
    from repro.api.engine import Engine

    spec = _chaos_spec()
    baseline = Engine(backend=SerialBackend()).run(spec)
    kill = FaultSpec(kind="kill", site="worker-cell", at=1)
    plan = FaultPlan(faults=(kill,), token_dir=str(workdir / "tokens-worker"))
    before = obs.snapshot()
    with plan.activated():
        chaotic = Engine(backend=ProcessPoolBackend(max_workers=2)).run(spec)
    delta = obs.delta(before)

    checks: list = []
    _check(checks, "digest matches fault-free run",
           chaotic.digest() == baseline.digest())
    _check(checks, "worker retries recorded",
           delta.get("worker_retries", 0) >= 1, f"delta={delta}")
    _check(checks, "pool was rebuilt", delta.get("pool_rebuilds", 0) >= 1)
    # The kill fires (and counts) inside the dying worker, so the
    # parent's counters never see it — the claimed token is the
    # cross-process evidence.
    _check(checks, "fault actually fired", plan.fired_count(kill) >= 1)
    _check(checks, "no cells poisoned", "cells_poisoned" not in chaotic.meta,
           f"meta={chaotic.meta}")
    return _report("worker-crash", checks)


def scenario_corrupt_artifact(workdir: Path) -> dict:
    """Rot every cached artifact on disk; the second run must
    quarantine all of them and still reproduce the digest."""
    from repro.api.cache import ExperimentCache
    from repro.api.engine import Engine
    from repro.sim.simulator import clear_pass_memo

    root = workdir / "cache-corrupt"
    baseline = Engine(cache=ExperimentCache(root)).run(spec := _chaos_spec())

    cache = ExperimentCache(root)
    results = sorted(cache.results.root.glob("*.json"))
    traces = sorted(cache.traces.root.glob("*.pkl"))
    for path in results:
        path.write_text('{"benchmark": "mcf", "truncated')
    for path in traces:
        path.write_bytes(path.read_bytes()[:16])

    clear_pass_memo()  # force disk reads: no warm in-process traces
    before = obs.snapshot()
    second = Engine(cache=ExperimentCache(root)).run(spec)
    delta = obs.delta(before)
    quarantined = (
        list((cache.results.root / "quarantine").glob("*"))
        + list((cache.traces.root / "quarantine").glob("*"))
    )

    checks: list = []
    _check(checks, "digest matches fault-free run",
           second.digest() == baseline.digest())
    _check(checks, "every rotten artifact quarantined",
           delta.get("artifacts_quarantined", 0) >= len(results) + len(traces),
           f"delta={delta}, corrupted={len(results) + len(traces)}")
    _check(checks, "quarantine evidence preserved on disk",
           len(quarantined) >= len(results) + len(traces))
    _check(checks, "all cells recomputed (no hits from rot)",
           second.meta["cache_hits"] == 0, f"meta={second.meta}")
    return _report("corrupt-artifact", checks)


def scenario_torn_write(workdir: Path) -> dict:
    """Tear one result write mid-flight; the next run must quarantine
    the stub, recompute exactly that cell, and match the digest."""
    from repro.api.cache import ExperimentCache
    from repro.api.engine import Engine
    from repro.sim.simulator import clear_pass_memo

    root = workdir / "cache-torn"
    spec = _chaos_spec()
    plan = FaultPlan(
        faults=(FaultSpec(kind="corrupt", site="cache-write-result", at=1),),
        token_dir=str(workdir / "tokens-torn"),
    )
    with plan.activated():
        first = Engine(cache=ExperimentCache(root)).run(spec)

    clear_pass_memo()
    before = obs.snapshot()
    second = Engine(cache=ExperimentCache(root)).run(spec)
    delta = obs.delta(before)

    checks: list = []
    _check(checks, "digest matches fault-free run",
           second.digest() == first.digest())
    _check(checks, "torn stub quarantined",
           delta.get("artifacts_quarantined", 0) >= 1, f"delta={delta}")
    _check(checks, "exactly the torn cell recomputed",
           second.meta["cells_run"] == 1
           and second.meta["cache_hits"] == spec.n_cells - 1,
           f"meta={second.meta}")
    return _report("torn-write", checks)


def scenario_daemon_restart(workdir: Path) -> dict:
    """Simulate a daemon crash with journaled-but-unfinished jobs, then
    resume into a fresh daemon: interrupted jobs re-run, duplicates
    collapse, finished jobs stay finished."""
    from repro.api.cache import ExperimentCache
    from repro.service.daemon import SweepService
    from repro.service.jobs import spec_digest
    from repro.service.journal import JobJournal

    root = workdir / "cache-daemon"
    root.mkdir(parents=True, exist_ok=True)

    # Phase 1: a "crashed" daemon's journal — two interrupted
    # submissions of one spec, one job that already finished, and a
    # torn trailing line (crash mid-append).
    journal = JobJournal.for_cache_root(root)
    pending = _chaos_spec(name="resume-me")
    finished = _chaos_spec(name="already-done", seeds=(1,))
    journal.record_submitted("j-000001", pending.to_dict(), spec_digest(pending))
    journal.record_submitted("j-000002", pending.to_dict(), spec_digest(pending))
    journal.record_submitted("j-000003", finished.to_dict(), spec_digest(finished))
    journal.record_state("j-000003", "done")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"op": "submit", "job_id": "j-0000')  # torn append

    before = obs.snapshot()

    async def _restart() -> list:
        service = SweepService(cache=ExperimentCache(root), max_concurrency=1)
        resumed = await service.resume()
        await service.drain()
        await service.shutdown()
        return [job.state for job in resumed]

    states = asyncio.run(_restart())
    delta = obs.delta(before)

    checks: list = []
    _check(checks, "exactly one interrupted job resumed",
           len(states) == 1 and delta["jobs_resumed"] == 1,
           f"states={states}, jobs_resumed={delta['jobs_resumed']}")
    _check(checks, "resumed job ran to done", states == ["done"])
    _check(checks, "duplicate interrupted submission deduplicated",
           delta["jobs_deduplicated"] == 1)
    _check(checks, "finished job not re-run", delta["jobs_submitted"] == 2)
    _check(checks, "torn journal line skipped, not fatal",
           delta.get("journal_lines_skipped", 0) >= 1, f"delta={delta}")
    return _report("daemon-restart", checks)


def scenario_client_retry(workdir: Path) -> dict:
    """Refuse the client's first two connects (daemon mid-restart); the
    third lands.  A truly dead address raises ``ServiceUnavailable``."""
    from repro.service.client import ServiceClient, ServiceUnavailable
    from repro.service.hosting import ThreadedService

    checks: list = []
    plan = FaultPlan(
        faults=(FaultSpec(kind="refuse", site="client-connect", at=1, count=2),),
        token_dir=str(workdir / "tokens-client"),
    )
    with ThreadedService(cache=workdir / "cache-client") as hosted:
        client = hosted.client()
        client.retry_backoff_s = 0.01
        before = obs.snapshot()
        with plan.activated():
            health = client.healthz()
        delta = obs.delta(before)
        _check(checks, "request survived two refused connects",
               bool(health), f"health={health}")
        _check(checks, "both retries counted",
               delta.get("client_retries", 0) == 2, f"delta={delta}")

    # A port nothing listens on: bind-then-close guarantees it was free.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    dead = ServiceClient(("tcp", "127.0.0.1", dead_port),
                         timeout=1.0, connect_retries=1, retry_backoff_s=0.01)
    try:
        dead.healthz()
        _check(checks, "dead address raises ServiceUnavailable", False,
               "healthz unexpectedly succeeded")
    except ServiceUnavailable as error:
        _check(checks, "dead address raises ServiceUnavailable",
               error.attempts == 2, f"attempts={error.attempts}")
    return _report("client-retry", checks)


def scenario_corrupt_import(workdir: Path) -> dict:
    """Tear a trace import mid-write; the torn entry must land under its
    true digest, quarantine on read, and re-import digest-identical."""
    from repro.ingest.store import IngestStore
    from repro.ingest.formats import write_text_trace
    from repro.workloads.registry import build_trace

    trace = build_trace(_BENCHMARKS[0], seed=0, n_instructions=_N_INSTRUCTIONS)
    source = workdir / "import-me.trace"
    write_text_trace(trace, source)
    expected = trace.content_digest()

    baseline_store = IngestStore(workdir / "ingest-baseline")
    baseline_digest = baseline_store.import_trace(source)

    tear = FaultSpec(kind="corrupt", site="ingest-write-trace", at=1)
    plan = FaultPlan(faults=(tear,), token_dir=str(workdir / "tokens-import"))
    store = IngestStore(workdir / "ingest-faulty")
    with plan.activated():
        torn_digest = store.import_trace(source)
    before = obs.snapshot()
    loaded_torn = store.load(torn_digest)
    delta = obs.delta(before)
    quarantined = list((store.root / "quarantine").glob("*"))

    healed_digest = store.import_trace(source)
    healed = store.load(healed_digest)

    checks: list = []
    _check(checks, "fault actually fired", plan.fired_count(tear) >= 1)
    _check(checks, "torn import landed under its true digest",
           torn_digest == expected == baseline_digest,
           f"torn={torn_digest[:12]}, expected={expected[:12]}")
    _check(checks, "torn entry reads as a miss", loaded_torn is None)
    _check(checks, "torn entry quarantined",
           delta.get("artifacts_quarantined", 0) >= 1 and len(quarantined) >= 1,
           f"delta={delta}, quarantined={len(quarantined)}")
    _check(checks, "re-import heals digest-identical",
           healed_digest == expected
           and healed is not None
           and healed.content_digest() == expected)
    return _report("corrupt-import", checks)


def scenario_worker_kill_dist(workdir: Path) -> dict:
    """SIGKILL distributed queue workers mid-sweep; the board must still
    complete byte-identical to serial, and a total massacre plus cold
    restart must recompute zero cached cells.

    Two acts:

    1. **Deterministic partial kill.**  Three queue workers drain the
       board under a fault plan whose tokens live under the shared
       cache root (:meth:`FaultPlan.for_cache_root` — any worker, any
       CWD, same ledger): the first two workers to arm ``dist-cell``
       die holding leases.  The coordinator reaps, requeues, respawns;
       the digest must match the fault-free serial run with nothing
       poisoned.
    2. **Total massacre + cold restart.**  A fresh board, three
       workers, and as soon as the first result lands every worker is
       SIGKILLed in random order.  A cold engine restart on the same
       cache must finish the sweep with ``cache_hits`` exactly equal to
       the records the dead fleet persisted — at-least-once execution,
       exactly-once results, zero recomputation.
    """
    from repro.api.backends import SerialBackend
    from repro.api.cache import ExperimentCache
    from repro.api.engine import Engine
    from repro.dist.backend import WorkQueueBackend, spawn_worker_process
    from repro.dist.queue import WorkQueue

    spec = _chaos_spec(name="dist-chaos", seeds=(0, 1))  # 8 cells, 4 tasks
    baseline = Engine(
        backend=SerialBackend(), cache=ExperimentCache(workdir / "cache-serial")
    ).run(spec)
    checks: list = []

    # -- Act 1: kill two lease-holding workers, deterministically -------
    cache_a = ExperimentCache(workdir / "cache-dist-a")
    kill = FaultSpec(kind="kill", site="dist-cell", at=1, count=2)
    plan = FaultPlan.for_cache_root(cache_a.root, faults=(kill,))
    backend = WorkQueueBackend(
        workers=3, lease_ttl_s=0.6, poll_s=0.02, wait_timeout_s=180.0
    )
    with plan.activated():
        chaotic = Engine(backend=backend, cache=cache_a).run(spec)

    queue_a = backend.queue
    failed_markers = list((queue_a.root / "failed").glob("*"))
    _check(checks, "partial kill: digest matches fault-free serial run",
           chaotic.digest() == baseline.digest())
    _check(checks, "partial kill: both kill faults fired (shared token ledger)",
           plan.fired_count(kill) == 2, f"fired={plan.fired_count(kill)}")
    _check(checks, "partial kill: expired leases reaped and requeued",
           len(failed_markers) >= 1, f"failed markers={len(failed_markers)}")
    _check(checks, "partial kill: board finished, nothing poisoned",
           queue_a.finished() and "cells_poisoned" not in chaotic.meta,
           f"meta={chaotic.meta}, stats={queue_a.stats()}")

    # -- Act 2: massacre every worker at random, then cold-restart ------
    cache_b = ExperimentCache(workdir / "cache-dist-b")
    cells = list(spec.cells())
    queue_b = WorkQueue.for_cells(cache_b.root, cells, lease_ttl_s=0.6)
    procs = [
        spawn_worker_process(
            cache_b.root, queue_b.root.name, f"victim-{i}",
            lease_ttl_s=0.6, max_attempts=3, log_dir=queue_b.root / "logs",
        )
        for i in range(3)
    ]
    results_dir = cache_b.results.root
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if list(results_dir.glob("*.json")) or all(
            proc.poll() is not None for proc in procs
        ):
            break
        time.sleep(0.01)
    rng = random.Random(0xD157)
    rng.shuffle(procs)
    for proc in procs:  # the massacre: no warning, no cleanup
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
    for proc in procs:
        proc.wait(timeout=30.0)
    persisted = len(list(results_dir.glob("*.json")))

    restarted = Engine(
        backend=WorkQueueBackend(
            workers=2, lease_ttl_s=0.6, poll_s=0.02, wait_timeout_s=180.0
        ),
        cache=cache_b,
    ).run(spec)

    _check(checks, "massacre: at least one result persisted before the kill",
           persisted >= 1, f"persisted={persisted}")
    _check(checks, "cold restart: digest matches fault-free serial run",
           restarted.digest() == baseline.digest())
    _check(checks, "cold restart: zero recomputation of cached cells",
           restarted.meta["cache_hits"] == persisted
           and restarted.meta["cells_run"] == spec.n_cells - persisted,
           f"meta={restarted.meta}, persisted={persisted}")
    _check(checks, "cold restart: nothing poisoned",
           "cells_poisoned" not in restarted.meta, f"meta={restarted.meta}")
    return _report("worker-kill-dist", checks)


# ----------------------------------------------------------------------
# Registry / runner
# ----------------------------------------------------------------------

SCENARIOS = {
    "worker-crash": scenario_worker_crash,
    "corrupt-artifact": scenario_corrupt_artifact,
    "torn-write": scenario_torn_write,
    "daemon-restart": scenario_daemon_restart,
    "client-retry": scenario_client_retry,
    "corrupt-import": scenario_corrupt_import,
    "worker-kill-dist": scenario_worker_kill_dist,
}

SCENARIO_NAMES = tuple(SCENARIOS)


def run_scenario(name: str, workdir: str | Path | None = None) -> dict:
    """Run one scenario in an isolated working directory.

    Without ``workdir`` the scenario runs in a fresh temporary directory
    that is removed when it returns; a given ``workdir`` is kept.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    if workdir is None:
        with tempfile.TemporaryDirectory(
            prefix=f"repro-chaos-{name}-", ignore_cleanup_errors=True
        ) as scratch:
            return SCENARIOS[name](Path(scratch))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return SCENARIOS[name](workdir)

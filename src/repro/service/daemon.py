"""The long-running sweep service: one warm Engine, many concurrent jobs.

:class:`SweepService` wraps a single :class:`~repro.api.engine.Engine`
(shared persistent trace/result cache, warm in-process pass memo) behind
an asyncio scheduler.  Submitted specs become :class:`~repro.service.jobs.Job`
objects; up to ``max_concurrency`` run at once, each split into its
(benchmark, seed) groups so progress streams at group granularity and
overlapping jobs interleave fairly.

**The zero-redundancy guarantee.**  Every group's expensive functional
cache pass is guarded by a per-``functional_pass_key`` asyncio lock:
while one job computes a pass, any concurrent job needing the same pass
waits at the lock and then finds the trace warm in the shared cache.  N
concurrent sweeps over the same (benchmark, seed) lattice therefore pay
exactly the passes one sweep would — the invariant
``benchmarks/BENCH_service.json`` pins under load and the ``/metrics``
``functional_passes`` counter (the engine's ``passes_computed``) exposes live.
A key's lock lives only while some group holds it or waits on it.

Engine execution is synchronous, so each running job waits for its
groups on one of ``max_concurrency`` job threads.  By default the groups
themselves run on a warm :class:`~repro.api.backends.ProcessPoolBackend`
of as many worker processes, which the daemon builds and closes at
shutdown; until its first worker is up, groups run on the job threads.
Threads cannot overlap the groups: trace generation, the
functional pass's scalar miss path and the single-configuration replays
are Python loops that hold the GIL.  On a two-CPU container, 42 fresh
figure groups (one spec of each figure at 40k instructions, cache on
tmpfs, median of 7 runs) took 226 ms on one thread, 269 ms on two
threads and 232 ms on a warm two-process pool.  The pool pays off under
load, where the groups would otherwise share the daemon's interpreter
with its own Python work — HTTP handling, JSON encoding, result-cache
reads and writes, which stay in the daemon: on the repository
benchmark's ``figure_service`` (two clients), cells per second rose 26%
and the median job latency fell 24%.  Job states and events live on the
event loop thread; the counters live in the process-wide registry
(:mod:`repro.obs`).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from repro import obs
from repro.api.backends import ExecutionBackend, ProcessPoolBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.api.execution import functional_pass_key
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobRegistry,
    QUEUED,
)
from repro.service.journal import JobJournal

#: Default number of jobs executing concurrently.
DEFAULT_CONCURRENCY = 2

#: The counter each terminal state bumps.
END_COUNTERS = {DONE: "jobs_completed", FAILED: "jobs_failed",
                CANCELLED: "jobs_cancelled"}


def _job_meta(spec: ExperimentSpec, groups: list[ResultSet]) -> dict:
    """A job's meta, built as :meth:`Engine.run` builds a run's: ``cells``
    is the spec's cell count and every per-group count is summed, so a
    ``cells_poisoned`` count appears exactly when some group lost cells.
    """
    meta = {"backend": "service", "cells": spec.n_cells}
    for group in groups:
        for key, count in group.meta.items():
            if key not in ("backend", "cells"):
                meta[key] = meta.get(key, 0) + count
    return meta


def subgroup_specs(spec: ExperimentSpec) -> list[tuple[str, int, ExperimentSpec]]:
    """Split a spec into one sub-spec per (benchmark, seed) group.

    Each sub-spec keeps the full scheme axis, so the engine still
    dispatches one routed replay call per group; the split only
    exists so the service can stream progress and interleave jobs at
    functional-pass granularity.
    """
    return [
        (benchmark, seed, replace(spec, benchmarks=(benchmark,), seeds=(seed,)))
        for benchmark in spec.benchmarks
        for seed in spec.seeds
    ]


class SweepService:
    """Asyncio daemon sharing one warm engine across submitted sweeps.

    Args:
        cache: Persistent cache — an :class:`ExperimentCache`, a root
            directory, or ``None`` for the default location.  Required
            infrastructure, not an option: the cache is the warm
            substrate concurrent jobs share.
        max_concurrency: Jobs executing at once (job threads, and the
            default pool's workers).
        journal: ``True`` (default) journals admissions and terminal
            states to ``<cache root>/journal/jobs.ndjson`` so
            :meth:`resume` can re-enqueue interrupted jobs after a
            restart; ``False``/``None`` disables journaling; a
            :class:`JobJournal` uses that journal verbatim.
        backend: Where job groups run (default: a warm
            :class:`~repro.api.backends.ProcessPoolBackend` of
            ``max_concurrency`` workers, since at most that many groups
            are ever in flight; the daemon closes it at shutdown).  A
            :class:`~repro.api.backends.SerialBackend` runs them on the
            job threads; a :class:`~repro.dist.backend.WorkQueueBackend`
            turns daemon jobs into queue submissions under the same
            cache root, which any worker fleet sharing the cache can
            drain.  Concurrent jobs share the one backend.
    """

    def __init__(
        self,
        cache: ExperimentCache | str | Path | None = None,
        max_concurrency: int = DEFAULT_CONCURRENCY,
        journal: JobJournal | bool | None = True,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        #: The worker pool this daemon built, and closes at shutdown.
        self._own_pool = (
            ProcessPoolBackend(max_workers=max_concurrency) if backend is None else None
        )
        self.engine = Engine(
            backend=backend or self._own_pool,
            cache=cache if isinstance(cache, ExperimentCache) else ExperimentCache(cache),
        )
        self.max_concurrency = max_concurrency
        if journal is True:
            journal = JobJournal.for_cache_root(self.engine.cache.root)
        elif journal is False:
            journal = None
        self.journal = journal
        self.registry = JobRegistry()
        self._started = time.monotonic()
        self._slots = asyncio.Semaphore(max_concurrency)
        #: functional_pass_key -> [lock, groups holding or waiting on it]
        self._pass_locks: dict[tuple, list] = {}
        self._changed = asyncio.Condition()
        self._tasks: set[asyncio.Task] = set()
        self._accepting = True
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="sweep-service"
        )

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------

    async def submit(self, spec: ExperimentSpec) -> tuple[Job, bool]:
        """Admit a spec; duplicate in-flight specs attach to one job."""
        if not self._accepting:
            raise RuntimeError("service is shutting down")
        job, deduped = self.registry.submit(spec)
        obs.bump("jobs_submitted")
        if deduped:
            obs.bump("jobs_deduplicated")
        else:
            if self.journal is not None:
                self.journal.record_submitted(job.id, spec.to_dict(), job.digest)
            task = asyncio.create_task(self._run_job(job), name=f"job-{job.id}")
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        await self._notify()
        return job, deduped

    async def resume(self) -> list[Job]:
        """Re-enqueue every journaled job that never reached a terminal
        state (``repro serve --resume``).

        Replayed specs go through the normal :meth:`submit` path, so
        dedup still applies — two interrupted submissions of one spec
        come back as one job — and the persistent result cache makes
        already-finished groups nearly free to re-run.  Returns the
        re-admitted jobs.
        """
        if self.journal is None:
            return []
        resumed: list[Job] = []
        for entry in self.journal.replay():
            job, deduped = await self.submit(ExperimentSpec.from_dict(entry.spec))
            if not deduped:
                job.add_event("resumed", original_id=entry.job_id,
                              last_state=entry.last_state)
                obs.bump("jobs_resumed")
                resumed.append(job)
        return resumed

    def job(self, job_id: str) -> Job:
        """Job by id (KeyError for unknown ids)."""
        return self.registry.get(job_id)

    async def result(self, job: Job) -> ResultSet:
        """A done job's ResultSet.

        The registry keeps the records of the most recently finished
        jobs; an older job's are re-read from the persistent result
        cache on a worker thread, with the meta recorded at completion.
        Raises ``LookupError`` when the cache no longer holds them all.
        """
        if job.result is not None:
            return job.result
        return await asyncio.to_thread(self._reread_result, job)

    def _reread_result(self, job: Job) -> ResultSet:
        results = self.engine.cache.results
        records = tuple(
            record
            for record in (results.get(cell.content_hash()) for cell in job.spec.cells())
            if record is not None
        )
        if len(records) != job.n_records:
            raise LookupError(
                f"job {job.id}: {len(records)} of its {job.n_records} records "
                "are left in the result cache"
            )
        return ResultSet(records=records, spec=job.spec, meta=job.meta)

    async def cancel(self, job_id: str) -> bool:
        """Cancel a job: a queued one ends at once, a running one at its
        next group boundary.  False for a job that already ended."""
        if not self.registry.cancel(job_id):
            return False
        job = self.registry.get(job_id)
        if job.state == QUEUED:
            await self._end(job, CANCELLED)
        return True

    def _uptime(self) -> float:
        return max(time.monotonic() - self._started, 1e-9)

    def health(self) -> dict:
        """The ``/healthz`` document: uptime and the accepting flag,
        without the cache listing ``/metrics`` makes."""
        return {"status": "ok", "uptime_s": self._uptime(),
                "accepting": self._accepting}

    def metrics_snapshot(self) -> dict:
        """The live ``/metrics`` document.

        The counters are the process-wide registry's (:mod:`repro.obs`):
        the daemon's own, then the recovery counters under a
        ``recovery_`` prefix, all monotonic.  The rates are taken over
        this daemon's uptime; the gauges are the daemon's.
        """
        counts = obs.snapshot()
        uptime = self._uptime()
        serviced = counts["cells_serviced"]
        busy = obs.busy_seconds()
        return {
            **{name: counts[name] for name in obs.SERVICE_COUNTERS},
            "uptime_s": uptime,
            "queue_depth": self.registry.queue_depth(),
            "running_jobs": self.registry.running_count(),
            "workers": self.max_concurrency,
            "cache_hit_rate": counts["cache_hits"] / serviced if serviced else 0.0,
            "cells_per_second": serviced / uptime,
            "jobs_per_second": counts["jobs_completed"] / uptime,
            "worker_busy_s": busy,
            "worker_utilization": min(busy / (uptime * self.max_concurrency), 1.0),
            "job_latency_ms": obs.latency_percentiles(),
            "accepting": self._accepting,
            "backend": getattr(self.engine.backend, "name",
                               type(self.engine.backend).__name__),
            "trace_cache_entries": self.engine.cache.traces.entry_count(),
            **{f"recovery_{name}": counts[name] for name in obs.RECOVERY_COUNTERS},
        }

    # ------------------------------------------------------------------
    # Waiting / event streaming
    # ------------------------------------------------------------------

    async def _notify(self) -> None:
        async with self._changed:
            self._changed.notify_all()

    async def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job reaches a terminal state."""

        async def _until_terminal() -> Job:
            job = self.registry.get(job_id)
            async with self._changed:
                await self._changed.wait_for(lambda: job.is_terminal)
            return job

        return await asyncio.wait_for(_until_terminal(), timeout)

    async def next_events(
        self, job_id: str, since: int, timeout: float | None = None
    ) -> list[dict]:
        """Events after ``since``, waiting for at least one unless the
        job is already terminal (then the remaining tail, possibly [])."""
        job = self.registry.get(job_id)

        async def _poll() -> list[dict]:
            async with self._changed:
                await self._changed.wait_for(
                    lambda: job.is_terminal or job.events_since(since)
                )
            return job.events_since(since)

        return await asyncio.wait_for(_poll(), timeout)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @contextlib.asynccontextmanager
    async def _pass_lock(self, key: tuple):
        """Hold ``key``'s functional-pass lock, dropping the lock once no
        group holds it or waits on it."""
        entry = self._pass_locks.get(key)
        if entry is None:
            entry = self._pass_locks[key] = [asyncio.Lock(), 0]
        entry[1] += 1
        try:
            async with entry[0]:
                yield
        finally:
            entry[1] -= 1
            if entry[1] == 0:
                del self._pass_locks[key]

    async def _run_group(self, job: Job, benchmark: str, seed: int,
                         subspec: ExperimentSpec) -> ResultSet:
        """Run one benchmark-seed group under its functional-pass lock."""
        key = functional_pass_key(next(iter(subspec.cells())))
        loop = asyncio.get_running_loop()
        async with self._pass_lock(key):
            started = time.monotonic()
            results = await loop.run_in_executor(
                self._executor, self.engine.run, subspec
            )
            obs.add_busy(time.monotonic() - started)
        meta = results.meta
        obs.bump("cells_serviced", meta["cells_run"] + meta["cache_hits"])
        obs.bump("cells_run", meta["cells_run"])
        obs.bump("cache_hits", meta["cache_hits"])
        obs.bump("functional_passes", meta["passes_computed"])
        job.add_event(
            "progress", benchmark=benchmark, seed=seed,
            cells=meta["cells"], cache_hits=meta["cache_hits"],
            cells_run=meta["cells_run"], functional_passes=meta["passes_computed"],
        )
        obs.bump("progress_events")
        await self._notify()
        return results

    async def _run_job(self, job: Job) -> None:
        async with self._slots:
            if job.state != QUEUED:  # cancelled while waiting for a slot
                return
            self.registry.start(job)
            obs.bump("jobs_started")
            await self._notify()
            groups: list[ResultSet] = []
            try:
                for benchmark, seed, subspec in subgroup_specs(job.spec):
                    if job.cancel_requested:
                        await self._end(job, CANCELLED)
                        return
                    groups.append(await self._run_group(job, benchmark, seed, subspec))
            except Exception:
                await self._end(job, FAILED, error=traceback.format_exc(limit=8))
                return
            await self._end(job, DONE, result=ResultSet(
                records=tuple(record for group in groups for record in group.records),
                spec=job.spec,
                meta=_job_meta(job.spec, groups),
            ))

    async def _end(self, job: Job, state: str, result: ResultSet | None = None,
                   error: str | None = None) -> None:
        """Book a job's end in one place: mark it, count it, record its
        latency, journal it and wake every waiter."""
        self.registry.end(job, state, result=result, error=error)
        obs.bump(END_COUNTERS[state])
        obs.record_latency(job.latency)
        if self.journal is not None:
            self.journal.record_state(job.id, job.state)
        await self._notify()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait for every admitted job to finish (keeps accepting)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def shutdown(self) -> None:
        """Stop accepting, drain running jobs, release the job threads
        and the worker pool the daemon built."""
        self._accepting = False
        await self.drain()
        self._executor.shutdown(wait=True)
        if self._own_pool is not None:
            await asyncio.to_thread(self._own_pool.close)
        await self._notify()

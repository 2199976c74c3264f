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

Engine execution is synchronous, so groups run on a thread pool sized to
``max_concurrency``; the vectorized kernels spend their time in numpy
(which releases the GIL), so distinct benchmarks' passes genuinely
overlap.  Everything observable — job states, events, metrics — lives on
the event loop thread.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from repro.api.backends import ExecutionBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.api.execution import functional_pass_key
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec
from repro.faults import counters as fault_counters
from repro.service.jobs import (
    DEFAULT_EVENTS_LIMIT,
    DONE,
    FAILED,
    Job,
    JobRegistry,
    QUEUED,
)
from repro.service.journal import JobJournal
from repro.service.metrics import ServiceMetrics

#: Default number of jobs executing concurrently.
DEFAULT_CONCURRENCY = 2


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
        max_concurrency: Jobs executing at once (thread-pool width).
        journal: ``True`` (default) journals admissions and terminal
            states to ``<cache root>/journal/jobs.ndjson`` so
            :meth:`resume` can re-enqueue interrupted jobs after a
            restart; ``False``/``None`` disables journaling; a
            :class:`JobJournal` uses that journal verbatim.
        events_limit: Per-job event-log ring bound (see
            :class:`~repro.service.jobs.Job`).
        backend: Where job groups run (default: in-process serial).  A
            :class:`~repro.dist.backend.WorkQueueBackend` turns daemon
            jobs into queue submissions under the same cache root, which
            any worker fleet sharing the cache can drain.  Concurrent
            jobs share the one backend.
    """

    def __init__(
        self,
        cache: ExperimentCache | str | Path | None = None,
        max_concurrency: int = DEFAULT_CONCURRENCY,
        journal: JobJournal | bool | None = True,
        events_limit: int = DEFAULT_EVENTS_LIMIT,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        self.engine = Engine(
            backend=backend,
            cache=cache if isinstance(cache, ExperimentCache) else ExperimentCache(cache),
        )
        self.max_concurrency = max_concurrency
        if journal is True:
            journal = JobJournal.for_cache_root(self.engine.cache.root)
        elif journal is False:
            journal = None
        self.journal = journal
        self.registry = JobRegistry(
            events_limit=events_limit,
            on_drop=self._on_events_dropped,
        )
        self.metrics = ServiceMetrics()
        self._slots = asyncio.Semaphore(max_concurrency)
        self._pass_locks: dict[tuple, asyncio.Lock] = {}
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
        self.metrics.record_job_submitted(deduplicated=deduped)
        if not deduped:
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
                self.metrics.record_job_resumed()
                resumed.append(job)
        return resumed

    def _journal_state(self, job: Job) -> None:
        """Append a terminal transition to the journal (if enabled)."""
        if self.journal is not None:
            self.journal.record_state(job.id, job.state)

    def _on_events_dropped(self, amount: int) -> None:
        self.metrics.record_events_dropped(amount)

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
        """Cancel a job; running jobs stop at the next group boundary."""
        cancelled = self.registry.cancel(job_id)
        if cancelled and self.registry.get(job_id).is_terminal:
            self.metrics.record_job_finished(
                "cancelled", latency_s=self.registry.get(job_id).latency
            )
            self._journal_state(self.registry.get(job_id))
        await self._notify()
        return cancelled

    def metrics_snapshot(self) -> dict:
        """The live ``/metrics`` document.

        Alongside the service's own counters, the process-global fault
        recovery counters (:mod:`repro.faults.counters`) are merged in
        under a ``recovery_`` prefix — worker retries, pool rebuilds,
        quarantined artifacts, and friends, monotonic and scrapeable.
        """
        recovery = {
            f"recovery_{name}": value
            for name, value in fault_counters.snapshot().items()
        }
        backend_name = getattr(
            self.engine.backend, "name", type(self.engine.backend).__name__
        )
        return self.metrics.snapshot(
            queue_depth=self.registry.queue_depth(),
            running_jobs=self.registry.running_count(),
            workers=self.max_concurrency,
            extra={
                "accepting": self._accepting,
                "backend": backend_name,
                **self._cache_gauges(),
                **recovery,
            },
        )

    def _cache_gauges(self) -> dict:
        traces = self.engine.cache.traces
        return {"trace_cache_entries": traces.entry_count()}

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

    def _pass_lock(self, key: tuple) -> asyncio.Lock:
        lock = self._pass_locks.get(key)
        if lock is None:
            lock = self._pass_locks[key] = asyncio.Lock()
        return lock

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
            self.metrics.record_busy(time.monotonic() - started)
        meta = results.meta
        self.metrics.record_cells(
            run=meta["cells_run"], hits=meta["cache_hits"],
            functional_passes=meta["passes_computed"],
        )
        job.add_event(
            "progress", benchmark=benchmark, seed=seed,
            cells=meta["cells"], cache_hits=meta["cache_hits"],
            cells_run=meta["cells_run"], functional_passes=meta["passes_computed"],
        )
        self.metrics.record_progress_event()
        await self._notify()
        return results

    async def _run_job(self, job: Job) -> None:
        async with self._slots:
            if job.state != QUEUED:  # cancelled while waiting for a slot
                return
            job.mark_running()
            self.metrics.record_job_started()
            await self._notify()
            records: list = []
            cache_hits = cells_run = passes = 0
            try:
                for benchmark, seed, subspec in subgroup_specs(job.spec):
                    if job.cancel_requested:
                        job.mark_cancelled()
                        self.metrics.record_job_finished("cancelled", job.latency)
                        self._journal_state(job)
                        await self._notify()
                        return
                    results = await self._run_group(job, benchmark, seed, subspec)
                    records.extend(results.records)
                    cache_hits += results.meta["cache_hits"]
                    cells_run += results.meta["cells_run"]
                    passes += results.meta["passes_computed"]
            except Exception:
                job.mark_failed(traceback.format_exc(limit=8))
                self.metrics.record_job_finished(FAILED, job.latency)
                self._journal_state(job)
                await self._notify()
                return
            self.registry.finish(job, ResultSet(
                records=tuple(records),
                spec=job.spec,
                meta={
                    "backend": "service",
                    "cells": len(records),
                    "cache_hits": cache_hits,
                    "cells_run": cells_run,
                    "passes_computed": passes,
                },
            ))
            self.metrics.record_job_finished(DONE, job.latency)
            self._journal_state(job)
            await self._notify()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait for every admitted job to finish (keeps accepting)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def shutdown(self) -> None:
        """Stop accepting, drain running jobs, release the thread pool."""
        self._accepting = False
        await self.drain()
        self._executor.shutdown(wait=True)
        await self._notify()

"""The distributed worker: claim a task, execute its cells, repeat.

A worker is a plain process (``repro dist worker --cache DIR --queue
ID``) that needs nothing but the shared cache directory.  Its loop:

1. publish a heartbeat document (observability, not correctness),
2. reap any expired lease it notices (every worker is also a reaper,
   so recovery needs no dedicated coordinator process),
3. claim one task; if none is claimable, idle briefly and retry,
4. execute the task's cells through the ordinary batched execution
   path, which persists the task's records into the content-addressed
   result cache as one batch,
5. mark the task done with its pass count and go back to 3.

While a task executes, a daemon thread renews the lease every
``ttl / 3`` seconds.  If a renewal is refused — the lease expired or
changed hands during a long stall — the worker keeps executing (the
records it writes are byte-identical to whatever the new owner writes)
but leaves the completion bookkeeping to the live owner.

Crash safety falls out of ordering: records are persisted before the
done marker, and the done marker before the lease release, so a SIGKILL
at any instant loses at most the *uncached* cells of one task — which
the reaped lease then hands to another worker.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path

from repro.api.cache import ExperimentCache
from repro.api.execution import execute_cells_batch
from repro.dist.queue import Claim, WorkQueue
from repro.faults.plan import fault_point
from repro.sim.simulator import count_passes

#: Idle sleep between claim attempts when nothing is claimable.
DEFAULT_IDLE_POLL_S = 0.05

#: Exit statuses (observable via ``repro dist workers``).
STATUS_IDLE = "idle"
STATUS_RUNNING = "running"
STATUS_DONE = "done"


def default_worker_id() -> str:
    """``host-pid`` — unique per live process, stable for its lifetime."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _LeaseRenewer:
    """Daemon thread renewing one claim until stopped or refused."""

    def __init__(self, queue: WorkQueue, claim: Claim, interval_s: float) -> None:
        self._queue = queue
        self._claim = claim
        self._interval_s = interval_s
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_LeaseRenewer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval_s * 4 + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            fault_point("dist-heartbeat")
            if self._queue.renew(self._claim.task_id, self._claim.worker_id) is None:
                self.lost = True
                return


class Worker:
    """One claim-execute-complete loop over a queue.

    Args:
        cache: The shared experiment cache (results and traces both
            land here — it *is* the distributed artifact store).
        queue: The task board to drain.
        worker_id: Stable identity for leases and heartbeats
            (default: ``host-pid``).
        idle_poll_s: Sleep between claim attempts while the board has
            live leases elsewhere but nothing claimable.
        max_tasks: Optional cap on completed tasks (tests; drain-one
            semantics).  None means run until the queue finishes.
    """

    def __init__(
        self,
        cache: ExperimentCache,
        queue: WorkQueue,
        worker_id: str | None = None,
        idle_poll_s: float = DEFAULT_IDLE_POLL_S,
        max_tasks: int | None = None,
    ) -> None:
        self.cache = cache
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        self.idle_poll_s = idle_poll_s
        self.max_tasks = max_tasks
        self.tasks_completed = 0
        self.cells_executed = 0

    def _heartbeat(self, status: str, task_id: str = "") -> None:
        try:
            self.queue.record_worker(
                self.worker_id,
                status=status,
                task=task_id,
                pid=os.getpid(),
                tasks_completed=self.tasks_completed,
                cells_executed=self.cells_executed,
            )
        except OSError:
            pass  # heartbeats are observability, never worth dying for

    def run_one(self) -> bool:
        """Claim and finish (or fail) at most one task.

        Returns True when a task was claimed — completed, released after
        an executor error, or abandoned after losing its lease — and
        False when nothing was claimable this pass.
        """
        self.queue.reap_expired()
        claim = self.queue.claim(self.worker_id)
        if claim is None:
            return False
        self._heartbeat(STATUS_RUNNING, task_id=claim.task_id)
        interval = self.queue.lease_ttl_s / 3.0
        try:
            with _LeaseRenewer(self.queue, claim, interval) as renewer:
                for _ in claim.task.cells:
                    # The chaos plans' kill site: one arming per cell, so
                    # "die at cell K of a distributed worker" is exact.
                    fault_point("dist-cell")
                with count_passes() as passes:
                    records = execute_cells_batch(claim.task.cells, self.cache)
                self.cells_executed += len(records)
        except Exception as exc:  # noqa: BLE001 — any cell failure requeues
            self.queue.release_failed(
                claim.task_id, self.worker_id, error=f"{type(exc).__name__}: {exc}"
            )
            return True
        if renewer.lost:
            # The lease expired mid-run; the task was requeued and may be
            # owned elsewhere.  Our records are already persisted (and
            # byte-identical to the new owner's), but completion belongs
            # to whoever holds the live lease now.
            return True
        self.queue.complete(claim.task_id, self.worker_id, passes=passes.n)
        self.tasks_completed += 1
        return True

    def run(self) -> int:
        """Drain the queue; returns the number of tasks this worker
        completed.  Exits when the board is finished (or ``max_tasks``
        is reached), never on transient claim droughts."""
        self._heartbeat(STATUS_IDLE)
        while not self.queue.finished():
            if self.max_tasks is not None and self.tasks_completed >= self.max_tasks:
                break
            progressed = self.run_one()
            if not progressed:
                self._heartbeat(STATUS_IDLE)
                time.sleep(self.idle_poll_s)
        self._heartbeat(STATUS_DONE)
        return self.tasks_completed


def run_worker(
    cache_dir: str | Path,
    queue_id: str,
    worker_id: str | None = None,
    lease_ttl_s: float | None = None,
    max_attempts: int | None = None,
    idle_poll_s: float = DEFAULT_IDLE_POLL_S,
    max_tasks: int | None = None,
) -> int:
    """CLI entry point: drain one queue under a fresh Worker.

    Queue tuning parameters (``lease_ttl_s``, ``max_attempts``) default
    to the :class:`WorkQueue` defaults; nothing is persisted at submit
    time because nothing needs to be — the queue directory layout is
    self describing, and TTL/attempt knobs only shape *this worker's*
    behavior, so they are safe to vary per worker.
    """
    from repro.dist.queue import QUEUE_SUBDIR

    cache = ExperimentCache(cache_dir)
    kwargs: dict = {}
    if lease_ttl_s is not None:
        kwargs["lease_ttl_s"] = lease_ttl_s
    if max_attempts is not None:
        kwargs["max_attempts"] = max_attempts
    queue = WorkQueue(Path(cache.root) / QUEUE_SUBDIR / queue_id, **kwargs)
    if not queue.task_ids():
        raise FileNotFoundError(
            f"no queue {queue_id!r} under {cache.root} (expected tasks in "
            f"{queue.root / 'tasks'})"
        )
    worker = Worker(
        cache, queue, worker_id=worker_id,
        idle_poll_s=idle_poll_s, max_tasks=max_tasks,
    )
    return worker.run()

"""`WorkQueueBackend`: the distributed execution backend.

Implements the same :class:`~repro.api.backends.ExecutionBackend`
contract as Serial/ProcessPool, but instead of owning its workers'
lifetimes it *coordinates a task board*: cells become queue tasks under
the shared cache root, worker processes (forked locally by default, or
already running on other hosts) claim them through the lease protocol,
and the backend's coordinator loop reaps expired leases, requeues or
poisons their tasks, replaces dead local workers, and finally assembles
records straight from the content-addressed result cache.

That last step is the core correctness property: the backend never
receives results *from* workers over any channel — the result cache IS
the channel.  Whatever chaos the workers endured, the records the
engine sees are exactly the cache entries keyed by each cell's content
hash, which is why a distributed sweep's ResultSet digest is
byte-identical to a serial run's.

Killing every worker mid-sweep costs nothing durable: re-running the
same spec re-creates the same content-addressed queue, the engine has
already filtered out cells whose records were persisted before the
massacre, and only the genuinely-unfinished remainder executes.

Local workers are ``multiprocessing`` processes forked from a
process-wide forkserver that has preloaded :data:`WORKER_PRELOAD`, so
interpreter start and imports are paid once per calling process, not
once per worker per run, and no worker is forked from a caller that
runs threads (the daemon's job threads share one backend).  Like spawn,
a forkserver child imports the caller's ``__main__`` as
``__mp_main__``: a script that drives this backend must guard its entry
point with ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Callable, Sequence

from repro.api.backends import worker_start_method
from repro.api.cache import ExperimentCache
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.dist.queue import WorkQueue
from repro.dist.worker import Worker, run_worker
from repro.faults.plan import FAULT_PLAN_ENV
from repro.sim.simulator import add_passes

#: Default local worker fleet size.
DEFAULT_DIST_WORKERS = 2

#: Coordinator poll interval (reap + respawn + finished check).
DEFAULT_COORDINATOR_POLL_S = 0.05

#: Replacement workers the coordinator may spawn beyond the initial
#: fleet before concluding that workers are dying deterministically.
DEFAULT_MAX_RESPAWNS = 8

#: Modules the forkserver imports before it forks any local worker: the
#: worker loop, and what a worker's first task imports lazily.
WORKER_PRELOAD = ("repro.dist.worker", "repro.cache.vectorized", "numpy.random")


def spawn_worker_process(
    cache_root: str | Path,
    queue_id: str,
    worker_id: str,
    lease_ttl_s: float,
    max_attempts: int,
    log_dir: Path | None = None,
) -> subprocess.Popen:
    """Launch one ``repro dist worker`` subprocess against a queue.

    Uses ``sys.executable -m repro`` with ``src/`` prepended to
    ``PYTHONPATH`` so it works from any CWD, installed or not — the same
    invocation an operator would run by hand on another host.  The
    backend's own local fleet forks from the preloaded server instead
    (:func:`start_local_worker`).
    """
    import repro

    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "repro", "dist", "--cache", str(cache_root),
        "worker", "--queue", queue_id,
        "--worker-id", worker_id,
        "--lease-ttl", str(lease_ttl_s),
        "--max-attempts", str(max_attempts),
    ]
    stdout = subprocess.DEVNULL
    if log_dir is not None:
        log_dir.mkdir(parents=True, exist_ok=True)
        stdout = open(log_dir / f"{worker_id}.log", "ab")
    try:
        return subprocess.Popen(
            cmd, env=env, stdout=stdout, stderr=subprocess.STDOUT
        )
    finally:
        if stdout is not subprocess.DEVNULL:
            stdout.close()


def _local_worker_main(
    cache_root: str,
    queue_id: str,
    worker_id: str,
    lease_ttl_s: float,
    max_attempts: int,
    fault_plan: str | None,
    log_path: str,
) -> None:
    """Body of a forked local worker.

    A forkserver child has the environment and file descriptors the
    server started with, not the caller's current ones, so it takes the
    caller's fault plan and its own log file from its arguments.
    """
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    if fault_plan is None:
        os.environ.pop(FAULT_PLAN_ENV, None)
    else:
        os.environ[FAULT_PLAN_ENV] = fault_plan
    run_worker(
        cache_root, queue_id, worker_id=worker_id,
        lease_ttl_s=lease_ttl_s, max_attempts=max_attempts,
    )


def start_local_worker(
    cache_root: str | Path,
    queue_id: str,
    worker_id: str,
    lease_ttl_s: float,
    max_attempts: int,
    log_dir: Path,
) -> BaseProcess:
    """Fork one local worker from the preloaded server and start it.

    The worker runs :func:`~repro.dist.worker.run_worker` against the
    queue, under the fault plan active in the caller now, and writes
    its output to ``log_dir/<worker_id>.log``.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    context = multiprocessing.get_context(worker_start_method())
    # Read only when the server starts: once it runs, this does nothing.
    context.set_forkserver_preload(list(WORKER_PRELOAD))
    proc = context.Process(
        target=_local_worker_main,
        args=(str(cache_root), queue_id, worker_id, lease_ttl_s, max_attempts,
              os.environ.get(FAULT_PLAN_ENV), str(log_dir / f"{worker_id}.log")),
        name=worker_id,
        daemon=True,
    )
    proc.start()
    return proc


class WorkQueueBackend:
    """Distributed execution over a filesystem work queue.

    Args:
        workers: Local worker processes each run forks.  0 drains the
            queue with an in-process :class:`Worker`; workers launched
            elsewhere on the same cache may claim tasks alongside it.
        lease_ttl_s: Lease TTL handed to queue and workers.
        max_attempts: Failed claims before a task poisons.
        poll_s: Coordinator loop interval.
        wait_timeout_s: Hard wall-clock cap on one ``run_cells`` call;
            None (default) trusts the poison threshold and the respawn
            budget to end the run.
        clock: Injectable time source for coordinator timeouts (tests).
    """

    name = "work_queue"
    #: Records come back out of ``cache.results``, where the workers
    #: wrote them; the engine must not write them again.
    records_from_cache = True

    def __init__(
        self,
        workers: int = DEFAULT_DIST_WORKERS,
        lease_ttl_s: float | None = None,
        max_attempts: int | None = None,
        poll_s: float = DEFAULT_COORDINATOR_POLL_S,
        wait_timeout_s: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers cannot be negative, got {workers}")
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self.poll_s = poll_s
        self.wait_timeout_s = wait_timeout_s
        self.clock = clock
        #: The queue of the most recent run (status inspection).
        self.queue: WorkQueue | None = None

    def _queue_kwargs(self) -> dict:
        kwargs: dict = {}
        if self.lease_ttl_s is not None:
            kwargs["lease_ttl_s"] = self.lease_ttl_s
        if self.max_attempts is not None:
            kwargs["max_attempts"] = self.max_attempts
        return kwargs

    def _start(self, cache: ExperimentCache, queue: WorkQueue, index: int
               ) -> BaseProcess:
        worker_id = f"local-{os.getpid()}-{index}"
        return start_local_worker(
            cache.root,
            queue.root.name,
            worker_id,
            lease_ttl_s=queue.lease_ttl_s,
            max_attempts=queue.max_attempts,
            log_dir=queue.root / "logs",
        )

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord | None]:
        """Submit cells as a queue, coordinate to completion, assemble.

        Requires a persistent cache: it is the shared artifact store the
        whole design rests on.
        """
        if cache is None:
            raise ValueError(
                "WorkQueueBackend requires a persistent ExperimentCache — "
                "the content-addressed cache is the channel workers return "
                "results through (construct the Engine with cache=...)"
            )
        cells = list(cells)
        if not cells:
            return []
        queue = WorkQueue.for_cells(cache.root, cells, **self._queue_kwargs())
        self.queue = queue
        # The engine dispatches only cells it needs executed, so a board
        # reattached from an earlier run re-runs its done tasks.
        for task_id in queue.task_ids():
            queue.reopen(task_id)
        if self.workers == 0:
            Worker(cache, queue, worker_id=f"inline-{os.getpid()}").run()
        else:
            self._coordinate(cache, queue)
        add_passes(queue.passes_computed())
        return self._assemble(cells, cache, queue)

    def _coordinate(self, cache: ExperimentCache, queue: WorkQueue) -> None:
        """Start this run's local fleet and babysit the board to completion.

        The fleet lives in this call, so runs sharing one backend (the
        daemon's job threads) never replace or stop each other's workers.
        Only *whether* a worker exited is read, never its exit code:
        multiprocessing's child cleanup may poll any run's workers from
        another thread, and a forkserver child polled twice at once can
        report 255 in either caller.
        """
        procs = [self._start(cache, queue, index) for index in range(self.workers)]
        respawns = 0
        started = self.clock()
        try:
            while not queue.finished():
                if (
                    self.wait_timeout_s is not None
                    and self.clock() - started > self.wait_timeout_s
                ):
                    raise TimeoutError(
                        f"queue {queue.root.name} unfinished after "
                        f"{self.wait_timeout_s:.1f}s: {queue.stats()}"
                    )
                queue.reap_expired()
                exited = [i for i, proc in enumerate(procs) if proc.exitcode is not None]
                if exited and queue.finished():
                    break  # workers exit on their own once the board finishes
                if len(exited) == len(procs) and respawns >= DEFAULT_MAX_RESPAWNS:
                    raise RuntimeError(
                        f"queue {queue.root.name}: every local worker exited and "
                        f"all {DEFAULT_MAX_RESPAWNS} respawns are spent, but the "
                        f"board is unfinished (worker logs: {queue.root / 'logs'}; "
                        f"board: {queue.stats()})"
                    )
                for index in exited[: DEFAULT_MAX_RESPAWNS - respawns]:
                    respawns += 1
                    procs[index] = self._start(cache, queue, self.workers + respawns)
                time.sleep(self.poll_s)
        finally:
            for proc in procs:
                if proc.exitcode is None:
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.exitcode is None:
                    proc.kill()
                    proc.join(timeout=5.0)

    @staticmethod
    def _assemble(
        cells: list[Cell], cache: ExperimentCache, queue: WorkQueue
    ) -> list[RunRecord | None]:
        """Read every cell's record out of the result cache.

        A ``None`` entry means the cell's task poisoned (the engine
        reports it in ``meta["cells_poisoned"]``) — or, vanishingly, that
        a completed task's record was quarantined as corrupt between the
        worker's write and this read; either way the sweep completes and
        the loss is visible.
        """
        return [cache.results.get(cell.content_hash()) for cell in cells]

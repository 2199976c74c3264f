"""`WorkQueueBackend`: the distributed execution backend.

Implements the same :class:`~repro.api.backends.ExecutionBackend`
contract as Serial/ProcessPool, but instead of owning its workers'
lifetimes it *coordinates a task board*: cells become queue tasks under
the shared cache root, worker processes (spawned locally by default, or
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
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.api.cache import ExperimentCache
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.dist.queue import WorkQueue
from repro.dist.worker import Worker
from repro.sim.simulator import add_passes

#: Default local worker fleet size.
DEFAULT_DIST_WORKERS = 2

#: Coordinator poll interval (reap + respawn + finished check).
DEFAULT_COORDINATOR_POLL_S = 0.05

#: Replacement workers the coordinator may spawn beyond the initial
#: fleet before concluding that workers are dying deterministically.
DEFAULT_MAX_RESPAWNS = 8


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
    invocation an operator would run by hand on another host.
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


class WorkQueueBackend:
    """Distributed execution over a filesystem work queue.

    Args:
        workers: Local worker processes each run spawns.  0 drains the
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

    def _spawn(self, cache: ExperimentCache, queue: WorkQueue, index: int
               ) -> subprocess.Popen:
        worker_id = f"local-{os.getpid()}-{index}"
        return spawn_worker_process(
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
        """Spawn this run's local fleet and babysit the board to completion.

        The fleet lives in this call, so runs sharing one backend (the
        daemon's job threads) never replace or stop each other's workers.
        """
        procs = [self._spawn(cache, queue, index) for index in range(self.workers)]
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
                exited = [i for i, proc in enumerate(procs) if proc.poll() is not None]
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
                    procs[index] = self._spawn(cache, queue, self.workers + respawns)
                time.sleep(self.poll_s)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)

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

"""Pluggable execution backends for the experiment engine.

A backend turns a list of independent spec cells into run records and,
given a cache, persists them.  Both built-ins produce identical records
for identical cells (see :mod:`repro.api.execution` on determinism);
they differ only in where the work happens:

- :class:`SerialBackend` — in this process, sharing functional passes
  through the simulator's process-wide memo.
- :class:`ProcessPoolBackend` — shards cells across a warm pool of
  worker processes it keeps for its lifetime.  Cells are deterministic
  and independent, so sharding needs no coordination; the persistent
  cache (when the engine has one) lets workers share functional passes
  through the filesystem, and each worker writes its group's records.

Every worker process repro starts — the pool's, and the work queue's
local workers (:mod:`repro.dist.backend`) — comes from
:func:`worker_context`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import Protocol, Sequence

from repro import obs
from repro.api.cache import ExperimentCache
from repro.api.execution import (
    _execute_batch_in_worker,
    execute_cells_batch,
    functional_pass_key,
)
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.faults.plan import FAULT_PLAN_ENV
from repro.sim.simulator import add_passes
from repro.util.backoff import full_jitter

#: Attempts a batch gets before its cells are quarantined as poison.
DEFAULT_MAX_BATCH_ATTEMPTS = 3

#: First retry backoff; doubles per retry round, capped below.
DEFAULT_RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: Modules the forkserver imports before it forks any worker: the queue
#: worker loop (which imports the pool's batch entry point), and what a
#: worker's first batch imports lazily.
WORKER_PRELOAD = ("repro.dist.worker", "repro.cache.vectorized", "numpy.random")

#: Serialises the temporary ``PYTHONPATH`` edit around a server start.
_SERVER_ENV_LOCK = threading.Lock()


def worker_start_method() -> str:
    """Start method for repro's worker processes.

    ``forkserver`` where available, else ``spawn``.  The pool backend
    and the work queue both run on a daemon's job threads, and forking a
    threaded process is unsafe, so their workers fork from a
    single-threaded server instead (see :func:`worker_context`).
    """
    return "forkserver" if "forkserver" in get_all_start_methods() else "spawn"


def src_pythonpath(current: str | None) -> str:
    """``current`` with the directory that holds the repro package first."""
    import repro

    src_root = Path(repro.__file__).resolve().parent.parent
    return os.pathsep.join([str(src_root)] + ([current] if current else []))


def worker_context() -> BaseContext:
    """The ``multiprocessing`` context every repro worker starts from.

    Under ``forkserver`` this also makes sure the process-wide server
    runs, preloaded with :data:`WORKER_PRELOAD`, so interpreter start and
    imports are paid once per calling process, not once per worker.  The
    server is a fresh interpreter that inherits the environment but not
    the caller's ``sys.path`` (``multiprocessing.forkserver.main`` drops
    its ``sys_path`` argument), so it starts with repro's source root on
    ``PYTHONPATH``, as :func:`repro.dist.backend.spawn_worker_process`
    gives its subprocesses.  Otherwise a caller that found repro by
    editing ``sys.path`` would get a server whose preload fails
    silently, and every worker would import repro again after the fork.

    Like spawn, a forkserver child imports the caller's ``__main__`` as
    ``__mp_main__``: a script that drives the pool or the queue must
    guard its entry point with ``if __name__ == "__main__":``.
    """
    context = multiprocessing.get_context(worker_start_method())
    # Read only when the server starts: once it runs, this does nothing.
    context.set_forkserver_preload(list(WORKER_PRELOAD))
    if context.get_start_method() == "forkserver":
        from multiprocessing import forkserver

        with _SERVER_ENV_LOCK:
            saved = os.environ.get("PYTHONPATH")
            os.environ["PYTHONPATH"] = src_pythonpath(saved)
            try:
                forkserver.ensure_running()
            finally:
                if saved is None:
                    del os.environ["PYTHONPATH"]
                else:
                    os.environ["PYTHONPATH"] = saved
    return context


class ExecutionBackend(Protocol):
    """Anything that can run a batch of cells.

    Returned records align with ``cells`` by index.  An entry may be
    ``None`` when the backend quarantined that cell as poison after
    repeated worker crashes — the engine drops those from the ResultSet
    and reports them in ``meta["cells_poisoned"]``.  Given a ``cache``,
    the backend persists every record it computes by running its groups
    through :func:`~repro.api.execution.execute_cells_batch`; the engine
    writes nothing.
    """

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord | None]: ...


class SerialBackend:
    """In-process execution, batching replays per (benchmark, seed).

    Every cell routes through
    :func:`~repro.api.execution.execute_cells_batch`, which replays every
    scheme of one benchmark-seed group with a single routed
    :func:`~repro.sim.timing.run_timing_batch` call — records stay
    bit-identical to cell-at-a-time execution, in input order.
    """

    name = "serial"

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord]:
        """Execute every cell in this process."""
        return execute_cells_batch(cells, cache)


@dataclass
class _BatchState:
    """One cell group's dispatch state across pool-crash retries."""

    indices: list[int]
    batch: list[Cell]
    attempts: int = 0
    records: list[RunRecord] | None = None
    poisoned: bool = field(default=False)


def _fork_first_worker(pool: ProcessPoolExecutor, warm: Future) -> None:
    """Fork ``pool``'s first worker, then resolve ``warm`` to ``pool``."""
    with contextlib.suppress(Exception):
        # Runs meet whatever stopped the fork again when they submit.
        pool.submit(os.getpid).result()
    warm.set_result(pool)


class ProcessPoolBackend:
    """Shard cells across a warm pool of worker processes, surviving
    worker crashes.

    Cells are grouped by functional-pass identity (benchmark, input,
    seed, budget) and each group runs in one worker, so the expensive
    functional pass is computed exactly once per benchmark — the same
    B-passes + B*S-replays invariant the serial path has.  Parallelism
    is therefore across benchmarks/seeds, which is where the work is.

    Deterministic per-cell seeding makes the shards order-independent:
    the engine sorts records canonically, so a pool run's ResultSet is
    identical to a serial run's for the same spec.

    **The warm pool.**  The backend keeps one pool of up to
    ``max_workers`` processes for its lifetime, so a run pays no
    interpreter start, import or fork, and the job threads of a daemon
    can share it.  The first run creates the pool and forks its first
    worker in the background, from the preloaded forkserver
    (:func:`worker_context`); more workers fork as groups find none
    idle, so a run of G groups starts at most G of them.  Until the
    first worker is up (about 0.25 s with a cold forkserver), a run of
    one group runs in the caller, as a one-worker run does, and a run of
    several groups waits for it.  Workers see neither the caller's pass
    memo nor its environment: with a cache they read passes from the
    trace store and write their records to the result store, and each
    batch carries the caller's active fault plan.
    :meth:`close` (or leaving a ``with`` block) stops the workers; a
    later run starts a new pool.

    **Crash recovery.**  A worker death (segfault, OOM kill, fault
    injection) surfaces as :class:`BrokenProcessPool` in every run that
    shares the pool.  The run that retires the broken pool counts one
    ``pool_rebuilds``, and the next run starts a fresh pool.  A shared
    pool's break condemns every in-flight group, innocent or not, so it
    charges none of them an attempt: each affected run re-runs its lost
    groups with capped exponential backoff, one fresh single-group pool
    per group, where attribution is exact.  After ``max_batch_attempts``
    crashes on a pool of its own a group's cells are quarantined as
    *poison*: their records come back ``None``, the rest of the sweep
    completes, and ``cells_poisoned`` counts the loss.  Completed groups
    are never re-run, so recovery adds zero redundant work beyond the
    crashed cells themselves.

    Args:
        max_workers: Pool size (>= 1; default: ``os.cpu_count()``).  One
            worker runs every group inline, with no pool.
        max_batch_attempts: Worker crashes on a single-group pool a
            group survives before its cells are poisoned (>= 1).
        retry_backoff_s: Retry-delay scale: each retry round sleeps a
            full-jitter delay drawn from ``[0, min(retry_backoff_s *
            2^round, RETRY_BACKOFF_CAP_S)]``.
    """

    name = "process_pool"

    def __init__(
        self,
        max_workers: int | None = None,
        max_batch_attempts: int = DEFAULT_MAX_BATCH_ATTEMPTS,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_batch_attempts < 1:
            raise ValueError(f"max_batch_attempts must be >= 1, got {max_batch_attempts}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s cannot be negative, got {retry_backoff_s}")
        self.max_workers = max_workers
        self.max_batch_attempts = max_batch_attempts
        self.retry_backoff_s = retry_backoff_s
        self._lock = threading.Lock()
        #: Resolves to the shared pool once its first worker is up; None
        #: before the first run, after a break and after :meth:`close`.
        self._warm: Future | None = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the pool's workers and wait for them to exit."""
        warm = self._warm
        if warm is not None:
            self._retire(warm)

    def _width(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers, mp_context=worker_context())

    def _shared_pool(self) -> Future:
        """The future of the pool every run shares; the first call
        creates the pool and forks its first worker in the background."""
        with self._lock:
            if self._warm is None:
                pool = self._make_pool(self._width())
                self._warm = Future()
                threading.Thread(
                    target=_fork_first_worker, args=(pool, self._warm),
                    name="repro-pool-start", daemon=True,
                ).start()
            return self._warm

    def _retire(self, warm: Future) -> bool:
        """Stop ``warm``'s pool if it is still the shared one, so the
        next run starts a fresh one; True when this call stopped it."""
        with self._lock:
            if self._warm is not warm:
                return False
            self._warm = None
        pool = warm.result()
        # The executor forks workers on demand.  A worker forked while
        # the pool breaks is missed by the executor's own clean-up, which
        # then waits for it forever (CPython 3.11), so ``shutdown(wait=
        # True)`` could hang.  Stop and reap every worker here instead;
        # ``shutdown`` first waits for any fork in progress to register.
        workers = pool._processes
        pool.shutdown(wait=False)
        for worker in list(workers.values()):
            worker.terminate()
            worker.join()
        return True

    @staticmethod
    def _dispatch_round(
        pool: ProcessPoolExecutor,
        states: list[_BatchState],
        cache_root: str | None,
        fault_plan: str | None,
    ) -> list[_BatchState]:
        """Run ``states`` on ``pool``; returns the groups that crashed.

        Passes computed by a worker that then crashed are not counted.
        """
        futures = []
        crashed: list[_BatchState] = []
        for state in states:
            try:
                futures.append((state, pool.submit(
                    _execute_batch_in_worker, state.batch, cache_root, fault_plan,
                )))
            except BrokenProcessPool:
                crashed.append(state)
        for state, future in futures:
            try:
                state.records, passes = future.result()
            except BrokenProcessPool:
                crashed.append(state)
            else:
                add_passes(passes)
        return crashed

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord | None]:
        """Execute cells on the pool, preserving submission order."""
        cells = list(cells)
        if not cells:
            return []
        if self._width() == 1:
            # A one-worker pool is pure overhead; run inline instead.
            return SerialBackend().run_cells(cells, cache)
        groups: dict[tuple, list[int]] = {}
        for index, cell in enumerate(cells):
            groups.setdefault(functional_pass_key(cell), []).append(index)
        warm = self._shared_pool()
        if len(groups) == 1 and not warm.done():
            # A lone group does not wait for a starting pool: it runs
            # here, as a one-worker run does.  A run of several groups
            # waits, so its compute stays out of the caller's memory.
            return SerialBackend().run_cells(cells, cache)
        cache_root = str(cache.root) if cache else None
        states = [
            _BatchState(indices=indices, batch=[cells[i] for i in indices])
            for indices in groups.values()
        ]
        # Workers do not see this process's environment: each batch
        # carries the active fault plan.
        fault_plan = os.environ.get(FAULT_PLAN_ENV)
        pending = self._dispatch_round(warm.result(), states, cache_root, fault_plan)
        if pending and self._retire(warm):
            obs.bump("pool_rebuilds")
        retry_round = 0
        while pending:
            survivors: list[_BatchState] = []
            for state in pending:
                if state.attempts >= self.max_batch_attempts:
                    # Deterministic crasher: quarantine the group as
                    # poison instead of aborting the whole sweep.
                    state.poisoned = True
                    obs.bump("cells_poisoned", len(state.batch))
                    warnings.warn(
                        f"ProcessPoolBackend: poisoned {len(state.batch)} cell(s) "
                        f"of group {functional_pass_key(state.batch[0])} after "
                        f"{state.attempts} worker crashes",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    obs.bump("worker_retries")
                    survivors.append(state)
            if not survivors:
                break
            if self.retry_backoff_s:
                # Full jitter: concurrent sweeps whose pools broke on
                # the same event (OOM killer, host pressure) would
                # otherwise retry in lockstep (repro.util.backoff).
                time.sleep(full_jitter(
                    self.retry_backoff_s, retry_round, RETRY_BACKOFF_CAP_S
                ))
            retry_round += 1
            # One single-group pool per crashed batch: exact failure
            # attribution, so only these pools charge attempts.
            pending = []
            for state in survivors:
                state.attempts += 1
                with self._make_pool(1) as pool:
                    pending.extend(
                        self._dispatch_round(pool, [state], cache_root, fault_plan)
                    )
            if pending:
                obs.bump("pool_rebuilds")
        records: list[RunRecord | None] = [None] * len(cells)
        for state in states:
            if state.records is None:
                continue
            for index, record in zip(state.indices, state.records):
                records[index] = record
        return records

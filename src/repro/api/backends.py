"""Pluggable execution backends for the experiment engine.

A backend turns a list of independent spec cells into run records.  Both
built-ins produce identical records for identical cells (see
:mod:`repro.api.execution` on determinism); they differ only in where the
work happens:

- :class:`SerialBackend` — in this process, sharing functional passes
  through the simulator's process-wide memo.
- :class:`ProcessPoolBackend` — shards cells across worker processes.
  Cells are deterministic and independent, so sharding needs no
  coordination; the persistent trace cache (when the engine has one)
  lets workers share functional passes through the filesystem.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Protocol, Sequence

from repro.api.cache import ExperimentCache
from repro.api.execution import (
    _execute_batch_in_worker,
    execute_cells_batch,
    functional_pass_key,
)
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.faults import counters
from repro.sim.simulator import add_passes
from repro.util.backoff import full_jitter

#: Attempts a batch gets before its cells are quarantined as poison.
DEFAULT_MAX_BATCH_ATTEMPTS = 3

#: First retry backoff; doubles per retry round, capped below.
DEFAULT_RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0


def default_start_method() -> str:
    """Preferred multiprocessing start method on this platform.

    ``fork`` where available (cheap on Linux — workers inherit warm
    module state), else ``spawn``.  Shared by every pool consumer
    (:class:`ProcessPoolBackend`, the tenancy sweep) so platform
    fallback logic lives in one place, beside
    :func:`worker_start_method`.
    """
    return "fork" if "fork" in get_all_start_methods() else "spawn"


def worker_start_method() -> str:
    """Start method for the work queue's local workers.

    ``forkserver`` where available, else ``spawn``.  The queue backend
    may run on a daemon's job threads, and forking a threaded process is
    unsafe, so its workers fork from a single-threaded server instead
    (see :mod:`repro.dist.backend`).
    """
    return "forkserver" if "forkserver" in get_all_start_methods() else "spawn"


class ExecutionBackend(Protocol):
    """Anything that can run a batch of cells.

    Returned records align with ``cells`` by index.  An entry may be
    ``None`` when the backend quarantined that cell as poison after
    repeated worker crashes — the engine drops those from the ResultSet
    and reports them in ``meta["cells_poisoned"]``.  A backend whose
    records are read back out of ``cache.results`` sets a true
    ``records_from_cache`` attribute, and the engine does not write them
    again.
    """

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord | None]: ...


class SerialBackend:
    """In-process execution, batching replays per (benchmark, seed).

    Every cell routes through
    :func:`~repro.api.execution.execute_cells_batch`, which replays every
    scheme of one benchmark-seed group with a single config-batched
    kernel call — records stay bit-identical to cell-at-a-time
    execution, in input order.
    """

    name = "serial"

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord]:
        """Execute every cell in this process."""
        return execute_cells_batch(cells, trace_store=cache.traces if cache else None)


@dataclass
class _BatchState:
    """One cell group's dispatch state across pool-crash retries."""

    indices: list[int]
    batch: list[Cell]
    attempts: int = 0
    records: list[RunRecord] | None = None
    poisoned: bool = field(default=False)


class ProcessPoolBackend:
    """Shard cells across worker processes, surviving worker crashes.

    Cells are grouped by functional-pass identity (benchmark, input,
    seed, budget) and each group runs in one worker, so the expensive
    functional pass is computed exactly once per benchmark — the same
    B-passes + B*S-replays invariant the serial path has.  Parallelism
    is therefore across benchmarks/seeds, which is where the work is.

    Deterministic per-cell seeding makes the shards order-independent:
    the engine sorts records canonically, so a pool run's ResultSet is
    identical to a serial run's for the same spec.

    **Crash recovery.**  A worker death (segfault, OOM kill, fault
    injection) surfaces as :class:`BrokenProcessPool`; the backend
    re-creates the pool and retries every lost group with capped
    exponential backoff.  Retry rounds run one fresh single-group pool
    per batch so failure attribution is exact — a pool break condemns
    only the group that crashed it, not innocent batches that shared the
    first pool.  After ``max_batch_attempts`` crashes a group's cells
    are quarantined as *poison*: their records come back ``None``, the
    rest of the sweep completes, and ``cells_poisoned`` counts the loss.
    Completed groups are never re-run, so recovery adds zero redundant
    work beyond the crashed cells themselves.

    Args:
        max_workers: Pool size (>= 1; default: ``os.cpu_count()``),
            capped at the number of cell groups.
        max_batch_attempts: Worker crashes a group survives before its
            cells are poisoned (>= 1).
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

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context(default_start_method()),
        )

    def _dispatch_round(
        self,
        states: list[_BatchState],
        workers: int,
        cache_root: str | None,
    ) -> list[_BatchState]:
        """Run one pool over ``states``; returns the groups that crashed.

        Passes computed by a worker that then crashed are not counted.
        """
        with self._make_pool(workers) as pool:
            futures = [
                (state, pool.submit(_execute_batch_in_worker, state.batch, cache_root))
                for state in states
            ]
            crashed: list[_BatchState] = []
            for state, future in futures:
                state.attempts += 1
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
        groups: dict[tuple, list[int]] = {}
        for index, cell in enumerate(cells):
            groups.setdefault(functional_pass_key(cell), []).append(index)
        workers = min(self.max_workers or os.cpu_count() or 1, len(groups))
        if workers <= 1:
            # A one-worker pool is pure overhead; run inline instead.
            return SerialBackend().run_cells(cells, cache)
        cache_root = str(cache.traces.root) if cache else None
        states = [
            _BatchState(indices=indices, batch=[cells[i] for i in indices])
            for indices in groups.values()
        ]
        pending = self._dispatch_round(states, workers, cache_root)
        retry_round = 0
        while pending:
            counters.bump("pool_rebuilds")
            survivors: list[_BatchState] = []
            for state in pending:
                if state.attempts >= self.max_batch_attempts:
                    # Deterministic crasher: quarantine the group as
                    # poison instead of aborting the whole sweep.
                    state.poisoned = True
                    counters.bump("cells_poisoned", len(state.batch))
                    warnings.warn(
                        f"ProcessPoolBackend: poisoned {len(state.batch)} cell(s) "
                        f"of group {functional_pass_key(state.batch[0])} after "
                        f"{state.attempts} worker crashes",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    counters.bump("worker_retries")
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
            # attribution (a shared pool's break condemns every
            # in-flight future, innocent or not).
            pending = []
            for state in survivors:
                pending.extend(self._dispatch_round([state], 1, cache_root))
        records: list[RunRecord | None] = [None] * len(cells)
        for state in states:
            if state.records is None:
                continue
            for index, record in zip(state.indices, state.records):
                records[index] = record
        return records


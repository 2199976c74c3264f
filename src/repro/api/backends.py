"""Pluggable execution backends for the experiment engine.

A backend turns a list of independent spec cells into run records.  Both
built-ins produce identical records for identical cells (see
:mod:`repro.api.execution` on determinism); they differ only in where the
work happens:

- :class:`SerialBackend` — in this process, sharing functional passes
  through per-config simulators (and optionally an injected legacy
  simulator, which is how the deprecated ``run_figure*`` shims reuse a
  caller's warm cache).
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
    _init_worker,
    execute_cells_batch,
    functional_pass_key,
    lookup_cached_trace,
    sim_for_cell,
)
from repro.api.shm import SharedTraceArena
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.faults import counters
from repro.sim.simulator import SecureProcessorSim
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
    fallback logic lives in one place.
    """
    return "fork" if "fork" in get_all_start_methods() else "spawn"


class ExecutionBackend(Protocol):
    """Anything that can run a batch of cells.

    Returned records align with ``cells`` by index.  An entry may be
    ``None`` when the backend quarantined that cell as poison after
    repeated worker crashes — the engine drops those from the ResultSet
    and reports them in ``meta["cells_poisoned"]``.
    """

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord | None]: ...


class SerialBackend:
    """In-process execution, one cell at a time.

    Args:
        sim: Optional pre-warmed simulator to reuse for cells whose
            configuration matches it (the bridge from legacy shared-sim
            call sites).  Cells whose scalar parameters don't match get
            their own per-config simulator.  A custom hierarchy/core on
            the injected sim is honored for *uncached* runs — that is
            the legacy behavior the shims rely on — but bypassed (with
            a RuntimeWarning) when a persistent cache is configured,
            because cell hashes assume the default substrate.
    """

    name = "serial"

    def __init__(self, sim: SecureProcessorSim | None = None) -> None:
        self._injected = sim

    def _has_default_substrate(self) -> bool:
        from repro.cache.hierarchy import PAPER_HIERARCHY
        from repro.cpu.core import DEFAULT_CORE

        config = self._injected.config
        return config.hierarchy == PAPER_HIERARCHY and config.core == DEFAULT_CORE

    def _matches_injected(self, cell: Cell, persistent_cache: bool) -> bool:
        if self._injected is None:
            return False
        config = self._injected.config
        if not (
            cell.n_instructions == config.n_instructions
            and cell.seed == config.seed
            and cell.warmup_fraction == config.warmup_fraction
            and cell.write_buffer_entries == config.write_buffer_entries
        ):
            return False
        if self._has_default_substrate():
            return True
        # A custom hierarchy/core is honored for uncached runs (the
        # legacy shim behavior: the caller's substrate is the point).
        # With a persistent cache it must be bypassed — cell hashes
        # assume the default substrate, so its results would poison the
        # cache for every future default run.
        if not persistent_cache:
            return True
        warnings.warn(
            "SerialBackend: injected simulator has a non-default "
            "hierarchy/core and a persistent cache is configured; "
            "running cells under the default substrate instead",
            RuntimeWarning,
            stacklevel=3,
        )
        return False

    def run_cells(
        self, cells: Sequence[Cell], cache: ExperimentCache | None = None
    ) -> list[RunRecord]:
        """Execute every cell, batching replays per (benchmark, seed).

        Cells are partitioned by whether they run on the injected
        simulator, and each partition routes through
        :func:`~repro.api.execution.execute_cells_batch`, which replays
        every scheme of one benchmark-seed group with a single
        config-batched kernel call — records stay bit-identical to
        cell-at-a-time execution, in input order.
        """
        trace_store = cache.traces if cache else None
        cells = list(cells)
        injected: list[int] = []
        local: list[int] = []
        for index, cell in enumerate(cells):
            if self._matches_injected(cell, persistent_cache=cache is not None):
                injected.append(index)
            else:
                local.append(index)
        records: list[RunRecord | None] = [None] * len(cells)
        if injected:
            # Point the injected sim at this engine's store so a
            # cached serial run warms later pool runs (but never
            # clobber a caller-provided store with None).
            if trace_store is not None:
                self._injected.trace_store = trace_store
            for index, record in zip(
                injected,
                execute_cells_batch([cells[i] for i in injected], sim=self._injected),
            ):
                records[index] = record
        if local:
            for index, record in zip(
                local,
                execute_cells_batch([cells[i] for i in local], trace_store=trace_store),
            ):
                records[index] = record
        return records


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
        max_workers: Pool size (default: ``os.cpu_count()``, capped at
            the number of cell groups).
        start_method: ``"fork"`` where available (cheap on Linux), else
            ``"spawn"``; override for debugging.
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
        start_method: str | None = None,
        max_batch_attempts: int = DEFAULT_MAX_BATCH_ATTEMPTS,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ) -> None:
        if start_method is None:
            start_method = default_start_method()
        if max_batch_attempts < 1:
            raise ValueError(f"max_batch_attempts must be >= 1, got {max_batch_attempts}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s cannot be negative, got {retry_backoff_s}")
        self.max_workers = max_workers
        self.start_method = start_method
        self.max_batch_attempts = max_batch_attempts
        self.retry_backoff_s = retry_backoff_s

    def _make_pool(self, workers: int, cache_root: str | None,
                   shm_traces: dict[str, dict]) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context(self.start_method),
            initializer=_init_worker,
            initargs=(cache_root, shm_traces),
        )

    def _dispatch_round(
        self,
        states: list[_BatchState],
        workers: int,
        cache_root: str | None,
        shm_traces: dict[str, dict],
    ) -> list[_BatchState]:
        """Run one pool over ``states``; returns the groups that crashed."""
        with self._make_pool(workers, cache_root, shm_traces) as pool:
            futures = [
                (state, pool.submit(_execute_batch_in_worker, state.batch))
                for state in states
            ]
            crashed: list[_BatchState] = []
            for state, future in futures:
                state.attempts += 1
                try:
                    state.records = future.result()
                except BrokenProcessPool:
                    crashed.append(state)
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
        # Groups whose miss trace the parent already holds (warm sims or
        # a persistent-cache hit) ship it through shared memory instead
        # of making the worker recompute or re-unpickle it; cold groups
        # compute their own pass in parallel, exactly as before.
        arena = SharedTraceArena()
        shm_traces: dict[str, dict] = {}
        try:
            for state in states:
                head = state.batch[0]
                trace = lookup_cached_trace(head, cache)
                if trace is not None:
                    descriptor = arena.publish(
                        str(functional_pass_key(head)), trace
                    )
                    if descriptor is not None:
                        shm_traces[str(functional_pass_key(head))] = descriptor

            pending = self._dispatch_round(states, workers, cache_root, shm_traces)
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
                    pending.extend(
                        self._dispatch_round([state], 1, cache_root, shm_traces)
                    )
        finally:
            arena.close()
        records: list[RunRecord | None] = [None] * len(cells)
        for state in states:
            if state.records is None:
                continue
            for index, record in zip(state.indices, state.records):
                records[index] = record
        return records


def warm_local_sims(cells: Sequence[Cell]) -> None:
    """Precompute functional passes in-process for a batch of cells.

    Useful before a serial sweep over many schemes of one benchmark; the
    pool backend warms through the persistent cache instead.
    """
    seen = set()
    for cell in cells:
        key = functional_pass_key(cell)
        if key in seen:
            continue
        seen.add(key)
        sim_for_cell(cell).miss_trace(cell.benchmark, cell.input_name)

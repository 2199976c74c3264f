"""Cell execution: one spec cell in, one run record out.

Everything here is module-level and picklable so the process-pool backend
can ship cells to workers.  Cells sharing a (benchmark, seed, budget)
reuse one functional pass through the simulator's process-wide memo
(keyed by :meth:`~repro.sim.simulator.SimConfig.pass_key`); the optional
persistent cache, passed per call, extends that sharing across
processes and sessions, and receives every record a call computes.

Determinism: a cell's result is a pure function of its fields.  Workload
generation draws from ``make_rng(seed, name)`` streams, the timing replay
is event-driven, and no global RNG state is consulted, so the serial and
pool backends produce identical records for identical cells.

Kernels: engine cells run on the vectorized fast paths (the default
``SimConfig(kernel_mode="fast")``).  Because the fast kernels are
byte-identical to the scalar reference (see DESIGN.md "Performance"),
the kernel choice is *not* part of a cell's content hash — cached
records and persisted traces stay valid across kernels.  Sweep cells
default to aggregates-only (``record_requests=False`` on the spec):
per-request arrays are recorded only when a cell asks for them or needs
windowed series.
"""

from __future__ import annotations

from repro.api.cache import ExperimentCache
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.core.scheme import scheme_from_spec
from repro.faults.plan import adopt_plan, fault_point
from repro.sim.simulator import SecureProcessorSim, SimConfig, count_passes
from repro.sim.timing import run_timing, run_timing_batch
from repro.sim.windows import (
    epoch_transition_instructions,
    instructions_per_access_windows,
    ipc_windows,
)


def _sim_config(cell: Cell) -> SimConfig:
    """The simulation configuration a cell runs under."""
    return SimConfig(
        n_instructions=cell.n_instructions,
        seed=cell.seed,
        write_buffer_entries=cell.write_buffer_entries,
        warmup_fraction=cell.warmup_fraction,
    )


def execute_cell(cell: Cell, sim: SecureProcessorSim | None = None) -> RunRecord:
    """Run one cell and flatten the outcome into a :class:`RunRecord`.

    ``sim`` defaults to a fast-kernel simulator for the cell's own
    configuration; its kernel mode picks the replay machine.  When the
    cell asks for windows, the run records per-request arrays, reduces
    them to fixed-size window series, and drops the arrays — so records
    stay small and JSON-native regardless of run length.
    """
    if sim is None:
        sim = SecureProcessorSim(_sim_config(cell))
    return _replay_cell(cell, sim, sim.miss_trace(cell.benchmark, cell.input_name))


def _replay_cell(cell: Cell, sim: SecureProcessorSim, miss_trace) -> RunRecord:
    """Replay one cell on ``miss_trace``, its group's resolved pass."""
    scheme = scheme_from_spec(cell.scheme_spec)
    result = run_timing(
        miss_trace,
        scheme,
        write_buffer_entries=sim.config.write_buffer_entries,
        record_requests=cell.record_requests or cell.n_windows is not None,
        mode=sim.config.kernel_mode,
    )
    return _record_from_result(cell, miss_trace, scheme, result)


def execute_cells_batch(cells, cache: ExperimentCache | None = None) -> list[RunRecord]:
    """Run a group of cells, batching their timing replays per trace.

    Cells sharing a functional pass and write-buffer depth form one
    group on one simulator, which resolves the pass once against
    ``cache.traces`` and keeps the :class:`~repro.cpu.trace.MissTrace`
    for every replay of the group, so an eviction from the bounded pass
    memo can never recompute or recount it.  The group's plain cells go
    to one :func:`~repro.sim.timing.run_timing_batch` call, whose cost
    rule replays their slot schemes as one lockstep batch or one by
    one; cells that need per-request arrays (windows,
    ``record_requests``) replay individually.  Records are bit-identical
    to :func:`execute_cell` per cell and returned in input order, so
    every backend can route its groups through here without changing
    any result byte.

    This is where a computed record becomes durable, on every backend:
    with a ``cache``, the call writes its records to ``cache.results``
    as one batch (one directory fsync) before returning, in the caller
    for serial runs and in the worker for pool and queue runs.  A call
    that raises writes nothing.
    """
    cells = list(cells)
    trace_store = cache.traces if cache is not None else None
    records: list[RunRecord | None] = [None] * len(cells)
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        key = functional_pass_key(cell) + (cell.write_buffer_entries,)
        groups.setdefault(key, []).append(index)
    for indices in groups.values():
        first = cells[indices[0]]
        group_sim = SecureProcessorSim(_sim_config(first))
        miss_trace = group_sim.miss_trace(first.benchmark, first.input_name, trace_store)
        plain = [
            i for i in indices
            if cells[i].n_windows is None and not cells[i].record_requests
        ]
        if plain:
            schemes = [scheme_from_spec(cells[i].scheme_spec) for i in plain]
            results = run_timing_batch(
                miss_trace,
                schemes,
                write_buffer_entries=first.write_buffer_entries,
                record_requests=False,
            )
            for i, scheme, result in zip(plain, schemes, results):
                records[i] = _record_from_result(cells[i], miss_trace, scheme, result)
        for i in indices:
            if records[i] is None:
                records[i] = _replay_cell(cells[i], group_sim, miss_trace)
    if cache is not None:
        cache.results.put_many(
            (cell.content_hash(), record) for cell, record in zip(cells, records)
        )
    return records


def _record_from_result(cell: Cell, miss_trace, scheme, result) -> RunRecord:
    """Flatten one timing result into the cell's :class:`RunRecord`."""
    want_windows = cell.n_windows is not None
    leakage = scheme.leakage()

    ipc_series: tuple[float, ...] = ()
    access_series: tuple[float, ...] = ()
    transitions: tuple[int, ...] = ()
    if want_windows:
        ipc_series = tuple(
            float(v) for v in ipc_windows(result, cell.n_windows).values
        )
        access_series = tuple(
            float(v)
            for v in instructions_per_access_windows(
                miss_trace.instruction_index,
                miss_trace.n_instructions,
                cell.n_windows,
            ).values
        )
        transitions = tuple(int(v) for v in epoch_transition_instructions(result))

    epochs_expended = len(result.epochs)
    return RunRecord(
        benchmark=cell.benchmark,
        input_name=cell.input_name,
        label=result.benchmark,
        scheme_spec=cell.scheme_spec,
        scheme_name=scheme.name,
        seed=cell.seed,
        n_instructions=result.n_instructions,
        cycles=float(result.cycles),
        ipc=float(result.ipc),
        power_watts=float(result.power_watts),
        memory_power_watts=float(result.memory_power_watts),
        real_accesses=int(result.controller.real_accesses),
        dummy_accesses=int(result.controller.dummy_accesses),
        dummy_fraction=float(result.dummy_fraction),
        oram_timing_leakage_bits=float(leakage.oram_timing_bits),
        termination_leakage_bits=float(leakage.termination_bits),
        epochs_expended=epochs_expended,
        expended_leakage_bits=float(scheme.expended_leakage_bits(epochs_expended)),
        epoch_rates=tuple(int(record.rate) for record in result.epochs),
        epoch_transitions=transitions,
        ipc_windows=ipc_series,
        access_windows=access_series,
    )


def functional_pass_key(cell: Cell) -> tuple:
    """Identity of the functional cache pass a cell depends on.

    Cells sharing this key replay the same miss trace; the pool backend
    shards by it so each expensive pass is computed by exactly one
    worker instead of once per worker.
    """
    return (cell.benchmark, cell.input_name, cell.n_instructions,
            cell.seed, cell.warmup_fraction)


def trace_store_key(cell: Cell) -> str:
    """Persistent-store key of the functional pass a cell depends on.

    A pure function of the cell (its configuration's ``pass_key``).  Lets
    callers check ``cache.traces.has(trace_store_key(cell))`` without
    loading the (large) trace — how the frontier sweep counts the passes
    its trace store cannot serve before a run.
    """
    return _sim_config(cell).pass_key(cell.benchmark, cell.input_name)


def _execute_batch_in_worker(
    cells: list[Cell], cache_root: str | None, fault_plan: str | None = None
) -> tuple[list[RunRecord], int]:
    """Pool entry point: one batch of cells sharing a functional pass.

    The group runs through :func:`execute_cells_batch` — one functional
    pass and one routed timing replay call per (benchmark, seed), not
    one replay task per scheme — against the persistent cache under
    ``cache_root``, if any: it reads the pass from the trace store when
    an earlier run already stored it, and writes the group's records
    to the result store here, in the worker, before returning them.
    Returns the records and the number of functional passes this batch
    computed.

    ``fault_plan`` is the caller's active plan (its JSON), or None: a
    pool worker outlives the run that started it and does not see its
    caller's environment, so it adopts the plan of every batch.  Each
    cell then arms the ``worker-cell`` fault site before the batch
    executes, so a chaos plan can kill this worker deterministically
    "at cell K" of the plan (a no-op dict lookup without an active
    plan).  The same plan reaches the ``cache-write-result`` site of the
    worker's result write; its tokens are shared across processes.
    """
    adopt_plan(fault_plan)
    for _ in cells:
        fault_point("worker-cell")
    cache = ExperimentCache(cache_root) if cache_root else None
    with count_passes() as passes:
        records = execute_cells_batch(cells, cache)
    return records, passes.n

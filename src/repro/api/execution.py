"""Cell execution: one spec cell in, one run record out.

Everything here is module-level and picklable so the process-pool backend
can ship cells to workers.  Cells sharing a (benchmark, seed, budget)
reuse one functional pass through the simulator's process-wide memo
(keyed by :meth:`~repro.sim.simulator.SimConfig.pass_key`); the optional
persistent trace cache, passed per call, extends that sharing across
processes and sessions.

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

from repro.api.cache import TraceCache
from repro.api.records import RunRecord
from repro.api.spec import Cell
from repro.core.scheme import scheme_from_spec
from repro.faults.plan import fault_point
from repro.sim.simulator import SecureProcessorSim, SimConfig, count_passes
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
    configuration.  When the cell asks for windows, the run records
    per-request arrays, reduces them to fixed-size window series, and
    drops the arrays — so records stay small and JSON-native regardless
    of run length.
    """
    if sim is None:
        sim = SecureProcessorSim(_sim_config(cell))
    scheme = scheme_from_spec(cell.scheme_spec)
    want_windows = cell.n_windows is not None
    result = sim.run(
        cell.benchmark,
        scheme,
        input_name=cell.input_name,
        record_requests=cell.record_requests or want_windows,
    )
    return _record_from_result(cell, sim, scheme, result)


def execute_cells_batch(cells, trace_store: TraceCache | None = None) -> list[RunRecord]:
    """Run a group of cells, batching their timing replays per trace.

    Cells sharing a functional pass and write-buffer depth form one
    group on one simulator, which resolves the pass once against
    ``trace_store``; the group's plain cells then dispatch one
    :meth:`~repro.sim.simulator.SecureProcessorSim.run_batch` call —
    the config-batched slotted kernel replays the shared miss trace
    under every scheme in lockstep — instead of one replay per cell.
    Cells that need per-request arrays (windows, ``record_requests``)
    still replay individually.  Records are bit-identical to
    :func:`execute_cell` per cell and returned in input order, so every
    backend can route its groups through here without changing any
    result byte.
    """
    cells = list(cells)
    records: list[RunRecord | None] = [None] * len(cells)
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        key = functional_pass_key(cell) + (cell.write_buffer_entries,)
        groups.setdefault(key, []).append(index)
    for indices in groups.values():
        first = cells[indices[0]]
        group_sim = SecureProcessorSim(_sim_config(first))
        group_sim.miss_trace(first.benchmark, first.input_name, trace_store)
        plain = [
            i for i in indices
            if cells[i].n_windows is None and not cells[i].record_requests
        ]
        if len(plain) >= 2:
            schemes = [scheme_from_spec(cells[i].scheme_spec) for i in plain]
            results = group_sim.run_batch(
                first.benchmark,
                schemes,
                input_name=first.input_name,
                record_requests=False,
            )
            for i, scheme, result in zip(plain, schemes, results):
                records[i] = _record_from_result(cells[i], group_sim, scheme, result)
        for i in indices:
            if records[i] is None:
                records[i] = execute_cell(cells[i], sim=group_sim)
    return records


def _record_from_result(cell: Cell, sim: SecureProcessorSim, scheme, result) -> RunRecord:
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
        miss_trace = sim.miss_trace(cell.benchmark, cell.input_name)
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
    cells: list[Cell], trace_root: str | None
) -> tuple[list[RunRecord], int]:
    """Pool entry point: one batch of cells sharing a functional pass.

    The group replays through the config-batched kernel — one
    functional pass and one batched timing replay per (benchmark,
    seed), not one replay task per scheme — and reads the pass from the
    persistent trace cache under ``trace_root`` when an earlier run
    already stored it.  Returns the records and the number of
    functional passes this batch computed.

    Each cell arms the ``worker-cell`` fault site before the batch
    executes, so a chaos plan can kill this worker deterministically
    "at cell K" (a no-op dict lookup without an active plan).
    """
    for _ in cells:
        fault_point("worker-cell")
    trace_store = TraceCache(trace_root) if trace_root else None
    with count_passes() as passes:
        records = execute_cells_batch(cells, trace_store=trace_store)
    return records, passes.n

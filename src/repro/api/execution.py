"""Cell execution: one spec cell in, one run record out.

Everything here is module-level and picklable so the process-pool backend
can ship cells to workers.  Each process keeps one
:class:`SecureProcessorSim` per distinct simulation configuration, so
cells sharing a (benchmark, seed, budget) reuse one in-memory functional
pass; the optional persistent trace cache extends that sharing across
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
from repro.sim.simulator import SecureProcessorSim, SimConfig
from repro.sim.windows import (
    epoch_transition_instructions,
    instructions_per_access_windows,
    ipc_windows,
)

#: Per-process simulator pool: sim-config key -> simulator.
_SIMS: dict[tuple, SecureProcessorSim] = {}

#: Per-process persistent trace store (set by the pool initializer).
_WORKER_TRACE_CACHE: TraceCache | None = None


class _DictTraceStore:
    """Process-local TraceStore: shares functional passes across sims.

    Store keys fold in ``SimConfig.substrate_digest`` — which excludes
    timing-only knobs like ``write_buffer_entries`` — so two sims that
    differ only in timing parameters share one functional pass here even
    without a persistent cache.
    """

    def __init__(self) -> None:
        self.entries: dict[str, object] = {}

    def get(self, key: str):
        return self.entries.get(key)

    def put(self, key: str, trace) -> None:
        self.entries[key] = trace

    def has(self, key: str) -> bool:
        return key in self.entries


_PROCESS_TRACE_STORE = _DictTraceStore()


def _sim_key(cell: Cell) -> tuple:
    """The sim-config identity a cell runs under."""
    return (cell.n_instructions, cell.seed, cell.warmup_fraction,
            cell.write_buffer_entries)


def sim_for_cell(cell: Cell, trace_store: TraceCache | None = None) -> SecureProcessorSim:
    """The process-local simulator for a cell's configuration (cached).

    The caller's ``trace_store`` always wins: engine-owned sims are
    re-pointed at the current engine's cache on every call, so two
    engines with different cache directories in one process never leak
    entries into each other's cache.  Without a persistent store, a
    process-local store still shares functional passes across sims that
    differ only in timing knobs.
    """
    key = _sim_key(cell)
    sim = _SIMS.get(key)
    if sim is None:
        sim = SecureProcessorSim(
            SimConfig(
                n_instructions=cell.n_instructions,
                seed=cell.seed,
                write_buffer_entries=cell.write_buffer_entries,
                warmup_fraction=cell.warmup_fraction,
            ),
        )
        _SIMS[key] = sim
    sim.trace_store = trace_store if trace_store is not None else _PROCESS_TRACE_STORE
    return sim


def execute_cell(
    cell: Cell,
    sim: SecureProcessorSim | None = None,
    trace_store: TraceCache | None = None,
) -> RunRecord:
    """Run one cell and flatten the outcome into a :class:`RunRecord`.

    When the cell asks for windows, the run records per-request arrays,
    reduces them to fixed-size window series, and drops the arrays — so
    records stay small and JSON-native regardless of run length.
    """
    if sim is None:
        sim = sim_for_cell(cell, trace_store)
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

    Cells sharing a simulator configuration and benchmark dispatch one
    :meth:`~repro.sim.simulator.SecureProcessorSim.run_batch` call —
    the config-batched slotted kernel replays the shared miss trace
    under every scheme in lockstep — instead of one replay per cell.
    Cells that need per-request arrays (windows, ``record_requests``)
    still replay individually.  Records are bit-identical to
    :func:`execute_cell` per cell and returned in input order, so both
    backends can route their groups through here without changing any
    result byte.  Each subgroup resolves its process-local simulator
    against ``trace_store``.
    """
    cells = list(cells)
    records: list[RunRecord | None] = [None] * len(cells)
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        key = _sim_key(cell) + (cell.benchmark, cell.input_name)
        groups.setdefault(key, []).append(index)
    for indices in groups.values():
        plain = [
            i for i in indices
            if cells[i].n_windows is None and not cells[i].record_requests
        ]
        batched: set[int] = set()
        if len(plain) >= 2:
            first = cells[plain[0]]
            group_sim = sim_for_cell(first, trace_store)
            schemes = [scheme_from_spec(cells[i].scheme_spec) for i in plain]
            results = group_sim.run_batch(
                first.benchmark,
                schemes,
                input_name=first.input_name,
                record_requests=False,
            )
            for i, scheme, result in zip(plain, schemes, results):
                records[i] = _record_from_result(cells[i], group_sim, scheme, result)
            batched = set(plain)
        for i in indices:
            if i not in batched:
                records[i] = execute_cell(cells[i], trace_store=trace_store)
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


def reset_local_sims() -> None:
    """Drop the per-process simulator pool (test isolation, memory)."""
    _SIMS.clear()
    _PROCESS_TRACE_STORE.entries.clear()


def _init_worker(cache_root: str | None) -> None:
    """Pool initializer: attach the persistent trace cache in each worker."""
    global _WORKER_TRACE_CACHE
    _WORKER_TRACE_CACHE = TraceCache(cache_root) if cache_root else None


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

    Lets services check ``cache.traces.has(trace_store_key(cell))``
    without loading the (large) trace — the per-key accounting behind
    the sweep daemon's zero-redundant-pass metric, which a global
    entry-count delta cannot provide once groups run concurrently.
    """
    sim = sim_for_cell(cell)
    return sim._store_key(
        "workload", cell.benchmark, cell.input_name, cell.n_instructions, cell.seed
    )


def _execute_batch_in_worker(cells: list[Cell]) -> list[RunRecord]:
    """Pool entry point: one batch of cells sharing a functional pass.

    The group replays through the config-batched kernel — one
    functional pass and one batched timing replay per (benchmark,
    seed), not one replay task per scheme — and reads the pass from the
    persistent trace cache when an earlier run already stored it.

    Each cell arms the ``worker-cell`` fault site before the batch
    executes, so a chaos plan can kill this worker deterministically
    "at cell K" (a no-op dict lookup without an active plan).
    """
    for _ in cells:
        fault_point("worker-cell")
    return execute_cells_batch(cells, trace_store=_WORKER_TRACE_CACHE)

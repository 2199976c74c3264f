"""Top-level secure-processor simulation: workload -> caches -> timing.

``SecureProcessorSim`` wires the substrates together and memoizes the
expensive functional cache pass per benchmark, so sweeping many schemes
over the same workload (Figures 5, 6, 8) costs one cache simulation plus
one cheap timing replay per scheme — the two-phase structure described in
DESIGN.md.

Two cache layers exist:

- one process-wide memo keyed by :meth:`SimConfig.pass_key`, shared by
  every fast-kernel simulator and bounded to the ``PASS_MEMO_ENTRIES``
  most recently used passes, so a long-running daemon's memory stays
  flat (a ``kernel_mode="reference"`` simulator keeps a private dict,
  so the scalar oracle always recomputes); and
- an optional persistent ``store`` passed per call to
  :meth:`SecureProcessorSim.miss_trace`, which lets the :mod:`repro.api`
  engine share functional passes across worker processes and sessions
  (see :class:`repro.api.cache.TraceCache`).
"""

from __future__ import annotations

import contextvars
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol

from repro.cache.hierarchy import HierarchyConfig, PAPER_HIERARCHY, simulate_hierarchy
from repro.cpu.core import CoreModel, DEFAULT_CORE
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.sim.result import SimResult
from repro.sim.timing import run_timing
from repro.workloads.registry import build_trace

#: Passes the process-wide memo keeps; the least recently used goes first.
PASS_MEMO_ENTRIES = 64


class _PassMemo:
    """A thread-safe LRU map holding at most ``PASS_MEMO_ENTRIES`` passes.

    Callers must hold on to a trace they still need: any other thread's
    insert can evict an entry between two lookups.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key) -> MissTrace | None:
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
            return trace

    def __setitem__(self, key, trace: MissTrace) -> None:
        with self._lock:
            self._entries[key] = trace
            self._entries.move_to_end(key)
            while len(self._entries) > PASS_MEMO_ENTRIES:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:  # an insert runs over the bound until it evicts
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: Process-wide memo of fast-kernel functional passes.
_PASSES = _PassMemo()


def clear_pass_memo() -> None:
    """Drop every memoized functional pass (test isolation, memory)."""
    _PASSES.clear()


#: The innermost open count of this thread or task (None: nobody counts).
_COUNT: contextvars.ContextVar = contextvars.ContextVar("pass_count", default=None)


class count_passes:
    """Count the functional passes computed inside a ``with`` block.

    ``with count_passes() as passes:`` leaves the total in ``passes.n``.
    A nested block shadows this one, so each pass is counted once.
    """

    def __init__(self) -> None:
        self.n = 0

    def __enter__(self) -> "count_passes":
        self._token = _COUNT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _COUNT.reset(self._token)


def add_passes(n: int) -> None:
    """Credit ``n`` computed passes to the innermost open count, if any."""
    count = _COUNT.get()
    if count is not None:
        count.n += n


class TraceStore(Protocol):
    """Persistent miss-trace storage consulted on memo misses."""

    def get(self, key: str) -> MissTrace | None: ...

    def put(self, key: str, trace: MissTrace) -> None: ...

    def has(self, key: str) -> bool: ...


@dataclass
class SimConfig:
    """Scaled simulation parameters shared by the experiment harness.

    ``warmup_fraction`` mirrors the paper's fast-forwarding: that fraction
    of extra instructions is prepended to each run to warm the caches and
    is excluded from all timing/energy accounting.
    """

    n_instructions: int = 1_000_000
    seed: int = 0
    hierarchy: HierarchyConfig = field(default_factory=lambda: PAPER_HIERARCHY)
    core: CoreModel = field(default_factory=lambda: DEFAULT_CORE)
    write_buffer_entries: int = 8
    warmup_fraction: float = 0.30
    #: Kernel selection for the functional pass and timing replay:
    #: ``"fast"`` (vectorized) or ``"reference"`` (scalar oracle).  The
    #: two are bit-identical, so this knob is deliberately *excluded*
    #: from :meth:`substrate_digest` — cached traces are valid across
    #: kernels.
    kernel_mode: str = "fast"

    def substrate_digest(self) -> str:
        """Hex digest of every knob that changes the functional pass.

        Keys persistent trace stores; both configs are frozen dataclasses
        of plain numbers, so their reprs are stable and canonical.
        ``kernel_mode`` is excluded: kernels are bit-identical.
        """
        payload = repr((
            self.n_instructions,
            self.seed,
            self.hierarchy,
            self.core,
            self.warmup_fraction,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def pass_key(self, benchmark: str, input_name: str | None = None) -> str:
        """Storage key of one benchmark's functional pass under this config.

        Keys both the process memo and persistent trace stores.  Timing-only
        knobs leave it unchanged, so their runs share one pass:

        >>> key = SimConfig(n_instructions=40_000).pass_key("mcf")
        >>> SimConfig(n_instructions=40_000, write_buffer_entries=2).pass_key("mcf") == key
        True
        >>> SimConfig(n_instructions=40_000, seed=1).pass_key("mcf") == key
        False
        """
        parts = ("workload", benchmark, input_name, self.n_instructions, self.seed)
        return hashlib.sha256(
            (self.substrate_digest() + repr(parts)).encode()
        ).hexdigest()


class SecureProcessorSim:
    """Simulator facade with memoized functional passes.

    Fast-kernel simulators share the process-wide memo, so two simulators
    with equal configurations never compute one pass twice; a
    ``kernel_mode="reference"`` simulator memoizes into a private dict.

    Args:
        config: Simulation parameters.
    """

    def __init__(self, config: SimConfig | None = None) -> None:
        self.config = config or SimConfig()
        self._passes = _PASSES if self.config.kernel_mode == "fast" else {}

    def miss_trace(
        self,
        benchmark: str,
        input_name: str | None = None,
        store: TraceStore | None = None,
    ) -> MissTrace:
        """Functional cache pass for one benchmark (memoized).

        With a persistent ``store`` (e.g. the api engine's on-disk cache),
        a memo hit checks ``store.has`` and backfills a store that lacks
        the pass; a memo miss reads ``store.get`` before computing, then
        persists what it computed.  Only a computed pass is credited to
        the open :func:`count_passes` block.
        """
        key = self.config.pass_key(benchmark, input_name)
        trace = self._passes.get(key)
        if trace is not None:
            if store is not None and not store.has(key):
                store.put(key, trace)
            return trace
        trace = store.get(key) if store is not None else None
        if trace is None:
            warmup = int(self.config.n_instructions * self.config.warmup_fraction)
            memory_trace = build_trace(
                benchmark,
                seed=self.config.seed,
                n_instructions=self.config.n_instructions + warmup,
                input_name=input_name,
            )
            trace = simulate_hierarchy(
                memory_trace,
                self.config.hierarchy,
                self.config.core,
                warmup_instructions=warmup,
                mode=self.config.kernel_mode,
            )
            add_passes(1)
            if store is not None:
                store.put(key, trace)
        self._passes[key] = trace
        return trace

    def miss_trace_for(self, trace: MemoryTrace) -> MissTrace:
        """Functional cache pass for an externally built trace (memoized).

        External traces are replayed verbatim (no warmup prefix is added);
        use :meth:`miss_trace` for registry benchmarks.  Memoized by a
        content digest of the trace, so distinct traces that happen to
        share a name and reference count never collide.
        """
        key = ("external", self.config.substrate_digest(), trace.content_digest())
        miss_trace = self._passes.get(key)
        if miss_trace is None:
            miss_trace = self._passes[key] = simulate_hierarchy(
                trace, self.config.hierarchy, self.config.core,
                mode=self.config.kernel_mode,
            )
        return miss_trace

    def run(
        self,
        benchmark: str,
        scheme,
        input_name: str | None = None,
        record_requests: bool = True,
    ) -> SimResult:
        """Simulate one benchmark under one scheme."""
        miss_trace = self.miss_trace(benchmark, input_name)
        return run_timing(
            miss_trace,
            scheme,
            write_buffer_entries=self.config.write_buffer_entries,
            record_requests=record_requests,
            mode=self.config.kernel_mode,
        )

    def run_trace(self, trace: MemoryTrace, scheme, record_requests: bool = True) -> SimResult:
        """Simulate an externally built memory trace under one scheme."""
        miss_trace = self.miss_trace_for(trace)
        return run_timing(
            miss_trace,
            scheme,
            write_buffer_entries=self.config.write_buffer_entries,
            record_requests=record_requests,
            mode=self.config.kernel_mode,
        )

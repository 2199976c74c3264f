"""Functional simulation of the L1/L2 cache hierarchy.

``simulate_hierarchy`` runs a :class:`~repro.cpu.trace.MemoryTrace` through
the Table 1 hierarchy (32 KB 4-way L1 D, 1 MB 16-way inclusive L2, 64 B
lines, write-back/write-allocate, LRU) and produces the
:class:`~repro.cpu.trace.MissTrace` the timing simulator consumes.

Key property exploited throughout the repository: for an in-order core the
*set* of LLC misses and their program positions do not depend on memory
latency, so this (expensive) pass runs once per benchmark and every timing
configuration (base_dram / base_oram / static / dynamic) replays its output.

The pass ships as a kernel pair, each a resumable machine with the same
``feed``/``finish`` interface: the scalar oracle
:class:`StreamingHierarchyPass` below, and the vectorized
:class:`~repro.cache.vectorized.VectorizedHierarchyPass`.
:func:`functional_pass` picks one by ``mode``; ``simulate_hierarchy``
feeds it the whole trace as one chunk, and :mod:`repro.cache.streaming`
feeds it bounded chunks.  Both share the energy epilogue below.  The
scalar inner loop is
deliberately hand-inlined: it processes millions of references per
benchmark, so L1/L2 set lookups use plain dicts with insertion-order LRU
instead of the general :class:`SetAssociativeCache` (the class is used
for unit testing the same logic at small scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cpu.core import CoreModel, DEFAULT_CORE
from repro.cpu.trace import EnergyEvents, MemoryTrace, MissTrace
from repro.util.bitops import floor_lg, is_power_of_two
from repro.util.units import KB, MB

if TYPE_CHECKING:
    from repro.cache.vectorized import VectorizedHierarchyPass
    from repro.ingest.formats import TraceChunk, TraceHeader


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy parameters (defaults are the paper's Table 1)."""

    l1i_bytes: int = 32 * KB
    l1i_ways: int = 4
    l1d_bytes: int = 32 * KB
    l1d_ways: int = 4
    l2_bytes: int = 1 * MB
    l2_ways: int = 16
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for label, (size, ways) in {
            "l1i": (self.l1i_bytes, self.l1i_ways),
            "l1d": (self.l1d_bytes, self.l1d_ways),
            "l2": (self.l2_bytes, self.l2_ways),
        }.items():
            sets = size // self.line_bytes // ways
            if sets <= 0 or not is_power_of_two(sets):
                raise ValueError(f"{label}: set count {sets} must be a positive power of two")


#: Table 1 configuration.
PAPER_HIERARCHY = HierarchyConfig()


def simulate_hierarchy(
    trace: MemoryTrace,
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
    mode: str = "fast",
) -> MissTrace:
    """Reduce a memory trace to its LLC request stream.

    ``mode`` selects the kernel: ``"fast"`` (default) runs the
    vectorized pass in :mod:`repro.cache.vectorized`; ``"reference"``
    runs the scalar oracle, :func:`simulate_hierarchy_reference`.  The
    two are bit-identical (the equivalence suite in
    ``tests/cache/test_vectorized_equivalence.py`` enforces it), so the
    choice only affects speed.  Either way this is a one-chunk run of
    the :func:`functional_pass` machine.
    """
    machine = functional_pass(
        trace, config, core, warmup_instructions=warmup_instructions, mode=mode
    )
    requests = machine.feed(trace)
    return machine.finish().with_requests(requests)


def simulate_hierarchy_reference(
    trace: MemoryTrace,
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
) -> MissTrace:
    """The scalar reference pass (oracle for the vectorized kernel).

    Returns a :class:`MissTrace` whose requests are, in program order:
    load-miss fetches (blocking), store-miss fetches (non-blocking,
    write-allocate), and dirty writebacks from L2 evictions (non-blocking).
    The paper's ORAM controller is invoked for both misses and evictions
    (Section 3.1), so writebacks are first-class requests here.

    ``warmup_instructions`` mirrors the paper's fast-forwarding ("each
    benchmark is fast-forwarded 1-20 billion instructions to get out of
    initialization code"): the first part of the trace warms the caches
    but contributes no requests, instructions, or energy.

    This is a one-chunk run of :class:`StreamingHierarchyPass`: the trace
    is its own header and its own single chunk.
    """
    machine = StreamingHierarchyPass(
        trace, config, core, warmup_instructions=warmup_instructions
    )
    requests = machine.feed(trace)
    return machine.finish().with_requests(requests)


def functional_pass(
    header: TraceHeader | MemoryTrace,
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
    mode: str = "fast",
) -> StreamingHierarchyPass | VectorizedHierarchyPass:
    """A fresh functional-pass machine: vectorized for ``mode="fast"``
    (the default), the scalar oracle for ``mode="reference"``."""
    if mode == "fast":
        from repro.cache.vectorized import VectorizedHierarchyPass

        return VectorizedHierarchyPass(
            header, config, core, warmup_instructions=warmup_instructions
        )
    if mode != "reference":
        raise ValueError(f"mode must be 'fast' or 'reference', got {mode!r}")
    return StreamingHierarchyPass(
        header, config, core, warmup_instructions=warmup_instructions
    )


@dataclass
class MissChunk:
    """The request stream emitted while consuming one input chunk.

    May be empty (every reference hit on chip) and carries no trace-level
    totals — those arrive from :meth:`StreamingHierarchyPass.finish`.
    """

    gap_cycles: np.ndarray
    is_blocking: np.ndarray
    instruction_index: np.ndarray

    def __len__(self) -> int:
        return len(self.gap_cycles)

    @classmethod
    def empty(cls) -> MissChunk:
        """A chunk with no requests."""
        return cls(
            gap_cycles=np.zeros(0, dtype=np.float64),
            is_blocking=np.zeros(0, dtype=bool),
            instruction_index=np.zeros(0, dtype=np.int64),
        )


@dataclass
class FunctionalSummary:
    """Trace-level totals, valid once the whole trace has been fed."""

    total_compute_cycles: float
    n_instructions: int
    energy: EnergyEvents
    source_name: str
    source_input: str

    def with_requests(self, requests: MissChunk) -> MissTrace:
        """The in-memory :class:`MissTrace`: these totals plus ``requests``."""
        return MissTrace(
            gap_cycles=requests.gap_cycles,
            is_blocking=requests.is_blocking,
            instruction_index=requests.instruction_index,
            total_compute_cycles=self.total_compute_cycles,
            n_instructions=self.n_instructions,
            energy=self.energy,
            source_name=self.source_name,
            source_input=self.source_input,
        )


class StreamingHierarchyPass:
    """The scalar functional pass as a resumable machine.

    All loop state (L1/L2 resident sets, the cycle accumulator, the
    instruction counter, the warmup flag, energy tallies) lives on the
    object, and :meth:`feed` advances it over one bounded chunk at a
    time — a :class:`~repro.ingest.formats.TraceChunk`, or a whole
    :class:`MemoryTrace` as the only chunk.  Each ``feed`` loads the state
    into locals and writes it back once, so feeding a trace in *any*
    chunking — including one reference at a time — performs the exact
    per-reference execution of a one-chunk run.

    ``header`` carries the trace-level metadata (name, input name,
    instruction mix, local-reference fraction, icache footprint, phase
    count): a :class:`~repro.ingest.formats.TraceHeader`, or the
    :class:`MemoryTrace` itself.
    """

    def __init__(
        self,
        header: TraceHeader | MemoryTrace,
        config: HierarchyConfig | None = None,
        core: CoreModel | None = None,
        warmup_instructions: int = 0,
    ) -> None:
        config = config if config is not None else PAPER_HIERARCHY
        core = core if core is not None else DEFAULT_CORE
        self.header = header
        self.config = config
        self.warmup_instructions = warmup_instructions

        self._line_shift = floor_lg(config.line_bytes)
        l1_sets_count = config.l1d_bytes // config.line_bytes // config.l1d_ways
        l2_sets_count = config.l2_bytes // config.line_bytes // config.l2_ways
        self._l1_mask = l1_sets_count - 1
        self._l2_mask = l2_sets_count - 1
        self._l1_bits = floor_lg(l1_sets_count)
        self._l2_bits = floor_lg(l2_sets_count)
        self._l1_ways = config.l1d_ways
        self._l2_ways = config.l2_ways
        self._l1_sets: list[dict[int, bool]] = [dict() for _ in range(l1_sets_count)]
        self._l2_sets: list[dict[int, bool]] = [dict() for _ in range(l2_sets_count)]

        self._l1_hit_cycles = core.load_hit_cycles(1)
        self._l2_hit_cycles = core.load_hit_cycles(2)
        self._miss_onchip_cycles = core.load_miss_onchip_cycles()
        self._store_issue = core.store_issue_cycles
        # Gap instructions are a blend of non-memory work and always-L1-hit
        # local references (see MemoryTrace.local_ref_fraction).
        local_fraction = header.local_ref_fraction
        self._cpi = (
            (1.0 - local_fraction) * core.nonmem_cpi(header.mix)
            + local_fraction * self._l1_hit_cycles
        )

        self._cycles_acc = 0.0
        self._instructions = 0
        self._warm = warmup_instructions <= 0
        self._n_refs_total = 0  # includes warmup refs (energy denominator)
        self._l1d_hits = 0
        self._l1d_refills = 0
        self._l2_hits = 0
        self._l2_refills = 0
        self._writebacks = 0
        self._llc_misses = 0
        self._finished = False

    def feed(self, chunk: TraceChunk | MemoryTrace) -> MissChunk:
        """Advance the pass over one chunk; emit its request stream."""
        if self._finished:
            raise RuntimeError("feed() after finish()")
        line_shift = self._line_shift
        l1_mask, l2_mask = self._l1_mask, self._l2_mask
        l1_bits, l2_bits = self._l1_bits, self._l2_bits
        l1_ways, l2_ways = self._l1_ways, self._l2_ways
        l1_sets, l2_sets = self._l1_sets, self._l2_sets
        l1_hit_cycles = self._l1_hit_cycles
        l2_hit_cycles = self._l2_hit_cycles
        miss_onchip_cycles = self._miss_onchip_cycles
        store_issue = self._store_issue
        cpi = self._cpi
        warmup_instructions = self.warmup_instructions

        cycles_acc = self._cycles_acc
        instructions = self._instructions
        warm = self._warm
        l1d_hits, l1d_refills = self._l1d_hits, self._l1d_refills
        l2_hits, l2_refills = self._l2_hits, self._l2_refills
        writebacks, llc_misses = self._writebacks, self._llc_misses

        addresses = chunk.addresses
        stores = chunk.is_store
        gaps = chunk.gap_instructions
        n = len(addresses)
        self._n_refs_total += n

        # Request stream accumulators.
        out_gap_cycles: list[float] = []
        out_blocking: list[bool] = []
        out_inst_index: list[int] = []
        append_gap = out_gap_cycles.append
        append_blocking = out_blocking.append
        append_inst = out_inst_index.append

        for i in range(n):
            gap_instrs = int(gaps[i])
            instructions += gap_instrs + 1
            cycles_acc += gap_instrs * cpi
            if not warm:
                if instructions < warmup_instructions:
                    # Warm the caches only: replay the reference with no
                    # request/energy accounting.
                    line = int(addresses[i]) >> line_shift
                    is_store = bool(stores[i])
                    l1_set = l1_sets[line & l1_mask]
                    l1_tag = line >> l1_bits
                    if l1_tag in l1_set:
                        l1_set[l1_tag] = l1_set.pop(l1_tag) or is_store
                    else:
                        l2_set = l2_sets[line & l2_mask]
                        l2_tag = line >> l2_bits
                        if l2_tag in l2_set:
                            l2_set[l2_tag] = l2_set.pop(l2_tag)
                        else:
                            if len(l2_set) >= l2_ways:
                                victim_tag = next(iter(l2_set))
                                del l2_set[victim_tag]
                                victim_line = (victim_tag << l2_bits) | (line & l2_mask)
                                v_l1_set = l1_sets[victim_line & l1_mask]
                                v_l1_set.pop(victim_line >> l1_bits, None)
                            l2_set[l2_tag] = False
                        if len(l1_set) >= l1_ways:
                            del l1_set[next(iter(l1_set))]
                        l1_set[l1_tag] = is_store
                    continue
                warm = True
                instructions = 0
                cycles_acc = 0.0

            line = int(addresses[i]) >> line_shift
            is_store = bool(stores[i])

            # ---- L1 D lookup ----
            l1_set = l1_sets[line & l1_mask]
            l1_tag = line >> l1_bits
            if l1_tag in l1_set:
                dirty = l1_set.pop(l1_tag)
                l1_set[l1_tag] = dirty or is_store
                l1d_hits += 1
                cycles_acc += store_issue if is_store else l1_hit_cycles
                continue

            # ---- L2 lookup ----
            l2_set = l2_sets[line & l2_mask]
            l2_tag = line >> l2_bits
            l2_hit = l2_tag in l2_set
            if l2_hit:
                l2_set[l2_tag] = l2_set.pop(l2_tag)
                l2_hits += 1
                cycles_acc += store_issue if is_store else l2_hit_cycles
            else:
                # ---- LLC miss: emit a fetch request ----
                llc_misses += 1
                cycles_acc += store_issue if is_store else miss_onchip_cycles
                append_gap(cycles_acc)
                append_blocking(not is_store)
                append_inst(instructions)
                cycles_acc = 0.0
                # Fill L2 (write-allocate); evict + back-invalidate as needed.
                if len(l2_set) >= l2_ways:
                    victim_tag = next(iter(l2_set))
                    victim_dirty = l2_set.pop(victim_tag)
                    victim_line = (victim_tag << l2_bits) | (line & l2_mask)
                    # Inclusive hierarchy: purge the victim from L1 D, merging
                    # its dirtiness into the writeback decision.
                    v_l1_set = l1_sets[victim_line & l1_mask]
                    v_l1_tag = victim_line >> l1_bits
                    if v_l1_tag in v_l1_set:
                        victim_dirty = v_l1_set.pop(v_l1_tag) or victim_dirty
                    if victim_dirty:
                        writebacks += 1
                        append_gap(0.0)
                        append_blocking(False)
                        append_inst(instructions)
                l2_set[l2_tag] = False
                l2_refills += 1

            # ---- Fill L1 D ----
            if len(l1_set) >= l1_ways:
                victim_tag = next(iter(l1_set))
                victim_dirty = l1_set.pop(victim_tag)
                if victim_dirty:
                    # Write the dirty line back into L2 (on-chip, no request).
                    victim_line = (victim_tag << l1_bits) | (line & l1_mask)
                    wb_l2_set = l2_sets[victim_line & l2_mask]
                    wb_l2_tag = victim_line >> l2_bits
                    if wb_l2_tag in wb_l2_set:
                        wb_l2_set[wb_l2_tag] = True
                    # Inclusion guarantees presence; a miss here would mean the
                    # line was back-invalidated in the same step, impossible for
                    # the line we are about to replace.
            l1_set[l1_tag] = is_store
            l1d_refills += 1

        self._cycles_acc = cycles_acc
        self._instructions = instructions
        self._warm = warm
        self._l1d_hits, self._l1d_refills = l1d_hits, l1d_refills
        self._l2_hits, self._l2_refills = l2_hits, l2_refills
        self._writebacks, self._llc_misses = writebacks, llc_misses

        return MissChunk(
            gap_cycles=np.asarray(out_gap_cycles, dtype=np.float64),
            is_blocking=np.asarray(out_blocking, dtype=bool),
            instruction_index=np.asarray(out_inst_index, dtype=np.int64),
        )

    def finish(self) -> FunctionalSummary:
        """Close the pass and compute the trace-level totals."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        header = self.header
        return FunctionalSummary(
            total_compute_cycles=self._cycles_acc,
            n_instructions=self._instructions,
            energy=_energy_events(
                header, self.config, self._instructions, self._n_refs_total,
                l1d_hits=self._l1d_hits, l1d_refills=self._l1d_refills,
                l2_hits=self._l2_hits, l2_refills=self._l2_refills,
                llc_misses=self._llc_misses, writebacks=self._writebacks,
            ),
            source_name=header.name,
            source_input=header.input_name,
        )


def _energy_events(
    header, config, n_instructions, n_refs,
    l1d_hits, l1d_refills, l2_hits, l2_refills, llc_misses, writebacks,
) -> EnergyEvents:
    """Energy event counts of a finished functional pass.

    ``n_refs`` is the *total* reference count (warm-up included) while
    ``n_instructions`` is the post-warm-up tally; both kernels mix them
    exactly this way.
    """
    local_fraction = header.local_ref_fraction
    energy = EnergyEvents()
    n_gap_instructions = n_instructions - n_refs
    implicit_l1_refs = int(n_gap_instructions * local_fraction)
    n_nonmem = n_gap_instructions - implicit_l1_refs
    energy.n_instructions = n_instructions
    energy.n_memory_refs = n_refs + implicit_l1_refs
    energy.alu_fpu_ops = n_nonmem
    fp_fraction = header.mix.fp_fraction
    energy.regfile_fp_ops = int(n_nonmem * fp_fraction)
    energy.regfile_int_ops = n_nonmem - energy.regfile_fp_ops + energy.n_memory_refs
    # One 256-bit fetch-buffer access per 8 4-byte instructions.
    energy.fetch_buffer_accesses = n_instructions // 8
    # L1 I: Table 2's coefficient is per cache *line*, and one 64-byte line
    # feeds 16 four-byte MIPS instructions, so line fetches = instrs / 16.
    # Refills touch the hot footprint once per phase (a statistical model —
    # code footprints of these benchmarks are far below the 1 MB LLC, so
    # they do not contribute LLC misses).
    energy.l1i_hits = n_instructions // (config.line_bytes // 4)
    energy.l1i_refills = header.n_phases * (
        header.icache_footprint_bytes // config.line_bytes
    )
    energy.l1d_hits = l1d_hits + implicit_l1_refs
    energy.l1d_refills = l1d_refills
    energy.l2_hits = l2_hits + energy.l1i_refills  # I-refills hit in L2.
    energy.l2_refills = l2_refills
    energy.llc_misses = llc_misses
    energy.writebacks = writebacks
    return energy

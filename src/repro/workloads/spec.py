"""Synthetic models of the paper's SPEC-int benchmark set.

The paper evaluates eleven SPEC-int benchmarks spanning memory-bound to
compute-bound (Section 9.1.1).  We cannot run SPEC binaries in this
substrate, so each benchmark is modeled as a synthetic address/instruction
stream calibrated to the qualitative behaviour the paper reports or that
is well documented for these programs:

* **mcf** — pointer-chasing over a multi-MB network-simplex graph; the
  paper's most memory-bound point (19.2x base_oram overhead in Fig 6).
* **libquantum** — regular streaming over large quantum-register arrays;
  memory bound with a very steady rate (Fig 7 top).
* **omnetpp** — discrete-event simulation; irregular heap traffic with a
  skewed hot set.
* **bzip2** — block compression; phases alternating cache-resident and
  working-set-exceeding blocks.
* **hmmer** — profile HMM search; regular table walks that mostly fit.
* **astar** — path-finding whose behaviour is strongly input dependent:
  `rivers` is steady, `biglakes` grows its frontier over time (Fig 2
  bottom).
* **gcc** — compilation; bursty alternation of small hot loops and large
  IR sweeps.
* **gobmk** — Go playouts; erratic-looking but statistically converging
  (Fig 7 middle: settles on one rate after epoch 6).
* **sjeng** — game-tree search with large hash-table probes; mostly
  compute with scattered misses.
* **h264ref** — video encoding; compute-bound until a late memory-bound
  region (Fig 7 bottom: switches rate at epoch 8).
* **perlbench** — interpreter whose inputs differ by ~80x in ORAM rate
  (`diffmail` vs `splitmail`, Fig 2 top).

Every model takes ``(seed, n_instructions)`` and may be regenerated at any
scale; regions and phase fractions are fixed so behaviour is
scale-invariant above ~200k instructions.
"""

from __future__ import annotations

from repro.cpu.isa import InstructionMix
from repro.cpu.trace import MemoryTrace
from repro.util.rng import make_rng
from repro.util.units import KB, MB
from repro.workloads.base import WorkloadSpec, scale_refs
from repro.workloads.patterns import (
    Segment,
    concat,
    interleave,
    pointer_chase,
    stream,
    uniform_working_set,
    zipf_working_set,
)

_INT_HEAVY = InstructionMix(
    int_arith=0.72, int_mult=0.06, int_div=0.01, fp_arith=0.02,
    fp_mult=0.01, fp_div=0.0, branch=0.18,
)
_BRANCHY = InstructionMix(
    int_arith=0.66, int_mult=0.04, int_div=0.01, fp_arith=0.02,
    fp_mult=0.01, fp_div=0.0, branch=0.26,
)
_MULT_HEAVY = InstructionMix(
    int_arith=0.58, int_mult=0.16, int_div=0.02, fp_arith=0.06,
    fp_mult=0.04, fp_div=0.01, branch=0.13,
)


def _trace(name, input_name, segment, mix, local_refs=0.20, footprint=64 * KB, phases=1):
    return MemoryTrace(
        name=name,
        input_name=input_name,
        addresses=segment.addresses,
        is_store=segment.is_store,
        gap_instructions=segment.gap_instructions,
        mix=mix,
        local_ref_fraction=local_refs,
        icache_footprint_bytes=footprint,
        n_phases=phases,
    )


# ----------------------------------------------------------------------
# Memory-bound benchmarks
# ----------------------------------------------------------------------

def build_mcf(seed: int, n_instructions: int) -> MemoryTrace:
    """Pointer chase over a 16 MB graph; ~35 instructions between misses.

    Calibrated so base_oram runs ~19x slower than base_dram, matching the
    19.2x annotation on mcf in Figure 6.
    """
    rng = make_rng(seed, "mcf")
    mean_gap = 33.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = pointer_chase(
        rng, n_refs, base=0x1000_0000, region_bytes=16 * MB,
        mean_gap=mean_gap, store_fraction=0.18,
    )
    return _trace("mcf", "inp", segment, _INT_HEAVY, local_refs=0.25)


def build_libquantum(seed: int, n_instructions: int) -> MemoryTrace:
    """Streaming sweeps over a 32 MB register array; steady rate."""
    rng = make_rng(seed, "libquantum")
    mean_gap = 16.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = stream(
        rng, n_refs, base=0x2000_0000, region_bytes=32 * MB,
        stride_bytes=16, mean_gap=mean_gap, store_fraction=0.25,
    )
    return _trace("libquantum", "ref", segment, _INT_HEAVY, local_refs=0.15)


def build_omnetpp(seed: int, n_instructions: int) -> MemoryTrace:
    """Skewed heap traffic over 6 MB of event/message objects."""
    rng = make_rng(seed, "omnetpp")
    mean_gap = 14.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = zipf_working_set(
        rng, n_refs, base=0x3000_0000, region_bytes=6 * MB,
        skew=1.35, mean_gap=mean_gap, store_fraction=0.30, seed_permutation=seed + 1,
    )
    return _trace("omnetpp", "ref", segment, _BRANCHY, local_refs=0.22)


# ----------------------------------------------------------------------
# Mixed benchmarks
# ----------------------------------------------------------------------

def build_bzip2(seed: int, n_instructions: int) -> MemoryTrace:
    """Compression blocks alternating resident and over-LLC working sets."""
    rng = make_rng(seed, "bzip2")
    mean_gap = 22.0
    n_refs = scale_refs(n_instructions, mean_gap)
    blocks = []
    per_block = max(1, n_refs // 8)
    for index in range(8):
        if index % 2 == 0:
            blocks.append(uniform_working_set(
                rng, per_block, base=0x4000_0000, region_bytes=640 * KB,
                mean_gap=mean_gap, store_fraction=0.36,
            ))
        else:
            blocks.append(zipf_working_set(
                rng, per_block, base=0x4100_0000, region_bytes=2 * MB + 512 * KB,
                skew=1.3, mean_gap=mean_gap, store_fraction=0.36,
                seed_permutation=seed + 9,
            ))
    return _trace("bzip2", "ref", concat(blocks), _INT_HEAVY, phases=8)


def build_astar_rivers(seed: int, n_instructions: int) -> MemoryTrace:
    """Steady grid search: a stable ~2 MB frontier (Fig 2 'rivers')."""
    rng = make_rng(seed, "astar-rivers")
    mean_gap = 16.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = zipf_working_set(
        rng, n_refs, base=0x5000_0000, region_bytes=2 * MB,
        skew=1.5, mean_gap=mean_gap, store_fraction=0.28, seed_permutation=seed + 2,
    )
    return _trace("astar", "rivers", segment, _BRANCHY)


def build_astar_biglakes(seed: int, n_instructions: int) -> MemoryTrace:
    """Growing frontier: working set ramps 512 KB -> 12 MB (Fig 2 'biglakes').

    Later stages both grow the region *and* flatten the reuse skew, so the
    ORAM rate keeps climbing through the run — the "changes dramatically
    as the program runs" behaviour of Figure 2 (bottom).
    """
    rng = make_rng(seed, "astar-biglakes")
    mean_gap = 16.0
    n_refs = scale_refs(n_instructions, mean_gap)
    stage_schedule = [
        (512 * KB, 2.0),
        (1 * MB, 1.7),
        (2 * MB, 1.5),
        (4 * MB, 1.35),
        (8 * MB, 1.25),
        (12 * MB, 1.2),
    ]
    per_stage = max(1, n_refs // len(stage_schedule))
    stages = [
        zipf_working_set(
            rng, per_stage, base=0x5000_0000, region_bytes=region,
            skew=skew, mean_gap=mean_gap, store_fraction=0.28,
            seed_permutation=seed + 3,
        )
        for region, skew in stage_schedule
    ]
    return _trace("astar", "biglakes", concat(stages), _BRANCHY,
                  phases=len(stage_schedule))


def build_gcc(seed: int, n_instructions: int) -> MemoryTrace:
    """Bursty compilation: hot-loop quiet periods + large IR sweeps."""
    rng = make_rng(seed, "gcc")
    mean_gap = 26.0
    n_refs = scale_refs(n_instructions, mean_gap)
    quiet = zipf_working_set(
        rng, max(1, (n_refs * 7) // 8), base=0x6000_0000, region_bytes=448 * KB,
        skew=1.7, mean_gap=mean_gap * 1.1, store_fraction=0.30,
        seed_permutation=seed + 4,
    )
    sweep = stream(
        rng, max(1, n_refs // 8), base=0x6100_0000, region_bytes=4 * MB,
        stride_bytes=64, mean_gap=mean_gap * 0.6, store_fraction=0.30,
    )
    segment = interleave(rng, quiet, sweep, chunk_refs=max(1, n_refs // 60))
    return _trace("gcc", "ref", segment, _BRANCHY, footprint=192 * KB, phases=4)


def build_gobmk(seed: int, n_instructions: int) -> MemoryTrace:
    """Erratic playouts that are statistically stationary (Fig 7 middle)."""
    rng = make_rng(seed, "gobmk")
    mean_gap = 26.0
    n_refs = scale_refs(n_instructions, mean_gap)
    regions = [1 * MB + 256 * KB, 1 * MB + 640 * KB, 2 * MB + 256 * KB]
    pieces: list[Segment] = []
    remaining = n_refs
    while remaining > 0:
        chunk = int(min(remaining, max(1, rng.integers(n_refs // 40, n_refs // 12))))
        region = regions[int(rng.integers(0, len(regions)))]
        pieces.append(zipf_working_set(
            rng, chunk, base=0x7000_0000, region_bytes=region,
            skew=1.55, mean_gap=mean_gap, store_fraction=0.25,
            seed_permutation=seed + 8,
        ))
        remaining -= chunk
    return _trace("gobmk", "ref", concat(pieces), _BRANCHY, footprint=128 * KB,
                  phases=6)


# ----------------------------------------------------------------------
# Compute-bound benchmarks
# ----------------------------------------------------------------------

def build_hmmer(seed: int, n_instructions: int) -> MemoryTrace:
    """Profile-HMM table walks over a mostly resident 704 KB working set."""
    rng = make_rng(seed, "hmmer")
    mean_gap = 20.0
    n_refs = scale_refs(n_instructions, mean_gap)
    resident = uniform_working_set(
        rng, max(1, (n_refs * 63) // 64), base=0x8000_0000,
        region_bytes=704 * KB, mean_gap=mean_gap, store_fraction=0.22,
    )
    excursions = uniform_working_set(
        rng, max(1, n_refs // 64), base=0x8100_0000, region_bytes=2 * MB,
        mean_gap=mean_gap, store_fraction=0.22,
    )
    segment = interleave(rng, resident, excursions, chunk_refs=max(1, n_refs // 128))
    return _trace("hmmer", "ref", segment, _MULT_HEAVY, local_refs=0.3)


def build_sjeng(seed: int, n_instructions: int) -> MemoryTrace:
    """Game-tree search: heavy compute + scattered 4 MB hash probes."""
    rng = make_rng(seed, "sjeng")
    mean_gap = 30.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = zipf_working_set(
        rng, n_refs, base=0x9000_0000, region_bytes=4 * MB,
        skew=1.7, mean_gap=mean_gap, store_fraction=0.20, seed_permutation=seed + 5,
    )
    return _trace("sjeng", "ref", segment, _INT_HEAVY, local_refs=0.3)


def build_h264ref(seed: int, n_instructions: int) -> MemoryTrace:
    """Compute-bound encoding with a late memory-bound region (Fig 7 bottom).

    The first ~65% of instructions work in a resident 384 KB hot set; the
    remainder streams reference frames from a 6 MB region, flipping the
    benchmark memory-bound exactly once — the behaviour that forces the
    dynamic scheme to re-learn its rate mid-run.
    """
    rng = make_rng(seed, "h264ref")
    gap_compute = 40.0
    gap_memory = 2900.0
    refs_compute = scale_refs(int(n_instructions * 0.65), gap_compute)
    refs_memory = scale_refs(int(n_instructions * 0.35), gap_memory)
    compute_phase = zipf_working_set(
        rng, refs_compute, base=0xA000_0000, region_bytes=128 * KB,
        skew=2.3, mean_gap=gap_compute, store_fraction=0.25, seed_permutation=seed + 6,
    )
    memory_phase = stream(
        rng, refs_memory, base=0xA100_0000, region_bytes=8 * MB,
        stride_bytes=64, mean_gap=gap_memory, store_fraction=0.05,
    )
    return _trace("h264ref", "ref", concat([compute_phase, memory_phase]),
                  _MULT_HEAVY, local_refs=0.3, footprint=160 * KB, phases=2)


def build_perlbench_diffmail(seed: int, n_instructions: int) -> MemoryTrace:
    """Interpreter on a cache-friendly input: rare misses (Fig 2 'diffmail')."""
    rng = make_rng(seed, "perl-diffmail")
    mean_gap = 24.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = zipf_working_set(
        rng, n_refs, base=0xB000_0000, region_bytes=1 * MB + 256 * KB,
        skew=1.9, mean_gap=mean_gap, store_fraction=0.30, seed_permutation=seed + 7,
    )
    return _trace("perlbench", "diffmail", segment, _BRANCHY, local_refs=0.3,
                  footprint=256 * KB)


def build_perlbench_splitmail(seed: int, n_instructions: int) -> MemoryTrace:
    """Interpreter shredding a large mail corpus: ~80x more ORAM traffic."""
    rng = make_rng(seed, "perl-splitmail")
    mean_gap = 30.0
    n_refs = scale_refs(n_instructions, mean_gap)
    segment = stream(
        rng, n_refs, base=0xB100_0000, region_bytes=24 * MB,
        stride_bytes=32, mean_gap=mean_gap, store_fraction=0.25,
    )
    return _trace("perlbench", "splitmail", segment, _BRANCHY, local_refs=0.3,
                  footprint=256 * KB)


# ----------------------------------------------------------------------
# Registry construction
# ----------------------------------------------------------------------

def specint_workloads() -> dict[str, WorkloadSpec]:
    """The paper's eleven-benchmark suite, in Figure 6 order."""
    entries = [
        WorkloadSpec("mcf", ("inp",), "memory",
                     "pointer chase over 16 MB graph", build_mcf),
        WorkloadSpec("omnetpp", ("ref",), "memory",
                     "skewed heap traffic over 6 MB", build_omnetpp),
        WorkloadSpec("libquantum", ("ref",), "memory",
                     "streaming over 32 MB arrays", build_libquantum),
        WorkloadSpec("bzip2", ("ref",), "mixed",
                     "alternating resident/over-LLC compression blocks", build_bzip2),
        WorkloadSpec("hmmer", ("ref",), "compute",
                     "mostly-resident profile HMM tables", build_hmmer),
        WorkloadSpec("astar", ("rivers", "biglakes"), "mixed",
                     "input-dependent grid search", build_astar_rivers,
                     build_input={"biglakes": build_astar_biglakes}),
        WorkloadSpec("gcc", ("ref",), "mixed",
                     "bursty hot loops + IR sweeps", build_gcc),
        WorkloadSpec("gobmk", ("ref",), "mixed",
                     "erratic but stationary playouts", build_gobmk),
        WorkloadSpec("sjeng", ("ref",), "compute",
                     "compute-heavy search with hash probes", build_sjeng),
        WorkloadSpec("h264ref", ("ref",), "compute",
                     "compute phase then memory-bound tail", build_h264ref),
        WorkloadSpec("perlbench", ("diffmail", "splitmail"), "compute",
                     "interpreter with ~80x input-dependent ORAM rate",
                     build_perlbench_diffmail,
                     build_input={"splitmail": build_perlbench_splitmail}),
    ]
    return {spec.name: spec for spec in entries}

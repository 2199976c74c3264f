"""Microbenchmark runner for the simulation kernels.

Five tiers, mirroring the layers this repository's runtime is spent in.
Each times a fast path against its scalar oracle and checks that the two
agree bit for bit:

* **functional** — :func:`repro.cache.hierarchy.simulate_hierarchy` on a
  pinned trace, fast kernel vs scalar reference, with a
  :meth:`~repro.cpu.trace.MissTrace.checksum` equivalence check;
* **timing** — :func:`repro.sim.timing.run_timing` replays of that trace
  under representative schemes, fast vs reference, with a
  :class:`~repro.sim.result.SimResult` equivalence check;
* **oram** — a functional Path ORAM access burst (2^14 blocks, null
  cipher, mixed reads/writes/dummies): the batched array engine
  (:class:`repro.oram.engine.BatchedPathORAM`) vs the scalar reference
  controller, with a ``state_checksum()`` equivalence check over
  position map + stash + tree;
* **frontier_cell** — one frontier cell's replay workload: a 16-config
  dynamic-grid slice replayed by one
  :func:`repro.sim.timing.run_timing_batch` call versus 16 sequential
  reference replays, with per-config SimResult equivalence checks;
* **tenancy_step** — the multi-tenant service step: 16 closed-loop
  tenants on one shared bank, the batched scheduler (one
  ``access_batch`` call per round) versus round-robin (one call per
  request), with per-tenant result-digest equivalence checks.

Every timed pair becomes one :class:`Measurement`.  Workloads are pinned
and deterministic (fixed seeds, fixed sizes) so throughput numbers are
comparable across commits of one mode; the committed
``benchmarks/baselines.json`` freezes them into a CI gate
(:mod:`repro.perf.report`).  End-to-end engine throughput is measured by
``perfbench/``, not here.

The headline workload is ``kernel_stream`` — an L1-resident streaming
kernel (16 KB region, 8-byte stride) that measures the vectorized
pass at full tilt.  The other entries keep the report honest across the
memory-behaviour spectrum: ``libquantum`` streams through DRAM (misses
dominate), ``mcf`` pointer-chases (the pathological all-miss case where
the kernels can only match the reference), and ``h264ref`` is the
compute-bound paper workload.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cache.hierarchy import (
    simulate_hierarchy,
    simulate_hierarchy_reference,
)
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.sim.timing import run_timing, run_timing_batch
from repro.core.scheme import expand_scheme_grid, scheme_from_spec
from repro.util.rng import make_rng
from repro.workloads.patterns import stream
from repro.workloads.registry import build_trace

#: Pinned functional-tier workloads.  ``kernel_stream`` is synthetic
#: (built here); the rest come from the workload registry.
PERF_WORKLOADS: tuple[str, ...] = (
    "kernel_stream",
    "libquantum",
    "mcf",
    "h264ref",
)

#: Schemes the timing tier replays (one per controller kernel).
PERF_SCHEMES: tuple[str, ...] = ("base_dram", "base_oram", "static:300", "dynamic:4x4")

#: Workloads the timing tier replays: libquantum exercises the
#: request-dense path, mcf the blocking-heavy one.  (kernel_stream
#: produces no LLC requests at all, so there is nothing to replay.)
TIMING_WORKLOADS: tuple[str, ...] = ("libquantum", "mcf")

#: The pinned frontier-cell batch: a 16-config slice of the dynamic
#: design-space grid (4 rate-set sizes x 4 epoch growths), replayed by
#: one ``run_timing_batch`` call per (workload, repeat).
FRONTIER_CELL_GRID = "grid:dynamic:{rates=2,4,6,8}x{epochs=2,4,6,9}:{learner=avg}"

#: Workloads the frontier-cell tier replays (request-dense streams).
FRONTIER_CELL_WORKLOADS: tuple[str, ...] = ("libquantum", "mcf")

#: The perf-suite tiers, in execution order.
PERF_TIERS: tuple[str, ...] = (
    "functional", "timing", "oram", "frontier_cell", "tenancy_step"
)

#: Post-warm-up instruction budgets, and the warm-up prefix on top.
FULL_INSTRUCTIONS = 1_000_000
QUICK_INSTRUCTIONS = 300_000
WARMUP_FRACTION = 0.30

#: The pinned ORAM access-burst workload: 2^14 addressable blocks, Z=4,
#: 64-byte lines, uniform addresses with 10% dummies and 1/3 writes.
ORAM_WORKLOAD = "oram_burst"
ORAM_BLOCKS = 1 << 14
ORAM_FULL_ACCESSES = 4_000
ORAM_QUICK_ACCESSES = 1_200

#: The pinned tenancy-step workload: 16 closed-loop tenants saturating
#: the shared bank (every round batches all 16 head-of-line requests).
TENANCY_TENANTS = 16
TENANCY_FULL_REQUESTS = 256
TENANCY_QUICK_REQUESTS = 96

#: Bumped when the report's JSON shape changes (5: one measurement list).
REPORT_VERSION = 5


def build_perf_trace(name: str, n_instructions: int, seed: int = 0) -> MemoryTrace:
    """Build one pinned perf workload trace.

    ``kernel_stream`` is an L1-resident 8-byte-stride stream over 16 KB
    with short compute gaps — after the first lap every reference hits
    L1, which is exactly the regime the vectorized hit path targets.
    Registry names delegate to the normal workload builders.
    """
    if name != "kernel_stream":
        return build_trace(name, seed=seed, n_instructions=n_instructions)
    rng = make_rng(seed, "perf.kernel_stream")
    mean_gap = 2.0
    n_refs = int(n_instructions / (mean_gap + 1.0))
    segment = stream(
        rng,
        n_refs=n_refs,
        base=1 << 20,
        region_bytes=16 * 1024,
        stride_bytes=8,
        mean_gap=mean_gap,
        store_fraction=0.2,
    )
    return MemoryTrace(
        name="kernel_stream",
        input_name="l1_resident",
        addresses=segment.addresses,
        is_store=segment.is_store,
        gap_instructions=segment.gap_instructions,
    )


@dataclass(frozen=True)
class Measurement:
    """One fast path timed against its reference on one pinned workload.

    ``n`` counts the ``unit`` one run processes (refs, requests,
    accesses, config-requests), so throughput and speedup derive from
    the two best-of wall times.  ``checksum`` is the fast run's output
    digest, for the tiers whose contract is one ("" otherwise).
    """

    tier: str
    workload: str
    unit: str
    n: int
    reference_s: float
    fast_s: float
    equivalent: bool
    checksum: str = ""

    @property
    def key(self) -> str:
        """The baseline key: ``tier/workload``."""
        return f"{self.tier}/{self.workload}"

    @property
    def speedup(self) -> float:
        return self.reference_s / self.fast_s

    @property
    def fast_per_s(self) -> float:
        return self.n / self.fast_s

    @property
    def reference_per_s(self) -> float:
        return self.n / self.reference_s


@dataclass
class PerfReport:
    """Full perf-suite output (serializes to BENCH_perf.json)."""

    mode: str  # "quick" or "full"
    n_instructions: int
    repeats: int
    measurements: list[Measurement] = field(default_factory=list)

    @property
    def all_equivalent(self) -> bool:
        """True when every fast-path run matched its reference bit-for-bit."""
        return all(m.equivalent for m in self.measurements)

    def to_dict(self) -> dict:
        """JSON-ready payload."""
        return {"version": REPORT_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mode=payload["mode"],
            n_instructions=payload["n_instructions"],
            repeats=payload["repeats"],
            measurements=[Measurement(**m) for m in payload["measurements"]],
        )

    def render(self) -> str:
        """Human-readable summary table, one block per tier."""
        lines = [
            f"perf suite ({self.mode}, {self.n_instructions} instructions, "
            f"best of {self.repeats})",
        ]
        tier = None
        for m in self.measurements:
            if m.tier != tier:
                tier = m.tier
                lines.append(f"{tier} ({m.unit}/sec, fast vs reference):")
            flag = "ok" if m.equivalent else "MISMATCH"
            lines.append(
                f"  {m.workload:>22}: {m.fast_per_s:>12,.0f} fast"
                f"  {m.reference_per_s:>12,.0f} ref"
                f"  {m.speedup:5.1f}x  [{flag}]"
            )
        return "\n".join(lines)


def _best_of(run, repeats: int, setup=None) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` calls, plus the last value.

    With ``setup``, each call is ``run(setup())`` and only ``run`` is
    timed, so a stateful kernel starts fresh on every repeat.
    """
    best = float("inf")
    value = None
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        value = run(*args)
        best = min(best, time.perf_counter() - t0)
    return best, value


def _measure(
    tier: str, workload: str, unit: str, n: int, reference, fast, contract
) -> Measurement:
    """One measurement from the ``(best seconds, output)`` of both paths.

    The paths are equivalent when ``contract`` maps their outputs to
    equal values; a string value is a checksum and is recorded.
    """
    reference_s, reference_out = reference
    fast_s, fast_out = fast
    value = contract(fast_out)
    return Measurement(
        tier=tier, workload=workload, unit=unit, n=n,
        reference_s=reference_s, fast_s=fast_s,
        equivalent=value == contract(reference_out),
        checksum=value if isinstance(value, str) else "",
    )


def _reference_repeats(repeats: int) -> int:
    """The slow scalar oracle runs half as many repeats as the fast path."""
    return max(1, repeats // 2)


def _replay_contract(result) -> tuple:
    """What a fast replay must reproduce bit for bit (a SimResult's
    cycles, counters, epochs, per-request completions and power)."""
    controller = result.controller
    return (
        result.cycles,
        result.n_instructions,
        controller.real_accesses,
        controller.dummy_accesses,
        controller.total_waste,
        result.epochs,
        np.asarray(result.request_completion_times, dtype=np.float64).tobytes(),
        result.power_watts,
    )


def bench_functional(workload: str, n_instructions: int, repeats: int) -> Measurement:
    """Time the functional pass on one workload, fast vs reference."""
    warmup = int(n_instructions * WARMUP_FRACTION)
    trace = build_perf_trace(workload, n_instructions + warmup)
    return _measure(
        "functional", workload, "refs", trace.n_references,
        _best_of(
            lambda: simulate_hierarchy_reference(trace, warmup_instructions=warmup),
            _reference_repeats(repeats),
        ),
        _best_of(
            lambda: simulate_hierarchy(trace, warmup_instructions=warmup, mode="fast"),
            repeats,
        ),
        MissTrace.checksum,
    )


def bench_timing(
    workload: str, miss_trace: MissTrace, scheme_spec: str, repeats: int
) -> Measurement:
    """Time the replay of one miss trace under one scheme."""
    scheme = scheme_from_spec(scheme_spec)
    return _measure(
        "timing", f"{workload}/{scheme_spec}", "requests", miss_trace.n_requests,
        _best_of(
            lambda: run_timing(miss_trace, scheme, mode="reference"),
            _reference_repeats(repeats),
        ),
        _best_of(lambda: run_timing(miss_trace, scheme, mode="fast"), repeats),
        _replay_contract,
    )


def build_oram_trace(
    n_accesses: int,
    n_blocks: int = ORAM_BLOCKS,
    seed: int = 0,
    rng_label: str = "perf.oram_burst",
) -> tuple[np.ndarray, np.ndarray]:
    """Pinned ORAM access mix: uniform addresses, 10% dummies, 1/3 writes.

    The one canonical mix for ORAM throughput/stash measurement; other
    harnesses (``repro.analysis.stash_scaling``) reuse it under their
    own ``rng_label`` to keep their streams independent but the mix
    definition single-sourced.
    """
    rng = make_rng(seed, rng_label)
    addresses = rng.integers(0, n_blocks, size=n_accesses).astype(np.int64)
    addresses[rng.random(n_accesses) < 0.10] = -1
    is_write = rng.random(n_accesses) < (1.0 / 3.0)
    return addresses, is_write


def bench_oram(n_accesses: int, repeats: int) -> Measurement:
    """Time the functional ORAM burst, batched engine vs scalar reference.

    Both kernels run the identical pinned trace from a fresh controller
    (accesses mutate state, so each repeat rebuilds; construction is
    outside the timed region) under the null cipher, and the final
    position-map/stash/tree state must hash identically.
    """
    from repro.oram.config import TreeGeometry
    from repro.oram.encryption import NullCipher
    from repro.oram.engine import BatchedPathORAM
    from repro.oram.path_oram import PathORAM

    geometry = TreeGeometry.for_block_count(
        n_blocks=ORAM_BLOCKS, blocks_per_bucket=4, block_bytes=64
    )
    addresses, is_write = build_oram_trace(n_accesses)

    def burst(oram):
        oram.run_trace(addresses, is_write)
        return oram

    return _measure(
        "oram", ORAM_WORKLOAD, "accesses", n_accesses,
        _best_of(
            burst, _reference_repeats(repeats),
            setup=lambda: PathORAM(geometry, ORAM_BLOCKS, seed=1, cipher=NullCipher()),
        ),
        _best_of(
            burst, repeats, setup=lambda: BatchedPathORAM(geometry, ORAM_BLOCKS, seed=1)
        ),
        lambda oram: oram.state_checksum(),
    )


def bench_frontier_cell(
    workload: str, miss_trace: MissTrace, repeats: int,
    grid: str = FRONTIER_CELL_GRID,
) -> Measurement:
    """Time one frontier cell: a batched grid replay vs sequential oracle.

    The fast path is exactly what a frontier sweep dispatches per
    (benchmark, seed): one ``run_timing_batch`` call over the grid
    slice.  The reference is the per-scheme scalar oracle, replayed
    sequentially — the same fast-vs-reference contract as every other
    tier.  Every per-config result must be bit-identical; throughput
    counts config-requests (configs x requests per run).
    """
    schemes = [scheme_from_spec(spec) for spec in expand_scheme_grid(grid)]
    return _measure(
        "frontier_cell", workload, "config-requests",
        len(schemes) * miss_trace.n_requests,
        _best_of(
            lambda: run_timing_batch(miss_trace, schemes, mode="reference"),
            _reference_repeats(repeats),
        ),
        _best_of(
            lambda: run_timing_batch(miss_trace, schemes, mode="fast"), repeats
        ),
        lambda results: [_replay_contract(result) for result in results],
    )


def bench_tenancy_step(
    requests_per_tenant: int, repeats: int, n_tenants: int = TENANCY_TENANTS
) -> Measurement:
    """Time the multi-tenant service step, batched vs round-robin.

    Both runs use the identical pinned closed-loop workload (every
    tenant saturates, so each batched round packs all ``n_tenants`` head
    requests into one ``access_batch`` call, while round-robin issues
    one call per request).  Simulated service capacity is identical by
    construction; the measured difference is pure kernel amortization.
    Per-tenant result digests must match between the two runs — the
    scheduler-invariance contract.
    """
    from repro.tenancy import TenancyConfig, run_tenancy, with_overrides

    config = TenancyConfig(
        n_tenants=n_tenants,
        requests_per_tenant=requests_per_tenant,
        mean_gap_slots=0.0,
        seed=0,
    )

    def run(scheduler: str):
        return run_tenancy(with_overrides(config, scheduler=scheduler))

    return _measure(
        "tenancy_step", f"tenants_{n_tenants}", "requests",
        n_tenants * requests_per_tenant,
        _best_of(lambda: run("round_robin"), _reference_repeats(repeats)),
        _best_of(lambda: run("batched"), repeats),
        lambda report: [tenant.digest for tenant in report.tenants],
    )


def run_perf_suite(
    quick: bool = False,
    repeats: int | None = None,
    tiers: tuple[str, ...] | None = None,
) -> PerfReport:
    """Run the suite: every tier of :data:`PERF_TIERS`, in order.

    ``tiers`` restricts the run to a subset (``repro perf --tier
    frontier_cell``); miss traces that the replay tiers need are
    computed untimed.
    """
    n_instructions = QUICK_INSTRUCTIONS if quick else FULL_INSTRUCTIONS
    if repeats is None:
        repeats = 3 if quick else 5
    if tiers is None:
        tiers = PERF_TIERS
    unknown = set(tiers) - set(PERF_TIERS)
    if unknown:
        raise ValueError(
            f"unknown perf tiers {sorted(unknown)}; accepted: {', '.join(PERF_TIERS)}"
        )
    report = PerfReport(
        mode="quick" if quick else "full", n_instructions=n_instructions, repeats=repeats
    )
    measurements = report.measurements
    miss_traces: dict[str, MissTrace] = {}

    def miss_trace_for(workload: str) -> MissTrace:
        if workload not in miss_traces:
            warmup = int(n_instructions * WARMUP_FRACTION)
            miss_traces[workload] = simulate_hierarchy(
                build_perf_trace(workload, n_instructions + warmup),
                warmup_instructions=warmup, mode="fast",
            )
        return miss_traces[workload]

    if "functional" in tiers:
        measurements.extend(
            bench_functional(w, n_instructions, repeats) for w in PERF_WORKLOADS
        )
    if "timing" in tiers:
        measurements.extend(
            bench_timing(w, miss_trace_for(w), scheme, repeats)
            for w in TIMING_WORKLOADS
            for scheme in PERF_SCHEMES
        )
    if "oram" in tiers:
        oram_accesses = ORAM_QUICK_ACCESSES if quick else ORAM_FULL_ACCESSES
        measurements.append(bench_oram(oram_accesses, repeats))
    if "frontier_cell" in tiers:
        measurements.extend(
            bench_frontier_cell(w, miss_trace_for(w), repeats)
            for w in FRONTIER_CELL_WORKLOADS
        )
    if "tenancy_step" in tiers:
        tenancy_requests = TENANCY_QUICK_REQUESTS if quick else TENANCY_FULL_REQUESTS
        measurements.append(bench_tenancy_step(tenancy_requests, repeats))
    return report

"""Vectorized address-pattern primitives for synthetic workloads.

Each primitive produces a *segment*: numpy arrays of byte addresses, store
flags, and inter-reference instruction gaps.  Benchmark models in
:mod:`repro.workloads.spec` compose segments into phases.  All primitives
are deterministic given the supplied generator.

Note on pointer chasing: a permutation-cycle walk and our random-order
visit of region lines are equivalent at cache granularity (both touch
lines in an order with no spatial or temporal locality), so we use the
vectorizable form.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: The Zipf scatters of the trace build in progress, by
#: ``(seed_permutation, n_lines)``; None outside :func:`shared_scatters`.
_SCATTERS: contextvars.ContextVar = contextvars.ContextVar("zipf_scatters", default=None)


@contextmanager
def shared_scatters():
    """Compute each Zipf scatter once inside the block.

    Workload models call :func:`zipf_working_set` many times with one
    ``seed_permutation`` (gobmk 20-40 times over 3 regions), and each
    call would otherwise redraw the same permutation.  The memo lives
    only for the block, one trace build, so no scatter outlives it.
    """
    token = _SCATTERS.set({})
    try:
        yield
    finally:
        _SCATTERS.reset(token)


def _scatter(seed_permutation: int, n_lines: int) -> np.ndarray:
    """The line order a Zipf segment scatters its ranks over (read-only)."""
    memo = _SCATTERS.get()
    key = (seed_permutation, n_lines)
    if memo is not None and key in memo:
        return memo[key]
    scatter = np.random.default_rng(seed_permutation).permutation(n_lines)
    if memo is not None:
        memo[key] = scatter
    return scatter


@dataclass
class Segment:
    """One homogeneous stretch of references."""

    addresses: np.ndarray
    is_store: np.ndarray
    gap_instructions: np.ndarray

    @property
    def n_refs(self) -> int:
        """Number of references in the segment."""
        return len(self.addresses)

    @property
    def n_instructions(self) -> int:
        """Instructions covered by the segment (refs + gaps)."""
        return int(self.gap_instructions.sum()) + self.n_refs


def _gaps(rng: np.random.Generator, n: int, mean_gap: float) -> np.ndarray:
    """Geometric instruction gaps with the given mean (>= 0)."""
    if mean_gap < 0:
        raise ValueError(f"mean_gap must be >= 0, got {mean_gap}")
    if mean_gap == 0:
        return np.zeros(n, dtype=np.int64)
    # Geometric with support {1, 2, ...}; shift to mean `mean_gap`.
    p = min(1.0, 1.0 / (mean_gap + 1.0))
    return (rng.geometric(p, size=n) - 1).astype(np.int64)


def _stores(rng: np.random.Generator, n: int, store_fraction: float) -> np.ndarray:
    """Bernoulli store flags."""
    if not 0.0 <= store_fraction <= 1.0:
        raise ValueError(f"store_fraction must be in [0,1], got {store_fraction}")
    return rng.random(n) < store_fraction


def stream(
    rng: np.random.Generator,
    n_refs: int,
    base: int,
    region_bytes: int,
    stride_bytes: int = 8,
    mean_gap: float = 8.0,
    store_fraction: float = 0.3,
) -> Segment:
    """Sequential streaming through a region, wrapping at its end.

    Models libquantum-style array sweeps: perfect spatial locality, zero
    temporal locality once the region exceeds the LLC.
    """
    _check_region(n_refs, region_bytes)
    offsets = (np.arange(n_refs, dtype=np.int64) * stride_bytes) % region_bytes
    return Segment(
        addresses=(base + offsets).astype(np.uint64),
        is_store=_stores(rng, n_refs, store_fraction),
        gap_instructions=_gaps(rng, n_refs, mean_gap),
    )


def uniform_working_set(
    rng: np.random.Generator,
    n_refs: int,
    base: int,
    region_bytes: int,
    mean_gap: float = 8.0,
    store_fraction: float = 0.3,
    line_bytes: int = 64,
) -> Segment:
    """Uniform random line references within a region.

    Misses scale with how much of the region exceeds the cache: the
    workhorse for tuning a benchmark's memory-boundedness.
    """
    _check_region(n_refs, region_bytes)
    n_lines = max(1, region_bytes // line_bytes)
    lines = rng.integers(0, n_lines, size=n_refs, dtype=np.int64)
    return Segment(
        addresses=(base + lines * line_bytes).astype(np.uint64),
        is_store=_stores(rng, n_refs, store_fraction),
        gap_instructions=_gaps(rng, n_refs, mean_gap),
    )


def zipf_working_set(
    rng: np.random.Generator,
    n_refs: int,
    base: int,
    region_bytes: int,
    skew: float = 1.2,
    mean_gap: float = 8.0,
    store_fraction: float = 0.3,
    line_bytes: int = 64,
    seed_permutation: int = 0,
) -> Segment:
    """Zipf-skewed references: a hot subset plus a heavy tail.

    Models pointer-heavy irregular codes (omnetpp, sjeng): most references
    hit a small hot set (cache hits) while the tail sweeps a large region.
    """
    _check_region(n_refs, region_bytes)
    if skew <= 1.0:
        raise ValueError(f"skew must be > 1 for a proper Zipf, got {skew}")
    n_lines = max(1, region_bytes // line_bytes)
    ranks = rng.zipf(skew, size=n_refs)
    ranks = np.minimum(ranks - 1, n_lines - 1)
    # Scatter ranks across the region so the hot set is not contiguous.
    lines = _scatter(seed_permutation, n_lines)[ranks]
    return Segment(
        addresses=(base + lines.astype(np.int64) * line_bytes).astype(np.uint64),
        is_store=_stores(rng, n_refs, store_fraction),
        gap_instructions=_gaps(rng, n_refs, mean_gap),
    )


def pointer_chase(
    rng: np.random.Generator,
    n_refs: int,
    base: int,
    region_bytes: int,
    mean_gap: float = 8.0,
    store_fraction: float = 0.05,
    line_bytes: int = 64,
) -> Segment:
    """Pointer chasing through a large region (mcf-style).

    Visits region lines in permutation order (each line once per lap), so
    with the region far above LLC capacity essentially every reference
    misses — no spatial or temporal locality to exploit.
    """
    _check_region(n_refs, region_bytes)
    n_lines = max(1, region_bytes // line_bytes)
    laps = -(-n_refs // n_lines)
    order = np.concatenate([rng.permutation(n_lines) for _ in range(laps)])[:n_refs]
    return Segment(
        addresses=(base + order.astype(np.int64) * line_bytes).astype(np.uint64),
        is_store=_stores(rng, n_refs, store_fraction),
        gap_instructions=_gaps(rng, n_refs, mean_gap),
    )


def strided_sweep(
    rng: np.random.Generator,
    n_refs: int,
    base: int,
    region_bytes: int,
    stride_bytes: int = 256,
    mean_gap: float = 8.0,
    store_fraction: float = 0.3,
) -> Segment:
    """Strided sweep (astar-style grid walks): touches one line per stride."""
    _check_region(n_refs, region_bytes)
    offsets = (np.arange(n_refs, dtype=np.int64) * stride_bytes) % region_bytes
    return Segment(
        addresses=(base + offsets).astype(np.uint64),
        is_store=_stores(rng, n_refs, store_fraction),
        gap_instructions=_gaps(rng, n_refs, mean_gap),
    )


def stack_distance_refs(
    rng: np.random.Generator,
    n_refs: int,
    base: int,
    region_bytes: int,
    reuse_probability: float = 0.7,
    reuse_window: int = 64,
    mean_gap: float = 8.0,
    store_fraction: float = 0.3,
    line_bytes: int = 64,
) -> Segment:
    """Temporal-locality stream driven by an explicit stack-distance model.

    With probability ``reuse_probability`` each reference re-touches one of
    the last ``reuse_window`` distinct lines (geometric preference for the
    most recent); otherwise it touches a uniformly random line of the
    region.  This directly parameterizes the temporal locality the cache
    hierarchy responds to, independent of spatial structure — useful for
    constructing workloads with a chosen L1/L2 hit profile.
    """
    _check_region(n_refs, region_bytes)
    if not 0.0 <= reuse_probability <= 1.0:
        raise ValueError(
            f"reuse_probability must be in [0,1], got {reuse_probability}"
        )
    if reuse_window <= 0:
        raise ValueError(f"reuse_window must be positive, got {reuse_window}")
    n_lines = max(1, region_bytes // line_bytes)
    recent: list[int] = []
    lines = np.empty(n_refs, dtype=np.int64)
    reuse_draws = rng.random(n_refs)
    # Geometric depth preference within the reuse window.
    depth_draws = rng.geometric(p=max(1.0 / reuse_window, 1e-6), size=n_refs)
    fresh_draws = rng.integers(0, n_lines, size=n_refs)
    for index in range(n_refs):
        if recent and reuse_draws[index] < reuse_probability:
            depth = min(int(depth_draws[index]), len(recent)) - 1
            line = recent[-1 - max(0, depth)]
        else:
            line = int(fresh_draws[index])
        lines[index] = line
        if line in recent:
            recent.remove(line)
        recent.append(line)
        if len(recent) > reuse_window:
            recent.pop(0)
    return Segment(
        addresses=(base + lines * line_bytes).astype(np.uint64),
        is_store=_stores(rng, n_refs, store_fraction),
        gap_instructions=_gaps(rng, n_refs, mean_gap),
    )


def concat(segments: list[Segment]) -> Segment:
    """Concatenate segments into one (phases in program order)."""
    if not segments:
        raise ValueError("concat requires at least one segment")
    return Segment(
        addresses=np.concatenate([s.addresses for s in segments]),
        is_store=np.concatenate([s.is_store for s in segments]),
        gap_instructions=np.concatenate([s.gap_instructions for s in segments]),
    )


def interleave(rng: np.random.Generator, a: Segment, b: Segment, chunk_refs: int) -> Segment:
    """Alternate fixed-size chunks of two segments (bursty mixtures)."""
    if chunk_refs <= 0:
        raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")
    pieces: list[Segment] = []
    ia = ib = 0
    take_a = True
    while ia < a.n_refs or ib < b.n_refs:
        if take_a and ia < a.n_refs:
            end = min(ia + chunk_refs, a.n_refs)
            pieces.append(
                Segment(a.addresses[ia:end], a.is_store[ia:end], a.gap_instructions[ia:end])
            )
            ia = end
        elif ib < b.n_refs:
            end = min(ib + chunk_refs, b.n_refs)
            pieces.append(
                Segment(b.addresses[ib:end], b.is_store[ib:end], b.gap_instructions[ib:end])
            )
            ib = end
        take_a = not take_a
    return concat(pieces)


def _check_region(n_refs: int, region_bytes: int) -> None:
    if n_refs <= 0:
        raise ValueError(f"n_refs must be positive, got {n_refs}")
    if region_bytes <= 0:
        raise ValueError(f"region_bytes must be positive, got {region_bytes}")

"""Seed-fixed job lists for every workload.

Every list is a pure function of (workload, workload seed, window): it is
built before timing starts, never depends on which jobs have finished,
and the program only ever sees the specs built from its entries.  The
two windows of a run ("timed" for the end-to-end metrics, "traced" for
the per-layer run) draw from disjoint program seeds, so neither window
can read the other's results from a cache.

This module imports nothing from ``repro``; the specs themselves are
built in ``workloads.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("frontier_sweep", "figure_service", "dist_fleet", "ingest_replay")
WINDOWS = ("timed", "traced")

#: Workload seed whose outputs are compared with ``pins.json``.
DEFAULT_SEED = 0

#: Entries per window; far more than any run completes.
MAX_JOBS = 400

#: figure_service clients (closed loop each).
SERVICE_CLIENTS = 2

WINDOWED_FIGURES = ("fig2", "fig7")
SWEEP_FIGURES = ("fig5", "fig6", "fig8a", "fig8b")
ALL_FIGURES = ("fig2", "fig5", "fig6", "fig7", "fig8a", "fig8b")

#: One deck of figure_service requests, as (class, figure); a repeat
#: names a figure of the client's repeat pool.  Each client sends
#: shuffled decks of this fixed mix, so every seed sends the same mix.
#: Repeats are the fastest class, sweeps the slowest; 6 : 8 : 8 puts the
#: median inside the windowed class and the 90th percentile inside the
#: sweep class.
DECK = (
    tuple(("repeat", figure) for figure in ALL_FIGURES)
    + tuple(("windowed", figure) for figure in WINDOWED_FIGURES * 4)
    + tuple(("sweep", figure) for figure in SWEEP_FIGURES * 2)
)

#: ingest_replay: a dense and a streaming trace, each replayed under
#: every scheme in this fixed order.
INGEST_TRACES = ("mcf", "libquantum")
INGEST_SCHEMES = ("base_dram", "base_oram", "static:300", "dynamic:4x4")

_SEED_SPACE = range(1_000, 100_000_000)


@dataclass(frozen=True)
class FigureJob:
    """One figure_service request: a figure spec at one program seed."""

    kind: str
    figure: str
    seed: int


@dataclass(frozen=True)
class IngestJob:
    """One streamed replay of a stored trace under one scheme."""

    trace: str
    trace_seed: int
    scheme: str


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _check(workload: str, window: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if window not in WINDOWS:
        raise ValueError(f"unknown window {window!r}; choose from {WINDOWS}")


def seed_pairs(workload: str, seed: int, window: str) -> list[tuple[int, int]]:
    """Two fresh program seeds per job (frontier_sweep, dist_fleet)."""
    _check(workload, window)
    drawn = _rng(workload, seed).sample(_SEED_SPACE, 4 * MAX_JOBS)
    start = WINDOWS.index(window) * 2 * MAX_JOBS
    chunk = drawn[start:start + 2 * MAX_JOBS]
    return [(chunk[2 * i], chunk[2 * i + 1]) for i in range(MAX_JOBS)]


def _figure_seeds(seed: int) -> list[int]:
    """Every program seed figure_service uses, all distinct: one
    repeat-pool seed per client, then a block per (window, client)."""
    return _rng("figure_service", seed).sample(
        _SEED_SPACE, SERVICE_CLIENTS * (1 + len(WINDOWS) * MAX_JOBS)
    )


def repeat_pool(seed: int, client: int) -> list[FigureJob]:
    """Specs one figure_service client completes during set-up.

    Each client owns its pool and waits for every reply before sending
    the next request, so a repeat never merges into a running job.
    """
    pool_seed = _figure_seeds(seed)[client]
    return [FigureJob("repeat", figure, pool_seed) for figure in ALL_FIGURES]


def figure_jobs(seed: int, client: int, window: str) -> list[FigureJob]:
    """One figure_service client's request sequence for one window:
    shuffled ``DECK``s, every fresh request on a program seed of its own."""
    _check("figure_service", window)
    offset = SERVICE_CLIENTS + (WINDOWS.index(window) * SERVICE_CLIENTS + client) * MAX_JOBS
    seeds = iter(_figure_seeds(seed)[offset:offset + MAX_JOBS])
    shuffle = random.Random(f"perfbench/figure_service/{seed}/{client}/{window}")
    pool = {job.figure: job for job in repeat_pool(seed, client)}
    jobs: list[FigureJob] = []
    while len(jobs) < MAX_JOBS:
        deck = [pool[figure] if kind == "repeat" else FigureJob(kind, figure, next(seeds))
                for kind, figure in DECK]
        shuffle.shuffle(deck)
        jobs.extend(deck)
    return jobs[:MAX_JOBS]


def ingest_trace_seeds(seed: int) -> dict[str, int]:
    """Generation seed of each ingested trace."""
    drawn = _rng("ingest_replay", seed).sample(_SEED_SPACE, len(INGEST_TRACES))
    return dict(zip(INGEST_TRACES, drawn))


def ingest_jobs(seed: int, window: str) -> list[IngestJob]:
    """Every trace under every scheme, in a fixed cycle.

    The order is the same for every seed, so each run replays the same
    mix of (trace, scheme) pairs; the seed changes the traces.
    """
    _check("ingest_replay", window)
    trace_seeds = ingest_trace_seeds(seed)
    cycle = [
        IngestJob(trace, trace_seeds[trace], scheme)
        for scheme in INGEST_SCHEMES
        for trace in INGEST_TRACES
    ]
    return [cycle[i % len(cycle)] for i in range(MAX_JOBS)]

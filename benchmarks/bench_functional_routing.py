"""Functional-pass routing: the lockstep rule against the dict modes.

``VectorizedHierarchyPass`` classifies each sub-slice of run heads either
in its dict modes (the adaptive vector/scalar loop) or set-parallel in
lockstep, as :func:`repro.cache.vectorized.lockstep_pays` decides.  For a
calibration matrix of traces — seven Figure 6 workloads at three
instruction budgets, fed whole with the simulator's warm-up, plus the
two ingest-size traces of ``repro ingest --replay``, fed whole and in
65,536-reference chunks — this bench times each cell three ways (the
dict modes alone, lockstep alone, and the routed pass) and prints the
table.  Shape checks:

* the routed total is within 1.25x of the total of each cell's faster
  way;
* no cell whose routed pass takes 5 ms or more is over 2x its faster
  way;
* all three ways give equal outputs (the bit-identity contract, checked
  here by checksum; the full check is
  ``tests/cache/test_vectorized_equivalence.py``).
"""

import time
from contextlib import contextmanager

import repro.cache.vectorized as vectorized
from benchmarks.conftest import emit
from repro.analysis.tables import Table
from repro.cache.hierarchy import simulate_hierarchy
from repro.cache.streaming import run_functional_streaming
from repro.workloads.registry import build_trace

#: Figure 6 workloads: the two dense miss streams, a hit-heavy one, and
#: four whose misses crowd into few sets.
MATRIX_BENCHMARKS = (
    "mcf", "libquantum", "hmmer", "bzip2", "omnetpp", "astar/rivers", "gobmk",
)
#: Instruction budgets: figure_service's, about dist_fleet's, and a long run.
MATRIX_INSTRUCTIONS = (40_000, 200_000, 1_000_000)
#: The simulator's warm-up share (``SimConfig.warmup_fraction``).
WARMUP_FRACTION = 0.30
#: perfbench's ingest_replay traces, at their instruction budgets.
INGEST_INSTRUCTIONS = {"mcf": 13_300_000, "libquantum": 11_000_000}
#: The ingest store's reader chunk.
INGEST_CHUNK_REFS = 65_536

#: Timing rounds per cell; each round times the three ways in turn, in
#: an order rotated each round, and each way's best round counts.
ROUNDS = 3


@contextmanager
def _forced(lockstep: bool):
    """Route every sub-slice to lockstep, or none."""
    saved = (vectorized.LOCKSTEP_MIN_HEADS, vectorized.LOCKSTEP_MIN_WIDTH,
             vectorized._HIT_DENSE)
    if lockstep:
        # Always wide enough, and never hit-dense enough to leave.
        vectorized.LOCKSTEP_MIN_HEADS = 0
        vectorized.LOCKSTEP_MIN_WIDTH = 0
        vectorized._HIT_DENSE = 2.0
    else:
        vectorized.LOCKSTEP_MIN_HEADS = 1 << 62
    try:
        yield
    finally:
        (vectorized.LOCKSTEP_MIN_HEADS, vectorized.LOCKSTEP_MIN_WIDTH,
         vectorized._HIT_DENSE) = saved


def _best_ms(run) -> tuple[dict[str, float], dict[str, str]]:
    """Each way's best CPU time in ms, and the checksum each way gave."""
    ways = [("dicts", False), ("lockstep", True), ("routed", None)]
    best = {name: float("inf") for name, _ in ways}
    checksums = {}
    for round_ in range(ROUNDS):
        for name, forced in ways[round_:] + ways[:round_]:
            if forced is None:
                started = time.process_time()
                result = run()
            else:
                with _forced(forced):
                    started = time.process_time()
                    result = run()
            best[name] = min(best[name], time.process_time() - started)
            checksums[name] = result.checksum()
    return {f"{name}_ms": seconds * 1e3 for name, seconds in best.items()}, checksums


def _cells():
    """(label, feeding, run) for every cell of the matrix."""
    for n_instructions in MATRIX_INSTRUCTIONS:
        warmup = int(n_instructions * WARMUP_FRACTION)
        for entry in MATRIX_BENCHMARKS:
            name, _, input_name = entry.partition("/")
            trace = build_trace(name, seed=0, n_instructions=n_instructions + warmup,
                                input_name=input_name or None)
            yield (f"{entry}@{n_instructions // 1000}k", "whole",
                   lambda trace=trace, warmup=warmup: simulate_hierarchy(
                       trace, warmup_instructions=warmup))
    for name, n_instructions in INGEST_INSTRUCTIONS.items():
        trace = build_trace(name, seed=0, n_instructions=n_instructions)
        label = f"{name}@ingest"
        yield label, "whole", lambda trace=trace: simulate_hierarchy(trace)
        yield (label, "chunked", lambda trace=trace: run_functional_streaming(
            trace, chunk_refs=INGEST_CHUNK_REFS))


def _routing_matrix() -> list[dict]:
    cells = []
    for label, feeding, run in _cells():
        times, checksums = _best_ms(run)
        assert len(set(checksums.values())) == 1, f"{label} {feeding}: {checksums}"
        cells.append({
            "trace": label, "feeding": feeding, **times,
            "best_ms": min(times["dicts_ms"], times["lockstep_ms"]),
        })
    return cells


def test_bench_functional_routing(benchmark):
    cells = benchmark.pedantic(_routing_matrix, rounds=1, iterations=1)
    totals = {
        key: sum(cell[key] for cell in cells)
        for key in ("dicts_ms", "lockstep_ms", "routed_ms", "best_ms")
    }
    rows = [
        [cell["trace"], cell["feeding"], f"{cell['dicts_ms']:.1f}",
         f"{cell['lockstep_ms']:.1f}", f"{cell['routed_ms']:.1f}",
         f"{cell['routed_ms'] / cell['best_ms']:.2f}"]
        for cell in cells
    ]
    rows.append(["total", "", f"{totals['dicts_ms']:.1f}",
                 f"{totals['lockstep_ms']:.1f}", f"{totals['routed_ms']:.1f}",
                 f"{totals['routed_ms'] / totals['best_ms']:.2f}"])
    emit(
        f"Functional-pass routing (CPU ms, best of {ROUNDS})",
        Table(
            "routed vs dict modes vs lockstep",
            ["trace", "feeding", "dicts", "lockstep", "routed", "routed/best"],
            rows,
        ).render(),
    )

    assert totals["routed_ms"] <= 1.25 * totals["best_ms"], totals
    misrouted = [
        (cell["trace"], cell["feeding"], round(cell["routed_ms"] / cell["best_ms"], 2))
        for cell in cells
        if cell["routed_ms"] >= 5.0 and cell["routed_ms"] > 2.0 * cell["best_ms"]
    ]
    assert not misrouted, misrouted

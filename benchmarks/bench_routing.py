"""Replay routing: the batch cost rule against both replay machines.

``run_timing_batch`` replays a set of slot configs either as one
lockstep batch (``_replay_slotted_batch``) or as one single-config
replay per config, as :func:`repro.sim.timing.batch_pays` decides.  For
a calibration matrix of traces x config sets (the paper's figure scheme
sets, the perf tier's 16-config grid, and slices of the default frontier
grid), this bench times one cell three ways — the batch, the singles,
and the routed call — and prints the table.  Shape checks:

* the routed total is within 1.25x of the total of each cell's faster
  kernel;
* no cell whose routed replay takes 5 ms or more is over 2x its faster
  kernel;
* the routed results equal the single replays (the bit-identity
  contract, checked on cycles and dummy counts here; the full check is
  ``tests/sim/test_batch_equivalence.py``).
"""

import time

from benchmarks.conftest import bench_instructions, emit
from repro.analysis.tables import Table
from repro.api.figures import FIG5_RATES
from repro.core.scheme import expand_scheme_grid, scheme_from_spec
from repro.frontier import FrontierConfig
from repro.perf.bench import FRONTIER_CELL_GRID
from repro.sim.simulator import SecureProcessorSim, SimConfig
from repro.sim.timing import (
    _replay_slotted_batch,
    batch_pays,
    run_timing,
    run_timing_batch,
)

#: The default frontier benchmarks: two dense miss streams (mcf,
#: libquantum) and two sparse ones (h264ref, astar).
ROUTING_BENCHMARKS = ("mcf", "libquantum", "h264ref", "astar/rivers")

#: The default frontier sweep's 115 slot configs (its schemes but base_dram).
_FRONTIER_GRID = FrontierConfig().schemes()[1:]

#: Slot-config sets: the figure scheme sets, then grids of growing width.
CONFIG_SETS = {
    "fig6": ("dynamic:4x4", "static:300", "static:500", "static:1300"),
    "fig5": tuple(f"static:{rate}" for rate in FIG5_RATES),
    "cell16": expand_scheme_grid(FRONTIER_CELL_GRID),
    "grid32": _FRONTIER_GRID[:32],
    "grid115": _FRONTIER_GRID,
}

#: Timing rounds per cell; each round times the three ways in turn, and
#: each way's best round counts.
ROUNDS = 4


def _best_ms(**ways) -> tuple[dict[str, float], dict]:
    """Each way's best time in ms, and what each way returned."""
    best = dict.fromkeys(ways, float("inf"))
    returned = {}
    for _ in range(ROUNDS):
        for name, fn in ways.items():
            started = time.perf_counter()
            returned[name] = fn()
            best[name] = min(best[name], time.perf_counter() - started)
    return {f"{name}_ms": seconds * 1e3 for name, seconds in best.items()}, returned


def _routing_matrix() -> list[dict]:
    sim = SecureProcessorSim(SimConfig(n_instructions=bench_instructions(), seed=0))
    cells = []
    for entry in ROUTING_BENCHMARKS:
        name, _, input_name = entry.partition("/")
        miss_trace = sim.miss_trace(name, input_name or None)
        for set_name, specs in CONFIG_SETS.items():
            schemes = [scheme_from_spec(spec) for spec in specs]
            times, returned = _best_ms(
                batch=lambda: _replay_slotted_batch(
                    miss_trace, [s.build_controller() for s in schemes], 8, False,
                ),
                single=lambda: [
                    run_timing(miss_trace, s, record_requests=False) for s in schemes
                ],
                routed=lambda: run_timing_batch(miss_trace, schemes, record_requests=False),
            )
            for scheme, got, want in zip(schemes, returned["routed"], returned["single"]):
                assert (got.cycles, got.controller.dummy_accesses) == (
                    want.cycles, want.controller.dummy_accesses
                ), f"{entry} {scheme.name}: routed replay differs from its single replay"
            batched = batch_pays(miss_trace, [s.build_controller() for s in schemes])
            cells.append({
                "trace": entry, "configs": set_name, "n": len(schemes),
                "route": "batch" if batched else "single", **times,
                "best_ms": min(times["batch_ms"], times["single_ms"]),
            })
    return cells


def test_bench_routing(benchmark):
    cells = benchmark.pedantic(_routing_matrix, rounds=1, iterations=1)
    totals = {
        key: sum(cell[key] for cell in cells)
        for key in ("batch_ms", "single_ms", "routed_ms", "best_ms")
    }
    rows = [
        [cell["trace"], cell["configs"], str(cell["n"]), cell["route"],
         f"{cell['batch_ms']:.1f}", f"{cell['single_ms']:.1f}",
         f"{cell['routed_ms']:.1f}", f"{cell['routed_ms'] / cell['best_ms']:.2f}"]
        for cell in cells
    ]
    rows.append(["total", "", "", "",
                 f"{totals['batch_ms']:.1f}", f"{totals['single_ms']:.1f}",
                 f"{totals['routed_ms']:.1f}",
                 f"{totals['routed_ms'] / totals['best_ms']:.2f}"])
    emit(
        f"Replay routing at {bench_instructions()} instructions (ms, best of {ROUNDS})",
        Table(
            "routed vs batch vs single replays",
            ["trace", "configs", "n", "route", "batch", "single", "routed",
             "routed/best"],
            rows,
        ).render(),
    )

    assert totals["routed_ms"] <= 1.25 * totals["best_ms"], totals
    misrouted = [
        (cell["trace"], cell["configs"], round(cell["routed_ms"] / cell["best_ms"], 2))
        for cell in cells
        if cell["routed_ms"] >= 5.0 and cell["routed_ms"] > 2.0 * cell["best_ms"]
    ]
    assert not misrouted, misrouted

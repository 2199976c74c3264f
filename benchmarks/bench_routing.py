"""Replay routing: both cost rules of the slot replays against their kernels.

``run_timing_batch`` replays a set of slot configs either as one
lockstep batch (``_replay_slotted_batch``) or as one single-config
replay per config, as :func:`repro.sim.timing.batch_pays` decides.  For
a calibration matrix of traces x config sets (the paper's figure scheme
sets, the perf tier's 16-config grid, and slices of the default frontier
grid), ``test_bench_routing`` times one cell three ways — the batch, the
singles, and the routed call — and prints the table.

A single-config slot replay serves each chunk's whole episodes either
in lockstep windows (``_replay_episodes``) or one request at a time, as
the ``LOCKSTEP_*`` constants of :mod:`repro.sim.timing` decide.
``test_bench_episode_routing`` times the per-request loop, forced
lockstep and the routed replay on the Figure 6, 5 and 8a slot scheme
sets over the Figure 6 benchmarks at 40k, 200k and 1M instructions,
plus the two ingest_replay-sized traces.  Shape checks, on each test:

* the routed total is within 1.25x of the total of each cell's faster
  kernel;
* no cell whose routed replay takes 5 ms or more is over 2x its faster
  kernel;
* the routed results equal the other ways' (the bit-identity contract,
  checked on cycles and dummy counts here; the full checks are
  ``tests/sim/test_batch_equivalence.py`` and
  ``tests/sim/test_timing_equivalence.py``).
"""

import time

import pytest

from benchmarks.conftest import bench_instructions, emit
from repro.analysis.tables import Table
from repro.api.figures import FIG5_RATES, FIG6_BENCHMARKS, FIG6_SCHEMES
from repro.cache.hierarchy import simulate_hierarchy
from repro.core.scheme import expand_scheme_grid, scheme_from_spec
from repro.frontier import FrontierConfig
from repro.perf.bench import FRONTIER_CELL_GRID
from repro.sim import timing
from repro.sim.simulator import SecureProcessorSim, SimConfig
from repro.sim.timing import (
    _replay_slotted_batch,
    batch_pays,
    run_timing,
    run_timing_batch,
)
from repro.workloads.registry import build_trace

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

    _check_gates(cells, totals)


def _check_gates(cells: list[dict], totals: dict) -> None:
    """The routed total within 1.25x of the per-cell best; no cell of
    5 ms or more routed over 2x its best."""
    assert totals["routed_ms"] <= 1.25 * totals["best_ms"], totals
    misrouted = [
        (cell["trace"], cell["configs"], round(cell["routed_ms"] / cell["best_ms"], 2))
        for cell in cells
        if cell["routed_ms"] >= 5.0 and cell["routed_ms"] > 2.0 * cell["best_ms"]
    ]
    assert not misrouted, misrouted


# ----------------------------------------------------------------------
# Episode routing of the single-config slot replays
# ----------------------------------------------------------------------

#: Instruction budgets of the Figure 6 traces the episode rule is timed on.
EPISODE_INSTRUCTIONS = (40_000, 200_000, 1_000_000)

#: ingest_replay's two traces, as (benchmark, instructions): the
#: long-replay end of the matrix.
INGEST_TRACES = (("mcf", 13_300_000), ("libquantum", 11_000_000))

#: The slot scheme sets of Figures 6, 5 and 8a (growth-2 dynamic schemes
#: cross many epoch boundaries, so they exercise the room rule).
EPISODE_SETS = {
    "fig6": tuple(spec for spec in FIG6_SCHEMES if not spec.startswith("base")),
    "fig5": tuple(f"static:{rate}" for rate in FIG5_RATES),
    "fig8a": tuple(f"dynamic:{n_rates}x2" for n_rates in (16, 8, 4, 2)),
}

#: The ways a cell is timed, as the constants each patches: the
#: per-request loop, every window in lockstep, and the module's rule.
EPISODE_WAYS = {
    "loop": {"LOCKSTEP_MIN_REQUESTS": 1 << 62},
    "lockstep": {"LOCKSTEP_MIN_REQUESTS": 0, "LOCKSTEP_MIN_WIDTH": 0},
    "routed": {},
}


def _replays(miss_trace, schemes, way: str):
    with pytest.MonkeyPatch.context() as patch:
        for name, value in EPISODE_WAYS[way].items():
            patch.setattr(timing, name, value)
        return [
            run_timing(miss_trace, scheme, record_requests=False) for scheme in schemes
        ]


def _episode_traces():
    """(label, miss trace) for every trace of the matrix."""
    for n_instructions in EPISODE_INSTRUCTIONS:
        sim = SecureProcessorSim(SimConfig(n_instructions=n_instructions, seed=0))
        for name, input_name in FIG6_BENCHMARKS:
            label = name if input_name is None else f"{name}/{input_name}"
            yield f"{label}@{n_instructions // 1000}k", sim.miss_trace(name, input_name)
    for name, n_instructions in INGEST_TRACES:
        trace = build_trace(name, seed=0, n_instructions=n_instructions)
        yield f"{name}@{n_instructions // 100_000 / 10:g}M", simulate_hierarchy(trace)


def _episode_matrix() -> list[dict]:
    cells = []
    for label, miss_trace in _episode_traces():
        for set_name, specs in EPISODE_SETS.items():
            schemes = [scheme_from_spec(spec) for spec in specs]
            times, returned = _best_ms(**{
                way: (lambda way=way: _replays(miss_trace, schemes, way))
                for way in EPISODE_WAYS
            })
            for scheme, *results in zip(schemes, *returned.values()):
                assert len({(r.cycles, r.controller.dummy_accesses) for r in results}) == 1, (
                    f"{label} {scheme.name}: the ways disagree"
                )
            cells.append({
                "trace": label, "configs": set_name,
                "requests": len(miss_trace.gap_cycles), **times,
                "best_ms": min(times["loop_ms"], times["lockstep_ms"]),
            })
    return cells


def test_bench_episode_routing(benchmark):
    cells = benchmark.pedantic(_episode_matrix, rounds=1, iterations=1)
    totals = {
        key: sum(cell[key] for cell in cells)
        for key in ("loop_ms", "lockstep_ms", "routed_ms", "best_ms")
    }
    rows = [
        [cell["trace"], cell["configs"], str(cell["requests"]),
         f"{cell['loop_ms']:.1f}", f"{cell['lockstep_ms']:.1f}",
         f"{cell['routed_ms']:.1f}", f"{cell['routed_ms'] / cell['best_ms']:.2f}"]
        for cell in cells
    ]
    rows.append(["total", "", "",
                 f"{totals['loop_ms']:.1f}", f"{totals['lockstep_ms']:.1f}",
                 f"{totals['routed_ms']:.1f}",
                 f"{totals['routed_ms'] / totals['best_ms']:.2f}"])
    emit(
        f"Episode routing of single slot replays (ms, best of {ROUNDS})",
        Table(
            "routed vs per-request loop vs forced lockstep",
            ["trace", "configs", "requests", "loop", "lockstep", "routed",
             "routed/best"],
            rows,
        ).render(),
    )
    _check_gates(cells, totals)

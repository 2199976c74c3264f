"""Frontier sweep execution: design-space grid in, Pareto report out.

:func:`run_frontier` composes the pieces the rest of the repository
already provides — grid expansion (:mod:`repro.core.scheme`), the
declarative engine with its pluggable backends and persistent
content-addressed cache (:mod:`repro.api`), and the Pareto analysis
(:mod:`repro.analysis.frontier`) — into one call that sweeps hundreds of
``(|R|, growth, learner)`` configurations across the workload suite with
multi-seed replication.

Cost model: expanding the grid multiplies only the cheap *timing replay*
axis.  A sweep of S schemes over B benchmarks and K seeds costs
``B * K`` functional cache passes plus ``B * K * S`` replays — the
two-phase invariant (DESIGN.md) the engine's trace cache enforces.  The
sweep *verifies* it: the engine's ``passes_computed`` must not exceed
``expected_passes``, the sweep's passes its trace store lacked before
the run (``B * K`` without a store).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.frontier import FrontierReport, frontier_from_resultset
from repro.api.backends import ProcessPoolBackend
from repro.api.engine import Engine
from repro.api.execution import trace_store_key
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec
from repro.core.scheme import DEFAULT_DYNAMIC_GRID, parse_scheme_grid

#: Benchmarks the default frontier sweeps: one per memory-behaviour class
#: (pathological pointer chase, memory-bound streaming, compute-bound,
#: input-sensitive mixed) so the aggregate frontier is not dominated by a
#: single workload personality.
DEFAULT_FRONTIER_BENCHMARKS: tuple[str, ...] = (
    "mcf",
    "libquantum",
    "h264ref",
    "astar/rivers",
)

#: Zero-leakage comparison anchors (the paper's static strawmen, §9.1.6).
DEFAULT_STATIC_ANCHORS: tuple[int, ...] = (300, 500, 1300)


@dataclass(frozen=True)
class FrontierConfig:
    """What to sweep: the design-space grid and the measurement lattice.

    Attributes:
        grid: A ``grid:dynamic:...`` spec string (``"grid:dynamic"``
            resolves to :data:`~repro.core.scheme.DEFAULT_DYNAMIC_GRID`,
            112 configurations).
        benchmarks: Workload entries (``"name"`` / ``"name/input"``).
        seeds: Workload seeds; slowdowns average across them.
        n_instructions: Post-warmup budget per run.
        budget_bits: Optional leakage budget; grid points whose
            ``|E| * lg |R|`` bound exceeds it are pruned *before*
            execution (intersected with any budget already in the grid).
        static_anchors: Static rates added as zero-leakage frontier
            anchors; empty tuple to sweep the dynamic family alone.
    """

    grid: str = DEFAULT_DYNAMIC_GRID
    benchmarks: tuple[str, ...] = DEFAULT_FRONTIER_BENCHMARKS
    seeds: tuple[int, ...] = (0,)
    n_instructions: int = 200_000
    budget_bits: float | None = None
    static_anchors: tuple[int, ...] = DEFAULT_STATIC_ANCHORS

    def schemes(self) -> tuple[str, ...]:
        """Baseline + anchors + the budget-pruned grid expansion."""
        grid = parse_scheme_grid(self.grid)
        if self.budget_bits is not None:
            budget = (
                self.budget_bits
                if grid.budget_bits is None
                else min(grid.budget_bits, self.budget_bits)
            )
            grid = replace(grid, budget_bits=budget)
        anchors = tuple(f"static:{rate}" for rate in self.static_anchors)
        return ("base_dram",) + anchors + grid.expand()

    def spec(self) -> ExperimentSpec:
        """The concrete experiment spec the engine executes."""
        return ExperimentSpec(
            name=f"frontier: {self.grid}",
            benchmarks=tuple(self.benchmarks),
            schemes=self.schemes(),
            seeds=tuple(self.seeds),
            n_instructions=self.n_instructions,
        )

    @property
    def n_candidates(self) -> int:
        """Frontier candidates swept (baseline excluded)."""
        return len(self.schemes()) - 1


@dataclass
class FrontierSweepResult:
    """Everything one frontier sweep produced.

    ``meta`` extends the engine's session diagnostics with the
    functional-pass proof: ``expected_passes`` (the sweep's passes the
    trace store could not serve before the run), the engine's
    ``passes_computed``, and ``passes_verified`` (the invariant held).
    """

    config: FrontierConfig
    results: ResultSet
    report: FrontierReport
    meta: dict = field(default_factory=dict)

    def render(self, per_benchmark: bool = False) -> str:
        """The report's tables plus a one-line sweep summary."""
        lines = [self.report.render(per_benchmark=per_benchmark), ""]
        meta = self.meta
        summary = (
            f"[{meta.get('backend', '?')}] {meta.get('cells', '?')} cells "
            f"([{self.config.n_candidates} configurations + baseline] x "
            f"{len(self.config.benchmarks)} benchmarks x "
            f"{len(self.config.seeds)} seeds): "
            f"{meta.get('cache_hits', 0)} cached, {meta.get('cells_run', 0)} run"
        )
        if "passes_verified" in meta:
            summary += (
                f"; functional passes {meta['passes_computed']}"
                f"/{meta['expected_passes']} "
                f"({'verified' if meta['passes_verified'] else 'VIOLATED'})"
            )
        lines.append(summary)
        return "\n".join(lines)


def run_frontier(
    config: FrontierConfig | None = None,
    engine: Engine | None = None,
    use_cache: bool = True,
) -> FrontierSweepResult:
    """Sweep the design space and compute its Pareto frontiers.

    Args:
        config: What to sweep (default :class:`FrontierConfig`).
        engine: The engine to run on, with its backend and cache
            (default: an uncached process pool — a grid sweep is
            hundreds of independent replays — whose workers stop before
            this returns).
        use_cache: Read cached results (False re-measures but still
            shares traces).
    """
    config = config or FrontierConfig()
    if engine is None:
        with ProcessPoolBackend() as pool:
            return run_frontier(config, Engine(pool), use_cache)

    spec = config.spec()
    # One scheme's cells hold the sweep's pass keys.  A trace that exists
    # counts as servable, so recomputing it fails the check.
    heads = replace(spec, schemes=spec.schemes[:1]).cells()
    keys = {trace_store_key(cell) for cell in heads}
    expected = sum(
        engine.cache is None or not engine.cache.traces.has(key) for key in keys
    )
    results = engine.run(spec, use_cache=use_cache)
    meta = dict(results.meta)
    meta["expected_passes"] = expected
    meta["passes_verified"] = meta["passes_computed"] <= expected

    report = frontier_from_resultset(results)
    report.meta = dict(meta)
    return FrontierSweepResult(
        config=config, results=results, report=report, meta=meta
    )

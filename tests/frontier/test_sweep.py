"""Frontier sweep engine: invariance, verification, configuration.

The acceptance properties from the frontier design:

* the computed frontier is identical regardless of backend (serial vs
  process pool) and cache temperature (cold vs warm);
* a sweep computes at most the passes its trace store could not serve,
  one per (benchmark, seed), and the result meta carries the proof;
* a warm repeat runs zero cells;
* grid/budget/anchor knobs compose into the expected scheme axis.
"""

import threading

import pytest

from repro.api.backends import ProcessPoolBackend, SerialBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.frontier import FrontierConfig, run_frontier
from repro.sim.simulator import clear_pass_memo

#: Small but non-trivial: 2x2x2 grid + anchor = 9 candidate configurations.
SMALL = FrontierConfig(
    grid="grid:dynamic:{rates=2..3}x{epochs=2..3}:{learner=avg,threshold}",
    benchmarks=("mcf", "h264ref"),
    seeds=(0, 1),
    n_instructions=20_000,
    static_anchors=(300,),
)


@pytest.fixture(autouse=True)
def fresh_pass_memo():
    clear_pass_memo()
    yield
    clear_pass_memo()


class TestFrontierConfig:
    def test_schemes_axis_composition(self):
        schemes = SMALL.schemes()
        assert schemes[0] == "base_dram"
        assert "static:300" in schemes
        assert "dynamic:2x2" in schemes and "dynamic:3x3:threshold" in schemes
        assert len(schemes) == 1 + 1 + 8

    def test_default_sweeps_at_least_100_configurations(self):
        assert FrontierConfig().n_candidates >= 100

    def test_budget_intersects_grid_budget(self):
        config = FrontierConfig(
            grid="grid:dynamic:{rates=2..6}x{epochs=2..6}:{budget=50}",
            budget_bits=32.0,
            static_anchors=(),
        )
        from repro.core.scheme import scheme_from_spec

        for spec in config.schemes()[1:]:
            assert scheme_from_spec(spec).leakage().oram_timing_bits <= 32 + 1e-9

    def test_spec_expands_grid(self):
        spec = SMALL.spec()
        assert all(not s.startswith("grid:") for s in spec.schemes)
        assert spec.n_cells == len(SMALL.schemes()) * 2 * 2


class TestSweepInvariance:
    def test_backend_invariance(self):
        serial = run_frontier(SMALL, engine=Engine(SerialBackend()))
        pool = run_frontier(
            SMALL, engine=Engine(ProcessPoolBackend(max_workers=2))
        )
        assert serial.report.to_dict() == pool.report.to_dict()
        assert serial.results.records == pool.results.records

    def test_cache_temperature_invariance(self, tmp_path):
        cold = run_frontier(SMALL, engine=Engine(cache=tmp_path / "cache"))
        warm = run_frontier(SMALL, engine=Engine(cache=tmp_path / "cache"))
        uncached = run_frontier(SMALL, engine=Engine())
        assert cold.report.to_dict() == warm.report.to_dict()
        assert cold.report.to_dict() == uncached.report.to_dict()
        assert warm.meta["cells_run"] == 0
        assert warm.meta["cache_hits"] == cold.meta["cells"]

    def test_functional_pass_invariant_verified(self, tmp_path):
        sweep = run_frontier(SMALL, engine=Engine(cache=tmp_path / "cache"))
        assert sweep.meta["expected_passes"] == 4  # 2 benchmarks x 2 seeds
        assert sweep.meta["passes_computed"] == 4
        assert sweep.meta["passes_verified"] is True
        # Warm rerun: zero new functional passes.
        warm = run_frontier(SMALL, engine=Engine(cache=tmp_path / "cache"))
        assert warm.meta["passes_computed"] == 0
        assert warm.meta["passes_verified"] is True

    def test_pool_pays_one_functional_pass_per_benchmark(self, tmp_path):
        sweep = run_frontier(
            SMALL,
            engine=Engine(
                ProcessPoolBackend(max_workers=2),
                cache=ExperimentCache(tmp_path / "cache"),
            ),
        )
        assert sweep.meta["passes_computed"] == sweep.meta["expected_passes"]
        assert sweep.meta["passes_verified"] is True

    def test_concurrent_sweeps_on_one_cache_count_only_their_own_passes(
        self, tmp_path
    ):
        config = dict(grid="grid:dynamic:{rates=2..3}x{epochs=2..3}",
                      static_anchors=(300,), n_instructions=40_000)
        sweeps = {}

        def sweep(benchmarks):
            engine = Engine(SerialBackend(), ExperimentCache(tmp_path / "cache"))
            sweeps[benchmarks] = run_frontier(
                FrontierConfig(benchmarks=benchmarks, **config), engine=engine
            )

        threads = [
            threading.Thread(target=sweep, args=(benchmarks,))
            for benchmarks in (("mcf", "libquantum"), ("astar", "h264ref"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sweeps) == 2
        for result in sweeps.values():
            assert result.meta["passes_computed"] == result.meta["expected_passes"] == 2
            assert result.meta["passes_verified"] is True

    def test_recomputing_a_stored_pass_fails_verification(self, tmp_path):
        config = FrontierConfig(
            grid=SMALL.grid, benchmarks=SMALL.benchmarks, seeds=(0,),
            n_instructions=SMALL.n_instructions, static_anchors=(300,),
        )
        cache = ExperimentCache(tmp_path / "cache")
        run_frontier(config, engine=Engine(SerialBackend(), cache))
        for trace in cache.traces.root.glob("*.pkl"):
            trace.write_bytes(trace.read_bytes()[:64])
        clear_pass_memo()
        rerun = run_frontier(config, engine=Engine(SerialBackend(), cache), use_cache=False)
        # The store claimed both passes, yet both were recomputed.
        assert rerun.meta["passes_computed"] == 2
        assert rerun.meta["expected_passes"] == 0
        assert rerun.meta["passes_verified"] is False
        assert "functional passes 2/0 (VIOLATED)" in rerun.render()


class TestSweepReport:
    def test_fronts_are_antitone_for_every_benchmark(self):
        sweep = run_frontier(SMALL, engine=Engine())
        frontiers = dict(sweep.report.benchmarks)
        frontiers["aggregate"] = sweep.report.aggregate
        for bf in frontiers.values():
            assert bf.front, f"empty frontier for {bf.benchmark}"
            for left, right in zip(bf.front, bf.front[1:]):
                assert left.leakage_bits < right.leakage_bits
                assert left.slowdown > right.slowdown

    def test_candidate_cloud_covers_whole_grid(self):
        sweep = run_frontier(SMALL, engine=Engine())
        for bf in sweep.report.benchmarks.values():
            assert len(bf.points) == len(SMALL.schemes()) - 1  # minus base_dram

    def test_render_summarizes_sweep(self):
        sweep = run_frontier(SMALL, engine=Engine())
        text = sweep.render()
        assert "[9 configurations + baseline] x 2 benchmarks x 2 seeds" in text
        assert "40 cells" in text  # (9 + 1) x 2 x 2: the product is checkable
        assert "Knee configurations" in text

    def test_multi_seed_slowdowns_average_per_seed_baselines(self):
        sweep = run_frontier(SMALL, engine=Engine())
        single = run_frontier(
            FrontierConfig(
                grid=SMALL.grid,
                benchmarks=SMALL.benchmarks,
                seeds=(0,),
                n_instructions=SMALL.n_instructions,
                static_anchors=SMALL.static_anchors,
            ),
            engine=Engine(),
        )
        # Multi-seed aggregation is a mean, so values differ from the
        # single-seed run unless the workload is seed-insensitive; both
        # must still be finite and positive.
        for report in (sweep.report, single.report):
            for point in report.aggregate.points:
                assert point.slowdown > 0

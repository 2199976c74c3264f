"""Tests for the experiment registry (small-scale smoke runs).

Full-scale shape checks live in ``tests/integration``; these validate the
figure specs, their ResultSet converters and the result structures
quickly.
"""

from repro.analysis.experiments import (
    FIG6_BENCHMARKS,
    figure2_from_resultset,
    figure5_from_resultset,
    figure6_from_resultset,
    figure7_from_resultset,
    figure8_from_resultset,
    run_leakage_table,
)
from repro.api.engine import Engine
from repro.api.figures import (
    FIG6_SCHEMES,
    figure2_spec,
    figure5_spec,
    figure6_spec,
    figure7_spec,
    figure8a_spec,
)
from repro.core.scheme import scheme_from_spec

SIM_PARAMS = {"n_instructions": 80_000, "seeds": (1,)}


def figure2_result(n_windows):
    spec = figure2_spec(n_windows=n_windows, **SIM_PARAMS)
    return figure2_from_resultset(Engine().run(spec))


def figure5_result(rates):
    spec = figure5_spec(rates=rates, **SIM_PARAMS)
    return figure5_from_resultset(Engine().run(spec))


class TestRegistry:
    def test_fig6_suite_has_eleven(self):
        assert len(FIG6_BENCHMARKS) == 11


class TestFigure2:
    def test_series_structure(self):
        result = figure2_result(n_windows=8)
        assert set(result.series) == {
            "perlbench/diffmail", "perlbench/splitmail",
            "astar/rivers", "astar/biglakes",
        }
        assert all(len(values) == 8 for values in result.series.values())

    def test_perlbench_sensitivity(self):
        result = figure2_result(n_windows=8)
        assert result.input_sensitivity("perlbench") > 5

    def test_render(self):
        text = figure2_result(n_windows=8).render()
        assert "Figure 2" in text


class TestFigure5:
    def test_sweep_structure(self):
        result = figure5_result(rates=(256, 32768))
        assert result.rates == [256, 32768]
        assert len(result.perf_overhead["mcf"]) == 2

    def test_mcf_prefers_fast_rates(self):
        result = figure5_result(rates=(256, 32768))
        assert result.perf_overhead["mcf"][0] < result.perf_overhead["mcf"][1]

    def test_h264_power_drops_at_slow_rates(self):
        result = figure5_result(rates=(256, 65536))
        assert result.power_overhead["h264ref"][1] < result.power_overhead["h264ref"][0]

    def test_render(self):
        assert "Figure 5" in figure5_result(rates=(256,)).render()


class TestFigure6:
    def test_covers_suite_and_schemes(self):
        result = figure6_from_resultset(Engine().run(figure6_spec(**SIM_PARAMS)))
        assert result.benchmarks == [benchmark for benchmark, _ in FIG6_BENCHMARKS]
        assert list(result.comparisons) == [
            scheme_from_spec(spec).name for spec in FIG6_SCHEMES if spec != "base_dram"
        ]
        for comparison in result.comparisons.values():
            assert len(comparison.rows) == len(FIG6_BENCHMARKS)
        assert set(result.headline_deltas()) >= {"dyn_vs_oram_perf", "s300_vs_dyn_power"}


class TestFigure7:
    def test_windowed_series_per_scheme(self):
        spec = figure7_spec(n_windows=10, **SIM_PARAMS)
        result = figure7_from_resultset(Engine().run(spec))
        assert set(result.series) == {"libquantum", "gobmk", "h264ref"}
        for by_scheme in result.series.values():
            assert set(by_scheme) == {"base_oram", "dynamic_R4_E2", "static_1300"}
            assert all(len(values) == 10 for values in by_scheme.values())
        assert set(result.final_rates) == set(result.series)
        assert "Figure 7" in result.render()


class TestFigure8:
    def test_configs_follow_spec_order(self):
        spec = figure8a_spec(**SIM_PARAMS)
        result = figure8_from_resultset(Engine().run(spec), label="a")
        assert result.configs == [
            scheme_from_spec(scheme).name for scheme in spec.schemes
            if scheme != "base_dram"
        ]
        assert set(result.avg_perf_overhead) == set(result.configs)
        assert "Figure 8a" in result.render()


class TestLeakageTable:
    def test_headline_values(self):
        table = run_leakage_table().as_dict()
        assert table["termination (lg Tmax, Tmax=2^62)"] == 62.0
        assert table["dynamic R4 E4 ORAM timing (SS9.3: 32)"] == 32.0
        assert table["dynamic R4 E4 total (SS9.3: 94)"] == 94.0
        assert table["dynamic R4 E16 ORAM timing (SS9.5: 16)"] == 16.0
        assert table["dynamic R4 E2 total (Ex 6.1: 126)"] == 126.0

    def test_render(self):
        assert "Leakage accounting" in run_leakage_table().render()

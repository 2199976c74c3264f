"""Tests for CSV export of figure series."""

import csv

import numpy as np
import pytest

from repro.analysis.experiments import (
    Figure2Result,
    Figure5Result,
    Figure8Result,
)
from repro.analysis.export import (
    export_figure2,
    export_figure5,
    export_figure8,
)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestExportFigure2:
    def test_columns_and_rows(self, tmp_path):
        result = Figure2Result(
            series={
                "perlbench/diffmail": np.array([10.0, 20.0]),
                "perlbench/splitmail": np.array([1.0, 2.0]),
            },
            n_windows=2,
        )
        target = tmp_path / "fig2.csv"
        export_figure2(result, target)
        rows = read_csv(target)
        assert rows[0] == ["window", "perlbench/diffmail", "perlbench/splitmail"]
        assert rows[1] == ["0", "10.00", "1.00"]
        assert len(rows) == 3


class TestExportFigure5:
    def test_round_trip(self, tmp_path):
        result = Figure5Result(
            rates=[256, 32768],
            perf_overhead={"mcf": [20.0, 100.0], "h264ref": [1.2, 1.5]},
            power_overhead={"mcf": [8.0, 1.0], "h264ref": [10.0, 0.8]},
        )
        target = tmp_path / "fig5.csv"
        export_figure5(result, target)
        rows = read_csv(target)
        assert rows[0][0] == "rate"
        assert rows[1][0] == "256"
        assert float(rows[2][4]) == pytest.approx(0.8)


class TestExportFigure8:
    def test_configs_exported(self, tmp_path):
        result = Figure8Result(
            label="a",
            configs=["dynamic_R4_E2", "dynamic_R2_E2"],
            avg_perf_overhead={"dynamic_R4_E2": 5.0, "dynamic_R2_E2": 5.5},
            avg_power_watts={"dynamic_R4_E2": 0.45, "dynamic_R2_E2": 0.5},
            leakage_bits={"dynamic_R4_E2": 64.0, "dynamic_R2_E2": 32.0},
        )
        target = tmp_path / "fig8.csv"
        export_figure8(result, target)
        rows = read_csv(target)
        assert len(rows) == 3
        assert rows[1][3] == "64.0"


class TestEndToEndExport:
    def test_export_from_real_run(self, tmp_path):
        from repro.analysis.experiments import figure2_from_resultset
        from repro.api.engine import Engine
        from repro.api.figures import figure2_spec

        spec = figure2_spec(n_windows=5, n_instructions=120_000, seeds=(3,))
        result = figure2_from_resultset(Engine().run(spec))
        target = tmp_path / "fig2_real.csv"
        export_figure2(result, target)
        rows = read_csv(target)
        assert len(rows) == 6  # header + 5 windows
        assert len(rows[0]) == 5  # window + 4 runs

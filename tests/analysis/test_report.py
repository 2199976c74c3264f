"""Tests for the consolidated report builder."""

import pytest

from repro.analysis.experiments import (
    figure5_from_resultset,
    figure6_from_resultset,
    figure7_from_resultset,
    figure8_from_resultset,
)
from repro.analysis.report import full_report
from repro.api.engine import Engine
from repro.api.figures import (
    figure5_spec,
    figure6_spec,
    figure7_spec,
    figure8a_spec,
    figure8b_spec,
)

SIM_PARAMS = {"n_instructions": 60_000, "seeds": (2,)}


class TestFullReport:
    def test_selected_sections_render(self):
        report = full_report(include=("calibration", "leakage"), **SIM_PARAMS)
        text = report.render()
        assert "Tables 1-2" in text
        assert "Leakage accounting" in text

    def test_figure_section(self):
        report = full_report(include=("fig2",), **SIM_PARAMS)
        assert "Figure 2" in report.render()

    def test_figure_sections_match_direct_spec_runs(self):
        report = full_report(
            include=("fig5", "fig6", "fig7", "fig8a", "fig8b"), **SIM_PARAMS
        )
        engine = Engine()
        expected = {
            "Figure 5: static rate sweep":
                figure5_from_resultset(engine.run(figure5_spec(**SIM_PARAMS))),
            "Figure 6: main result":
                figure6_from_resultset(engine.run(figure6_spec(**SIM_PARAMS))),
            "Figure 7: IPC stability":
                figure7_from_resultset(engine.run(figure7_spec(**SIM_PARAMS))),
            "Figure 8a: varying |R|": figure8_from_resultset(
                engine.run(figure8a_spec(**SIM_PARAMS)), label="a"),
            "Figure 8b: varying epochs": figure8_from_resultset(
                engine.run(figure8b_spec(**SIM_PARAMS)), label="b"),
        }
        # Every section runs its own figure spec with the caller's
        # simulation parameters, in the order requested.
        assert list(report.sections) == list(expected)
        for title, result in expected.items():
            assert report.sections[title] == result.render()

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            full_report(include=("fig99",), **SIM_PARAMS)

    def test_save(self, tmp_path):
        report = full_report(include=("leakage",), **SIM_PARAMS)
        target = tmp_path / "report.txt"
        report.save(str(target))
        assert "Leakage" in target.read_text()

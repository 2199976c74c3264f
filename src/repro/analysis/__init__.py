"""Analysis: overhead normalization, tables, experiment registry, calibration."""

from repro.analysis.calibration import CalibrationResult, run_calibration
from repro.analysis.experiments import (
    FIG6_BENCHMARKS,
    Figure2Result,
    Figure5Result,
    Figure6Result,
    Figure7Result,
    Figure8Result,
    LeakageTableResult,
    run_leakage_table,
)
from repro.analysis.export import (
    export_figure2,
    export_figure5,
    export_figure6,
    export_figure7,
    export_figure8,
)
from repro.analysis.frontier import (
    AGGREGATE,
    POWER_AWARE_OBJECTIVES,
    BenchmarkFrontier,
    FrontierPoint,
    FrontierReport,
    dominated,
    frontier_from_resultset,
    frontier_points,
    knee_point,
    pareto_front,
    pareto_set,
)
from repro.analysis.overhead import BenchmarkRow, SchemeComparison, relative_change
from repro.analysis.report import FullReport, full_report
from repro.analysis.seeds import SeededStat, replicate_headline
from repro.analysis.stash_scaling import (
    StashScalingCell,
    StashScalingReport,
    TimingValidation,
    run_stash_scaling,
    run_stash_scaling_cell,
    validate_timing,
)
from repro.analysis.tables import Table, format_value

__all__ = [
    "AGGREGATE",
    "POWER_AWARE_OBJECTIVES",
    "BenchmarkFrontier",
    "FrontierPoint",
    "FrontierReport",
    "dominated",
    "frontier_from_resultset",
    "frontier_points",
    "knee_point",
    "pareto_front",
    "pareto_set",
    "CalibrationResult",
    "run_calibration",
    "FIG6_BENCHMARKS",
    "Figure2Result",
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "Figure8Result",
    "LeakageTableResult",
    "run_leakage_table",
    "BenchmarkRow",
    "SchemeComparison",
    "relative_change",
    "FullReport",
    "full_report",
    "SeededStat",
    "replicate_headline",
    "StashScalingCell",
    "StashScalingReport",
    "TimingValidation",
    "run_stash_scaling",
    "run_stash_scaling_cell",
    "validate_timing",
    "export_figure2",
    "export_figure5",
    "export_figure6",
    "export_figure7",
    "export_figure8",
    "Table",
    "format_value",
]

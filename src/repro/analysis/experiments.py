"""Per-figure result classes and their ResultSet converters.

Each paper artifact is one declarative spec (:mod:`repro.api.figures`)
executed by the :class:`~repro.api.engine.Engine`; the
``figure*_from_resultset`` converters here reshape the engine's uniform
:class:`~repro.api.records.ResultSet` into the per-figure result classes
whose ``render()`` prints the same rows/series the paper reports::

    from repro.api import Engine, figure6_spec

    result = figure6_from_resultset(Engine().run(figure6_spec()))
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

import numpy as np

from repro.analysis.overhead import BenchmarkRow, SchemeComparison, relative_change
from repro.analysis.tables import Table, format_value
from repro.api.figures import FIG6_BENCHMARKS, FIG6_SCHEMES
from repro.api.records import ResultSet
from repro.core.leakage import (
    report_for_dynamic,
    report_for_static,
    unprotected_leakage_bits,
    unprotected_leakage_bits_estimate,
)
from repro.core.scheme import scheme_from_spec


# ----------------------------------------------------------------------
# Figure 2: ORAM access rate across inputs
# ----------------------------------------------------------------------

@dataclass
class Figure2Result:
    """Windowed instructions-per-ORAM-access for multi-input benchmarks."""

    series: dict[str, np.ndarray]
    n_windows: int

    def input_sensitivity(self, benchmark: str) -> float:
        """Ratio of mean rates between the two inputs of ``benchmark``."""
        keys = [k for k in self.series if k.startswith(benchmark)]
        if len(keys) != 2:
            raise ValueError(f"need exactly 2 inputs for {benchmark}, have {keys}")
        means = sorted(float(np.mean(self.series[k])) for k in keys)
        return means[1] / means[0]

    def drift(self, key: str) -> float:
        """Max/min windowed rate within one run (rate change over time)."""
        values = self.series[key]
        return float(values.max() / max(values.min(), 1e-9))

    def render(self) -> str:
        """Summary table of per-input mean rates and within-run drift."""
        rows = []
        for key, values in self.series.items():
            rows.append([
                key,
                format_value(float(np.mean(values)), 0),
                format_value(float(values.min()), 0),
                format_value(float(values.max()), 0),
                format_value(self.drift(key), 1),
            ])
        return Table(
            "Figure 2: avg instructions between ORAM accesses (windowed)",
            ["run", "mean", "min", "max", "max/min"],
            rows,
        ).render()


def figure2_from_resultset(results: ResultSet) -> Figure2Result:
    """Reshape a :func:`~repro.api.figures.figure2_spec` run."""
    series: dict[str, np.ndarray] = {}
    n_windows = 0
    for record in results.select(scheme="base_dram"):
        series[f"{record.benchmark}/{record.input_name}"] = np.asarray(
            record.access_windows, dtype=np.float64
        )
        n_windows = len(record.access_windows)
    return Figure2Result(series=series, n_windows=n_windows)


# ----------------------------------------------------------------------
# Figure 5: static rate sweep for mcf and h264ref
# ----------------------------------------------------------------------

@dataclass
class Figure5Result:
    """Perf/power overhead vs static rate for one memory- and one
    compute-bound benchmark."""

    rates: list[int]
    perf_overhead: dict[str, list[float]]
    power_overhead: dict[str, list[float]]

    def power_crossover_rate(self, benchmark: str) -> int | None:
        """Smallest swept rate whose power drops below base_dram (1.0x)."""
        for rate, overhead in zip(self.rates, self.power_overhead[benchmark]):
            if overhead < 1.0:
                return rate
        return None

    def render(self) -> str:
        """Sweep table for both benchmarks."""
        rows = []
        for index, rate in enumerate(self.rates):
            rows.append([
                str(rate),
                format_value(self.perf_overhead["mcf"][index]),
                format_value(self.power_overhead["mcf"][index]),
                format_value(self.perf_overhead["h264ref"][index]),
                format_value(self.power_overhead["h264ref"][index]),
            ])
        return Table(
            "Figure 5: overhead (x base_dram) vs static ORAM rate",
            ["rate", "mcf perf", "mcf power", "h264 perf", "h264 power"],
            rows,
        ).render()


def figure5_from_resultset(results: ResultSet) -> Figure5Result:
    """Reshape a :func:`~repro.api.figures.figure5_spec` run."""
    rates = sorted(
        int(record.scheme_spec.split(":", 1)[1])
        for record in results.select(benchmark="mcf")
        if record.scheme_spec.startswith("static:")
    )
    perf: dict[str, list[float]] = {}
    power: dict[str, list[float]] = {}
    benchmarks = sorted({record.benchmark for record in results})
    for benchmark in benchmarks:
        base = results.get(benchmark, "base_dram")
        perf[benchmark] = []
        power[benchmark] = []
        for rate in rates:
            record = results.get(benchmark, f"static:{rate}")
            perf[benchmark].append(record.cycles / base.cycles)
            power[benchmark].append(record.power_watts / base.power_watts)
    return Figure5Result(rates=rates, perf_overhead=perf, power_overhead=power)


# ----------------------------------------------------------------------
# Figure 6: the main result
# ----------------------------------------------------------------------

@dataclass
class Figure6Result:
    """Per-benchmark and average overheads for all Section 9.1.6 schemes."""

    comparisons: dict[str, SchemeComparison]
    benchmarks: list[str]

    def averages(self) -> dict[str, tuple[float, float]]:
        """Scheme -> (avg perf overhead, avg power W)."""
        return {
            name: (comp.avg_perf_overhead, comp.avg_power_watts)
            for name, comp in self.comparisons.items()
        }

    def headline_deltas(self) -> dict[str, float]:
        """The Section 9.3 headline comparisons, as fractional deltas."""
        avg = self.averages()
        dyn_perf, dyn_power = avg["dynamic_R4_E4"]
        oram_perf, oram_power = avg["base_oram"]
        s300_perf, s300_power = avg["static_300"]
        s500_perf, s500_power = avg["static_500"]
        s1300_perf, s1300_power = avg["static_1300"]
        return {
            "dyn_vs_oram_perf": relative_change(dyn_perf, oram_perf),
            "dyn_vs_oram_power": relative_change(dyn_power, oram_power),
            "s300_vs_dyn_perf": relative_change(s300_perf, dyn_perf),
            "s300_vs_dyn_power": relative_change(s300_power, dyn_power),
            "s500_vs_dyn_power": relative_change(s500_power, dyn_power),
            "s1300_vs_dyn_perf": relative_change(s1300_perf, dyn_perf),
        }

    def render(self) -> str:
        """Figure 6-style table: perf overhead and power per benchmark."""
        scheme_names = list(self.comparisons)
        rows = []
        for index, benchmark in enumerate(self.benchmarks):
            row = [benchmark]
            for name in scheme_names:
                row.append(format_value(self.comparisons[name].rows[index].perf_overhead))
            for name in scheme_names:
                row.append(format_value(self.comparisons[name].rows[index].power_watts, 3))
            rows.append(row)
        avg_row = ["Avg"]
        for name in scheme_names:
            avg_row.append(format_value(self.comparisons[name].avg_perf_overhead))
        for name in scheme_names:
            avg_row.append(format_value(self.comparisons[name].avg_power_watts, 3))
        rows.append(avg_row)
        columns = (
            ["bench"]
            + [f"{n}:perf" for n in scheme_names]
            + [f"{n}:W" for n in scheme_names]
        )
        return Table(
            "Figure 6: performance overhead (x base_dram) and power (W)",
            columns,
            rows,
        ).render()


def _comparisons_from_resultset(
    results: ResultSet,
    scheme_specs: list[str],
    suite: list[tuple[str, str | None]],
) -> dict[str, SchemeComparison]:
    """Build per-scheme comparisons in suite order vs base_dram."""
    comparisons = {}
    for spec_string in scheme_specs:
        name = scheme_from_spec(spec_string).name
        comparison = SchemeComparison(name)
        for benchmark, input_name in suite:
            baseline = results.get(benchmark, "base_dram", input_name=input_name)
            record = results.get(benchmark, spec_string, input_name=input_name)
            comparison.rows.append(
                BenchmarkRow(
                    benchmark=record.label,
                    perf_overhead=record.cycles / baseline.cycles,
                    power_watts=record.power_watts,
                    memory_power_watts=record.memory_power_watts,
                    dummy_fraction=record.dummy_fraction,
                )
            )
        comparisons[name] = comparison
    return comparisons


def figure6_from_resultset(results: ResultSet) -> Figure6Result:
    """Reshape a :func:`~repro.api.figures.figure6_spec` run."""
    scheme_specs = [s for s in FIG6_SCHEMES if s != "base_dram"]
    comparisons = _comparisons_from_resultset(results, scheme_specs, FIG6_BENCHMARKS)
    return Figure6Result(
        comparisons=comparisons,
        benchmarks=[benchmark for benchmark, _ in FIG6_BENCHMARKS],
    )


# ----------------------------------------------------------------------
# Figure 7: IPC stability over time
# ----------------------------------------------------------------------

@dataclass
class Figure7Result:
    """Windowed IPC series with epoch-transition markers."""

    series: dict[str, dict[str, np.ndarray]]
    transitions: dict[str, list[int]]
    final_rates: dict[str, int]

    def render(self) -> str:
        """Per-benchmark IPC summary (mean of each scheme's series)."""
        rows = []
        for benchmark, by_scheme in self.series.items():
            for scheme, values in by_scheme.items():
                rows.append([
                    benchmark,
                    scheme,
                    format_value(float(np.mean(values)), 4),
                    format_value(float(values.min()), 4),
                    format_value(float(values.max()), 4),
                ])
        return Table(
            "Figure 7: windowed IPC (dynamic_R4_E2 vs baselines)",
            ["bench", "scheme", "mean IPC", "min", "max"],
            rows,
        ).render()


def figure7_from_resultset(results: ResultSet) -> Figure7Result:
    """Reshape a :func:`~repro.api.figures.figure7_spec` run."""
    series: dict[str, dict[str, np.ndarray]] = {}
    transitions: dict[str, list[int]] = {}
    final_rates: dict[str, int] = {}
    for record in results:
        by_scheme = series.setdefault(record.benchmark, {})
        by_scheme[record.scheme_name] = np.asarray(record.ipc_windows, dtype=np.float64)
        if record.scheme_name.startswith("dynamic"):
            transitions[record.benchmark] = list(record.epoch_transitions)
            final_rates[record.benchmark] = record.final_rate
    return Figure7Result(series=series, transitions=transitions, final_rates=final_rates)


# ----------------------------------------------------------------------
# Figure 8: leakage reduction studies
# ----------------------------------------------------------------------

@dataclass
class Figure8Result:
    """Average perf/power for a family of dynamic configurations."""

    label: str
    configs: list[str]
    avg_perf_overhead: dict[str, float]
    avg_power_watts: dict[str, float]
    leakage_bits: dict[str, float]

    def render(self) -> str:
        """Configuration sweep table."""
        rows = []
        for name in self.configs:
            rows.append([
                name,
                format_value(self.avg_perf_overhead[name]),
                format_value(self.avg_power_watts[name], 3),
                format_value(self.leakage_bits[name], 0),
            ])
        return Table(
            f"Figure 8{self.label}: leakage reduction study",
            ["config", "avg perf (x)", "avg power (W)", "ORAM leak (bits)"],
            rows,
        ).render()


def figure8_from_resultset(results: ResultSet, label: str) -> Figure8Result:
    """Reshape a figure-8 family run (either direction of the study).

    Config order follows the spec when present; a spec-less ResultSet
    (e.g. loaded from a file saved without one) falls back to the
    records' first-seen scheme order.
    """
    if results.spec is not None:
        ordered = results.spec.schemes
    else:
        ordered = list(dict.fromkeys(record.scheme_spec for record in results))
    scheme_specs = [s for s in ordered if s != "base_dram"]
    configs = []
    perf: dict[str, float] = {}
    power: dict[str, float] = {}
    leakage: dict[str, float] = {}
    for spec_string in scheme_specs:
        scheme = scheme_from_spec(spec_string)
        configs.append(scheme.name)
        ratios = []
        powers = []
        for benchmark, input_name in FIG6_BENCHMARKS:
            baseline = results.get(benchmark, "base_dram", input_name=input_name)
            record = results.get(benchmark, spec_string, input_name=input_name)
            ratios.append(record.cycles / baseline.cycles)
            powers.append(record.power_watts)
        perf[scheme.name] = mean(ratios)
        power[scheme.name] = mean(powers)
        leakage[scheme.name] = scheme.leakage().oram_timing_bits
    return Figure8Result(
        label=label,
        configs=configs,
        avg_perf_overhead=perf,
        avg_power_watts=power,
        leakage_bits=leakage,
    )


# ----------------------------------------------------------------------
# Leakage accounting table (Sections 2.1, 6, 9.1.5, Example 6.1)
# ----------------------------------------------------------------------

@dataclass
class LeakageTableResult:
    """All the paper's headline leakage numbers, computed."""

    rows: list[tuple[str, float]]

    def as_dict(self) -> dict[str, float]:
        """Name -> bits."""
        return dict(self.rows)

    def render(self) -> str:
        """Leakage accounting table."""
        return Table(
            "Leakage accounting (paper-scale parameters)",
            ["quantity", "bits"],
            [[name, format_value(bits, 1)] for name, bits in self.rows],
        ).render()


def run_leakage_table() -> LeakageTableResult:
    """Compute every closed-form leakage number the paper quotes."""
    from repro.core.epochs import paper_schedule

    e4 = paper_schedule(growth=4)
    e2 = paper_schedule(growth=2)
    e16 = paper_schedule(growth=16)
    rows = [
        ("termination (lg Tmax, Tmax=2^62)", report_for_static().termination_bits),
        ("termination discretized to 2^30", 62.0 - 30.0),
        ("static ORAM timing", report_for_static().oram_timing_bits),
        ("dynamic R4 E2 ORAM timing (Ex 6.1: 64)",
         report_for_dynamic(e2, 4).oram_timing_bits),
        ("dynamic R4 E2 total (Ex 6.1: 126)",
         report_for_dynamic(e2, 4).total_bits),
        ("dynamic R4 E4 ORAM timing (SS9.3: 32)",
         report_for_dynamic(e4, 4).oram_timing_bits),
        ("dynamic R4 E4 total (SS9.3: 94)",
         report_for_dynamic(e4, 4).total_bits),
        ("dynamic R4 E16 ORAM timing (SS9.5: 16)",
         report_for_dynamic(e16, 4).oram_timing_bits),
        ("no protection, T=2000 OLAT=1488 (exact)",
         unprotected_leakage_bits(2000, 1488)),
        ("no protection, T=2^30 OLAT=1488 (estimate)",
         unprotected_leakage_bits_estimate(2.0**30, 1488)),
    ]
    return LeakageTableResult(rows=rows)

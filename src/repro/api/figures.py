"""Declarative specs for every figure in the paper's evaluation.

Each builder returns the :class:`~repro.api.spec.ExperimentSpec` whose
cells regenerate one paper artifact; the matching
``figure*_from_resultset`` converters live in
:mod:`repro.analysis.experiments` next to the result classes they fill.
Keyword arguments (``n_instructions``, ``seed``, ``warmup_fraction``,
``write_buffer_entries``) pass through to the spec so callers can scale
runs up or down without touching the benchmark/scheme axes.
"""

from __future__ import annotations

from repro.api.spec import ExperimentSpec

#: Figure 6 benchmark order (Section 9.1.1's SPEC-int suite).
FIG6_BENCHMARKS: list[tuple[str, str | None]] = [
    ("mcf", None),
    ("omnetpp", None),
    ("libquantum", None),
    ("bzip2", None),
    ("hmmer", None),
    ("astar", "rivers"),
    ("gcc", None),
    ("gobmk", None),
    ("sjeng", None),
    ("h264ref", None),
    ("perlbench", "diffmail"),
]

#: Instruction budget every figure spec runs at unless overridden.
DEFAULT_N_INSTRUCTIONS = 2_000_000

#: Figure 5's swept static rates.
FIG5_RATES: tuple[int, ...] = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
)

#: Figure 6's comparison schemes (Section 9.1.6), base_dram first.
FIG6_SCHEMES: tuple[str, ...] = (
    "base_dram",
    "base_oram",
    "dynamic:4x4",
    "static:300",
    "static:500",
    "static:1300",
)


def _suite() -> tuple[str, ...]:
    """FIG6 benchmarks as spec entries."""
    return tuple(
        bench if input_name is None else f"{bench}/{input_name}"
        for bench, input_name in FIG6_BENCHMARKS
    )


def figure2_spec(n_windows: int = 50, **sim_params) -> ExperimentSpec:
    """ORAM access rate over time for the multi-input pairs (Figure 2).

    Only the functional pass matters here, so the single cheapest scheme
    (``base_dram``) is run and the windowed access series is read off
    each record.
    """
    sim_params.setdefault("n_instructions", DEFAULT_N_INSTRUCTIONS)
    return ExperimentSpec(
        name="Figure 2: ORAM access rate across inputs",
        benchmarks=(
            "perlbench/diffmail",
            "perlbench/splitmail",
            "astar/rivers",
            "astar/biglakes",
        ),
        schemes=("base_dram",),
        n_windows=n_windows,
        **sim_params,
    )


def figure5_spec(rates: tuple[int, ...] | None = None, **sim_params) -> ExperimentSpec:
    """Static rate sweep on mcf and h264ref (Figure 5)."""
    sim_params.setdefault("n_instructions", DEFAULT_N_INSTRUCTIONS)
    rates = FIG5_RATES if rates is None else tuple(rates)
    return ExperimentSpec(
        name="Figure 5: overhead vs static ORAM rate",
        benchmarks=("mcf", "h264ref"),
        schemes=("base_dram",) + tuple(f"static:{rate}" for rate in rates),
        **sim_params,
    )


def figure6_spec(**sim_params) -> ExperimentSpec:
    """The main comparison: all benchmarks x all schemes (Figure 6)."""
    sim_params.setdefault("n_instructions", DEFAULT_N_INSTRUCTIONS)
    return ExperimentSpec(
        name="Figure 6: performance overhead and power across schemes",
        benchmarks=_suite(),
        schemes=FIG6_SCHEMES,
        **sim_params,
    )


def figure7_spec(n_windows: int = 100, **sim_params) -> ExperimentSpec:
    """IPC stability over time for the paper's trio (Figure 7)."""
    sim_params.setdefault("n_instructions", DEFAULT_N_INSTRUCTIONS)
    return ExperimentSpec(
        name="Figure 7: windowed IPC (dynamic_R4_E2 vs baselines)",
        benchmarks=("libquantum", "gobmk", "h264ref"),
        schemes=("base_oram", "dynamic:4x2", "static:1300"),
        n_windows=n_windows,
        **sim_params,
    )


def figure8a_spec(**sim_params) -> ExperimentSpec:
    """Vary |R| in {16, 8, 4, 2} with epoch doubling (Figure 8a)."""
    sim_params.setdefault("n_instructions", DEFAULT_N_INSTRUCTIONS)
    return ExperimentSpec(
        name="Figure 8a: leakage reduction study (vary |R|)",
        benchmarks=_suite(),
        schemes=("base_dram",) + tuple(
            f"dynamic:{n_rates}x2" for n_rates in (16, 8, 4, 2)
        ),
        **sim_params,
    )


def figure8b_spec(**sim_params) -> ExperimentSpec:
    """Vary epoch growth in {2, 4, 8, 16} with |R| = 4 (Figure 8b)."""
    sim_params.setdefault("n_instructions", DEFAULT_N_INSTRUCTIONS)
    return ExperimentSpec(
        name="Figure 8b: leakage reduction study (vary epochs)",
        benchmarks=_suite(),
        schemes=("base_dram",) + tuple(
            f"dynamic:4x{growth}" for growth in (2, 4, 8, 16)
        ),
        **sim_params,
    )

"""repro: reproduction of "Suppressing the Oblivious RAM Timing Channel
While Making Information Leakage and Program Efficiency Trade-offs"
(Fletcher, Ren, Yu, van Dijk, Khan, Devadas — HPCA 2014).

The package implements the paper's leakage-aware secure processor — a
Path-ORAM-backed memory system whose timing channel is bounded to
``|E| * lg |R|`` bits by restricting rate changes to epoch transitions —
together with every substrate the evaluation depends on: the Path ORAM
protocol, cache hierarchy, in-order core timing, DDR3-lite DRAM model,
Table 2 power model, SPEC-like workloads, and the user/server security
protocols.

Quickstart — declare an experiment, run it, query the results::

    from repro import Engine, ExperimentSpec

    spec = ExperimentSpec(
        benchmarks=("mcf", "h264ref"),
        schemes=("base_dram", "base_oram", "static:300", "dynamic:4x4"),
        n_instructions=500_000,
    )
    results = Engine().run(spec)
    print(results.render())
    print(results.overhead("mcf", "dynamic:4x4"))   # x base_dram

Scale the same spec up without touching it: ``Engine(ProcessPoolBackend())``
shards cells across cores, ``Engine(..., cache="~/.cache/repro")`` makes
repeated sweeps free, and ``python -m repro sweep ...`` does both from the
shell.  Every paper figure is a prebuilt spec in :mod:`repro.api.figures`.

The direct simulator remains for single runs and custom schemes
(deprecated for sweeps — the engine supersedes it)::

    from repro import SecureProcessorSim, SimConfig, dynamic

    sim = SecureProcessorSim(SimConfig(n_instructions=500_000))
    result = sim.run("mcf", dynamic(n_rates=4, growth=4))
    print(result.describe())
    print(dynamic(4, 4).leakage())   # 32 ORAM-timing bits + 62 termination

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
paper-vs-measured record of every table and figure, and README.md for the
CLI tour.
"""

from repro.api import (
    Cell,
    Engine,
    ExperimentCache,
    ExperimentSpec,
    ProcessPoolBackend,
    ResultSet,
    RunRecord,
    SerialBackend,
)
from repro.core import (
    AveragingLearner,
    BaseDramScheme,
    BaseOramScheme,
    DynamicScheme,
    EpochSchedule,
    LeakageBudgetExceededError,
    LeakageMonitor,
    MonitoredLearner,
    ObliviousDramScheme,
    PAPER_RATES,
    PerfCounters,
    RateSet,
    StaticScheme,
    ThresholdLearner,
    TimingProtectedController,
    dynamic,
    dynamic_timing_leakage_bits,
    expand_scheme_grid,
    lg_spaced_rates,
    paper_baselines,
    paper_schedule,
    parse_scheme_grid,
    scheme_from_spec,
    sim_schedule,
    termination_leakage_bits,
    total_leakage_bits,
)
from repro.frontier import FrontierConfig, FrontierSweepResult, run_frontier
from repro.oram import (
    ORAMConfig,
    PAPER_ORAM_CONFIG,
    PAPER_ORAM_TIMING,
    PathORAM,
    RecursivePathORAM,
    VerifiedPathORAM,
    derive_timing,
    make_path_oram,
)
from repro.sim import (
    SecureProcessorSim,
    SimConfig,
    SimResult,
    ipc_windows,
    performance_overhead,
    power_overhead,
    run_timing,
)
from repro.workloads import build_trace, get_workload, workload_names

__version__ = "1.1.0"

__all__ = [
    "Cell",
    "Engine",
    "ExperimentCache",
    "ExperimentSpec",
    "ProcessPoolBackend",
    "ResultSet",
    "RunRecord",
    "SerialBackend",
    "scheme_from_spec",
    "AveragingLearner",
    "BaseDramScheme",
    "BaseOramScheme",
    "DynamicScheme",
    "EpochSchedule",
    "LeakageBudgetExceededError",
    "LeakageMonitor",
    "MonitoredLearner",
    "ObliviousDramScheme",
    "PAPER_RATES",
    "PerfCounters",
    "RateSet",
    "StaticScheme",
    "ThresholdLearner",
    "TimingProtectedController",
    "dynamic",
    "dynamic_timing_leakage_bits",
    "expand_scheme_grid",
    "lg_spaced_rates",
    "paper_baselines",
    "paper_schedule",
    "parse_scheme_grid",
    "sim_schedule",
    "termination_leakage_bits",
    "total_leakage_bits",
    "FrontierConfig",
    "FrontierSweepResult",
    "run_frontier",
    "ORAMConfig",
    "PAPER_ORAM_CONFIG",
    "PAPER_ORAM_TIMING",
    "PathORAM",
    "RecursivePathORAM",
    "VerifiedPathORAM",
    "derive_timing",
    "make_path_oram",
    "SecureProcessorSim",
    "SimConfig",
    "SimResult",
    "ipc_windows",
    "performance_overhead",
    "power_overhead",
    "run_timing",
    "build_trace",
    "get_workload",
    "workload_names",
    "__version__",
]

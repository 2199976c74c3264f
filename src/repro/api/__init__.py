"""Declarative experiment API: specs, engine, backends, persistent cache.

The unified run surface for the whole evaluation::

    from repro.api import Engine, ExperimentSpec, ProcessPoolBackend

    spec = ExperimentSpec(
        benchmarks=("mcf", "h264ref", "astar/rivers"),
        schemes=("base_dram", "base_oram", "dynamic:4x4", "static:300"),
        seeds=(0, 1),
        n_instructions=500_000,
    )
    results = Engine(ProcessPoolBackend(), cache="~/.cache/repro").run(spec)
    print(results.render())
    results.save("sweep.json")

Guarantees: identical specs produce identical ResultSets on every
backend; the persistent cache makes repeated sweeps free; every figure in
the paper is one spec (:mod:`repro.api.figures`) away.
"""

from repro.api.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_start_method,
)
from repro.api.cache import (
    ExperimentCache,
    ResultCache,
    TraceCache,
    default_cache_dir,
)
from repro.api.engine import Engine
from repro.api.execution import execute_cell
from repro.api.figures import (
    FIG5_RATES,
    FIG6_BENCHMARKS,
    FIG6_SCHEMES,
    figure2_spec,
    figure5_spec,
    figure6_spec,
    figure7_spec,
    figure8a_spec,
    figure8b_spec,
)
from repro.api.records import ResultSet, RunRecord
from repro.api.spec import CACHE_SCHEMA_VERSION, Cell, ExperimentSpec, split_benchmark

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Cell",
    "Engine",
    "ExecutionBackend",
    "ExperimentCache",
    "ExperimentSpec",
    "FIG5_RATES",
    "FIG6_BENCHMARKS",
    "FIG6_SCHEMES",
    "ProcessPoolBackend",
    "ResultCache",
    "ResultSet",
    "RunRecord",
    "SerialBackend",
    "default_start_method",
    "TraceCache",
    "default_cache_dir",
    "execute_cell",
    "figure2_spec",
    "figure5_spec",
    "figure6_spec",
    "figure7_spec",
    "figure8a_spec",
    "figure8b_spec",
    "split_benchmark",
]

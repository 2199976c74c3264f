"""Shared fixtures for the benchmark harness.

The figure benches run declarative specs (:mod:`repro.api.figures`) on a
session-scoped :class:`~repro.api.engine.Engine`.  The serial backend's
simulators share the process-wide functional-pass memo, so each
benchmark's functional cache pass runs once per session; benches then
replay it per scheme.  Environment knobs:

- ``REPRO_BENCH_INSTRUCTIONS`` — instruction budget per run (default 2M).
- ``REPRO_BENCH_WORKERS`` — shard cells across a process pool this wide.
- ``REPRO_BENCH_CACHE_DIR`` — persist traces/results there, making
  repeated harness runs (near-)free.

The ``sim`` fixture remains for ablation/extension benches that drive
scheme objects the spec-string grammar does not cover; it is a
simulator at the bench configuration, so through the same memo those
benches share functional passes with the figure benches.
"""

from __future__ import annotations

import os

import pytest

from repro.api.backends import ProcessPoolBackend, SerialBackend
from repro.api.cache import ExperimentCache
from repro.api.engine import Engine
from repro.sim.simulator import SecureProcessorSim, SimConfig

DEFAULT_INSTRUCTIONS = 2_000_000


def bench_instructions() -> int:
    """Instruction budget per benchmark run (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", DEFAULT_INSTRUCTIONS))


def bench_sim_params() -> dict:
    """Spec parameters every figure bench runs at."""
    return {"n_instructions": bench_instructions(), "seeds": (0,)}


@pytest.fixture(scope="session")
def sim() -> SecureProcessorSim:
    """A simulator at the bench configuration (shares the pass memo)."""
    return SecureProcessorSim(SimConfig(n_instructions=bench_instructions(), seed=0))


@pytest.fixture(scope="session")
def engine() -> Engine:
    """Session-shared engine; backend and cache selected by env knobs."""
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    if workers:
        backend = ProcessPoolBackend(max_workers=int(workers))
    else:
        backend = SerialBackend()
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
    cache = ExperimentCache(cache_dir) if cache_dir else None
    return Engine(backend=backend, cache=cache)


def emit(title: str, body: str) -> None:
    """Print a labeled experiment report (visible with pytest -s or on
    benchmark runs, and captured into bench_output.txt by the final run)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

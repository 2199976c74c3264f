"""Workload registry: name -> spec lookup used by the experiment harness."""

from __future__ import annotations

from repro.cpu.trace import MemoryTrace
from repro.workloads.base import WorkloadSpec
from repro.workloads.patterns import shared_scatters
from repro.workloads.spec import specint_workloads

_REGISTRY: dict[str, WorkloadSpec] | None = None


def registry() -> dict[str, WorkloadSpec]:
    """The full workload registry (built lazily, cached)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = specint_workloads()
    return _REGISTRY


def workload_names() -> list[str]:
    """Benchmark names in Figure 6 order."""
    return list(registry())


def get_workload(name: str) -> WorkloadSpec:
    """Look up one workload spec by name.

    Names of the form ``ingest:<digest-prefix>`` resolve against the
    trace-ingestion store instead of the synthetic registry, so every
    surface that takes a benchmark name accepts an imported trace.
    """
    specs = registry()
    try:
        return specs[name]
    except KeyError:
        if name.startswith("ingest:"):
            from repro.ingest.store import workload_spec_for

            return workload_spec_for(name.split(":", 1)[1])
        raise ValueError(f"unknown workload {name!r}; options: {sorted(specs)}")


def build_trace(
    name: str,
    seed: int = 0,
    n_instructions: int = 1_000_000,
    input_name: str | None = None,
) -> MemoryTrace:
    """Materialize a benchmark trace by name."""
    with shared_scatters():
        return get_workload(name).trace(seed, n_instructions, input_name)

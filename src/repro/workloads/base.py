"""Workload base types: specs, scaling, and the generator protocol.

A workload is a function ``(seed, n_instructions) -> MemoryTrace``.  The
paper runs each SPEC benchmark for 200-250 billion instructions; a pure-
Python reproduction scales that to a few million while keeping the
*relative* structure (phase positions, miss intervals, input sensitivity)
intact.  ``WorkloadSpec`` carries the metadata the experiment harness and
reports need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.cpu.trace import MemoryTrace


class TraceBuilder(Protocol):
    """Callable that materializes a trace at a given instruction budget."""

    def __call__(self, seed: int, n_instructions: int) -> MemoryTrace: ...


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, characterized benchmark model.

    Attributes:
        name: Benchmark name (mirrors the paper's SPEC-int set).
        inputs: Input labels this model supports (first is the default,
            mirroring "reference inputs"; multi-input models back Fig 2).
        category: 'memory', 'mixed', or 'compute' — the paper's informal
            classification (Section 9.1.1 "memory-bound to compute-bound").
        description: What program behaviour the model reproduces.
        build: Trace builder for the default input.
        build_input: Per-input trace builders.
    """

    name: str
    inputs: tuple[str, ...]
    category: str
    description: str
    build: TraceBuilder
    build_input: dict[str, TraceBuilder] = field(default_factory=dict)

    def trace(
        self, seed: int = 0, n_instructions: int = 1_000_000, input_name: str | None = None
    ) -> MemoryTrace:
        """Materialize the trace for ``input_name`` (default: first input)."""
        if input_name is None or input_name == self.inputs[0]:
            return self.build(seed, n_instructions)
        try:
            builder = self.build_input[input_name]
        except KeyError:
            raise ValueError(
                f"{self.name} has inputs {self.inputs}, not {input_name!r}"
            )
        return builder(seed, n_instructions)


def scale_refs(n_instructions: int, mean_gap: float) -> int:
    """Number of references that fit ``n_instructions`` at a mean gap."""
    return max(1, int(n_instructions / (mean_gap + 1.0)))

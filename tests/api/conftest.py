"""Shared fixtures for the experiment-API tests."""

from __future__ import annotations

import pytest

from repro.api.records import RunRecord
from repro.core.scheme import scheme_from_spec


def build_record(benchmark="mcf", input_name=None, scheme="base_dram", seed=0,
                 cycles=1000.0, **overrides) -> RunRecord:
    """A hand-rolled record with sensible defaults for container tests."""
    fields = dict(
        benchmark=benchmark,
        input_name=input_name,
        label=f"{benchmark}/{input_name or 'inp'}",
        scheme_spec=scheme,
        scheme_name=scheme_from_spec(scheme).name,
        seed=seed,
        n_instructions=10_000,
        cycles=cycles,
        ipc=10_000 / cycles,
        power_watts=0.5,
        memory_power_watts=0.3,
        real_accesses=90,
        dummy_accesses=10,
        dummy_fraction=0.1,
        oram_timing_leakage_bits=32.0,
        termination_leakage_bits=62.0,
    )
    fields.update(overrides)
    return RunRecord(**fields)


@pytest.fixture
def make_record():
    """Factory fixture over :func:`build_record`."""
    return build_record


@pytest.fixture(autouse=True)
def fresh_pass_memo():
    """Isolate the process-wide functional-pass memo between tests."""
    from repro.sim.simulator import clear_pass_memo

    clear_pass_memo()
    yield
    clear_pass_memo()

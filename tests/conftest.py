"""Shared fixtures for the test suite.

Keeps expensive artifacts (functional cache passes, small ORAMs) at session
scope so the several-hundred-test suite stays fast.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.oram.config import TreeGeometry
from repro.oram.path_oram import PathORAM
from repro.sim.simulator import SecureProcessorSim, SimConfig


@pytest.fixture(scope="session")
def small_geometry() -> TreeGeometry:
    """A 5-level test tree (16 leaves, Z=4)."""
    return TreeGeometry(levels=5, blocks_per_bucket=4, block_bytes=32)


@pytest.fixture()
def small_oram(small_geometry) -> PathORAM:
    """A fresh small Path ORAM per test."""
    return PathORAM(small_geometry, n_blocks=24, seed=11)


@pytest.fixture(scope="session")
def shared_sim() -> SecureProcessorSim:
    """Session-scoped simulator with small instruction budget.

    Tests must not mutate its cached miss traces.
    """
    return SecureProcessorSim(SimConfig(n_instructions=120_000, seed=3))


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Zero the process-wide metrics registry (:mod:`repro.obs`), so a
    test that asserts an absolute counter value sees only its own work."""
    obs.reset()

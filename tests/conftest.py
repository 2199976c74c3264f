"""Shared fixtures for the test suite.

Keeps expensive artifacts (functional cache passes, small ORAMs) at session
scope so the several-hundred-test suite stays fast.
"""

from __future__ import annotations

from contextlib import contextmanager

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


#: The lockstep routings the fast functional pass is tested under, as the
#: constants of :func:`repro.cache.vectorized.lockstep_pays` each patches:
#: "never" keeps every sub-slice on the dict modes; "always" classifies
#: every sub-slice in lockstep (any size, any width, and never hit-dense
#: enough to leave).
LOCKSTEP_ROUTINGS = {
    "never": {"LOCKSTEP_MIN_HEADS": 1 << 62},
    "always": {"LOCKSTEP_MIN_HEADS": 0, "LOCKSTEP_MIN_WIDTH": 0, "_HIT_DENSE": 2.0},
}

#: The routings the slot replay machines are tested under, as the
#: constants of :mod:`repro.sim.timing` each patches: "never" serves
#: every request in the per-request loop; "always" replays every run of
#: whole episodes in lockstep (any chunk, any epoch room, any width), in
#: windows of at most 64 requests so that short traces cross windows.
REPLAY_ROUTINGS = {
    "never": {"LOCKSTEP_MIN_REQUESTS": 1 << 62},
    "always": {
        "LOCKSTEP_MIN_REQUESTS": 0,
        "LOCKSTEP_MIN_WIDTH": 0,
        "LOCKSTEP_WINDOW_REQUESTS": 64,
    },
}


#: The closed-form attempt settings the config-batched kernel is tested
#: under, as the constants of :mod:`repro.sim.timing` each patches:
#: "every" attempts a closed-form run at every request it may (runs of
#: any length, no back-off); "backoff" keeps the module's calibrated
#: constants; "none" steps every request.
BATCH_ATTEMPTS = {
    "every": {"BATCH_RUN_MIN": 1, "BATCH_BACKOFF_FIRST": 0},
    "backoff": {},
    "none": {"BATCH_RUN_MIN": 1 << 62},
}


@contextmanager
def _patched(module, constants: dict):
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(module, name, value)
        yield


def _forced_routing(routing: str):
    from repro.cache import vectorized

    return _patched(vectorized, LOCKSTEP_ROUTINGS[routing])


def _forced_replay_routing(routing: str):
    """Patch :mod:`repro.sim.timing` to one of :data:`REPLAY_ROUTINGS`."""
    from repro.sim import timing

    return _patched(timing, REPLAY_ROUTINGS[routing])


def _forced_batch_attempts(setting: str):
    """Patch :mod:`repro.sim.timing` to one of :data:`BATCH_ATTEMPTS`."""
    from repro.sim import timing

    return _patched(timing, BATCH_ATTEMPTS[setting])


@pytest.fixture(params=list(LOCKSTEP_ROUTINGS))
def functional_routing(request):
    """Run the test once under each lockstep routing; yields its name."""
    with _forced_routing(request.param):
        yield request.param


@pytest.fixture(scope="session")
def each_routing():
    """``each_routing(check)`` calls ``check()`` once under each lockstep
    routing.  For property tests: both routings run inside every
    hypothesis example, so the examples are drawn once."""

    def run(check) -> None:
        for routing in LOCKSTEP_ROUTINGS:
            with _forced_routing(routing):
                check()

    return run


@pytest.fixture(params=list(REPLAY_ROUTINGS))
def replay_routing(request):
    """Run the test once under each slot-replay routing; yields its name."""
    with _forced_replay_routing(request.param):
        yield request.param


@pytest.fixture(scope="session")
def each_replay_routing():
    """``each_replay_routing(check)`` calls ``check()`` once under each
    slot-replay routing, inside one hypothesis example."""

    def run(check) -> None:
        for routing in REPLAY_ROUTINGS:
            with _forced_replay_routing(routing):
                check()

    return run


@pytest.fixture(scope="session")
def each_batch_attempts():
    """``each_batch_attempts(check)`` calls ``check()`` once under each
    closed-form attempt setting, inside one hypothesis example."""

    def run(check) -> None:
        for setting in BATCH_ATTEMPTS:
            with _forced_batch_attempts(setting):
                check()

    return run

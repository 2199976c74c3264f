"""Shared fixtures for the sweep-service tests."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def fresh_pass_memo():
    """Start every test from a cold pass memo, so a test that asserts a
    cold lattice's ``functional_passes`` sees the passes computed."""
    from repro.sim.simulator import clear_pass_memo

    clear_pass_memo()
    yield
    clear_pass_memo()

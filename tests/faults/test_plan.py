"""FaultPlan semantics: validation, serialization, arming, claiming."""

import os

import pytest

from repro import obs
from repro.faults.plan import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_plan,
    corrupt_bytes,
    fault_point,
    reset_site_counts,
)


def make_plan(tmp_path, *faults) -> FaultPlan:
    return FaultPlan(faults=tuple(faults), token_dir=str(tmp_path / "tokens"))


@pytest.fixture(autouse=True)
def clean_fault_state():
    reset_site_counts()
    yield
    reset_site_counts()
    os.environ.pop(FAULT_PLAN_ENV, None)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="explode", site="worker-cell")

    def test_rejects_zero_based_at(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(kind="kill", site="worker-cell", at=0)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(kind="kill", site="worker-cell", count=0)

    def test_token_stem_identifies_spec(self):
        spec = FaultSpec(kind="refuse", site="client-connect", at=3)
        assert spec.token_stem == "refuse-client-connect-at3"


class TestFaultPlan:
    def test_needs_token_dir(self):
        with pytest.raises(ValueError, match="token_dir"):
            FaultPlan(faults=())

    def test_json_roundtrip(self, tmp_path):
        plan = make_plan(
            tmp_path,
            FaultSpec(kind="delay", site="worker-cell", at=2, delay_s=0.5),
            FaultSpec(kind="corrupt", site="cache-write-trace", count=3),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_activated_publishes_and_cleans_env(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="s"))
        with plan.activated():
            assert os.environ[FAULT_PLAN_ENV] == plan.to_json()
            assert active_plan() is plan
        assert FAULT_PLAN_ENV not in os.environ
        assert active_plan() is None

    def test_env_plan_governs_without_install(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="s"))
        plan.activate()
        try:
            got = active_plan()
            assert got is not None and got == plan
        finally:
            plan.deactivate()

    def test_claim_caps_total_firings(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="s", count=2))
        spec = plan.faults[0]
        assert plan.claim(spec)
        assert plan.claim(spec)
        assert not plan.claim(spec)          # all slots taken
        assert plan.fired_count(spec) == 2


class TestFaultPoint:
    def test_noop_without_plan(self):
        fault_point("worker-cell")           # must not raise
        assert corrupt_bytes("cache-write-trace", b"abcd") == b"abcd"

    def test_refuse_fires_at_threshold_only(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="s", at=3))
        with plan.activated():
            fault_point("s")                 # armed 1 < at
            fault_point("s")                 # armed 2 < at
            with pytest.raises(ConnectionRefusedError):
                fault_point("s")             # armed 3 fires

    def test_refuse_respects_count_cap(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="s", count=2))
        with plan.activated():
            for _ in range(2):
                with pytest.raises(ConnectionRefusedError):
                    fault_point("s")
            fault_point("s")                 # slots exhausted: clean

    def test_firing_bumps_injection_counter(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="delay", site="s", delay_s=0.0))
        before = obs.snapshot()
        with plan.activated():
            fault_point("s")
        assert obs.delta(before).get("faults_injected") == 1

    def test_sites_are_independent(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="a"))
        with plan.activated():
            fault_point("b")                 # different site: clean
            with pytest.raises(ConnectionRefusedError):
                fault_point("a")


class TestCorruptBytes:
    def test_tears_payload_in_half(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="corrupt", site="w"))
        with plan.activated():
            assert corrupt_bytes("w", b"0123456789") == b"01234"

    def test_only_fires_count_times(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="corrupt", site="w", count=1))
        with plan.activated():
            assert corrupt_bytes("w", b"0123456789") == b"01234"
            assert corrupt_bytes("w", b"0123456789") == b"0123456789"

    def test_kill_specs_do_not_fire_on_write_sites(self, tmp_path):
        plan = make_plan(tmp_path, FaultSpec(kind="refuse", site="w"))
        with plan.activated():
            assert corrupt_bytes("w", b"abcd") == b"abcd"


class TestCounters:
    def test_bump_and_delta(self):
        before = obs.snapshot()
        obs.bump("worker_retries")
        obs.bump("cells_poisoned", 3)
        delta = obs.delta(before)
        assert delta["worker_retries"] == 1
        assert delta["cells_poisoned"] == 3

    def test_rejects_unknown_counter(self):
        with pytest.raises(KeyError):
            obs.bump("made_up_counter")

    def test_rejects_negative_amount(self):
        with pytest.raises(ValueError):
            obs.bump("worker_retries", -1)

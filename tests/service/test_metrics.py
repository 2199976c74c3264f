"""The metrics registry and the daemon's ``/metrics`` document: monotonic
counters, rates over the daemon's uptime, latency percentiles."""

import asyncio
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec
from repro.service import daemon as daemon_module
from repro.service.daemon import SweepService
from repro.service.jobs import CANCELLED, DONE, FAILED

COUNTER_NAMES = obs.SERVICE_COUNTERS + obs.RECOVERY_COUNTERS


def make_spec(seed=0):
    return ExperimentSpec(benchmarks=("mcf",), schemes=("base_dram",), seeds=(seed,),
                          n_instructions=20_000)


@pytest.fixture()
def clock(monkeypatch):
    """The daemon's monotonic clock, set by hand."""
    now = types.SimpleNamespace(value=0.0)
    monkeypatch.setattr(daemon_module, "time",
                        types.SimpleNamespace(monotonic=lambda: now.value))
    return now


@pytest.fixture()
def service(tmp_path, clock):
    service = SweepService(cache=tmp_path / "cache", max_concurrency=2, journal=False)
    yield service
    asyncio.run(service.shutdown())


class TestCounters:
    def test_all_counters_start_at_zero(self, service):
        assert obs.snapshot() == dict.fromkeys(COUNTER_NAMES, 0)
        snap = service.metrics_snapshot()
        assert all(snap[name] == 0 for name in obs.SERVICE_COUNTERS)
        assert all(snap[f"recovery_{name}"] == 0 for name in obs.RECOVERY_COUNTERS)

    def test_submission_and_dedup(self, service):
        async def submit_twice():
            await service.submit(make_spec())
            await service.submit(make_spec())
            await service.drain()

        asyncio.run(submit_twice())
        assert obs.snapshot()["jobs_submitted"] == 2
        assert obs.snapshot()["jobs_deduplicated"] == 1

    def test_terminal_states_route_to_their_counter(self, service):
        async def end_one_of_each():
            for seed, state in enumerate((DONE, FAILED, CANCELLED)):
                job, _ = service.registry.submit(make_spec(seed))
                service.registry.start(job)
                result = ResultSet(records=(), spec=job.spec, meta={})
                await service._end(job, state, result=result, error="boom")

        asyncio.run(end_one_of_each())
        counts = obs.snapshot()
        assert (counts["jobs_completed"], counts["jobs_failed"],
                counts["jobs_cancelled"]) == (1, 1, 1)
        assert sum(obs._latency_ms) == 3

    def test_negative_amounts_rejected(self):
        with pytest.raises(ValueError):
            obs.bump("cells_run", -1)
        with pytest.raises(ValueError):
            obs.add_busy(-0.1)
        with pytest.raises(KeyError):
            obs.bump("not_a_counter")
        assert obs.snapshot() == dict.fromkeys(COUNTER_NAMES, 0)

    def test_hit_rate(self, service):
        assert service.metrics_snapshot()["cache_hit_rate"] == 0.0
        obs.bump("cells_serviced", 8)
        obs.bump("cache_hits", 2)
        assert service.metrics_snapshot()["cache_hit_rate"] == pytest.approx(0.25)


# One recording action per hypothesis step; a negative bump must be
# rejected, and nothing may lower a counter.
_ACTIONS = st.one_of(
    st.tuples(st.just("bump"), st.sampled_from(COUNTER_NAMES), st.integers(-3, 5)),
    st.tuples(st.just("busy"), st.none(), st.floats(min_value=0.0, max_value=5.0)),
    st.tuples(st.just("latency"), st.none(), st.floats(min_value=0.0, max_value=5.0)),
)


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_ACTIONS, max_size=40))
    def test_every_counter_is_monotonic(self, actions):
        obs.reset()
        previous = obs.snapshot()
        for kind, name, amount in actions:
            if kind == "bump" and amount < 0:
                with pytest.raises(ValueError):
                    obs.bump(name, amount)
            elif kind == "bump":
                obs.bump(name, amount)
            elif kind == "busy":
                obs.add_busy(amount)
            else:
                obs.record_latency(amount)
            current = obs.snapshot()
            assert all(
                current[key] >= previous[key] for key in COUNTER_NAMES
            ), f"counter regressed after {kind} {name} {amount}"
            previous = current

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=30))
    def test_latency_histogram_counts_every_sample(self, latencies):
        obs.reset()
        for latency in latencies:
            obs.record_latency(latency)
        assert sum(obs._latency_ms) == len(latencies)


class TestSnapshot:
    def test_rates_are_taken_over_the_daemon_uptime(self, service, clock):
        jobs = [service.registry.submit(make_spec(seed))[0] for seed in range(5)]
        for job in jobs[:2]:
            service.registry.start(job)
        obs.bump("jobs_completed", 5)
        obs.bump("cells_serviced", 20)
        obs.add_busy(15.0)
        clock.value = 10.0
        snap = service.metrics_snapshot()
        assert snap["uptime_s"] == pytest.approx(10.0)
        assert snap["jobs_per_second"] == pytest.approx(0.5)
        assert snap["cells_per_second"] == pytest.approx(2.0)
        assert snap["worker_busy_s"] == pytest.approx(15.0)
        assert snap["worker_utilization"] == pytest.approx(0.75)
        assert (snap["queue_depth"], snap["running_jobs"], snap["workers"]) == (3, 2, 2)
        assert service.health() == {"status": "ok", "uptime_s": 10.0, "accepting": True}

    def test_utilization_is_clamped_to_one(self, service, clock):
        obs.add_busy(50.0)
        clock.value = 1.0
        assert service.metrics_snapshot()["worker_utilization"] == 1.0

    def test_percentiles_are_nearest_rank_ms(self, service):
        for ms in (10, 20, 1000):
            obs.record_latency(ms / 1000.0)
        pct = obs.latency_percentiles()
        assert pct[50.0] == 20
        assert pct[99.0] == 1000
        assert service.metrics_snapshot()["job_latency_ms"] == {50.0: 20, 95.0: 1000,
                                                               99.0: 1000}

"""Job lifecycle and registry semantics: ordering, dedup, cancellation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.api.records import ResultSet
from repro.api.spec import ExperimentSpec
from repro.service import jobs as jobs_module
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobRegistry,
    spec_digest,
)


def make_spec(name="s", benchmarks=("mcf",), schemes=("base_dram",), seeds=(0,)):
    return ExperimentSpec(
        name=name, benchmarks=benchmarks, schemes=schemes, seeds=seeds,
        n_instructions=10_000,
    )


def empty_result(spec):
    return ResultSet(records=(), spec=spec, meta={"backend": "test"})


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpecDigest:
    def test_name_does_not_change_identity(self):
        assert spec_digest(make_spec(name="a")) == spec_digest(make_spec(name="b"))

    def test_cell_fields_do_change_identity(self):
        assert spec_digest(make_spec(seeds=(0,))) != spec_digest(make_spec(seeds=(1,)))
        assert spec_digest(make_spec()) != spec_digest(
            make_spec(schemes=("static:300",))
        )


class TestOrdering:
    def test_fifo_ids_and_iteration_order(self):
        registry = JobRegistry()
        ids = [registry.submit(make_spec(seeds=(s,)))[0].id for s in range(5)]
        assert ids == [f"j-{n:06d}" for n in range(1, 6)]
        assert [job.id for job in registry] == ids
        assert len(registry) == 5
        assert registry.queue_depth() == 5
        assert registry.running_count() == 0

    def test_snapshot_preserves_submission_order(self):
        registry = JobRegistry()
        for s in range(3):
            registry.submit(make_spec(name=f"n{s}", seeds=(s,)))
        names = [row["name"] for row in registry.snapshot()]
        assert names == ["n0", "n1", "n2"]


class TestDeduplication:
    def test_duplicate_active_spec_attaches(self):
        registry = JobRegistry()
        first, deduped_first = registry.submit(make_spec(name="a"))
        again, deduped_again = registry.submit(make_spec(name="b"))  # same cells
        assert not deduped_first and deduped_again
        assert again is first
        assert first.dedup_hits == 1
        assert len(registry) == 1

    def test_duplicate_attaches_while_running(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.start(job)
        again, deduped = registry.submit(make_spec())
        assert deduped and again is job

    def test_terminal_job_never_absorbs_resubmission(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.start(job)
        registry.end(job, DONE, result=empty_result(job.spec))
        fresh, deduped = registry.submit(make_spec())
        assert not deduped
        assert fresh.id != job.id

    def test_distinct_specs_never_dedup(self):
        registry = JobRegistry()
        registry.submit(make_spec(seeds=(0,)))
        other, deduped = registry.submit(make_spec(seeds=(1,)))
        assert not deduped and other.id == "j-000002"


class TestCancellation:
    def test_cancel_queued_sets_flag_only(self):
        # The daemon ends a queued job at once (tests/service/test_daemon.py).
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        assert registry.cancel(job.id)
        assert job.state == QUEUED and job.cancel_requested
        registry.end(job, CANCELLED)
        assert job.state == CANCELLED and job.is_terminal

    def test_cancel_running_sets_flag_only(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.start(job)
        assert registry.cancel(job.id)
        assert job.state == RUNNING and job.cancel_requested
        registry.end(job, CANCELLED)  # the scheduler acts on the flag
        assert job.state == CANCELLED

    def test_cancel_terminal_returns_false(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.cancel(job.id)
        registry.end(job, CANCELLED)
        assert not registry.cancel(job.id)

    def test_cancelled_job_frees_the_digest_for_new_jobs(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.cancel(job.id)
        registry.end(job, CANCELLED)
        fresh, deduped = registry.submit(make_spec())
        assert not deduped and fresh.id != job.id


class TestStateMachine:
    def test_states_partition(self):
        assert TERMINAL_STATES == {DONE, FAILED, CANCELLED}
        assert ACTIVE_STATES == {QUEUED, RUNNING}
        assert not (TERMINAL_STATES & ACTIVE_STATES)

    def test_invalid_transitions_raise(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        with pytest.raises(RuntimeError):
            registry.end(job, DONE, result=empty_result(job.spec))  # queued -> done
        registry.start(job)
        with pytest.raises(RuntimeError):
            registry.start(job)
        with pytest.raises(ValueError):
            registry.end(job, QUEUED)  # not a terminal state
        registry.end(job, FAILED, error="boom")
        with pytest.raises(RuntimeError):
            registry.end(job, CANCELLED)
        assert job.error == "boom"
        assert (registry.queue_depth(), registry.running_count()) == (0, 0)

    def test_latency_uses_injected_clock(self):
        clock = FakeClock()
        registry = JobRegistry(clock=clock)
        job, _ = registry.submit(make_spec())
        assert job.latency is None
        clock.now = 1.0
        registry.start(job)
        clock.now = 3.5
        registry.end(job, DONE, result=empty_result(job.spec))
        assert job.latency == pytest.approx(3.5)


class TestEvents:
    def test_event_log_is_append_only_with_dense_seq(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.start(job)
        job.add_event("progress", benchmark="mcf", seed=0)
        registry.end(job, DONE, result=empty_result(job.spec))
        seqs = [event["seq"] for event in job.events]
        assert seqs == list(range(1, len(job.events) + 1))
        kinds = [event["kind"] for event in job.events]
        assert kinds == ["queued", "started", "progress", "done"]

    def test_events_since_is_exclusive(self):
        registry = JobRegistry()
        job, _ = registry.submit(make_spec())
        registry.start(job)
        assert [e["kind"] for e in job.events_since(0)] == ["queued", "started"]
        assert [e["kind"] for e in job.events_since(1)] == ["started"]
        assert job.events_since(2) == []


class TestEventRing:
    def make_job(self, limit):
        job, _ = JobRegistry(events_limit=limit).submit(make_spec())
        return job

    def test_retention_bounded_but_seq_monotonic(self):
        job = self.make_job(limit=4)
        for i in range(10):
            job.add_event("progress", i=i)
        assert len(job.events) == 4
        assert job.events_dropped == 7        # 11 emitted (incl. queued) - 4 kept
        assert [e["seq"] for e in job.events] == [8, 9, 10, 11]

    def test_every_eviction_is_counted(self):
        before = obs.snapshot()
        job = self.make_job(limit=2)
        for _ in range(5):
            job.add_event("progress")
        assert obs.delta(before)["events_dropped"] == job.events_dropped == 4

    def test_no_drops_below_limit(self):
        before = obs.snapshot()
        job = self.make_job(limit=100)
        job.add_event("progress")
        assert job.events_dropped == 0
        assert obs.delta(before)["events_dropped"] == 0

    def test_events_since_inserts_drop_notice_across_boundary(self):
        job = self.make_job(limit=3)
        for i in range(8):
            job.add_event("progress", i=i)
        tail = job.events_since(0)
        assert tail[0]["kind"] == "events_dropped"
        assert tail[0]["dropped"] == 6        # seqs 1..6 are gone
        assert tail[0]["seq"] == 6            # oldest retained is 7
        assert [e["seq"] for e in tail[1:]] == [7, 8, 9]

    def test_resume_cursor_stays_monotonic_across_notice(self):
        """The HTTP streamer advances ``since`` to each event's seq; the
        synthetic notice must never move that cursor backwards or skip a
        retained event."""
        job = self.make_job(limit=3)
        for i in range(8):
            job.add_event("progress", i=i)
        since = 2                             # client saw seqs 1..2 pre-drop
        seen = []
        for event in job.events_since(since):
            assert event["seq"] > since
            since = event["seq"]
            seen.append(event["kind"])
        assert seen[0] == "events_dropped"
        assert job.events_since(since) == []  # fully caught up

    def test_no_notice_when_caller_is_ahead_of_drops(self):
        job = self.make_job(limit=3)
        for i in range(8):
            job.add_event("progress", i=i)
        oldest = job.events[0]["seq"]
        assert all(e["kind"] != "events_dropped"
                   for e in job.events_since(oldest - 1))

    def test_snapshot_reports_totals(self):
        job = self.make_job(limit=2)
        for _ in range(6):
            job.add_event("progress")
        snap = job.snapshot()
        assert snap["events"] == 7            # total emitted, not retained
        assert snap["events_dropped"] == 5

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError, match="events_limit"):
            JobRegistry(events_limit=0).submit(make_spec())


class TestRetainedResults:
    def test_only_the_most_recent_done_jobs_keep_their_results(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "RETAINED_RESULTS", 2)
        registry = JobRegistry()
        finished = []
        for seed in range(3):
            job, _ = registry.submit(make_spec(seeds=(seed,)))
            registry.start(job)
            result = ResultSet(records=(), spec=job.spec, meta={"seed": seed})
            registry.end(job, DONE, result=result)
            finished.append(job)
        assert [job.result is not None for job in finished] == [False, True, True]
        assert [job.state for job in finished] == [DONE] * 3
        assert [job.meta for job in finished] == [{"seed": s} for s in range(3)]
        assert [job.n_records for job in finished] == [0, 0, 0]


class _Untouchable(Job):
    """A finished job that fails the test when anything reads its state
    or digest."""

    @property
    def state(self):
        raise AssertionError(f"visited finished job {self.id}")

    @property
    def digest(self):
        raise AssertionError(f"visited finished job {self.id}")


# One registry operation per hypothesis step: what, which spec or job,
# and the terminal state an "end" asks for.
_STEPS = st.tuples(
    st.sampled_from(["submit", "start", "end", "cancel"]),
    st.integers(min_value=0, max_value=7),
    st.sampled_from(sorted(TERMINAL_STATES)),
)


class TestIndexes:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_STEPS, max_size=40))
    def test_gauges_and_dedup_equal_a_full_scan(self, steps):
        registry = JobRegistry()
        specs = [make_spec(seeds=(seed,)) for seed in range(3)]
        jobs = []
        for kind, index, state in steps:
            if kind == "submit":
                spec = specs[index % len(specs)]
                active = [job for job in registry
                          if job.digest == spec_digest(spec) and job.state in ACTIVE_STATES]
                job, deduped = registry.submit(spec)
                assert deduped == bool(active)
                if active:
                    assert job is active[0]
                else:
                    jobs.append(job)
            elif jobs:
                job = jobs[index % len(jobs)]
                try:
                    if kind == "start":
                        registry.start(job)
                    elif kind == "end":
                        registry.end(job, state, result=empty_result(job.spec), error="e")
                    else:
                        registry.cancel(job.id)
                except RuntimeError:
                    pass  # an illegal transition leaves the books as they were
            assert registry.queue_depth() == sum(job.state == QUEUED for job in registry)
            assert registry.running_count() == sum(job.state == RUNNING for job in registry)

    def test_submit_and_gauges_never_visit_finished_jobs(self):
        registry = JobRegistry()
        for seed in range(2000):
            job, _ = registry.submit(make_spec(seeds=(seed,)))
            registry.start(job)
            registry.end(job, DONE, result=empty_result(job.spec))
            job.__class__ = _Untouchable
        job, deduped = registry.submit(make_spec(seeds=(0,)))
        assert not deduped and job.id == "j-002001"
        assert (registry.queue_depth(), registry.running_count()) == (1, 0)
        assert registry.submit(make_spec(seeds=(0,))) == (job, True)
        registry.start(job)
        assert (registry.queue_depth(), registry.running_count()) == (0, 1)

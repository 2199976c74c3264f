"""Job journal + ``--resume``: restart-resumable service jobs."""

import asyncio
import json

import pytest

from repro import obs
from repro.api.cache import ExperimentCache
from repro.api.spec import ExperimentSpec
from repro.service.daemon import SweepService
from repro.service.hosting import ThreadedService
from repro.service.jobs import spec_digest
from repro.service.journal import JobJournal

SPEC_KW = dict(benchmarks=("mcf",), schemes=("base_dram", "static:300"),
               seeds=(0,), n_instructions=20_000)


def make_spec(name="journal", **overrides) -> ExperimentSpec:
    return ExperimentSpec(name=name, **{**SPEC_KW, **overrides})


def run(coroutine):
    return asyncio.run(coroutine)


class TestJobJournal:
    def test_replay_empty_or_missing_file(self, tmp_path):
        assert JobJournal(tmp_path / "absent.ndjson").replay() == []

    def test_pending_jobs_survive_terminal_folding(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.ndjson")
        journal.record_submitted("j-1", {"k": 1}, "d1")
        journal.record_submitted("j-2", {"k": 2}, "d2")
        journal.record_submitted("j-3", {"k": 3}, "d3")
        journal.record_state("j-1", "done")
        journal.record_state("j-3", "cancelled")
        pending = journal.replay()
        assert [p.job_id for p in pending] == ["j-2"]
        assert pending[0].spec == {"k": 2}
        assert pending[0].digest == "d2"

    def test_running_jobs_are_pending(self, tmp_path):
        # "running" is journaled only through absence of a terminal row.
        journal = JobJournal(tmp_path / "jobs.ndjson")
        journal.record_submitted("j-1", {}, "d")
        assert journal.replay()[0].last_state == "queued"

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.ndjson")
        journal.record_submitted("j-1", {"k": 1}, "d1")
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"op": "teleport", "job_id": "j-9"}) + "\n")
            handle.write('{"op": "submit", "job_id": "j-2"')  # torn append
        before = obs.snapshot()
        pending = journal.replay()
        assert [p.job_id for p in pending] == ["j-1"]
        assert obs.delta(before)["journal_lines_skipped"] == 3

    def test_append_only(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.ndjson")
        journal.record_submitted("j-1", {}, "d")
        first = journal.path.read_bytes()
        journal.record_state("j-1", "done")
        assert journal.path.read_bytes().startswith(first)
        assert journal.entry_count() == 2

    def test_fsync_mode_writes_identically(self, tmp_path):
        plain = JobJournal(tmp_path / "a.ndjson")
        synced = JobJournal(tmp_path / "b.ndjson", fsync=True)
        for journal in (plain, synced):
            journal.record_submitted("j-1", {"k": 1}, "d")
        assert plain.path.read_bytes() == synced.path.read_bytes()


class TestServiceJournaling:
    def test_lifecycle_rows_written(self, tmp_path):
        async def _go():
            service = SweepService(cache=ExperimentCache(tmp_path / "cache"),
                                   max_concurrency=1)
            job, _ = await service.submit(make_spec())
            await service.wait(job.id, timeout=120)
            await service.shutdown()
            return service

        service = run(_go())
        rows = [json.loads(line)
                for line in service.journal.path.read_text().splitlines()]
        assert [row["op"] for row in rows] == ["submit", "state"]
        assert rows[1]["state"] == "done"

    def test_journal_false_disables_persistence(self, tmp_path):
        async def _go():
            service = SweepService(cache=ExperimentCache(tmp_path / "cache"),
                                   max_concurrency=1, journal=False)
            job, _ = await service.submit(make_spec())
            await service.cancel(job.id)
            await service.shutdown()
            return service

        service = run(_go())
        assert service.journal is None
        assert not (tmp_path / "cache" / "journal").exists()

    def test_restart_resumes_interrupted_jobs_with_dedup(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir(parents=True)
        journal = JobJournal.for_cache_root(root)
        interrupted = make_spec(name="interrupted")
        finished = make_spec(name="finished", seeds=(1,))
        journal.record_submitted("j-000001", interrupted.to_dict(),
                                 spec_digest(interrupted))
        journal.record_submitted("j-000002", interrupted.to_dict(),
                                 spec_digest(interrupted))   # duplicate
        journal.record_submitted("j-000003", finished.to_dict(),
                                 spec_digest(finished))
        journal.record_state("j-000003", "done")

        async def _restart():
            service = SweepService(cache=ExperimentCache(root), max_concurrency=1)
            resumed = await service.resume()
            await service.drain()
            snap = service.metrics_snapshot()
            states = [job.state for job in resumed]
            events = [e["kind"] for e in resumed[0].events] if resumed else []
            await service.shutdown()
            return states, events, snap

        states, events, snap = run(_restart())
        assert states == ["done"]
        assert "resumed" in events
        assert snap["jobs_resumed"] == 1
        assert snap["jobs_deduplicated"] == 1     # the duplicate attached
        assert snap["jobs_submitted"] == 2        # finished job untouched

    def test_resume_without_journal_is_noop(self, tmp_path):
        async def _go():
            service = SweepService(cache=ExperimentCache(tmp_path / "cache"),
                                   max_concurrency=1, journal=False)
            resumed = await service.resume()
            await service.shutdown()
            return resumed

        assert run(_go()) == []

    def test_metrics_expose_recovery_counters(self, tmp_path):
        async def _go():
            service = SweepService(cache=ExperimentCache(tmp_path / "cache"))
            snap = service.metrics_snapshot()
            await service.shutdown()
            return snap

        snap = run(_go())
        for name in ("recovery_worker_retries", "recovery_artifacts_quarantined",
                     "recovery_journal_lines_skipped"):
            assert name in snap
            assert snap[name] >= 0


class TestThreadedResume:
    def test_threaded_service_resume_flag(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir(parents=True)
        spec = make_spec(name="hosted-resume")
        journal = JobJournal.for_cache_root(root)
        journal.record_submitted("j-000001", spec.to_dict(), spec_digest(spec))
        with ThreadedService(cache=root, resume=True) as hosted:
            client = hosted.client()
            jobs = client.jobs()
            assert len(jobs) == 1
            final = client.wait(jobs[0]["id"], timeout=120)
            assert final["state"] == "done"
            assert client.metrics()["jobs_resumed"] == 1
            client.shutdown()


@pytest.fixture(autouse=True)
def fresh_pass_memo():
    from repro.sim.simulator import clear_pass_memo

    clear_pass_memo()
    yield
    clear_pass_memo()

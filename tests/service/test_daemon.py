"""SweepService scheduling: concurrency, zero redundant passes, events.

The headline test runs N=4 concurrent sweeps sharing one (benchmark,
seed) lattice and proves — from persistent trace-cache entry counts, not
from the service's own counters alone — that the daemon paid exactly one
functional pass per lattice point.  The ``functional_passes`` metric
counts passes computed, so a recompute over corrupt traces shows in it.
"""

import asyncio

import pytest

import repro.sim.simulator as simulator_module
from repro.api.cache import ExperimentCache
from repro.api.spec import ExperimentSpec
from repro.cli import main
from repro.dist import WorkQueueBackend
from repro.service.daemon import SweepService, subgroup_specs
from repro.sim.simulator import clear_pass_memo

BENCHMARKS = ("mcf", "libquantum")
N_INSTRUCTIONS = 20_000


def make_spec(name="svc", schemes=("base_dram", "static:300"), seeds=(0,)):
    return ExperimentSpec(
        name=name, benchmarks=BENCHMARKS, schemes=schemes, seeds=seeds,
        n_instructions=N_INSTRUCTIONS,
    )


@pytest.fixture()
def cache(tmp_path):
    return ExperimentCache(tmp_path / "cache")


def run(coroutine):
    return asyncio.run(coroutine)


class TestSubgroupSpecs:
    def test_one_subspec_per_benchmark_seed(self):
        spec = make_spec(seeds=(0, 1))
        groups = subgroup_specs(spec)
        assert [(b, s) for b, s, _ in groups] == [
            ("mcf", 0), ("mcf", 1), ("libquantum", 0), ("libquantum", 1),
        ]
        for _, _, sub in groups:
            assert sub.schemes == spec.schemes
        assert sum(sub.n_cells for _, _, sub in groups) == spec.n_cells

    def test_rejects_zero_concurrency(self, cache):
        with pytest.raises(ValueError):
            SweepService(cache=cache, max_concurrency=0)


class TestZeroRedundancy:
    def test_concurrent_sweeps_share_every_functional_pass(self, cache):
        """N=4 concurrent distinct sweeps pay exactly B*K passes."""

        async def scenario():
            service = SweepService(cache=cache, max_concurrency=4)
            specs = [
                make_spec(name=f"svc-{i}", schemes=("base_dram", f"static:{300 + 100 * i}"))
                for i in range(4)
            ]
            jobs = [(await service.submit(spec))[0] for spec in specs]
            done = [await service.wait(job.id, timeout=300) for job in jobs]
            await service.shutdown()
            return service, done

        service, jobs = run(scenario())
        assert [job.state for job in jobs] == ["done"] * 4
        for job, expected in zip(jobs, (s.n_cells for s in (j.spec for j in jobs))):
            assert len(job.result.records) == job.spec.n_cells
        # The ground truth: the persistent store holds one trace per
        # (benchmark, seed) lattice point, no matter how many jobs ran.
        lattice = len(BENCHMARKS) * 1
        assert cache.traces.entry_count() == lattice
        assert service.metrics.counters["functional_passes"] == lattice

    def test_sequential_jobs_reuse_the_warm_cache(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=2)
            first, _ = await service.submit(make_spec(name="cold"))
            await service.wait(first.id, timeout=300)
            second, _ = await service.submit(
                make_spec(name="warm", schemes=("base_dram", "dynamic:4x4"))
            )
            await service.wait(second.id, timeout=300)
            await service.shutdown()
            return service

        service = run(scenario())
        assert service.metrics.counters["functional_passes"] == len(BENCHMARKS)
        assert cache.traces.entry_count() == len(BENCHMARKS)

    def test_metric_counts_passes_recomputed_over_corrupt_traces(
        self, cache, monkeypatch
    ):
        calls = {"n": 0}
        real = simulator_module.simulate_hierarchy

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "simulate_hierarchy", counting)

        async def scenario():
            service = SweepService(cache=cache, max_concurrency=2)
            first, _ = await service.submit(make_spec(name="cold"))
            await service.wait(first.id, timeout=300)
            for trace in cache.traces.root.glob("*.pkl"):
                trace.write_bytes(trace.read_bytes()[:64])
            clear_pass_memo()
            second, _ = await service.submit(
                make_spec(name="recompute", schemes=("base_dram", "dynamic:4x4"))
            )
            await service.wait(second.id, timeout=300)
            await service.shutdown()
            return service, second

        service, second = run(scenario())
        # The truncated traces are quarantined and their passes recomputed.
        assert calls["n"] == 2 * len(BENCHMARKS)
        assert service.metrics.counters["functional_passes"] == calls["n"]
        assert second.result.meta["passes_computed"] == len(BENCHMARKS)


class TestDeduplication:
    def test_identical_inflight_specs_share_one_job(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=1)
            first, deduped_first = await service.submit(make_spec())
            again, deduped_again = await service.submit(make_spec())
            await service.wait(first.id, timeout=300)
            await service.shutdown()
            return service, first, again, deduped_first, deduped_again

        service, first, again, deduped_first, deduped_again = run(scenario())
        assert not deduped_first and deduped_again
        assert again is first
        assert service.metrics.counters["jobs_deduplicated"] == 1
        assert service.metrics.counters["jobs_completed"] == 1

    def test_resubmitted_finished_spec_is_served_from_result_cache(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=1)
            first, _ = await service.submit(make_spec())
            await service.wait(first.id, timeout=300)
            second, deduped = await service.submit(make_spec())
            await service.wait(second.id, timeout=300)
            await service.shutdown()
            return first, second, deduped

        first, second, deduped = run(scenario())
        assert not deduped and second.id != first.id
        assert second.state == "done"
        # Every cell of the rerun came out of the persistent result cache.
        assert second.result.meta["cache_hits"] == second.spec.n_cells
        assert second.result.meta["cells_run"] == 0
        assert second.result.records == first.result.records


class TestEventsAndCancellation:
    def test_progress_events_stream_per_group(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=1)
            job, _ = await service.submit(make_spec(seeds=(0, 1)))
            seen = []
            seq = 0
            while True:
                batch = await service.next_events(job.id, seq, timeout=300)
                seen.extend(batch)
                if batch:
                    seq = batch[-1]["seq"]
                if job.is_terminal and not batch:
                    break
            await service.shutdown()
            return job, seen

        job, events = run(scenario())
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        progress = [event for event in events if event["kind"] == "progress"]
        assert [(p["benchmark"], p["seed"]) for p in progress] == [
            ("mcf", 0), ("mcf", 1), ("libquantum", 0), ("libquantum", 1),
        ]
        assert all(event["functional_passes"] <= 1 for event in progress)

    def test_cancel_queued_job_never_runs(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=1)
            first, _ = await service.submit(make_spec(name="holder"))
            waiting, _ = await service.submit(
                make_spec(name="victim", schemes=("base_dram", "dynamic:2x2"))
            )
            assert await service.cancel(waiting.id)
            await service.wait(first.id, timeout=300)
            await service.drain()
            await service.shutdown()
            return service, waiting

        service, waiting = run(scenario())
        assert waiting.state == "cancelled"
        assert service.metrics.counters["jobs_cancelled"] == 1
        assert service.metrics.counters["jobs_started"] == 1

    def test_engine_error_marks_job_failed(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=1)

            def explode(_spec, **_kwargs):
                raise RuntimeError("engine exploded mid-pass")

            service.engine.run = explode
            job, _ = await service.submit(make_spec(name="doomed"))
            await service.wait(job.id, timeout=300)
            await service.shutdown()
            return service, job

        service, job = run(scenario())
        assert job.state == "failed"
        assert job.error and "engine exploded mid-pass" in job.error
        assert service.metrics.counters["jobs_failed"] == 1


class TestLifecycle:
    def test_snapshot_carries_gauges_and_cache_size(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=2)
            job, _ = await service.submit(make_spec())
            await service.wait(job.id, timeout=300)
            snap = service.metrics_snapshot()
            await service.shutdown()
            return snap

        snap = run(scenario())
        assert snap["accepting"] is True
        assert snap["trace_cache_entries"] == len(BENCHMARKS)
        assert snap["queue_depth"] == 0 and snap["running_jobs"] == 0
        assert snap["workers"] == 2

    def test_submit_after_shutdown_is_refused(self, cache):
        async def scenario():
            service = SweepService(cache=cache, max_concurrency=1)
            await service.shutdown()
            with pytest.raises(RuntimeError):
                await service.submit(make_spec())
            assert service.metrics_snapshot()["accepting"] is False

        run(scenario())


class TestQueueBackend:
    def test_rejects_unknown_backend(self, capsys):
        # The daemon takes a backend object; the CLI is what turns a
        # name into one, and the pool is not a daemon backend.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--backend", "pool"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'pool'" in capsys.readouterr().err

    def test_queue_backend_job_matches_serial(self, cache, tmp_path):
        """A daemon on the distributed backend produces the same records
        as a serial daemon — the ResultSet digest is backend-blind."""
        spec = make_spec(name="dist-svc", schemes=("base_dram",))

        async def scenario(service):
            job, _ = await service.submit(spec)
            done = await service.wait(job.id, timeout=300)
            snap = service.metrics_snapshot()
            await service.shutdown()
            return done, snap

        dist_cache = ExperimentCache(tmp_path / "dist-cache")
        dist_service = SweepService(
            cache=dist_cache, backend=WorkQueueBackend(workers=0)
        )
        dist_job, dist_snap = run(scenario(dist_service))
        serial_job, serial_snap = run(scenario(SweepService(cache=cache)))

        assert dist_job.state == serial_job.state == "done"
        assert dist_job.result.digest() == serial_job.result.digest()
        assert dist_snap["backend"] == "work_queue"
        assert serial_snap["backend"] == "serial"
        # The queue backend's lease traffic shows up in the recovery
        # counters the /metrics endpoint exports.
        assert dist_snap["recovery_leases_claimed"] >= 1

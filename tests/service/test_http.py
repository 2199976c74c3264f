"""End-to-end HTTP/IPC surface: ThreadedService + blocking client.

One hosted daemon per test class (module-scoped fixtures would couple
metrics across tests); each test drives the full stack — raw sockets,
the asyncio HTTP front end, the scheduler, the engine — over TCP, and
one test repeats the round trip over a Unix domain socket.
"""

import gc
import weakref

import pytest

from repro.api.spec import ExperimentSpec
from repro.service import ServiceClient, ServiceError, ThreadedService, parse_address
from tests.api.test_api_spec import MALFORMED_PAYLOADS, VALID_PAYLOAD

N_INSTRUCTIONS = 20_000


def make_spec(name="http", schemes=("base_dram", "static:300"), seeds=(0,)):
    return ExperimentSpec(
        name=name, benchmarks=("mcf",), schemes=schemes, seeds=seeds,
        n_instructions=N_INSTRUCTIONS,
    )


@pytest.fixture()
def hosted(tmp_path):
    with ThreadedService(cache=tmp_path / "cache") as service:
        yield service


class TestParseAddress:
    def test_tcp_and_uds_forms(self):
        assert parse_address("127.0.0.1:8642") == ("tcp", "127.0.0.1", 8642)
        assert parse_address("/tmp/repro.sock") == ("uds", "/tmp/repro.sock")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("not-an-address")
        with pytest.raises(ValueError):
            parse_address(":8642")


class TestCoreEndpoints:
    def test_healthz_and_metrics(self, hosted):
        client = hosted.client()
        health = client.healthz()
        assert health["status"] == "ok" and health["accepting"] is True
        metrics = client.metrics()
        assert metrics["jobs_submitted"] == 0
        assert metrics["trace_cache_entries"] == 0

    def test_submit_wait_result_round_trip(self, hosted):
        client = hosted.client()
        response = client.submit(make_spec())
        assert not response["deduplicated"]
        job_id = response["job"]["id"]
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        result = client.result(job_id)
        assert len(result["records"]) == make_spec().n_cells
        assert result["meta"]["backend"] == "service"
        schemes = {record["scheme_spec"] for record in result["records"]}
        assert schemes == set(make_spec().schemes)

    def test_result_conflicts_while_unfinished(self, hosted):
        client = hosted.client()
        job_id = client.submit(make_spec())["job"]["id"]
        # The job may finish fast; only assert when we catch it active.
        try:
            client.result(job_id)
        except ServiceError as error:
            assert error.status == 409
        client.wait(job_id, timeout=300)
        assert client.result(job_id)["meta"]["cells"] == make_spec().n_cells

    def test_jobs_listing_in_submission_order(self, hosted):
        client = hosted.client()
        first = client.submit(make_spec(name="one"))["job"]["id"]
        second = client.submit(
            make_spec(name="two", schemes=("base_dram", "dynamic:4x4"))
        )["job"]["id"]
        listed = [row["id"] for row in client.jobs()]
        assert listed == [first, second]
        client.wait(second, timeout=300)

    def test_unknown_routes_and_jobs_404(self, hosted):
        client = hosted.client()
        with pytest.raises(ServiceError) as excinfo:
            client.job("j-999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_spec_is_a_400(self, hosted):
        client = hosted.client()
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"spec": {"benchmarks": "oops"}})
        assert excinfo.value.status == 400

    def test_malformed_specs_are_400s(self, hosted):
        client = hosted.client()
        bodies = [{"spec": payload} for payload in MALFORMED_PAYLOADS.values()]
        bodies += [{"not_spec": VALID_PAYLOAD}, ["mcf"], {"spec": 5}]
        for body in bodies:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/jobs", body)
            assert excinfo.value.status == 400, body
            assert "bad spec" in str(excinfo.value)
        assert client.healthz()["status"] == "ok"


class TestRetainedResults:
    def test_older_results_are_reread_from_the_result_cache(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_module

        monkeypatch.setattr(jobs_module, "RETAINED_RESULTS", 2)
        with ThreadedService(cache=tmp_path / "cache") as hosted:
            client = hosted.client()
            bodies, kept = {}, []
            for seed in range(5):
                spec = make_spec(name=f"s{seed}", schemes=("base_dram", "dynamic:4x4"),
                                 seeds=(seed,))
                job_id = client.submit(spec)["job"]["id"]
                client.wait(job_id, timeout=300)
                bodies[job_id] = client.result(job_id)
                kept.append(weakref.ref(hosted.service.job(job_id).result))
            gc.collect()
            assert sum(ref() is not None for ref in kept) <= 2
            for job_id, body in bodies.items():
                assert client.result(job_id) == body

    def test_a_result_whose_records_left_the_cache_is_gone(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_module

        monkeypatch.setattr(jobs_module, "RETAINED_RESULTS", 0)
        with ThreadedService(cache=tmp_path / "cache") as hosted:
            client = hosted.client()
            job_id = client.submit(make_spec())["job"]["id"]
            client.wait(job_id, timeout=300)
            assert len(client.result(job_id)["records"]) == make_spec().n_cells
            for entry in (tmp_path / "cache" / "results").glob("*.json"):
                entry.unlink()
            with pytest.raises(ServiceError) as caught:
                client.result(job_id)
            assert caught.value.status == 410


class TestEventsOverHTTP:
    def test_snapshot_and_stream_agree(self, hosted):
        client = hosted.client()
        job_id = client.submit(make_spec())["job"]["id"]
        streamed = list(client.iter_events(job_id))
        assert streamed[0]["kind"] == "queued"
        assert streamed[-1]["kind"] == "done"
        snapshot = client.events(job_id)
        assert snapshot == streamed

    def test_since_filters_the_snapshot(self, hosted):
        client = hosted.client()
        job_id = client.submit(make_spec())["job"]["id"]
        client.wait(job_id, timeout=300)
        full = client.events(job_id)
        tail = client.events(job_id, since=full[1]["seq"])
        assert tail == full[2:]


class TestCancelAndShutdown:
    def test_cancel_over_http(self, hosted):
        client = hosted.client()
        # Seed 23 is unique to this test, so the functional pass is cold
        # even when other tests have warmed the process-wide pass memo.
        # The victims share the holder's pass key and therefore queue
        # behind its pass lock, keeping them cancellable while it runs.
        holder = client.submit(make_spec(name="holder", seeds=(23,)))["job"]["id"]
        victims = [
            client.submit(
                make_spec(name=f"victim-{i}", seeds=(23,),
                          schemes=("base_dram", f"static:{500 + 100 * i}"))
            )["job"]["id"]
            for i in range(2)
        ]
        outcomes = [client.cancel(victim)["cancelled"] for victim in victims]
        assert any(outcomes)  # at least one was still active when asked
        client.wait(holder, timeout=300)
        for victim in victims:
            client.wait(victim, timeout=300)

    def test_shutdown_drains_and_closes(self, hosted):
        client = hosted.client()
        job_id = client.submit(make_spec())["job"]["id"]
        assert client.shutdown()["status"] == "shutting down"
        hosted.stop()
        # The in-process view proves the drain: the job finished.
        assert hosted.service.registry.get(job_id).is_terminal


#: Every key of the ``/metrics`` document and the JSON type of its value.
METRICS_DOCUMENT = {
    "jobs_submitted": int, "jobs_deduplicated": int, "jobs_started": int,
    "jobs_completed": int, "jobs_failed": int, "jobs_cancelled": int,
    "cells_serviced": int, "cells_run": int, "cache_hits": int,
    "functional_passes": int, "progress_events": int, "jobs_resumed": int,
    "events_dropped": int,
    "uptime_s": float, "queue_depth": int, "running_jobs": int, "workers": int,
    "cache_hit_rate": float, "cells_per_second": float, "jobs_per_second": float,
    "worker_busy_s": float, "worker_utilization": float, "job_latency_ms": dict,
    "accepting": bool, "backend": str, "trace_cache_entries": int,
    "recovery_worker_retries": int, "recovery_pool_rebuilds": int,
    "recovery_cells_poisoned": int, "recovery_artifacts_quarantined": int,
    "recovery_client_retries": int, "recovery_journal_lines_skipped": int,
    "recovery_faults_injected": int, "recovery_leases_claimed": int,
    "recovery_leases_expired": int, "recovery_tasks_requeued": int,
    "recovery_tasks_poisoned": int,
}


class TestMetricsDocument:
    def test_key_set_and_value_types(self, hosted):
        client = hosted.client()
        documents = [client.metrics()]
        client.wait(client.submit(make_spec())["job"]["id"], timeout=300)
        documents.append(client.metrics())
        for document in documents:
            assert set(document) == set(METRICS_DOCUMENT)
            for key, kind in METRICS_DOCUMENT.items():
                assert type(document[key]) is kind, key
            assert set(document["job_latency_ms"]) == {"50.0", "95.0", "99.0"}
            assert all(type(ms) is int for ms in document["job_latency_ms"].values())
        assert documents[1]["jobs_completed"] == 1


class TestUnixDomainSocket:
    def test_full_round_trip_over_uds(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        with ThreadedService(cache=tmp_path / "cache", uds=socket_path) as hosted:
            assert hosted.address == ("uds", socket_path)
            client = ServiceClient(parse_address(socket_path))
            job_id = client.submit(make_spec())["job"]["id"]
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            assert client.metrics()["jobs_completed"] == 1

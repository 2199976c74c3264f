"""End-to-end HTTP/IPC surface: ThreadedService + blocking client.

One hosted daemon per test class (module-scoped fixtures would couple
metrics across tests); each test drives the full stack — raw sockets,
the asyncio HTTP front end, the scheduler, the engine — over TCP, and
one test repeats the round trip over a Unix domain socket.
"""

import pytest

from repro.api.spec import ExperimentSpec
from repro.service import ServiceClient, ServiceError, ThreadedService, parse_address

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

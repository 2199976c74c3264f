"""ServiceClient resilience: timeouts, connect retries, ServiceUnavailable."""

import socket
import threading

import pytest

from repro import obs
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.client import (
    DEFAULT_CONNECT_RETRIES,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def make_client(port, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", 1.0)
    kwargs.setdefault("connect_retries", 1)
    kwargs.setdefault("retry_backoff_s", 0.01)
    return ServiceClient(("tcp", "127.0.0.1", port), **kwargs)


class TestConstruction:
    def test_defaults_include_timeout_and_retries(self):
        client = ServiceClient(("tcp", "127.0.0.1", 1))
        assert client.timeout > 0
        assert client.connect_retries == DEFAULT_CONNECT_RETRIES

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ServiceClient(("tcp", "127.0.0.1", 1), timeout=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="connect_retries"):
            ServiceClient(("tcp", "127.0.0.1", 1), connect_retries=-1)


class TestDeadAddress:
    def test_raises_service_unavailable_with_attempts(self):
        client = make_client(free_port(), connect_retries=2)
        before = obs.snapshot()
        with pytest.raises(ServiceUnavailable) as info:
            client.healthz()
        assert info.value.attempts == 3           # 1 initial + 2 retries
        assert info.value.status == 0
        assert obs.delta(before)["client_retries"] == 2

    def test_unavailable_is_a_service_error(self):
        # Callers catching ServiceError keep working; status 0 tells
        # "unreachable" apart from a daemon that answered an error.
        client = make_client(free_port(), connect_retries=0)
        with pytest.raises(ServiceError):
            client.healthz()

    def test_zero_retries_fails_fast(self):
        client = make_client(free_port(), connect_retries=0)
        before = obs.snapshot()
        with pytest.raises(ServiceUnavailable) as info:
            client.healthz()
        assert info.value.attempts == 1
        assert obs.delta(before)["client_retries"] == 0


class TestInjectedRefusal:
    def test_retries_through_transient_refusal(self, tmp_path):
        """Refuse the first two connects (a daemon mid-restart); the
        third lands on a real listener."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        response = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 16\r\nConnection: close\r\n\r\n"
            b'{"status": "ok"}'
        )

        def serve_one():
            conn, _ = server.accept()
            conn.recv(65536)
            conn.sendall(response)
            conn.close()

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            plan = FaultPlan(
                faults=(FaultSpec(kind="refuse", site="client-connect", count=2),),
                token_dir=str(tmp_path / "tokens"),
            )
            client = make_client(port, connect_retries=2)
            before = obs.snapshot()
            with plan.activated():
                assert client.healthz() == {"status": "ok"}
            assert obs.delta(before)["client_retries"] == 2
        finally:
            thread.join(timeout=5)
            server.close()


class TestReadTimeout:
    def test_silent_server_raises_service_unavailable(self):
        """A daemon that accepts but never answers must not hang the
        client past its timeout."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        accepted = []

        def accept_and_stall():
            conn, _ = server.accept()
            accepted.append(conn)            # hold open, never respond

        thread = threading.Thread(target=accept_and_stall, daemon=True)
        thread.start()
        try:
            client = make_client(port, timeout=0.3, connect_retries=0)
            with pytest.raises(ServiceUnavailable, match="no response"):
                client.healthz()
        finally:
            thread.join(timeout=5)
            for conn in accepted:
                conn.close()
            server.close()

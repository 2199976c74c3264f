"""Blocking client for the sweep service's HTTP/IPC API.

A deliberately small raw-socket HTTP/1.1 client (stdlib only) that works
identically over TCP and Unix domain sockets — the one transport wrapper
shared by ``repro load``, the load generator, the CI smoke test, and the
test suite.  One request per connection, matching the server.

Failure handling: every socket carries a timeout (no request can block
forever), connects retry with full-jitter capped exponential backoff (a
daemon mid-restart looks like a refused connection for a moment), and anything
that never reached the service raises :class:`ServiceUnavailable` — so
callers can tell "the daemon said no" (:class:`ServiceError` with a
real status) from "there is no daemon".

Use :func:`parse_address` to accept either form from a CLI::

    client = ServiceClient(parse_address("127.0.0.1:8642"))
    client = ServiceClient(parse_address("/tmp/repro.sock"))
"""

from __future__ import annotations

import json
import socket
import time
from typing import Iterator

from repro import obs
from repro.api.spec import ExperimentSpec
from repro.faults.plan import fault_point
from repro.util.backoff import full_jitter

#: Address forms: ("tcp", host, port) or ("uds", path).
Address = tuple

#: Default connect retry policy: total attempts = 1 + retries.
DEFAULT_CONNECT_RETRIES = 2
DEFAULT_RETRY_BACKOFF_S = 0.1
RETRY_BACKOFF_CAP_S = 2.0


class ServiceError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceUnavailable(ServiceError):
    """The service could not be reached at all (no HTTP status).

    Raised when every connect attempt fails or a response read times
    out — distinct from :class:`ServiceError`, which means the daemon
    answered with an error status.  ``status`` is 0 and ``attempts``
    records how many connects were tried.
    """

    def __init__(self, message: str, attempts: int = 1) -> None:
        RuntimeError.__init__(self, message)
        self.status = 0
        self.attempts = attempts


def parse_address(text: str) -> Address:
    """``"host:port"`` -> TCP address; anything with a ``/`` -> UDS path.

    >>> parse_address("127.0.0.1:8642")
    ('tcp', '127.0.0.1', 8642)
    >>> parse_address("/tmp/repro.sock")
    ('uds', '/tmp/repro.sock')
    """
    if "/" in text:
        return ("uds", text)
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port or a socket path, got {text!r}")
    return ("tcp", host, int(port))


class ServiceClient:
    """Synchronous API client over one service address.

    Args:
        address: ``("tcp", host, port)`` or ``("uds", path)``.
        timeout: Socket timeout (seconds) applied to connects *and*
            reads — a hung daemon surfaces as :class:`ServiceUnavailable`
            instead of a client blocked forever.
        connect_retries: Extra connect attempts after the first fails
            (refused/unreachable), with full-jitter capped exponential
            backoff so a restarted daemon's orphaned clients don't
            reconnect in lockstep.
    """

    def __init__(
        self,
        address: Address,
        timeout: float = 60.0,
        connect_retries: int = DEFAULT_CONNECT_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if connect_retries < 0:
            raise ValueError(f"connect_retries must be >= 0, got {connect_retries}")
        self.address = address
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.retry_backoff_s = retry_backoff_s

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect_once(self) -> socket.socket:
        fault_point("client-connect")
        if self.address[0] == "uds":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.address[1])
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self.address[1], self.address[2]), timeout=self.timeout
            )
        return sock

    def _connect(self) -> socket.socket:
        attempts = 1 + self.connect_retries
        for attempt in range(1, attempts + 1):
            try:
                return self._connect_once()
            except OSError as error:
                if attempt >= attempts:
                    raise ServiceUnavailable(
                        f"cannot connect to {self.address} "
                        f"after {attempt} attempt(s): {error}",
                        attempts=attempt,
                    ) from error
                obs.bump("client_retries")
                # Full jitter: a daemon restart orphans every client at
                # once, and deterministic delays would reconnect them in
                # lockstep waves (see repro.util.backoff).
                time.sleep(
                    full_jitter(self.retry_backoff_s, attempt - 1, RETRY_BACKOFF_CAP_S)
                )
        raise AssertionError("unreachable")

    def _send(self, sock: socket.socket, method: str, path: str,
              payload: dict | None) -> None:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro-service\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        sock.sendall(head + body)

    @staticmethod
    def _read_head(sock: socket.socket) -> tuple[int, dict, bytes]:
        """Status, headers, and whatever body bytes arrived with the head."""
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before response head")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        status = int(status_line.split(" ")[1])
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, rest

    def _request(self, method: str, path: str, payload: dict | None = None):
        try:
            with self._connect() as sock:
                self._send(sock, method, path, payload)
                status, headers, body = self._read_head(sock)
                want = int(headers.get("content-length", -1))
                while want < 0 or len(body) < want:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    body += chunk
        except TimeoutError as error:
            # socket.timeout: the daemon accepted but never answered
            # within ``timeout``.  Not retried automatically — the
            # request may have side effects (POST /jobs).
            raise ServiceUnavailable(
                f"no response from {self.address} within {self.timeout}s: {error}"
            ) from error
        document = json.loads(body.decode()) if body else {}
        if status >= 400:
            message = document.get("error", "") if isinstance(document, dict) else ""
            raise ServiceError(status, message)
        return document

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness document."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """The live metrics snapshot."""
        return self._request("GET", "/metrics")

    def submit(self, spec: ExperimentSpec) -> dict:
        """Submit a sweep; returns ``{"job": ..., "deduplicated": ...}``."""
        return self._request("POST", "/jobs", {"spec": spec.to_dict()})

    def jobs(self) -> list[dict]:
        """All job summaries in submission order."""
        return self._request("GET", "/jobs")

    def job(self, job_id: str) -> dict:
        """One job summary."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """A finished job's records + meta (409 while active)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """Request cancellation."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit."""
        return self._request("POST", "/shutdown")

    def events(self, job_id: str, since: int = 0) -> list[dict]:
        """Event snapshot (non-streaming)."""
        return self._request("GET", f"/jobs/{job_id}/events?since={since}&stream=0")

    def iter_events(self, job_id: str, since: int = 0) -> Iterator[dict]:
        """Live NDJSON event stream; ends when the job is terminal."""
        with self._connect() as sock:
            self._send(sock, "GET", f"/jobs/{job_id}/events?since={since}", None)
            status, _headers, buffer = self._read_head(sock)
            if status >= 400:
                raise ServiceError(status, buffer.decode(errors="replace"))
            while True:
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line.decode())
                chunk = sock.recv(65536)
                if not chunk:
                    return
                buffer += chunk

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Follow the event stream until the job is terminal.

        Falls back to polling if the stream drops; raises ``TimeoutError``
        when the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        try:
            for _event in self.iter_events(job_id):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"job {job_id} still active after {timeout}s")
        except (ConnectionError, OSError):
            pass
        while True:
            snapshot = self.job(job_id)
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still active after {timeout}s")
            time.sleep(0.05)

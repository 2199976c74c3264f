"""Minimal asyncio HTTP/1.1 front end for the sweep service.

No third-party web framework — the repository bakes in only numpy — so
this module speaks just enough HTTP for the service's API: one request
per connection, JSON bodies, and EOF-delimited NDJSON streams for live
progress events.  The endpoint reference lives in
``docs/operations.md``; in short:

==========================  ====================================================
``GET  /healthz``           :meth:`SweepService.health`: liveness + uptime
``GET  /metrics``           :meth:`SweepService.metrics_snapshot` as JSON
``POST /jobs``              body ``{"spec": ExperimentSpec.to_dict()}`` -> job
``GET  /jobs``              all job summaries, submission order
``GET  /jobs/<id>``         one job summary
``GET  /jobs/<id>/events``  NDJSON stream (``?since=N``; ``?stream=0`` snapshot)
``GET  /jobs/<id>/result``  done job's ResultSet (409 if not done; 410 if lost)
``POST /jobs/<id>/cancel``  cancel queued/running
``POST /shutdown``          graceful stop (drain, then exit)
==========================  ====================================================

The server binds TCP (``host:port``, port 0 for ephemeral) or a Unix
domain socket (``uds=...``) — the IPC path for same-host tooling like
``repro load --self-hosted``.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.api.spec import ExperimentSpec, SpecError
from repro.service.daemon import SweepService
from repro.service.jobs import DONE

#: Protect the parser from absurd request heads/bodies.
_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    503: "Service Unavailable",
}


class _HTTPError(Exception):
    """Route-level failure carrying its status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _head(status: int, content_type: str, length: int | None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


class ServiceHTTPServer:
    """One running HTTP front end bound to a :class:`SweepService`."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self._server: asyncio.base_events.Server | None = None
        self.shutdown_requested = asyncio.Event()
        self.address: str = ""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, uds: str | None = None
    ) -> "ServiceHTTPServer":
        """Bind and start serving; resolves the actual address."""
        if uds is not None:
            self._server = await asyncio.start_unix_server(self._handle, path=uds)
            self.address = uds
        else:
            self._server = await asyncio.start_server(self._handle, host, port)
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` arrives, then drain and close."""
        await self.shutdown_requested.wait()
        await self.service.shutdown()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, target, body = await self._read_request(reader)
            await self._route(method, target, body, writer)
        except _HTTPError as error:
            await self._send_json(writer, error.status, {"error": str(error)})
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request
        except Exception as error:  # route bug: report, don't kill the loop
            try:
                await self._send_json(writer, 500, {"error": repr(error)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEAD_BYTES:
            raise _HTTPError(400, "request head too large")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise _HTTPError(400, "bad Content-Length") from exc
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(400, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, body

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict | list) -> None:
        body = json.dumps(payload).encode()
        writer.write(_head(status, "application/json", len(body)) + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        service = self.service

        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, service.health())
        elif path == "/metrics" and method == "GET":
            await self._send_json(writer, 200, service.metrics_snapshot())
        elif path == "/jobs" and method == "POST":
            await self._submit(body, writer)
        elif path == "/jobs" and method == "GET":
            await self._send_json(writer, 200, service.registry.snapshot())
        elif path == "/shutdown" and method == "POST":
            await self._send_json(writer, 200, {"status": "shutting down"})
            self.shutdown_requested.set()
        elif path.startswith("/jobs/"):
            await self._job_route(method, path, query, writer)
        else:
            raise _HTTPError(404, f"no route for {method} {path}")

    async def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict) or "spec" not in payload:
                raise SpecError('the request body needs a "spec" object')
            spec = ExperimentSpec.from_dict(payload["spec"])
        except ValueError as error:  # JSON, UTF-8 and SpecError alike
            raise _HTTPError(400, f"bad spec: {error}") from error
        try:
            job, deduped = await self.service.submit(spec)
        except RuntimeError as error:
            raise _HTTPError(503, str(error)) from error
        await self._send_json(writer, 202, {
            "job": job.snapshot(), "deduplicated": deduped,
        })

    async def _job_route(self, method: str, path: str, query: dict,
                         writer: asyncio.StreamWriter) -> None:
        segments = path.split("/")  # ["", "jobs", id, tail?]
        job_id, tail = segments[2], (segments[3] if len(segments) > 3 else "")
        try:
            job = self.service.job(job_id)
        except KeyError as exc:
            raise _HTTPError(404, f"no such job: {job_id}") from exc
        if tail == "" and method == "GET":
            await self._send_json(writer, 200, job.snapshot())
        elif tail == "cancel" and method == "POST":
            cancelled = await self.service.cancel(job_id)
            await self._send_json(writer, 200, {
                "cancelled": cancelled, "job": job.snapshot(),
            })
        elif tail == "result" and method == "GET":
            if job.state != DONE:
                raise _HTTPError(409, f"job {job_id} is {job.state}; no result yet")
            try:
                result = await self.service.result(job)
            except LookupError as error:
                raise _HTTPError(410, str(error)) from error
            await self._send_json(writer, 200, {
                "job": job.snapshot(),
                "records": [record.to_dict() for record in result.records],
                "meta": result.meta,
            })
        elif tail == "events" and method == "GET":
            await self._stream_events(job_id, query, writer)
        else:
            raise _HTTPError(404, f"no route for {method} {path}")

    async def _stream_events(self, job_id: str, query: dict,
                             writer: asyncio.StreamWriter) -> None:
        """NDJSON progress stream (EOF-delimited), or a JSON snapshot."""
        try:
            since = int(query.get("since", 0))
        except ValueError as exc:
            raise _HTTPError(400, "since must be an integer") from exc
        job = self.service.job(job_id)
        if query.get("stream", "1") == "0":
            await self._send_json(writer, 200, job.events_since(since))
            return
        writer.write(_head(200, "application/x-ndjson", None))
        await writer.drain()
        while True:
            events = await self.service.next_events(job_id, since)
            for event in events:
                writer.write(json.dumps(event).encode() + b"\n")
                since = event["seq"]
            await writer.drain()
            if job.is_terminal and not job.events_since(since):
                return


async def start_http_server(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 0,
    uds: str | None = None,
) -> ServiceHTTPServer:
    """Convenience: build and start a front end for ``service``."""
    return await ServiceHTTPServer(service).start(host=host, port=port, uds=uds)

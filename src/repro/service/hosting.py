"""Hosting helpers: run the daemon in the foreground or on a thread.

``repro serve`` fronts :func:`serve_forever`; everything that needs a
short-lived in-process daemon — ``repro load --self-hosted``, the CI
smoke test, ``benchmarks/bench_service.py``, the test suite — uses
:class:`ThreadedService`, which hosts the full asyncio service + HTTP
stack on a background thread and hands back a ready
:class:`~repro.service.client.ServiceClient` address.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import Callable

from repro.api.backends import ExecutionBackend
from repro.api.cache import ExperimentCache
from repro.service.client import Address, ServiceClient
from repro.service.daemon import DEFAULT_CONCURRENCY, SweepService
from repro.service.http import ServiceHTTPServer, start_http_server


def _announce(service: SweepService, server: ServiceHTTPServer) -> None:
    print(
        f"repro.service listening on {server.address} "
        f"(cache: {service.engine.cache.root}, "
        f"concurrency: {service.max_concurrency})"
    )


async def serve_forever(
    cache: ExperimentCache | str | Path | None = None,
    host: str = "127.0.0.1",
    port: int = 8642,
    uds: str | None = None,
    max_concurrency: int = DEFAULT_CONCURRENCY,
    resume: bool = False,
    backend: ExecutionBackend | None = None,
    on_ready: Callable[[SweepService, ServiceHTTPServer], None] = _announce,
) -> None:
    """Run a sweep service until ``POST /shutdown`` (or cancellation).

    ``resume=True`` replays the cache root's job journal before
    accepting traffic, re-enqueueing every job a previous daemon
    admitted but never finished (``repro serve --resume``).  ``backend``
    is where job groups run (default: in-process serial).  Once the
    server accepts connections, ``on_ready(service, server)`` runs on
    the event loop (default: print the listening address).
    """
    service = SweepService(
        cache=cache, max_concurrency=max_concurrency, backend=backend,
    )
    if resume:
        resumed = await service.resume()
        if resumed:
            print(f"resumed {len(resumed)} interrupted job(s) from journal")
    server = await start_http_server(service, host=host, port=port, uds=uds)
    on_ready(service, server)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.aclose()


class ThreadedService:
    """A daemon on a background thread, for same-process tooling.

    Context-manager use::

        with ThreadedService(cache=tmpdir) as hosted:
            client = ServiceClient(hosted.address)
            ...

    The thread runs :func:`serve_forever` on its own event loop;
    ``stop()`` requests the same graceful drain the ``/shutdown``
    endpoint performs.
    """

    def __init__(
        self,
        cache: ExperimentCache | str | Path | None = None,
        max_concurrency: int = DEFAULT_CONCURRENCY,
        host: str = "127.0.0.1",
        port: int = 0,
        uds: str | None = None,
        resume: bool = False,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self._config = dict(
            cache=cache, max_concurrency=max_concurrency,
            host=host, port=port, uds=uds, resume=resume, backend=backend,
        )
        self._uds = uds
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: ServiceHTTPServer | None = None
        self.service: SweepService | None = None
        self.address: Address | None = None
        self.error: BaseException | None = None

    # ------------------------------------------------------------------

    def _on_ready(self, service: SweepService, server: ServiceHTTPServer) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = service
        self._server = server
        if self._uds is not None:
            self.address = ("uds", server.address)
        else:
            host, _, port = server.address.rpartition(":")
            self.address = ("tcp", host, int(port))
        self._ready.set()

    def _main(self) -> None:
        try:
            asyncio.run(serve_forever(**self._config, on_ready=self._on_ready))
        except BaseException as error:  # surface startup/runtime failures
            self.error = error
            self._ready.set()

    def start(self) -> "ThreadedService":
        """Spawn the daemon thread and block until it is accepting."""
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self.error is not None:
            raise RuntimeError("service failed to start") from self.error
        if self.address is None:
            raise RuntimeError("service did not become ready within 30s")
        return self

    def client(self, timeout: float = 120.0) -> ServiceClient:
        """A blocking client bound to this daemon."""
        assert self.address is not None, "call start() first"
        return ServiceClient(self.address, timeout=timeout)

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain + shutdown; joins the thread."""
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(self._server.shutdown_requested.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ThreadedService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

"""In-process daemon harness for tests and benchmarks.

:class:`ServerThread` runs a :class:`repro.serve.server.SynthesisServer`
on a dedicated thread with its own event loop, so synchronous test code
can exercise the real socket path (admission control, coalescing,
persistence) without spawning a subprocess::

    with ServerThread(ServeConfig(cache_path=path)) as handle:
        with ServeClient(handle.host, handle.port) as client:
            client.ping()

Entering the context blocks until the socket is listening; leaving it
performs the full graceful shutdown (which flushes the store).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from .client import ServeClient, ServeUnavailable
from .server import ServeConfig, SynthesisServer


class ServerThread:
    """A live daemon on a background thread (context manager)."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.server: Optional[SynthesisServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True
        )

    # -- thread body ---------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = SynthesisServer(self.config)
        self._loop = asyncio.get_event_loop()
        await self.server.start()
        self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        await self.server.serve_until_shutdown()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):  # pragma: no cover
            raise ServeUnavailable("test daemon did not come up within 30s")
        if self._startup_error is not None:
            raise ServeUnavailable(
                f"test daemon failed to start: {self._startup_error}",
                last_error=self._startup_error,
            )
        return self

    def stop(self) -> None:
        if (
            self._loop is not None
            and self.server is not None
            and not self._loop.is_closed()
        ):
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                # The daemon already shut down (e.g. the test sent the
                # `shutdown` op) and its loop closed under us.
                pass
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- conveniences --------------------------------------------------------

    def client(
        self,
        timeout: Optional[float] = 60.0,
        retry_policy=None,
        trace: bool = False,
    ) -> ServeClient:
        assert self.host is not None and self.port is not None
        return ServeClient(
            self.host,
            self.port,
            timeout=timeout,
            retry_policy=retry_policy,
            trace=trace,
        )

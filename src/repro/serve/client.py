"""A blocking client for the synthesis service.

:class:`ServeClient` speaks the newline-delimited-JSON protocol of
:mod:`repro.serve.protocol` over one TCP connection, pipelining requests
in order. It is deliberately synchronous — callers are scripts, tests,
and the ``repro request`` command, none of which want an event loop.

Failures split into three exceptions:

* :class:`ServeError` — the daemon answered ``ok: false``; the ``code``
  attribute carries the protocol error code (e.g. ``overloaded``) and
  ``retry_after_ms`` the server's optional backoff hint.
* :class:`ServeUnavailable` — the daemon could not be reached at all (or
  a retrying client exhausted its attempts trying). Subsumes the raw
  ``ConnectionError``/``OSError`` a single attempt raises.
* plain ``ConnectionError``/``OSError`` — a non-retrying client's single
  attempt failed at the socket layer (legacy behavior, kept so existing
  callers see exactly what the OS said).

Retrying (:class:`ClientRetryPolicy`)
-------------------------------------

Served results are deterministic — the same request always produces the
same bytes, whether it is answered by a fresh execution, a coalesced
in-flight one, the daemon's memory of earlier answers, or the persistent
cache. That makes blind retry *safe*: re-sending a request after a
dropped connection cannot change the answer, only recover it (the
duplicated work is usually absorbed by the daemon's answer memo,
SimCache or coalescing). A :class:`ServeClient` constructed with a
``retry_policy`` therefore:

* reconnects and re-sends after connection-level failures (drop, reset,
  timeout, a garbled response line) with capped exponential backoff and
  deterministic sha256 jitter — the same backoff shape as
  :class:`repro.search.supervise.RetryPolicy`;
* retries ``overloaded``/``draining`` error responses, honoring the
  server-supplied ``retry_after_ms`` hint (capped by the policy);
* never retries deterministic failures (``bad_request``,
  ``program_error``, ``deadline_exceeded``) — they would fail again;
* raises :class:`ServeUnavailable` when the attempt budget is exhausted.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..lang.errors import BambooError
from ..search.retry import backoff_delay
from .protocol import (
    HEAVY_OPS,
    MAX_LINE_BYTES,
    RETRYABLE_CODES,
    ProtocolError,
    decode,
    encode,
)


class ServeError(BambooError):
    """The daemon answered with an error response."""

    def __init__(
        self, code: str, message: str, retry_after_ms: Optional[int] = None
    ):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.reason = message
        #: the server's advisory backoff hint, when it sent one
        self.retry_after_ms = retry_after_ms


class ServeUnavailable(BambooError):
    """No daemon could be reached (or retries against one were exhausted).

    Distinct from :class:`ProtocolError` (a framing problem on a *live*
    connection) and :class:`ServeError` (the daemon answered, negatively):
    this one means the service itself is gone. ``last_error`` carries the
    final underlying failure.
    """

    def __init__(self, message: str, last_error: Optional[Exception] = None):
        super().__init__(message)
        self.last_error = last_error


@dataclass(frozen=True)
class ClientRetryPolicy:
    """Retry knobs for :class:`ServeClient`.

    The backoff before attempt ``n`` (counting failures from 1) is
    ``min(backoff_cap, backoff_base * 2**(n-1))`` scaled into
    ``[0.5, 1.0)`` of itself by a deterministic sha256 jitter — the same
    shape :class:`repro.search.supervise.RetryPolicy` uses, so replayed
    failure traces sleep identically while concurrent clients do not
    thunder in lockstep. A server ``retry_after_ms`` hint overrides the
    computed backoff, capped at ``retry_after_cap``.
    """

    #: total tries per call (first attempt included)
    max_attempts: int = 4
    #: base backoff in seconds; doubles per failed attempt
    backoff_base: float = 0.05
    #: backoff ceiling in seconds
    backoff_cap: float = 2.0
    #: per-reconnect TCP connect timeout in seconds
    connect_timeout: float = 5.0
    #: ceiling on a server-supplied ``retry_after_ms`` hint, in seconds
    retry_after_cap: float = 5.0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.retry_after_cap < 0:
            raise ValueError("retry_after_cap must be non-negative")

    def backoff(self, op: str, failure: int) -> float:
        """The jittered sleep before retrying ``op`` after its
        ``failure``-th consecutive failure (1-based): the shared
        :func:`repro.search.retry.backoff_delay` in the client shape
        (spread into ``[0.5, 1.0)`` of the capped base)."""
        return backoff_delay(
            self.backoff_base, self.backoff_cap, failure, op,
            low=0.5, high=1.0,
        )


class ServeClient:
    """One connection to a running daemon; usable as a context manager.

    Without a ``retry_policy`` the client is exactly one TCP connection:
    any failure surfaces raw (legacy behavior). With one, the connection
    is a disposable resource — dropped, reset, or timed-out sockets are
    torn down and rebuilt transparently, and ``call`` only raises after
    the policy's attempt budget is spent.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 60.0,
        retry_policy: Optional[ClientRetryPolicy] = None,
        trace: bool = False,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_policy = retry_policy
        if retry_policy is not None:
            retry_policy.validate()
        #: with ``trace=True`` every heavy call carries a generated
        #: ``trace_id`` and :attr:`last_trace` holds the round trip
        self.trace = trace
        #: ``{"trace_id", "op", "client_span", "server"}`` of the most
        #: recent traced heavy call (``server`` is the daemon's telemetry
        #: echo: its ``span_id`` plus the spans its pipeline closed)
        self.last_trace: Optional[Dict[str, object]] = None
        #: connection-level retries performed over this client's lifetime
        self.retries = 0
        #: reconnections performed (first connect excluded)
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._reader = None
        if retry_policy is None:
            self._connect()
        else:
            # The initial connect participates in the retry budget too —
            # a daemon still coming up is indistinguishable from one that
            # dropped us between requests.
            self._connected_or_raise("connect")

    # -- connection management -----------------------------------------------

    def _connect(self) -> None:
        connect_timeout = (
            self.retry_policy.connect_timeout
            if self.retry_policy is not None
            else self.timeout
        )
        sock = socket.create_connection(
            (self.host, self.port), timeout=connect_timeout
        )
        sock.settimeout(self.timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _teardown(self) -> None:
        """Drops the current connection (if any); the next attempt will
        reconnect. A socket that failed mid-exchange is never reused —
        its stream position is unknowable."""
        reader, sock = self._reader, self._sock
        self._reader = None
        self._sock = None
        try:
            if reader is not None:
                reader.close()
        except OSError:  # pragma: no cover - already dead
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def _connected_or_raise(self, op: str) -> None:
        """Ensures a live connection under the retry policy, raising
        :class:`ServeUnavailable` once the attempt budget is spent."""
        policy = self.retry_policy
        assert policy is not None
        failures = 0
        while self._sock is None:
            try:
                self._connect()
                if failures or self.retries:
                    self.reconnects += 1
                return
            except (ConnectionError, OSError) as exc:
                failures += 1
                if failures >= policy.max_attempts:
                    raise ServeUnavailable(
                        f"daemon at {self.host}:{self.port} unreachable "
                        f"after {failures} connect attempt(s): {exc}",
                        last_error=exc,
                    )
                time.sleep(policy.backoff(op, failures))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the protocol --------------------------------------------------------

    def _call_once(self, request: Dict[str, object]) -> Dict[str, object]:
        """One request/response exchange on the current connection."""
        assert self._sock is not None and self._reader is not None
        self._sock.sendall(encode(request))
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError(
                f"daemon at {self.host}:{self.port} closed the connection"
            )
        response = decode(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            retry_after = error.get("retry_after_ms")
            raise ServeError(
                str(error.get("code", "unknown")),
                str(error.get("message", "no message")),
                retry_after_ms=(
                    int(retry_after)
                    if isinstance(retry_after, int)
                    and not isinstance(retry_after, bool)
                    else None
                ),
            )
        return response

    def call(self, op: str, **params) -> Dict[str, object]:
        """One logical call; returns the full response object (``ok:
        true`` guaranteed — error responses raise :class:`ServeError`).
        Under a retry policy, transparently survives connection drops and
        retryable error responses; the returned bytes are bit-identical
        to an undisturbed call because served results are deterministic.
        """
        request: Dict[str, object] = {"op": op}
        request.update(params)
        trace_id: Optional[str] = None
        if self.trace and op in HEAVY_OPS:
            trace_id = request.get("trace_id") or os.urandom(8).hex()
            request["trace_id"] = trace_id
            started_ns = time.perf_counter_ns()
        try:
            response = self._call_with_retries(op, request)
        finally:
            if trace_id is not None:
                self.last_trace = None
        if trace_id is not None:
            telemetry = response.get("telemetry")
            self.last_trace = {
                "trace_id": trace_id,
                "op": op,
                "client_span": {
                    "name": f"client.{op}",
                    "start_ns": 0,
                    "dur_ns": time.perf_counter_ns() - started_ns,
                },
                "server": (
                    telemetry.get("trace")
                    if isinstance(telemetry, dict)
                    else None
                ),
            }
        return response

    def _call_with_retries(
        self, op: str, request: Dict[str, object]
    ) -> Dict[str, object]:
        policy = self.retry_policy
        if policy is None:
            return self._call_once(request)
        failures = 0
        while True:
            try:
                self._connected_or_raise(op)
                return self._call_once(request)
            except ServeError as exc:
                # The daemon answered; the connection is still in sync.
                if exc.code not in RETRYABLE_CODES:
                    raise
                failures += 1
                if failures >= policy.max_attempts:
                    raise ServeUnavailable(
                        f"daemon at {self.host}:{self.port} still "
                        f"{exc.code} after {failures} attempt(s)",
                        last_error=exc,
                    )
                delay = policy.backoff(op, failures)
                if exc.retry_after_ms is not None:
                    delay = min(
                        exc.retry_after_ms / 1000.0, policy.retry_after_cap
                    )
            except (ProtocolError, ConnectionError, OSError) as exc:
                # Dropped mid-exchange (or the response was garbled): the
                # connection's state is unknown, so discard it entirely.
                self._teardown()
                failures += 1
                if failures >= policy.max_attempts:
                    raise ServeUnavailable(
                        f"call {op!r} to {self.host}:{self.port} failed "
                        f"after {failures} attempt(s): {exc}",
                        last_error=exc,
                    )
                delay = policy.backoff(op, failures)
            self.retries += 1
            time.sleep(delay)

    # -- op conveniences -----------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.call("ping")["result"]

    def metrics(self) -> Dict[str, object]:
        return self.call("metrics")["result"]

    def flush(self) -> Dict[str, object]:
        return self.call("flush")["result"]

    def shutdown(self) -> Dict[str, object]:
        return self.call("shutdown")["result"]

    def compile(
        self, source: str, filename: str = "<client>", optimize: bool = True
    ) -> Dict[str, object]:
        return self.call(
            "compile", source=source, filename=filename, optimize=optimize
        )["result"]

    def profile(
        self,
        source: str,
        args: Sequence[str] = (),
        filename: str = "<client>",
        optimize: bool = True,
    ) -> Dict[str, object]:
        return self.call(
            "profile",
            source=source,
            args=list(args),
            filename=filename,
            optimize=optimize,
        )["result"]

    def synthesize(
        self,
        source: str,
        cores: int,
        args: Sequence[str] = (),
        seed: int = 0,
        filename: str = "<client>",
        optimize: bool = True,
        mesh_width: Optional[int] = None,
        hints: Optional[Dict[str, List[int]]] = None,
        max_iterations: Optional[int] = None,
        max_evaluations: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> Dict[str, object]:
        """Synthesize a layout; returns the full response so callers can
        read ``result`` (deterministic) and ``telemetry`` separately.
        ``deadline_ms`` asks the server to abandon the request past that
        wall-clock budget (it answers ``deadline_exceeded``)."""
        params: Dict[str, object] = {
            "source": source,
            "args": list(args),
            "filename": filename,
            "optimize": optimize,
            "cores": cores,
            "seed": seed,
        }
        if mesh_width is not None:
            params["mesh_width"] = mesh_width
        if hints is not None:
            params["hints"] = hints
        if max_iterations is not None:
            params["max_iterations"] = max_iterations
        if max_evaluations is not None:
            params["max_evaluations"] = max_evaluations
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        return self.call("synthesize", **params)

    def simulate(
        self,
        source: str,
        cores: int,
        mapping: Dict[str, List[int]],
        args: Sequence[str] = (),
        filename: str = "<client>",
        optimize: bool = True,
        mesh_width: Optional[int] = None,
    ) -> Dict[str, object]:
        params: Dict[str, object] = {
            "source": source,
            "args": list(args),
            "filename": filename,
            "optimize": optimize,
            "cores": cores,
            "layout": mapping,
        }
        if mesh_width is not None:
            params["mesh_width"] = mesh_width
        return self.call("simulate", **params)


def wait_for_server(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Blocks until a daemon answers ``ping`` at ``host:port``.

    Raises :class:`ServeUnavailable` when the deadline passes — used by
    scripts that spawned ``repro serve`` and need to know it is up.
    (A framing problem on a live daemon still raises
    :class:`ProtocolError`; "nobody answered" is not a framing problem.)
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(host, port, timeout=interval * 10) as client:
                client.ping()
            return
        except (OSError, ConnectionError, ServeError) as exc:
            last_error = exc
            time.sleep(interval)
    raise ServeUnavailable(
        f"no daemon answered at {host}:{port} within {timeout:.1f}s "
        f"(last error: {last_error})",
        last_error=last_error,
    )

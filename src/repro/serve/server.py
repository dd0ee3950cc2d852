"""The synthesis daemon: an asyncio server around the shared SimCache.

Architecture (one process, three layers):

* **Intake** (event loop) — newline-delimited-JSON connections
  (:mod:`repro.serve.protocol`). Cheap operations (``ping``,
  ``metrics``, ``flush``, ``shutdown``) are answered inline; a heavy
  operation (``compile``/``profile``/``synthesize``/``simulate``) is
  parsed once, by :meth:`repro.serve.service.Request.parse`, and then
  passes through admission control and coalescing under the parsed
  request's key.
* **Execution** (worker threads) — a bounded thread pool runs the parsed
  request through :func:`repro.serve.service.execute`, the function the
  offline path calls too. Each synthesize may itself fan
  candidate simulations across the :mod:`repro.search` process pool
  (``ServeConfig.workers``), so the thread count bounds *searches in
  flight* while the process pool bounds *simulations in flight*.
* **State** (shared) — the persistent :class:`repro.serve.store.SimCacheStore`,
  the :class:`repro.serve.service.ProgramMemo` of compiled programs,
  profiles and ``synthesize`` answers, and one
  :class:`repro.obs.MetricsRegistry` for every serve metric. All three
  are internally locked; handlers never touch unguarded shared state.

Admission control: at most ``max_concurrency`` heavy operations execute
while ``queue_limit`` more wait; a request beyond that is load-shed
immediately with an ``overloaded`` error (plus a ``retry_after_ms``
hint) rather than queued into unbounded latency; a malformed request is
refused before it takes a slot. Coalescing: identical in-flight requests
(by :attr:`repro.serve.service.Request.key`) attach to the running
execution and do not consume admission slots — under a thundering herd
of identical synthesize requests the daemon does the work once.

Failure story (the serve counterpart of ``repro.resilience`` /
``repro.search.supervise``):

* **Request deadlines** — every heavy request gets a wall-clock budget
  (``ServeConfig.request_deadline``, tightened per request by a
  ``deadline_ms`` parameter). A breach answers ``deadline_exceeded``
  immediately and fires the request's cancellation token; the service
  layer polls it between pipeline stages and at every search iteration
  boundary, so the worker thread is *reclaimed*, not abandoned.
* **Graceful drain** — ``shutdown`` stops admitting heavy work (new
  requests get ``draining`` with a retry hint) but answers everything
  already admitted, bounded by ``drain_timeout``; stragglers past the
  bound are cooperatively cancelled. The store is flushed last.
* **Idle timeouts** — a connection silent for ``idle_timeout`` seconds
  is closed, so abandoned sockets cannot accumulate.
* **Degradation reporting** — a failing background flush no longer dies
  on stderr alone: the last flush error and its timestamp are kept, and
  ``ping``/``metrics`` report ``degraded: true`` until a flush succeeds
  again, so clients and smoke jobs can detect a daemon that can no
  longer persist its cache.

Metrics: per-operation request counters and latency histograms,
load-shed/coalesce/deadline/drain counters, queue-depth and inflight
gauges, the ``sim_cache_*`` totals of every context cache (this
daemon's share; copied from the store at each export), and the
store/memo snapshots, and the daemon's wall-clock profile — exported
through the ``metrics`` operation as a ``repro.obs/serve-metrics-v1``
document. ``ping`` and ``metrics`` are answered on the event loop,
outside admission control, so a saturated or draining daemon stays
observable.

Determinism: results come from :mod:`repro.serve.service`, which runs
the offline pipeline under a request-charged budget — so a served
result is bit-identical to the offline run of the same request, warm or
cold cache (test- and CI-enforced). Deadlines and drain can only *stop*
work (a typed error instead of an answer), never alter an answer that
is produced.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional

from ..lang.errors import BambooError
from ..obs import prof
from ..obs.metrics import MetricsRegistry, build_serve_metrics
from ..schedule.anneal import SearchCancelled
from .protocol import (
    E_BAD_REQUEST,
    E_DEADLINE,
    E_DRAINING,
    E_INTERNAL,
    E_OVERLOADED,
    E_PROGRAM,
    E_UNKNOWN_OP,
    HEAVY_OPS,
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    decode,
    encode,
    error_response,
    ok_response,
)
from .service import ProgramMemo, Request, execute
from ..search.storage import StorageError
from .store import SimCacheStore

#: advisory client backoff sent with ``overloaded`` responses
RETRY_AFTER_OVERLOADED_MS = 250
#: advisory client backoff sent with ``draining`` responses (the daemon
#: is going away; a successor needs time to come up)
RETRY_AFTER_DRAINING_MS = 1000


@dataclass
class ServeConfig:
    """Ops knobs of one daemon (see ``docs/SERVING.md``)."""

    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (reported once the server is up)
    port: int = 0
    #: persistent SimCache file; None serves from memory only
    cache_path: Optional[str] = None
    #: heavy operations executing at once (worker threads)
    max_concurrency: int = 2
    #: heavy operations allowed to *wait*; beyond this, load-shed
    queue_limit: int = 8
    #: process-pool fan-out inside each synthesize (repro.search workers)
    workers: int = 1
    #: LRU bound per context cache (None = unbounded)
    cache_entries: Optional[int] = None
    #: seconds between write-behind flush checks
    flush_interval: float = 0.25
    #: per-request wall-clock deadline in seconds for heavy operations
    #: (None = unbounded); requests may tighten it with ``deadline_ms``
    request_deadline: Optional[float] = None
    #: seconds granted to in-flight requests on graceful shutdown before
    #: they are cooperatively cancelled
    drain_timeout: float = 5.0
    #: close a connection silent for this many seconds (None = never)
    idle_timeout: Optional[float] = 300.0
    #: accept the ``inject`` fault-point operation (chaos testing only)
    allow_fault_injection: bool = False


class SynthesisServer:
    """One daemon instance; create, ``await start()``, then
    ``await serve_until_shutdown()``."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.store = SimCacheStore(
            path=self.config.cache_path,
            max_entries=self.config.cache_entries,
        )
        self.load_report = self.store.load()
        self.memo = ProgramMemo()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        #: coalescing table: request key → future of (result, telemetry)
        self._inflight: Dict[str, "asyncio.Future"] = {}
        #: heavy ops admitted (executing + waiting); event-loop only
        self._admitted = 0
        #: cancellation tokens of admitted requests (drain fires them)
        self._cancels: set = set()
        #: connections mid-request (read line → response written);
        #: event-loop only — drain waits for this to reach zero
        self._busy_lines = 0
        #: shutdown requested; new heavy ops are refused with `draining`
        self._draining = False
        #: ``{"error": str, "time": epoch}`` of the most recent failed
        #: store flush, cleared by the next successful one
        self.last_flush_error: Optional[Dict[str, object]] = None
        self._started_monotonic = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop: Optional[asyncio.Event] = None
        self._flusher: Optional[asyncio.Task] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        #: the daemon's wall-clock profiler, installed for its lifetime; it
        #: feeds the ``profile`` of every ``metrics`` answer and the span
        #: slices echoed in request telemetry. Never changes results.
        self.profiler = prof.Profiler(record_spans=True)
        self._previous_profiler: Optional[prof.Profiler] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._stop = asyncio.Event()
        self._previous_profiler = prof.install(self.profiler)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        self._flusher = asyncio.ensure_future(self._flush_behind())

    async def serve_until_shutdown(self) -> None:
        """Serves until a ``shutdown`` request (or :meth:`request_shutdown`),
        drains in-flight work, then flushes the store and releases every
        resource."""
        assert self._server is not None and self._stop is not None
        try:
            await self._stop.wait()
            await self._drain()
        finally:
            self._server.close()
            await self._server.wait_closed()
            prof.uninstall(self._previous_profiler)
            if self._flusher is not None:
                self._flusher.cancel()
                try:
                    await self._flusher
                except asyncio.CancelledError:
                    pass
            try:
                await asyncio.get_event_loop().run_in_executor(
                    None, self._flush_store
                )
            except Exception:  # pragma: no cover - disk trouble at exit
                pass
            # Cooperative cancellation means drained threads have already
            # exited (or will at their next boundary); never block
            # shutdown on a straggler.
            self._executor.shutdown(wait=False)

    async def _drain(self) -> None:
        """Answers everything admitted (bounded by ``drain_timeout``),
        then cooperatively cancels whatever is left. ``_draining`` was
        set before this runs, so no *new* heavy work can arrive."""
        self._draining = True
        loop = asyncio.get_event_loop()
        deadline = loop.time() + max(0.0, self.config.drain_timeout)
        while (
            (self._admitted > 0 or self._busy_lines > 0)
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        if self._admitted > 0:
            self._count("serve_drain_timeouts")
            for cancel in list(self._cancels):
                cancel.set()
            # Give the cancelled handlers one scheduling round to write
            # their typed `draining` responses before the loop dies.
            grace = loop.time() + 1.0
            while self._busy_lines > 0 and loop.time() < grace:
                await asyncio.sleep(0.01)
        else:
            self._count("serve_drained_clean")

    def request_shutdown(self) -> None:
        """Thread-unsafe shutdown trigger; from other threads use
        ``loop.call_soon_threadsafe(server.request_shutdown)``. Refuses
        new heavy work immediately; the drain happens in
        :meth:`serve_until_shutdown`."""
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    # -- write-behind flushing ------------------------------------------------

    def _flush_store(self):
        """Blocking store flush that tracks the daemon's persistence
        health; runs on an executor thread. Raises on failure (callers
        on the request path answer ``internal_error``) after recording
        it, so ``degraded`` flips without losing the error."""
        try:
            header = self.store.flush()
        except Exception as exc:
            self.last_flush_error = {"error": str(exc), "time": time.time()}
            raise
        self.last_flush_error = None
        return header

    @property
    def degraded(self) -> bool:
        """True while the daemon cannot persist its cache (the most
        recent flush failed and none has succeeded since)."""
        return self.last_flush_error is not None

    async def _flush_behind(self) -> None:
        """Flushes the store off the request path whenever it is dirty."""
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(self.config.flush_interval)
            if self.store.dirty:
                try:
                    await loop.run_in_executor(None, self._flush_store)
                    self._count("serve_flushes")
                except Exception as exc:
                    self._count("serve_flush_errors")
                    print(
                        f"repro.serve: background flush failed: {exc}",
                        file=sys.stderr,
                    )

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        idle = self.config.idle_timeout
        try:
            while True:
                try:
                    if idle is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=idle
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    # Abandoned socket: reclaim it instead of accumulating.
                    self._count("serve_idle_closed")
                    break
                except ValueError:
                    # Over-long line. The framing is broken (we cannot
                    # know where the oversized line ends), but the
                    # *transport* is fine — answer with a typed error
                    # before closing so the client learns why.
                    self._count("serve_errors")
                    self._count("serve_overlong_lines")
                    try:
                        writer.write(
                            encode(
                                error_response(
                                    {},
                                    E_BAD_REQUEST,
                                    f"request line exceeds the "
                                    f"{MAX_LINE_BYTES}-byte limit",
                                )
                            )
                        )
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                self._busy_lines += 1
                try:
                    response = await self._handle_line(line)
                    writer.write(encode(response))
                    try:
                        await writer.drain()
                    except ConnectionError:
                        break
                finally:
                    self._busy_lines -= 1
        except asyncio.CancelledError:
            # The loop is ending: ``asyncio.run`` cancels every connection
            # still open at shutdown. End normally, since Python 3.11's
            # stream callback logs a cancelled handler as an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes) -> Dict[str, object]:
        try:
            message = decode(line)
        except ProtocolError as exc:
            self._count("serve_errors")
            return error_response({}, E_BAD_REQUEST, str(exc))
        op = message.get("op")
        self._count("serve_requests")
        if isinstance(op, str):
            self._count(f"serve_requests[{op}]")
        started = time.perf_counter()
        try:
            response = await self._dispatch(op, message)
        except ProtocolError as exc:
            self._count("serve_errors")
            response = error_response(message, E_BAD_REQUEST, str(exc))
        except SearchCancelled as exc:
            # An admitted request cancelled mid-flight: by drain if the
            # daemon is going away, by a deadline otherwise (the leader
            # answers its own timeout before this; followers and
            # drain-cancelled requests land here).
            self._count("serve_errors")
            if self._draining:
                response = error_response(
                    message,
                    E_DRAINING,
                    f"daemon shutting down: {exc}",
                    retry_after_ms=RETRY_AFTER_DRAINING_MS,
                )
            else:
                response = error_response(message, E_DEADLINE, str(exc))
        except StorageError as exc:
            # A BambooError subclass, but the daemon's storage failing is
            # an internal condition, not a problem with the client's
            # program.
            self._count("serve_errors")
            response = error_response(
                message, E_INTERNAL, f"storage failure: {exc}"
            )
        except BambooError as exc:
            self._count("serve_errors")
            response = error_response(message, E_PROGRAM, str(exc))
        except Exception as exc:
            self._count("serve_errors")
            response = error_response(
                message, E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        if isinstance(op, str):
            self.registry.histogram(f"serve_latency[{op}]").observe(
                time.perf_counter() - started
            )
        return response

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, op, message) -> Dict[str, object]:
        if op == "ping":
            return ok_response(
                message,
                {
                    "pong": True,
                    "protocol": PROTOCOL,
                    "cache": self.load_report.describe(),
                    "degraded": self.degraded,
                    "draining": self._draining,
                },
            )
        if op == "metrics":
            return ok_response(message, self.metrics_snapshot())
        if op == "flush":
            loop = asyncio.get_event_loop()
            header = await loop.run_in_executor(None, self._flush_store)
            return ok_response(
                message,
                {"flushed": header is not None, "path": self.store.path},
            )
        if op == "shutdown":
            self.request_shutdown()
            return ok_response(
                message,
                {
                    "stopping": True,
                    "draining": self._admitted,
                    "drain_timeout": self.config.drain_timeout,
                },
            )
        if op == "inject" and self.config.allow_fault_injection:
            return self._inject(message)
        if op in HEAVY_OPS:
            return await self._heavy(op, message)
        self._count("serve_errors")
        return error_response(
            message, E_UNKNOWN_OP, f"unknown operation {op!r}"
        )

    def _inject(self, message) -> Dict[str, object]:
        """Arms a server-side fault point (``--allow-chaos`` only); the
        net-chaos harness uses this to make the daemon's next flush fail
        without touching its disk."""
        fault = message.get("fault")
        if fault == "flush_fail":
            count = message.get("count", 1)
            if (
                isinstance(count, bool)
                or not isinstance(count, int)
                or count < 1
            ):
                raise ProtocolError("'count' must be a positive integer")
            self.store.fail_flushes += count
            self._count("serve_injected_faults")
            return ok_response(message, {"armed": "flush_fail", "count": count})
        raise ProtocolError(f"unknown fault point {fault!r}")

    def _deadline_for(self, message) -> Optional[float]:
        """The effective wall-clock budget of one heavy request: the
        tighter of the server default and the request's ``deadline_ms``."""
        requested = message.get("deadline_ms")
        if requested is not None and (
            isinstance(requested, bool)
            or not isinstance(requested, int)
            or requested < 1
        ):
            raise ProtocolError(
                "'deadline_ms' must be a positive integer of milliseconds"
            )
        configured = self.config.request_deadline
        if requested is None:
            return configured
        if configured is None:
            return requested / 1000.0
        return min(configured, requested / 1000.0)

    async def _heavy(self, op, message) -> Dict[str, object]:
        if self._draining:
            self._count("serve_draining_rejected")
            return error_response(
                message,
                E_DRAINING,
                "daemon is draining for shutdown; heavy operations are "
                "no longer admitted",
                retry_after_ms=RETRY_AFTER_DRAINING_MS,
            )
        # Parsed before admission, so a malformed request (``trace_id``
        # included) is refused without consuming a slot.
        request = Request.parse(op, message)
        key = request.key
        deadline = self._deadline_for(message)

        existing = self._inflight.get(key)
        if existing is not None:
            # Coalesce: ride the in-flight execution; no admission slot.
            # The follower keeps its own deadline — a slow leader cannot
            # hold a tighter-budgeted follower hostage.
            self._count("serve_coalesced")
            try:
                result, telemetry = await asyncio.wait_for(
                    asyncio.shield(existing), timeout=deadline
                )
            except asyncio.TimeoutError:
                self._count("serve_deadline_exceeded")
                return error_response(
                    message,
                    E_DEADLINE,
                    f"coalesced request exceeded its {deadline:.3f}s "
                    f"deadline",
                )
            telemetry = dict(telemetry)
            telemetry["coalesced"] = True
            return ok_response(message, result, telemetry)

        capacity = self.config.max_concurrency + self.config.queue_limit
        if self._admitted >= capacity:
            self._count("serve_shed")
            return error_response(
                message,
                E_OVERLOADED,
                f"daemon at capacity ({self._admitted} heavy requests "
                f"admitted, limit {capacity}); retry later",
                retry_after_ms=RETRY_AFTER_OVERLOADED_MS,
            )

        loop = asyncio.get_event_loop()
        future: "asyncio.Future" = loop.create_future()
        # Abandoned futures (deadline-exceeded leaders, cancelled
        # followers) must not mark their exception unretrieved; this
        # no-op retrieval keeps asyncio's GC warnings quiet.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        cancel = threading.Event()
        self._inflight[key] = future
        self._admitted += 1
        self._cancels.add(cancel)
        self._set_pressure_gauges()
        asyncio.ensure_future(self._run_admitted(request, cancel, future))
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future), timeout=deadline
            )
        except asyncio.TimeoutError:
            # Answer now; fire the token so the thread is reclaimed at
            # its next cooperative boundary. Detach the key so a fresh
            # identical request starts a fresh execution instead of
            # riding a dying one.
            cancel.set()
            self._count("serve_deadline_exceeded")
            if self._inflight.get(key) is future:
                self._inflight.pop(key)
            return error_response(
                message,
                E_DEADLINE,
                f"request exceeded its {deadline:.3f}s deadline "
                f"(execution cancelled at the next search boundary)",
            )
        result, telemetry = outcome
        if "evaluations" in telemetry:
            self.registry.counter("serve_evaluations").inc(
                int(telemetry["evaluations"])
            )
            self.registry.counter("serve_cache_hits").inc(
                int(telemetry.get("cache_hits", 0))
            )
        return ok_response(message, result, dict(telemetry))

    async def _run_admitted(self, request, cancel, future) -> None:
        """Owns one admitted execution: runs it on the pool, publishes
        its outcome to the coalescing future, and releases the admission
        slot when the thread *actually* finishes — a cancelled request
        frees capacity only once its thread is reclaimed, so
        `max_concurrency` stays an honest bound on live threads."""
        loop = asyncio.get_event_loop()
        try:
            cache = (
                self.store.cache_for(request.spec.program.context())
                if request.simulates
                else None
            )
            outcome = await loop.run_in_executor(
                self._executor,
                lambda: execute(
                    request,
                    memo=self.memo,
                    cache=cache,
                    workers=self.config.workers,
                    cancel=cancel,
                ),
            )
        except BaseException as exc:
            if cancel.is_set():
                # The answer was already an error (deadline or drain);
                # the thread coming home is bookkeeping, not a response.
                self._count("serve_cancelled_reclaimed")
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(outcome)
        finally:
            if self._inflight.get(request.key) is future:
                self._inflight.pop(request.key)
            self._admitted -= 1
            self._cancels.discard(cancel)
            self._set_pressure_gauges()

    # -- metrics --------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.registry.counter(name).inc()

    def _set_pressure_gauges(self) -> None:
        executing = min(self._admitted, self.config.max_concurrency)
        self.registry.gauge("serve_inflight").set(float(executing))
        self.registry.gauge("serve_queue_depth").set(
            float(self._admitted - executing)
        )

    def _filled_registry(self) -> MetricsRegistry:
        """The registry with the store's counts filled in for export:
        the ``sim_cache_*`` totals and ``serve_quarantine_evictions``
        live on the store and are copied here, never incremented."""
        store = self.store
        self.registry.fill_counters("sim_cache_", store.sim_cache_totals())
        self.registry.fill_counters(
            "serve_", {"quarantine_evictions": store.quarantine_evictions}
        )
        return self.registry

    def metrics_snapshot(self) -> Dict[str, object]:
        return build_serve_metrics(
            registry=self._filled_registry(),
            store=self.store.stats(),
            memo=self.memo.stats(),
            load_report={
                "loaded": self.load_report.loaded,
                "refused": self.load_report.refused,
                "error": self.load_report.error,
                "contexts": self.load_report.contexts,
                "entries": self.load_report.entries,
            },
            uptime_seconds=time.monotonic() - self._started_monotonic,
            admitted=self._admitted,
            capacity=self.config.max_concurrency + self.config.queue_limit,
            degraded=self.degraded,
            draining=self._draining,
            last_flush_error=self.last_flush_error,
            profile=self.profiler.snapshot(),
        )


async def _serve_main(config: ServeConfig, announce) -> None:
    server = SynthesisServer(config)
    await server.start()
    if announce is not None:
        announce(server)
    try:
        import signal

        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    except ImportError:  # pragma: no cover - no signal module
        pass
    await server.serve_until_shutdown()


def run_server(config: Optional[ServeConfig] = None, announce=None) -> int:
    """Blocking daemon entry point (the ``repro serve`` command).

    ``announce(server)`` is called once the socket is listening — the CLI
    prints the bound address there so scripts can wait for readiness.
    """
    try:
        asyncio.run(_serve_main(config or ServeConfig(), announce))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130
    return 0

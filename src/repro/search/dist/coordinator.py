"""The fault-tolerant shard coordinator.

One :class:`DistCoordinator` owns a listening socket, a shard queue, and
the lease table. Stateless workers (:mod:`repro.search.dist.worker`)
connect, receive the job context once, then pull shards one at a time.
Robustness is structural, not bolted on:

* **Leases** — every remote dispatch carries a wall-clock deadline,
  ``max(timeout_floor, ewma × timeout_mult)`` over observed shard times
  (the :class:`~repro.search.supervise.RetryPolicy` deadline one level
  up; both come from :mod:`repro.search.retry`). A monitor thread
  re-queues expired shards with capped backoff and deterministic sha256
  jitter from the same module.
* **Work-stealing** — an expired shard is dispatched *again* while the
  original worker keeps running; whichever result arrives first wins,
  the loser is discarded by dispatch sequence id
  (:attr:`DistStats.duplicates_discarded`), and since every execution of
  a shard is bit-identical the race cannot change the merged outcome.
* **Failure taxonomy** — each class has its own counter and costs only
  a retry. A connection that ends while a dispatch awaits its result is
  a **crash** (``worker_crashes``). A shard that cannot be sent, or that
  the worker answers with a ``shard_error`` reply, is a **disconnect**
  (``worker_disconnects``); the worker stays connected after a
  ``shard_error``. A line from the worker that does not decode, or whose
  payload fails its digest, is **garbled** (``garbled_messages``): the
  connection is dropped, and a dispatch in flight fails. A lease breach
  on a live connection is a **hang** (``worker_hangs``). A connection
  that ends while idle fails nothing and counts only under
  ``workers_left``; a garbled coordinator→worker line makes the worker
  leave mid-shard, so it reads as a crash.
* **Graceful degradation** — shards that exhaust their dispatch retries,
  or sit ready while the worker set is empty past a grace period, are
  executed locally in the coordinator (the same
  :func:`~repro.search.dist.shards.execute_shard`), so the job
  terminates with zero workers exactly as it would have with ten.
* **Frontier checkpointing** — every completed shard is folded into an
  atomic ``repro.search/dist-frontier-v1`` record
  (:mod:`repro.search.storage`), so a SIGKILLed coordinator restarted
  with ``resume=True`` re-runs only the incomplete shards and merges to
  a bit-identical result.

Exactly-once accounting: every dispatch (remote send or local
execution) reaches exactly one terminal state — ``win``, ``duplicate``,
``failure``, or ``abandoned`` — and
:meth:`DistStats.check_accounting` verifies the sum. The chaos harness
(:mod:`repro.search.dist.chaos`) machine-checks it per plan.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ...lang.errors import BambooError
from ...obs import prof
from .. import retry
from ..storage import StorageError, read_pickle_record, write_pickle_record
from .messages import (
    FRONTIER_FORMAT,
    JOB_FORMAT,
    RESULT_FORMAT,
    SHARD_FORMAT,
    DistProtocolError,
    LineReader,
    check_hello,
    pack_payload,
    recv_message,
    send_message,
    unpack_payload,
)
from .shards import (
    DistResult,
    JobContext,
    ShardResult,
    ShardSpec,
    execute_shard,
    job_digest,
    merge_shard_results,
)

_P_COORDINATE = prof.intern_phase("dist.coordinate")
_P_MERGE = prof.intern_phase("dist.merge")


class DistError(BambooError):
    """A distributed-search refusal (bad resume, bad configuration)."""


@dataclass(frozen=True)
class LeasePolicy:
    """Lease and re-dispatch knobs, mirroring
    :class:`repro.search.supervise.RetryPolicy` one level up: the
    supervisor leases pool dispatches, this leases whole shards."""

    #: lease deadline = EWMA of observed shard seconds × this
    timeout_mult: float = 8.0
    #: minimum lease in seconds (cold workers pay process spawn +
    #: context shipping + group-graph build on their first shard)
    timeout_floor: float = 10.0
    #: EWMA smoothing factor for observed shard wall-times
    ewma_alpha: float = 0.2
    #: remote dispatch attempts per shard before it becomes local-only
    max_retries: int = 5
    #: base backoff (seconds) before re-dispatching a failed/stolen
    #: shard; doubles per attempt, sha256-jittered
    backoff_base: float = 0.05
    #: backoff ceiling in seconds
    backoff_cap: float = 2.0

    def validate(self) -> None:
        if self.timeout_mult <= 0 or self.timeout_floor <= 0:
            raise ValueError("lease deadline parameters must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")

    def deadline_seconds(self, ewma: Optional[float]) -> float:
        return retry.ewma_deadline(self.timeout_floor, self.timeout_mult, ewma)


@dataclass
class DistStats:
    """What the coordinator did — counters only, no wall clocks, so the
    chaos harness can check exact identities over them."""

    workers_joined: int = 0
    workers_left: int = 0
    #: remote shard sends (every dispatch, steals and retries included)
    dispatches: int = 0
    #: shards executed in the coordinator process
    local_executions: int = 0
    #: distinct shards completed (first result each)
    shards_completed: int = 0
    #: losing results of steal races, discarded by sequence id
    duplicates_discarded: int = 0
    #: dispatches that died before producing a result
    dispatch_failures: int = 0
    #: dispatches still outstanding when the job finished
    abandoned: int = 0
    #: lease deadlines breached (once per dispatch)
    lease_expiries: int = 0
    #: re-dispatches caused by a lease expiry
    steals: int = 0
    #: re-dispatches caused by a dispatch failure
    retries: int = 0
    worker_crashes: int = 0
    worker_disconnects: int = 0
    worker_hangs: int = 0
    garbled_messages: int = 0
    #: shards that exhausted remote retries and went local-only
    local_only_shards: int = 0
    #: chaos accounting (zero outside harness runs)
    injected_crashes: int = 0
    injected_hangs: int = 0
    forced_lease_expiries: int = 0
    #: a shard ran locally while the worker set was empty
    degraded: bool = False
    frontier_checkpoints: int = 0
    resumed_shards: int = 0

    def snapshot(self) -> Dict[str, object]:
        """Every counter, so the chaos control check sees them all."""
        return asdict(self)

    def check_accounting(self) -> List[str]:
        """The exactly-once identity; returns violation strings."""
        violations: List[str] = []
        total = self.dispatches + self.local_executions
        accounted = (
            self.shards_completed
            - self.resumed_shards
            + self.duplicates_discarded
            + self.dispatch_failures
            + self.abandoned
        )
        if total != accounted:
            violations.append(
                f"dispatch accounting broken: {total} dispatched != "
                f"{accounted} (completed - resumed + duplicates + "
                f"failures + abandoned)"
            )
        if self.steals > self.lease_expiries:
            violations.append(
                f"{self.steals} steals exceed "
                f"{self.lease_expiries} lease expiries"
            )
        return violations


@dataclass
class _Dispatch:
    seq: int
    shard_id: int
    worker: str
    started: float
    deadline: float
    expired: bool = False
    done: bool = False


class DistCoordinator:
    """Coordinates one job across any number of (possibly zero) workers."""

    def __init__(
        self,
        context: JobContext,
        shards: List[ShardSpec],
        lease: Optional[LeasePolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        #: seconds a ready shard may sit undispatched (or the worker set
        #: may sit empty) before the coordinator runs it locally
        degrade_after: float = 10.0,
        #: workers the caller intends to attach; 0 means run everything
        #: locally without waiting for anyone
        expect_workers: int = 0,
        chaos_plan=None,
        announce=None,
    ):
        if not shards:
            raise DistError("a dist job needs at least one shard")
        self.context = context
        self.shards = {spec.shard_id: spec for spec in shards}
        if sorted(self.shards) != list(range(len(shards))):
            raise DistError("shard ids must be 0..n-1, unique")
        self.lease = lease or LeasePolicy()
        self.lease.validate()
        self.host = host
        self.port = port
        self.checkpoint_path = checkpoint_path
        self.degrade_after = degrade_after
        self.expect_workers = expect_workers
        self.chaos_plan = chaos_plan
        self.announce = announce
        self.stats = DistStats()
        self.job_digest = job_digest(context, shards)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: (ready_time, tiebreak, shard_id) — shards awaiting dispatch
        self._heap: List[Tuple[float, int, int]] = []
        self._heap_seq = 0
        self._enqueued: set = set()
        self._local_queue: List[int] = []
        self._attempts: Dict[int, int] = {}
        self._outstanding: Dict[int, _Dispatch] = {}
        self._completed: Dict[int, ShardResult] = {}
        self._ewma: Optional[float] = None
        self._dispatch_seq = 0
        self._done = threading.Event()
        self._stopping = False
        self._last_activity = time.monotonic()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._workers_connected = 0
        #: the job context, packed once and shipped to every worker
        self._job_payload = pack_payload(
            JOB_FORMAT,
            {"context": context, "shard_count": len(shards)},
        )

        if resume:
            self._load_frontier()
        with self._lock:
            for shard_id in range(len(shards)):
                if shard_id not in self._completed:
                    self._push(shard_id, 0.0)
            if not self._heap:
                self._done.set()

    # -- frontier checkpoint -------------------------------------------------

    def _load_frontier(self) -> None:
        import os

        if self.checkpoint_path is None:
            raise DistError("resume requested without a checkpoint path")
        if not os.path.exists(self.checkpoint_path):
            return  # nothing to resume from; a fresh run is correct
        try:
            _, payload = read_pickle_record(
                self.checkpoint_path,
                FRONTIER_FORMAT,
                expected_type=dict,
                kind="dist frontier",
                long_kind="dist frontier checkpoint",
            )
        except StorageError as exc:
            raise DistError(f"cannot resume: {exc}")
        if payload.get("job") != self.job_digest:
            raise DistError(
                "cannot resume: frontier checkpoint belongs to a different "
                f"job (checkpoint {str(payload.get('job'))[:12]}…, "
                f"this job {self.job_digest[:12]}…)"
            )
        for shard_id, result in payload.get("completed", {}).items():
            if shard_id in self.shards:
                self._completed[shard_id] = result
                self.stats.shards_completed += 1
                self.stats.resumed_shards += 1

    def _write_frontier(self) -> None:
        """Called with the lock held, after folding in a new winner: the
        frontier is written after every completed shard."""
        if self.checkpoint_path is None:
            return
        completed = len(self._completed)
        write_pickle_record(
            self.checkpoint_path,
            FRONTIER_FORMAT,
            {"job": self.job_digest, "completed": dict(self._completed)},
            extra_header={
                "completed": completed,
                "shards": len(self.shards),
            },
        )
        self.stats.frontier_checkpoints += 1

    # -- shard queue ---------------------------------------------------------

    def _push(self, shard_id: int, ready_time: float) -> None:
        """Lock held. Queues a shard unless it is already queued/done."""
        if shard_id in self._completed or shard_id in self._enqueued:
            return
        if self._attempts.get(shard_id, 0) > self.lease.max_retries:
            if shard_id not in self._local_queue:
                self._local_queue.append(shard_id)
                self.stats.local_only_shards += 1
            return
        self._heap_seq += 1
        heapq.heappush(self._heap, (ready_time, self._heap_seq, shard_id))
        self._enqueued.add(shard_id)
        self._cond.notify_all()

    def _pop_ready(self) -> Optional[int]:
        """Lock held. The next dispatchable shard, or None."""
        now = time.monotonic()
        while self._heap:
            ready, _, shard_id = self._heap[0]
            if shard_id in self._completed:
                heapq.heappop(self._heap)
                self._enqueued.discard(shard_id)
                continue
            if ready > now:
                return None
            heapq.heappop(self._heap)
            self._enqueued.discard(shard_id)
            return shard_id
        return None

    def _requeue(self, shard_id: int, reason: str) -> None:
        """Lock held. Re-dispatch with capped backoff + sha256 jitter."""
        if shard_id in self._completed:
            return
        attempt = self._attempts.get(shard_id, 0) + 1
        self._attempts[shard_id] = attempt
        delay = retry.backoff_delay(
            self.lease.backoff_base,
            self.lease.backoff_cap,
            min(attempt, 16),
            f"shard{shard_id}",
            low=0.5,
            high=1.0,
        )
        self._push(shard_id, time.monotonic() + delay)
        if reason == "steal":
            self.stats.steals += 1
        else:
            self.stats.retries += 1

    # -- results -------------------------------------------------------------

    def _submit_result(
        self,
        shard_id: int,
        result: ShardResult,
        seq: Optional[int] = None,
        remote: bool = False,
    ) -> bool:
        """Folds one result in; returns True for the winner."""
        with self._lock:
            dispatch = (
                self._outstanding.pop(seq, None) if seq is not None else None
            )
            if dispatch is not None:
                dispatch.done = True
            if shard_id in self._completed:
                self.stats.duplicates_discarded += 1
                return False
            self._completed[shard_id] = result
            self.stats.shards_completed += 1
            if remote:
                # Only remote results refresh the degrade clock: a local
                # execution proving the workers idle must not defer the
                # next one by another grace period.
                self._last_activity = time.monotonic()
                if dispatch is not None:
                    self._ewma = retry.ewma_update(
                        self._ewma,
                        time.monotonic() - dispatch.started,
                        self.lease.ewma_alpha,
                    )
            self._write_frontier()
            if len(self._completed) == len(self.shards):
                self._done.set()
                self._cond.notify_all()
            return True

    def _dispatch_failed(self, seq: int, kind: str) -> None:
        """A dispatch died before producing a result; classify + retry."""
        with self._lock:
            dispatch = self._outstanding.pop(seq, None)
            if dispatch is None or dispatch.done:
                return
            dispatch.done = True
            self.stats.dispatch_failures += 1
            if kind == "crash":
                self.stats.worker_crashes += 1
            elif kind == "garbled":
                self.stats.garbled_messages += 1
            else:
                self.stats.worker_disconnects += 1
            self._requeue(dispatch.shard_id, "retry")

    # -- lease monitor -------------------------------------------------------

    def _expire(self, dispatch: _Dispatch) -> None:
        """Lock held. A breached lease: counted as a hang, shard stolen."""
        dispatch.expired = True
        self.stats.lease_expiries += 1
        self.stats.worker_hangs += 1
        self._requeue(dispatch.shard_id, "steal")

    def _tick_leases(self) -> None:
        now = time.monotonic()
        with self._lock:
            for dispatch in list(self._outstanding.values()):
                if dispatch.done or dispatch.expired:
                    continue
                if now >= dispatch.deadline:
                    self._expire(dispatch)

    def _monitor(self) -> None:
        while not self._done.is_set() and not self._stopping:
            self._tick_leases()
            time.sleep(0.05)

    # -- worker connections --------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Binds the listener and starts the accept + monitor threads."""
        if self._listener is not None:
            return self.host, self.port
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.host, self.port = listener.getsockname()[:2]
        listener.settimeout(0.2)
        self._listener = listener
        if self.announce is not None:
            print(
                f"dist coordinator listening on {self.host}:{self.port}",
                file=self.announce,
                flush=True,
            )
        for target in (self._accept_loop, self._monitor):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        self._last_activity = time.monotonic()
        return self.host, self.port

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            self._conns.append(conn)
            thread = threading.Thread(
                target=self._serve_worker, args=(conn, addr), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _next_chaos(
        self, seq: int
    ) -> Tuple[Optional[Dict[str, object]], bool]:
        """Lock held. The chaos token for dispatch ``seq`` (shipped to
        the worker) and whether the lease should be force-expired
        (coordinator-side). Counts what it injects."""
        if self.chaos_plan is None:
            return None, False
        fault = self.chaos_plan.fault(seq)
        if fault is None:
            return None, False
        if fault.kind == "crash_worker":
            self.stats.injected_crashes += 1
            return {"kind": "crash"}, False
        if fault.kind == "hang_worker":
            self.stats.injected_hangs += 1
            return {"kind": "hang", "seconds": fault.seconds}, False
        if fault.kind == "expire_lease":
            return None, True
        return None, False

    def _serve_worker(self, conn: socket.socket, addr) -> None:
        name = f"{addr[0]}:{addr[1]}"
        reader = LineReader(conn)
        current_seq: Optional[int] = None
        joined = False
        try:
            conn.settimeout(self.lease.timeout_floor)
            hello = recv_message(reader, name)
            if hello is None:
                return
            worker_name, _pid = check_hello(hello)
            name = f"{worker_name}@{name}"
            joined = True
            with self._lock:
                self._workers_connected += 1
                self.stats.workers_joined += 1
                self._last_activity = time.monotonic()
            send_message(
                conn, {"op": "job", "payload": self._job_payload}
            )
            while not self._done.is_set() and not self._stopping:
                shard_id = self._wait_for_shard()
                if shard_id is None:
                    continue
                current_seq = self._dispatch_one(conn, name, shard_id)
                if current_seq is None:
                    return  # send failed; shard already requeued
                finished = self._await_result(conn, reader, name, current_seq)
                if not finished:
                    return  # connection-level failure, already accounted
                current_seq = None
            try:
                send_message(conn, {"op": "bye"})
            except OSError:
                pass
        except DistProtocolError:
            if current_seq is not None:
                self._dispatch_failed(current_seq, "garbled")
                current_seq = None
            else:
                with self._lock:
                    self.stats.garbled_messages += 1
        except OSError:
            pass
        finally:
            if current_seq is not None:
                self._dispatch_failed(current_seq, "crash")
            if joined:
                with self._lock:
                    self._workers_connected -= 1
                    self.stats.workers_left += 1
            try:
                conn.close()
            except OSError:
                pass

    def _wait_for_shard(self) -> Optional[int]:
        with self._cond:
            shard_id = self._pop_ready()
            if shard_id is None and not self._done.is_set():
                self._cond.wait(timeout=0.2)
                shard_id = self._pop_ready()
            return shard_id

    def _dispatch_one(
        self, conn: socket.socket, worker: str, shard_id: int
    ) -> Optional[int]:
        spec = self.shards[shard_id]
        with self._lock:
            self._dispatch_seq += 1
            seq = self._dispatch_seq
            chaos, forced = self._next_chaos(seq)
            now = time.monotonic()
            dispatch = _Dispatch(
                seq=seq,
                shard_id=shard_id,
                worker=worker,
                started=now,
                deadline=now + self.lease.deadline_seconds(self._ewma),
            )
            self._outstanding[seq] = dispatch
            self.stats.dispatches += 1
            self._last_activity = now
            if forced:
                # Expire synchronously instead of shrinking the deadline
                # and racing the monitor tick: the steal is guaranteed,
                # which is what makes the injection deterministic.
                self.stats.forced_lease_expiries += 1
                self._expire(dispatch)
        message: Dict[str, object] = {
            "op": "shard",
            "shard": shard_id,
            "seq": seq,
            "payload": pack_payload(SHARD_FORMAT, spec),
        }
        if chaos is not None:
            message["chaos"] = chaos
        try:
            send_message(conn, message)
        except OSError:
            self._dispatch_failed(seq, "disconnect")
            return None
        return seq

    def _await_result(
        self, conn: socket.socket, reader: LineReader, name: str, seq: int
    ) -> bool:
        """Waits for ``seq``'s result (or a terminal connection event).

        Keeps waiting even after the shard is stolen or completed
        elsewhere — a straggler's late result must be *received* and
        discarded by sequence id, not raced against a socket close."""
        conn.settimeout(0.25)
        while not self._stopping:
            if self._done.is_set():
                return True  # dispatch becomes abandoned at shutdown
            try:
                message = recv_message(reader, name)
            except TimeoutError:
                continue
            except OSError:
                self._dispatch_failed(seq, "crash")
                return False
            if message is None:
                self._dispatch_failed(seq, "crash")
                return False
            op = message.get("op")
            if op == "result":
                result = unpack_payload(
                    str(message.get("payload", "")),
                    RESULT_FORMAT,
                    expected_type=ShardResult,
                    name=name,
                )
                self._submit_result(
                    result.shard_id,
                    result,
                    seq=int(message.get("seq", -1)),
                    remote=True,
                )
                return True
            if op == "shard_error":
                self._dispatch_failed(seq, "disconnect")
                with self._lock:
                    self._last_activity = time.monotonic()
                return True  # worker survives a shard-level error
            raise DistProtocolError(
                f"{name}: unexpected op {op!r} while awaiting a result"
            )
        return True

    # -- local execution (degradation + local-only shards) -------------------

    def _maybe_run_local(self) -> bool:
        shard_id: Optional[int] = None
        with self._lock:
            if self._local_queue:
                candidate = self._local_queue.pop(0)
                if candidate not in self._completed:
                    shard_id = candidate
            if shard_id is None:
                stale = (
                    time.monotonic() - self._last_activity
                    >= self.degrade_after
                )
                no_workers = self._workers_connected == 0
                if self.expect_workers == 0 or stale:
                    shard_id = self._pop_ready()
                    if shard_id is not None and no_workers and stale:
                        self.stats.degraded = True
            if shard_id is not None:
                self.stats.local_executions += 1
        if shard_id is None:
            return False
        result = execute_shard(self.context, self.shards[shard_id])
        self._submit_result(shard_id, result)
        return True

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> DistResult:
        """Drives the job to completion and merges the frontier."""
        started = time.perf_counter()
        self.start()
        try:
            with prof.phase(_P_COORDINATE):
                while not self._done.is_set():
                    if not self._maybe_run_local():
                        self._done.wait(timeout=0.05)
        finally:
            self.stop()
        with self._lock, prof.phase(_P_MERGE):
            merged = merge_shard_results(self._completed, len(self.shards))
        merged.wall_seconds = time.perf_counter() - started
        merged.stats = self.stats.snapshot()
        return merged

    def stop(self) -> None:
        """Closes the listener and every connection; abandons stragglers.

        Once every shard is complete, each connection hears ``bye`` before
        it closes, whether its serve thread or this call gets there first:
        a worker that reads EOF instead takes the coordinator for lost and
        retries."""
        self._stopping = True
        self._done.set()
        with self._lock:
            finished = len(self._completed) == len(self.shards)
            self._cond.notify_all()
            for dispatch in self._outstanding.values():
                if not dispatch.done:
                    dispatch.done = True
                    self.stats.abandoned += 1
            self._outstanding.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in self._conns:
            if finished:
                try:
                    send_message(conn, {"op": "bye"})
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)


def run_dist_search(
    context: JobContext,
    shards: List[ShardSpec],
    workers: int = 0,
    lease: Optional[LeasePolicy] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    degrade_after: float = 10.0,
    chaos_plan=None,
) -> DistResult:
    """One-call distributed search with ``workers`` local worker
    subprocesses (0 = run every shard in the coordinator). The CLI and
    the benchmark drive this; tests and the chaos harness compose the
    pieces directly."""
    coordinator = DistCoordinator(
        context,
        shards,
        lease=lease,
        checkpoint_path=checkpoint_path,
        resume=resume,
        degrade_after=degrade_after,
        expect_workers=workers,
        chaos_plan=chaos_plan,
    )
    from .worker import local_workers

    host, port = coordinator.start()
    try:
        with local_workers(host, port, workers):
            return coordinator.run()
    finally:
        coordinator.stop()

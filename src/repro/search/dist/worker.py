"""The stateless shard worker.

A worker owns nothing: it connects, identifies itself, receives the job
context once, and executes one shard at a time until the coordinator
says ``bye`` or disappears. Every piece of state it needs arrives in
digest-verified payloads, so a worker can be killed at any instant — or
started on any host — with zero recovery protocol: the coordinator's
lease table is the only authority on who owes what.

Connection loss triggers a bounded reconnect loop (capped backoff +
deterministic jitter via :mod:`repro.search.retry`, the serve client's
shape), because a dropped or garbled connection — including one injected
by the chaos proxy — is a transport event, not a reason to lose a warm
process with a built group graph.
"""

from __future__ import annotations

import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ...chaos import spawn_repro, worker_fault
from .. import retry
from .messages import (
    DIST_PROTOCOL,
    JOB_FORMAT,
    RESULT_FORMAT,
    SHARD_FORMAT,
    DistProtocolError,
    LineReader,
    pack_payload,
    recv_message,
    send_message,
    unpack_payload,
)
from .shards import ShardSpec, execute_shard


@dataclass
class WorkerStats:
    """One worker process's lifetime accounting."""

    connects: int = 0
    reconnects: int = 0
    jobs_loaded: int = 0
    shards_executed: int = 0
    results_sent: int = 0
    shard_errors: int = 0
    protocol_errors: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "connects": self.connects,
            "reconnects": self.reconnects,
            "jobs_loaded": self.jobs_loaded,
            "shards_executed": self.shards_executed,
            "results_sent": self.results_sent,
            "shard_errors": self.shard_errors,
            "protocol_errors": self.protocol_errors,
        }


def run_dist_worker(
    host: str,
    port: int,
    name: Optional[str] = None,
    max_connect_attempts: int = 8,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    idle_timeout: float = 300.0,
    log=None,
) -> WorkerStats:
    """Serves shards until the coordinator says bye or stays gone.

    The connect-attempt budget resets after every successful shard, so
    ``max_connect_attempts`` bounds *consecutive* transport failures —
    a long job with occasional drops is served to the end.
    """
    name = name or f"worker-{os.getpid()}"
    stats = WorkerStats()
    failures = 0
    executed_at_last_failure = 0
    while True:
        try:
            finished = _serve_connection(
                host, port, name, stats, idle_timeout, log
            )
            if finished:
                return stats
            reason = "coordinator closed the connection"
        except (OSError, DistProtocolError) as exc:
            if isinstance(exc, DistProtocolError):
                stats.protocol_errors += 1
            reason = str(exc) or type(exc).__name__
        # Shards completed since the last transport failure prove the
        # coordinator is real; reset the consecutive-failure budget.
        if stats.shards_executed > executed_at_last_failure:
            failures = 0
        executed_at_last_failure = stats.shards_executed
        failures += 1
        if failures >= max_connect_attempts:
            _log(log, f"{name}: giving up after {failures} failures")
            return stats
        if stats.connects > 0:
            stats.reconnects += 1
        _log(log, f"{name}: connection lost ({reason}); retrying")
        time.sleep(
            retry.backoff_delay(
                backoff_base, backoff_cap, failures, name, low=0.5, high=1.0
            )
        )


def _serve_connection(
    host: str,
    port: int,
    name: str,
    stats: WorkerStats,
    idle_timeout: float,
    log,
) -> bool:
    """One connection's lifetime; True when the coordinator said bye."""
    sock = socket.create_connection((host, port), timeout=5.0)
    stats.connects += 1
    context = None
    try:
        sock.settimeout(idle_timeout)
        reader = LineReader(sock)
        send_message(
            sock,
            {
                "op": "hello",
                "proto": DIST_PROTOCOL,
                "worker": name,
                "pid": os.getpid(),
            },
        )
        while True:
            message = recv_message(reader, "coordinator")
            if message is None:
                return False  # EOF; caller decides whether to reconnect
            op = message.get("op")
            if op == "job":
                job = unpack_payload(
                    str(message.get("payload", "")),
                    JOB_FORMAT,
                    expected_type=dict,
                    name="coordinator",
                )
                context = job["context"]
                stats.jobs_loaded += 1
                _log(log, f"{name}: job loaded ({job['shard_count']} shards)")
            elif op == "shard":
                if context is None:
                    raise DistProtocolError(
                        "shard received before any job context"
                    )
                token = message.get("chaos")
                if isinstance(token, dict):  # an injected crash or hang
                    _log(log, f"{name}: chaos token {token}")
                    worker_fault(
                        token.get("kind"), float(token.get("seconds", 1.0))
                    )
                spec = unpack_payload(
                    str(message.get("payload", "")),
                    SHARD_FORMAT,
                    expected_type=ShardSpec,
                    name="coordinator",
                )
                seq = int(message.get("seq", -1))
                try:
                    result = execute_shard(context, spec)
                except Exception as exc:  # a real program/search error
                    stats.shard_errors += 1
                    send_message(
                        sock,
                        {
                            "op": "shard_error",
                            "shard": spec.shard_id,
                            "seq": seq,
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
                    continue
                stats.shards_executed += 1
                send_message(
                    sock,
                    {
                        "op": "result",
                        "shard": result.shard_id,
                        "seq": seq,
                        "payload": pack_payload(RESULT_FORMAT, result),
                    },
                )
                stats.results_sent += 1
            elif op == "bye":
                return True
            else:
                raise DistProtocolError(
                    f"coordinator sent unexpected op {op!r}"
                )
    finally:
        try:
            sock.close()
        except OSError:
            pass


def _log(log, message: str) -> None:
    if log is not None:
        print(message, file=log, flush=True)


@contextmanager
def local_workers(host: str, port: int, count: int) -> Iterator[list]:
    """``count`` ``repro dist-worker`` subprocesses dialing ``host:port``
    for the duration of the block; any still running at exit are killed."""
    procs = []
    try:
        for index in range(count):
            procs.append(
                spawn_repro(
                    ["dist-worker", "--host", host, "--port", str(port),
                     "--name", f"w{index}"]
                )
            )
        yield procs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

"""The fault-injection kernel the four chaos harnesses share.

:mod:`repro.resilience.chaos` breaks the simulated machine,
:mod:`repro.search.hostchaos` the search's worker processes,
:mod:`repro.serve.netchaos` the daemon and its network, and
:mod:`repro.search.dist.chaos` whole worker hosts. The host, net and dist
harnesses plan their faults as one :class:`Plan` type (the machine's
plans are :class:`repro.fault.plan.FaultPlan` schedules); each declares
only its plan generator, its fault points and its domain invariants. The
verdict classes, the sweep loop, the shared accounting check, the
worker-side crash/hang step (a hang lasts its planned seconds, bounded
only by the life of the worker's parent) and the fault-injecting proxy
live here. Nothing raises on a violation: reports carry the verdicts,
and callers (tests, the CLI) decide how to fail.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Tuple

#: client-visible proxy fault kinds
PROXY_FAULT_KINDS = ("reset", "truncate", "garbage", "delay")

#: the dist plan's names for two of them
_WIRE_ALIASES = {"drop_conn": "reset", "garble": "garbage"}

_GARBAGE = b"\x16\x03\x01 not a message \xff\xfe\n"


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``kind`` at sequence number ``at``; a hang
    may carry the ``seconds`` it sleeps."""

    at: int
    kind: str
    seconds: Optional[float] = None


@dataclass(frozen=True)
class Plan:
    """A seeded set of faults for one run of the host, net or dist
    harness (``layer``). Plan 0 of every sweep is empty: the control.

    A plan is pure data. ``faults`` are keyed by the layer's dispatch
    sequence (retries included), so the same plan against the same
    workload designates the same dispatches; ``wire`` faults by the
    :class:`ChaosProxy`'s downstream line sequence; ``phases`` name the
    steps the harness drives itself (``flush_fail``, ``kill``,
    ``kill_worker``).
    """

    layer: str
    seed: int = 0
    faults: Tuple[Fault, ...] = ()
    wire: Tuple[Fault, ...] = ()
    phases: Tuple[str, ...] = ()

    def fault(self, at: int) -> Optional[Fault]:
        """The dispatch hook: the fault riding on dispatch ``at``."""
        for fault in self.faults:
            if fault.at == at:
                return fault
        return None

    def wire_fault(self, at: int) -> Optional[str]:
        """The proxy's hook: the fault kind for downstream line ``at``."""
        for fault in self.wire:
            if fault.at == at:
                return fault.kind
        return None

    def is_empty(self) -> bool:
        return not (self.faults or self.wire or self.phases)

    def describe(self) -> str:
        if self.is_empty():
            return f"{self.layer} chaos: empty plan (control)"
        parts = [
            f"{fault.kind}@{fault.at}"
            for fault in sorted(
                self.faults + self.wire, key=lambda f: (f.at, f.kind)
            )
        ]
        parts.extend(self.phases)
        return f"{self.layer} chaos: {len(parts)} fault(s): {', '.join(parts)}"


@dataclass
class SweepRun:
    """Outcome of one plan; each harness adds its observations as fields."""

    index: int
    seed: int
    plan: object
    error: Optional[str] = None
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def counters(self) -> Mapping[str, object]:
        """The activity counters :meth:`SweepReport.total` sums."""
        return {}

    def details(self) -> Dict[str, object]:
        """The fields the harness added, for the run's JSON form."""
        common = {item.name for item in fields(SweepRun)}
        return {
            item.name: getattr(self, item.name)
            for item in fields(self)
            if item.name not in common
        }


@dataclass
class SweepReport:
    """Outcome of a full sweep; each harness supplies its summary lines."""

    runs: List[SweepRun]
    #: violations found outside any one plan (final or extra phases)
    sweep_violations: List[str] = field(default_factory=list)

    #: what a clean sweep has shown, for the report's closing line
    INVARIANTS: ClassVar[str] = ""
    #: prefix of each sweep-level violation
    SWEEP_LABEL: ClassVar[str] = "sweep"
    #: key of the per-run list in the JSON artifact
    RUNS_KEY: ClassVar[str] = "runs"

    @property
    def ok(self) -> bool:
        return not self.sweep_violations and all(run.ok for run in self.runs)

    def violations(self) -> List[str]:
        lines: List[str] = []
        for run in self.runs:
            prefix = f"plan {run.index} (seed {run.seed}): "
            if run.error is not None:
                lines.append(prefix + run.error)
            lines.extend(prefix + violation for violation in run.violations)
        lines.extend(
            f"{self.SWEEP_LABEL}: {violation}"
            for violation in self.sweep_violations
        )
        return lines

    def total(self, counter: str) -> int:
        return sum(int(run.counters().get(counter, 0)) for run in self.runs)

    def summary(self) -> List[str]:
        """The report's opening lines: what the sweep did."""
        return []

    def artifact_fields(self) -> Dict[str, object]:
        """The JSON artifact's sweep-level fields, format id included."""
        return {}

    def describe(self) -> str:
        lines = self.summary()
        bad = self.violations()
        if bad:
            lines.append(f"INVARIANT VIOLATIONS ({len(bad)}):")
            lines.extend(f"  {line}" for line in bad)
        else:
            lines.append(f"all invariants held: {self.INVARIANTS}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the CI chaos-report artifact)."""
        payload = self.artifact_fields()
        payload["ok"] = self.ok
        payload["violations"] = self.violations()
        payload[self.RUNS_KEY] = [
            {
                "index": run.index,
                "seed": run.seed,
                "plan": run.plan.describe(),
                "ok": run.ok,
                "error": run.error,
                "violations": run.violations,
                **run.details(),
            }
            for run in self.runs
        ]
        return payload


def sweep(
    run_type: Callable[..., SweepRun],
    plans: int,
    base_seed: int,
    make_plan: Callable[[int, int], object],
    execute: Callable[[SweepRun], None],
) -> List[SweepRun]:
    """Runs plans ``0 .. plans-1`` in order and returns their verdicts.

    Plan ``index`` is ``make_plan(index, base_seed + index)``; every
    harness's generator returns the empty control for index 0.
    ``execute(run)`` runs the plan and records what it saw on ``run``; an
    exception it raises becomes ``run.error``.
    """
    runs: List[SweepRun] = []
    for index in range(plans):
        seed = base_seed + index
        run = run_type(index=index, seed=seed, plan=make_plan(index, seed))
        try:
            execute(run)
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            run.error = f"{type(exc).__name__}: {exc}"
        runs.append(run)
    return runs


def check_accounting(
    run: SweepRun,
    planned: int = 0,
    fired: int = 0,
    retries: Optional[int] = None,
    busy: Tuple[str, ...] = (),
) -> None:
    """The accounting every harness shares; violations land on ``run``.

    On the control (empty) plan every counter in ``run.counters()`` must
    be zero, except the ``busy`` ones any run moves. Any other plan must
    fire exactly its ``planned`` faults (a layer that does not count its
    faults leaves both at 0) and, where the layer retries, each fired
    fault must have forced a retry.
    """
    if run.plan.is_empty():
        activity = {
            name: value
            for name, value in run.counters().items()
            if value and name not in busy
        }
        if activity:
            run.violations.append(f"control plan recorded activity: {activity}")
        return
    if fired != planned:
        run.violations.append(f"{planned} fault(s) planned but {fired} fired")
    if retries is not None and retries < fired:
        run.violations.append(
            f"{fired} fault(s) fired but only {retries} retry(ies) recorded"
        )


def worker_fault(kind: Optional[str], seconds: float = 0.0) -> None:
    """The worker-side fault step, taken before the real work: ``crash``
    exits at once like ``kill -9`` (no cleanup, no unwinding), ``hang``
    sleeps ``seconds``, or until the worker's parent process is gone, so
    a worker its parent failed to terminate does not outlive it."""
    if kind == "crash":
        os._exit(137)
    if kind == "hang":
        parent = os.getppid()
        end = time.monotonic() + seconds
        while os.getppid() == parent:
            left = end - time.monotonic()
            if left <= 0:
                return
            # Wake twice a second to notice an orphaning.
            time.sleep(min(left, 0.5))


def spawn_repro(args: List[str], stderr=subprocess.DEVNULL):
    """Starts ``python -m repro ARGS`` from this source tree as a
    subprocess (a daemon or worker to break); the caller owns it."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = source_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
    )


class ChaosProxy:
    """A full-duplex TCP proxy that injects faults on the way down.

    Client → server bytes pass through untouched. Server → client lines
    are numbered on one sequence shared across connections, from
    ``first`` after every :meth:`arm`, so retries and reconnects advance
    it and a plan stays pure data. When ``plan.wire_fault(number)`` names
    a kind, the proxy resets the client (an RST, not a FIN; the dist
    plan's ``drop_conn``), truncates the line, replaces it with garbage
    (``garble``) or delays it ``delay_seconds``; all but a delay close
    the connection. The server has always acted on the request, so the
    client must re-send without knowing whether the work happened.
    When either direction ends, both sockets are shut down, so each
    peer sees the other leave at once.
    """

    def __init__(
        self,
        upstream_port: int,
        host: str = "127.0.0.1",
        delay_seconds: float = 1.6,
        first: int = 0,
    ):
        self.host = host
        self.delay_seconds = delay_seconds
        self.first = first
        self._upstream_port = upstream_port
        self._plan = None
        self._lock = threading.Lock()
        self._sequence = first
        #: (line, kind) pairs that actually fired since the last arm()
        self.fired: List[Tuple[int, str]] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        ).start()

    def arm(self, plan) -> None:
        """Installs a plan (``None`` disarms) and restarts the numbering
        and the fired log."""
        with self._lock:
            self._plan = plan
            self._sequence = self.first
            self.fired = []

    def set_upstream(self, port: int) -> None:
        """Re-points new connections (a restarted or fresh server)."""
        with self._lock:
            self._upstream_port = port

    def close(self) -> None:
        """Stops accepting; open connections live on until they end."""
        self._listener.close()

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:  # the listener was closed
                return
            threading.Thread(
                target=self._handle,
                args=(client,),
                name="chaos-proxy-conn",
                daemon=True,
            ).start()

    def _next_fault(self) -> Optional[str]:
        with self._lock:
            number = self._sequence
            self._sequence += 1
            kind = self._plan.wire_fault(number) if self._plan else None
            if kind is not None:
                self.fired.append((number, kind))
            return kind

    def _handle(self, client: socket.socket) -> None:
        with self._lock:
            upstream_port = self._upstream_port
        try:
            upstream = socket.create_connection(
                (self.host, upstream_port), timeout=5.0
            )
        except OSError:
            # Server down (between a kill and its restart): the client
            # sees a clean connection failure and retries.
            client.close()
            return
        once = threading.Lock()

        def finish(reset: bool = False) -> None:
            # shutdown(), not just close(): a recv blocked in the other
            # pump, or a makefile() reader, keeps the descriptor open and
            # would hide the departure from the peer. A reset shuts only
            # the client's read side, so no FIN precedes the RST.
            if not once.acquire(blocking=False):
                return
            if reset:
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            for sock, how in (
                (client, socket.SHUT_RD if reset else socket.SHUT_RDWR),
                (upstream, socket.SHUT_RDWR),
            ):
                try:
                    sock.shutdown(how)
                except OSError:
                    pass
                sock.close()

        def pump_up() -> None:
            try:
                while True:
                    chunk = client.recv(65536)
                    if not chunk:
                        break
                    upstream.sendall(chunk)
            except OSError:
                pass
            finish()

        threading.Thread(
            target=pump_up, name="chaos-proxy-up", daemon=True
        ).start()
        reader = upstream.makefile("rb")
        reset = False
        try:
            for line in iter(reader.readline, b""):
                kind = self._next_fault()
                kind = _WIRE_ALIASES.get(kind, kind)
                if kind == "reset":
                    reset = True
                    break
                if kind == "truncate":
                    client.sendall(line[: max(1, len(line) // 2)])
                    break
                if kind == "garbage":
                    client.sendall(_GARBAGE)
                    break
                if kind == "delay":
                    time.sleep(self.delay_seconds)
                client.sendall(line)
        except OSError:
            pass
        finally:
            reader.close()
            finish(reset)

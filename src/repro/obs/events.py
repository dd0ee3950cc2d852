"""Typed, timestamped machine events and the tracer that collects them.

One :class:`Tracer` accompanies a machine run when observability
(``MachineConfig.observe``) is enabled. The runtime emits one event per
interesting occurrence — task dispatch/commit/preempt/retry, lock
acquire/fail, mail send/receive, run-queue depth changes, heartbeats, and
every fault/recovery phase — in deterministic processing order, so two
runs of the same program under the same seed produce byte-identical event
streams.

Spans
-----

A *span* is one task invocation occupying a core: it opens with a
:class:`TaskDispatch` (carrying the planned ``[start, end)`` window and a
unique ``span`` id) and closes with the matching :class:`TaskCommit` or
:class:`TaskPreempt`. Whenever the machine writes charged-but-unfinished
cycles off (crash, eviction, watchdog preemption) it emits a
:class:`Truncate`, which cuts every occupancy interval of that core at
the write-off point — so replaying the stream with
:func:`occupancy_intervals` reconstructs the core's true busy timeline,
truncations included.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Tuple

#: occupancy labels for non-task busy intervals
STALL_LABEL = "(stall)"
HEARTBEAT_LABEL = "(heartbeat)"


@dataclass(frozen=True)
class Event:
    """Base event: something that happened at one simulated cycle."""

    KIND: ClassVar[str] = "?"
    time: int

    @property
    def kind(self) -> str:
        return self.KIND

    def to_json(self) -> Dict[str, object]:
        data = asdict(self)
        data["kind"] = self.KIND
        return data


# -- task lifecycle ------------------------------------------------------------


@dataclass(frozen=True)
class TaskDispatch(Event):
    """An invocation started executing: opens span ``span`` on ``core``.

    ``start``/``end`` are the planned occupancy window (the end moves only
    if the span is truncated); ``formed_at`` is when the invocation was
    formed, so ``start - formed_at`` is its run-queue wait.
    """

    KIND: ClassVar[str] = "dispatch"
    core: int
    task: str
    span: int
    start: int
    end: int
    formed_at: int
    objects: int


@dataclass(frozen=True)
class TaskCommit(Event):
    """The invocation's effects committed: closes span ``span``."""

    KIND: ClassVar[str] = "commit"
    core: int
    task: str
    span: int
    exit_id: int


@dataclass(frozen=True)
class TaskPreempt(Event):
    """The watchdog preempted an in-flight invocation (span truncated)."""

    KIND: ClassVar[str] = "preempt"
    core: int
    task: str
    span: int


@dataclass(frozen=True)
class TaskRetry(Event):
    """A preempted invocation's objects re-entered routing with backoff."""

    KIND: ClassVar[str] = "retry"
    core: int
    task: str
    attempt: int
    backoff: int


# -- locks ---------------------------------------------------------------------


@dataclass(frozen=True)
class LockAcquire(Event):
    """All parameter-object lock groups of one invocation were taken."""

    KIND: ClassVar[str] = "lock-acquire"
    core: int
    task: str
    objects: int


@dataclass(frozen=True)
class LockFail(Event):
    """A core with queued work could not lock any ready invocation."""

    KIND: ClassVar[str] = "lock-fail"
    core: int
    queued: int


# -- mail & queues -------------------------------------------------------------


@dataclass(frozen=True)
class MailSend(Event):
    """An object left ``core`` for ``dest`` (a real mesh message)."""

    KIND: ClassVar[str] = "send"
    core: int
    dest: int
    task: str
    latency: int


@dataclass(frozen=True)
class MailRecv(Event):
    """An object was delivered into a parameter set on ``core``."""

    KIND: ClassVar[str] = "recv"
    core: int
    task: str
    param_index: int


@dataclass(frozen=True)
class QueueDepth(Event):
    """The core's ready queue (formed invocations) changed length."""

    KIND: ClassVar[str] = "queue"
    core: int
    depth: int


# -- resilience ----------------------------------------------------------------


@dataclass(frozen=True)
class Heartbeat(Event):
    """A live core emitted a liveness beat, charging ``cost`` cycles from
    ``begin`` (its busy horizon at the time)."""

    KIND: ClassVar[str] = "hb"
    core: int
    begin: int
    cost: int


# -- faults & recovery ---------------------------------------------------------


@dataclass(frozen=True)
class Crash(Event):
    """A core halted (silently under detection-driven resilience)."""

    KIND: ClassVar[str] = "crash"
    core: int
    already_evicted: bool = False


@dataclass(frozen=True)
class Stall(Event):
    """A transient stall froze the core from ``begin`` until ``until``."""

    KIND: ClassVar[str] = "stall"
    core: int
    begin: int
    until: int


@dataclass(frozen=True)
class Detect(Event):
    """The failure detector discovered a silent halt, ``latency`` cycles
    after the crash."""

    KIND: ClassVar[str] = "detect"
    core: int
    latency: int


@dataclass(frozen=True)
class Evict(Event):
    """The detector evicted a live-but-silent core (false suspicion)."""

    KIND: ClassVar[str] = "evict"
    core: int


@dataclass(frozen=True)
class Rejoin(Event):
    """A suspected core's heartbeat resumed; it rejoined the machine."""

    KIND: ClassVar[str] = "rejoin"
    core: int


@dataclass(frozen=True)
class LinkDegradeEvent(Event):
    """The mesh fabric's per-hop latency multiplier changed."""

    KIND: ClassVar[str] = "link"
    multiplier: float


@dataclass(frozen=True)
class Quarantine(Event):
    """A (task, object-group) exhausted its retries and was dead-lettered."""

    KIND: ClassVar[str] = "quarantine"
    task: str
    object_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Truncate(Event):
    """Charged-but-unfinished cycles beyond ``at`` were written off on
    ``core`` (crash, eviction, or watchdog preemption)."""

    KIND: ClassVar[str] = "truncate"
    core: int
    at: int


# -- host-level search supervision ---------------------------------------------
#
# These events are emitted by the *host-side* layout search
# (:class:`repro.search.ParallelEvaluator` /
# :mod:`repro.search.checkpoint`), not by the simulated machine, so
# ``time`` is a deterministic host sequence number (the dispatch counter,
# or the annealing iteration) rather than a simulated cycle. They ride in
# the ``repro.obs/search-metrics-v1`` snapshot's ``events`` list;
# wall-clock timings are deliberately excluded so fault-free snapshots
# stay byte-comparable across runs.


@dataclass(frozen=True)
class WorkerRetry(Event):
    """A candidate simulation was re-dispatched after a worker failure.

    ``time`` is the global dispatch sequence number at which the failure
    was detected; ``position`` is the task's index within its batch.
    """

    KIND: ClassVar[str] = "worker_retry"
    position: int
    attempt: int
    reason: str  # "deadline" | "broken"


@dataclass(frozen=True)
class PoolRebuild(Event):
    """The parallel evaluator tore down and rebuilt its process pool.

    ``consecutive`` counts pool failures without any collected result so
    far (it resets on progress); reaching the policy's
    ``max_pool_failures`` degrades the evaluator to in-process serial
    simulation.
    """

    KIND: ClassVar[str] = "pool_rebuild"
    consecutive: int
    reason: str  # "deadline" | "broken"


@dataclass(frozen=True)
class CheckpointWritten(Event):
    """The annealer serialized its full search state to disk.

    ``time`` and ``iteration`` are both the iteration boundary the
    checkpoint captures; ``evaluations`` is the simulation budget spent at
    that boundary. The file path is deliberately omitted so snapshots
    from different checkpoint locations remain comparable.
    """

    KIND: ClassVar[str] = "checkpoint_written"
    iteration: int
    evaluations: int


# -- the tracer ----------------------------------------------------------------


class Tracer:
    """Collects the typed event stream of one machine run.

    The machine holds ``tracer = None`` when observability is off and
    guards every emission site, so a disabled run allocates nothing here.
    """

    __slots__ = ("events", "_depths")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._depths: Dict[int, int] = {}

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def queue_sample(self, time: int, core: int, depth: int) -> None:
        """Records the core's ready-queue length iff it changed (queues
        start empty, so an initial 0 is implied, not emitted)."""
        if self._depths.get(core, 0) == depth:
            return
        self._depths[core] = depth
        self.events.append(QueueDepth(time=time, core=core, depth=depth))


# -- occupancy replay ----------------------------------------------------------

#: One busy interval: (start, end, label, span id). ``label`` is the task
#: name, or a marker for non-task occupancy (stalls, heartbeat charges);
#: ``span`` is 0 for non-task intervals.
OccSpan = Tuple[int, int, str, int]


def occupancy_intervals(events: List[Event]) -> Dict[int, List[OccSpan]]:
    """Reconstructs each core's busy timeline from the event stream.

    Every mutation of the machine's per-core busy horizon maps onto this
    replay: dispatches contribute their ``[start, end)`` window, stalls
    and heartbeat charges their frozen/charged windows, and
    :class:`Truncate` events cut everything beyond the write-off point —
    so the result is exactly the cycles each core actually occupied.
    """
    occupancy: Dict[int, List[List[object]]] = {}
    for event in events:
        if isinstance(event, TaskDispatch):
            occupancy.setdefault(event.core, []).append(
                [event.start, event.end, event.task, event.span]
            )
        elif isinstance(event, Stall):
            occupancy.setdefault(event.core, []).append(
                [event.begin, event.until, STALL_LABEL, 0]
            )
        elif isinstance(event, Heartbeat):
            if event.cost:
                occupancy.setdefault(event.core, []).append(
                    [event.begin, event.begin + event.cost, HEARTBEAT_LABEL, 0]
                )
        elif isinstance(event, Truncate):
            for interval in occupancy.get(event.core, ()):
                if interval[1] > event.at:  # type: ignore[operator]
                    interval[1] = max(interval[0], event.at)  # type: ignore[type-var]
    return {
        core: [
            (int(s), int(e), str(label), int(span))
            for s, e, label, span in intervals
            if e > s  # truncated-to-nothing intervals vanish
        ]
        for core, intervals in occupancy.items()
    }

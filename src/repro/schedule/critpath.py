"""Critical path analysis over simulated execution traces (paper §4.5.1).

The trace of a scheduling simulation is a DAG: task-invocation events linked
by *data* edges (a producer's output object travels to a consumer, weighted
by transfer latency) and *resource* edges (an invocation waited for its core
to free up). The critical path is the longest chain explaining the final
finish time; it accounts for both data dependencies and scheduling
(resource) constraints.

For each event on the path the analysis computes when its data dependencies
resolved; events that start later than that were delayed by resource
conflicts and are the migration candidates §4.5.2 exploits. *Key* events
produce data the next critical event consumes — moving a non-key event off
a core that delays a key event is the second kind of move.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .layout import Layout
from .simulator import SimResult, TraceEvent


@dataclass
class PathStep:
    """One event on the critical path."""

    event: TraceEvent
    #: what bound this event's start: "data" (waited for an input transfer),
    #: "resource" (waited for the core), or "start" (first event)
    bound: str
    #: resource-conflict delay: start - data_ready when positive
    delay: int

    @property
    def is_delayed(self) -> bool:
        return self.delay > 0


@dataclass
class CriticalPath:
    steps: List[PathStep]
    total: int  # finish time of the last event

    def events(self) -> List[TraceEvent]:
        return [step.event for step in self.steps]

    def length(self) -> int:
        return len(self.steps)

    def key_event_ids(self) -> Set[int]:
        """Events whose produced data the *next* critical event consumes."""
        keys: Set[int] = set()
        for current, nxt in zip(self.steps, self.steps[1:]):
            producer_ids = {p for p, _ in nxt.event.inputs if p is not None}
            if current.event.event_id in producer_ids:
                keys.add(current.event.event_id)
        return keys

    def format(self) -> str:
        lines = [f"critical path ({self.total} cycles):"]
        keys = self.key_event_ids()
        for step in self.steps:
            event = step.event
            marker = "*" if event.event_id in keys else " "
            lines.append(
                f"  {marker} [{event.start:>8}-{event.end:>8}] core {event.core:>3} "
                f"{event.task} (bound={step.bound}, delay={step.delay})"
            )
        return "\n".join(lines)


def compute_critical_path(result: SimResult) -> CriticalPath:
    """Backtracks from the last-finishing event through binding constraints."""
    if not result.trace:
        return CriticalPath(steps=[], total=result.total_cycles)
    events_by_id: Dict[int, TraceEvent] = {
        e.event_id: e for e in result.trace
    }
    prev_on_core: Dict[int, Optional[TraceEvent]] = {}
    by_core: Dict[int, List[TraceEvent]] = {}
    for event in result.trace:
        by_core.setdefault(event.core, []).append(event)
    for core_events in by_core.values():
        core_events.sort(key=lambda e: (e.start, e.event_id))
        previous = None
        for event in core_events:
            prev_on_core[event.event_id] = previous
            previous = event

    last = max(result.trace, key=lambda e: (e.end, e.event_id))
    steps: List[PathStep] = []
    current: Optional[TraceEvent] = last
    seen: Set[int] = set()
    while current is not None and current.event_id not in seen:
        seen.add(current.event_id)
        delay = max(0, current.start - current.data_ready)
        predecessor: Optional[TraceEvent] = None
        bound = "start"
        previous = prev_on_core.get(current.event_id)
        if previous is not None and previous.end >= current.start - 0:
            # The core was occupied right up to our start: resource-bound.
            if current.start == previous.end and delay > 0:
                predecessor = previous
                bound = "resource"
        if predecessor is None:
            # Data-bound: find the input whose arrival defined data_ready.
            best: Optional[TraceEvent] = None
            for producer_id, _latency in current.inputs:
                if producer_id is None:
                    continue
                producer = events_by_id[producer_id]
                if best is None or producer.end > best.end:
                    best = producer
            if best is not None:
                predecessor = best
                bound = "data"
        steps.append(PathStep(event=current, bound=bound, delay=delay))
        current = predecessor
    steps.reverse()
    if steps:
        steps[0] = PathStep(event=steps[0].event, bound="start", delay=steps[0].delay)
    return CriticalPath(steps=steps, total=last.end)


@dataclass(frozen=True)
class Move:
    """A layout edit suggested by the critical path analysis."""

    kind: str  # "migrate" | "replicate"
    task: str
    from_core: int
    to_core: int
    reason: str


def _core_activity(
    result: SimResult,
) -> Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, int]]:
    """Per-core busy intervals and busy totals, from one pass over the
    trace; the totals equal ``result.core_busy`` on the cores used."""
    intervals: Dict[int, List[Tuple[int, int]]] = {}
    busy: Dict[int, int] = {}
    for event in result.trace:
        core = event.core
        intervals.setdefault(core, []).append((event.start, event.end))
        busy[core] = busy.get(core, 0) + event.end - event.start
    return intervals, busy


def _spare_cores(
    intervals: Dict[int, List[Tuple[int, int]]],
    num_cores: int,
    start: int,
    end: int,
) -> Iterator[int]:
    return (
        core
        for core in range(num_cores)
        if not any(s < end and start < e for s, e in intervals.get(core, ()))
    )


def spare_cores_during(
    result: SimResult, layout: Layout, start: int, end: int
) -> List[int]:
    """Cores with no simulated activity overlapping [start, end)."""
    intervals, _ = _core_activity(result)
    return list(_spare_cores(intervals, layout.num_cores, start, end))


def suggest_moves(
    result: SimResult,
    layout: Layout,
    path: Optional[CriticalPath] = None,
    max_moves: int = 8,
) -> List[Move]:
    """Derives migration moves from the critical path (paper §4.5.2).

    Resource-delayed critical events migrate to cores that were spare in
    their delay window; when no core is spare, non-key critical events that
    delay key events are pushed elsewhere (to the least-loaded cores).
    """
    if path is None:
        path = compute_critical_path(result)
    intervals, busy = _core_activity(result)
    moves: List[Move] = []
    seen: Set[Tuple[str, int, int]] = set()
    keys = path.key_event_ids()

    def add(kind: str, task: str, from_core: int, to_core: int, reason: str):
        if from_core == to_core:
            return
        signature = (task, from_core, to_core)
        if signature in seen:
            return
        seen.add(signature)
        moves.append(Move(kind, task, from_core, to_core, reason))

    # 1. Resource-delayed events -> spare cores during the delay window.
    delayed = sorted(
        (s for s in path.steps if s.is_delayed),
        key=lambda s: -s.delay,
    )
    for step in delayed:
        event = step.event
        window_start = max(0, event.data_ready)
        spare = _spare_cores(
            intervals, layout.num_cores, window_start, event.start
        )
        for core in islice(spare, 2):
            add(
                "migrate",
                event.task,
                event.core,
                core,
                f"delayed {step.delay} cycles waiting for core {event.core}",
            )
        if len(moves) >= max_moves:
            return moves[:max_moves]

    # 2. Non-key events that precede key events on the same core.
    least_loaded = sorted(
        range(layout.num_cores), key=lambda c: busy.get(c, 0)
    )
    for current, nxt in zip(path.steps, path.steps[1:]):
        if (
            nxt.event.event_id in keys
            and current.event.event_id not in keys
            and current.event.core == nxt.event.core
        ):
            for core in least_loaded[:2]:
                add(
                    "migrate",
                    current.event.task,
                    current.event.core,
                    core,
                    "non-key task delaying a key task",
                )
        if len(moves) >= max_moves:
            break
    return moves[:max_moves]

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

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .layout import Layout
from .simulator import SimResult, SimTrace, TraceEvent


@dataclass
class PathStep:
    """One event on the critical path."""

    #: the event's index in ``trace``
    index: int
    #: what bound this event's start: "data" (waited for an input transfer),
    #: "resource" (waited for the core), or "start" (first event)
    bound: str
    #: resource-conflict delay: start - data_ready when positive
    delay: int
    trace: SimTrace = field(repr=False, compare=False)

    @property
    def event(self) -> TraceEvent:
        return self.trace[self.index]

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
            trace = nxt.trace
            index = nxt.index
            low = trace.param_end[index - 1] if index else 0
            if current.index in trace.producer[low:trace.param_end[index]]:
                keys.add(current.index)
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
    trace = result.trace
    if not trace:
        return CriticalPath(steps=[], total=result.total_cycles)
    core = trace.core
    start = trace.start
    end = trace.end
    data_ready = trace.data_ready
    producer = trace.producer
    param_end = trace.param_end
    # Each core's events are in start order along the trace, so one pass
    # finds every event's predecessor on its core (-1 for none).
    prev_on_core: List[int] = []
    last_on: Dict[int, int] = {}
    for index, event_core in enumerate(core):
        prev_on_core.append(last_on.get(event_core, -1))
        last_on[event_core] = index

    # The last event to finish; ties go to the highest index.
    total = max(end)
    last = len(end) - 1 - end[::-1].index(total)
    steps: List[PathStep] = []
    current = last
    seen: Set[int] = set()
    while current >= 0 and current not in seen:
        seen.add(current)
        current_start = start[current]
        delay = max(0, current_start - data_ready[current])
        predecessor = -1
        bound = "start"
        previous = prev_on_core[current]
        # The core was occupied right up to our start: resource-bound.
        if previous >= 0 and end[previous] == current_start and delay > 0:
            predecessor = previous
            bound = "resource"
        else:
            # Data-bound: the input whose producer finished last (the
            # first such input on ties) defined data_ready.
            best_end = -1
            for source in producer[
                param_end[current - 1] if current else 0:param_end[current]
            ]:
                if source >= 0 and end[source] > best_end:
                    predecessor = source
                    best_end = end[source]
            if predecessor >= 0:
                bound = "data"
        steps.append(PathStep(current, bound, delay, trace))
        current = predecessor
    steps.reverse()
    steps[0].bound = "start"
    return CriticalPath(steps=steps, total=total)


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
) -> Tuple[Dict[int, Tuple[List[int], List[int]]], Dict[int, int]]:
    """Per core, the start times and the end times of its busy intervals,
    and its busy total, from one pass over the trace; the totals equal
    ``result.core_busy`` on the cores used. A core dispatches only when
    it is free and the trace is in start order, so each core's intervals
    are disjoint and in start order."""
    activity: Dict[int, Tuple[List[int], List[int]]] = {}
    busy: Dict[int, int] = {}
    trace = result.trace
    for core, start, end in zip(trace.core, trace.start, trace.end):
        spans = activity.get(core)
        if spans is None:
            spans = activity[core] = ([], [])
        spans[0].append(start)
        spans[1].append(end)
        busy[core] = busy.get(core, 0) + end - start
    return activity, busy


def _spare_cores(
    activity: Dict[int, Tuple[List[int], List[int]]],
    num_cores: int,
    start: int,
    end: int,
) -> Iterator[int]:
    """The cores, in ascending order, with no busy interval overlapping
    ``[start, end)``. Of a core's disjoint, start-ordered intervals that
    start before ``end``, the last one ends latest, so it alone decides."""
    for core in range(num_cores):
        spans = activity.get(core)
        if spans is not None:
            starts, ends = spans
            last = bisect_left(starts, end) - 1
            if last >= 0 and ends[last] > start:
                continue
        yield core


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
    activity, busy = _core_activity(result)
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
    trace = result.trace
    delayed = sorted(
        (s for s in path.steps if s.is_delayed),
        key=lambda s: -s.delay,
    )
    for step in delayed:
        index = step.index
        event_core = trace.core[index]
        spare = _spare_cores(
            activity,
            layout.num_cores,
            max(0, trace.data_ready[index]),
            trace.start[index],
        )
        for core in islice(spare, 2):
            add(
                "migrate",
                trace.task[index],
                event_core,
                core,
                f"delayed {step.delay} cycles waiting for core {event_core}",
            )
        if len(moves) >= max_moves:
            return moves[:max_moves]

    # 2. Non-key events that precede key events on the same core.
    least_loaded = sorted(
        range(layout.num_cores), key=lambda c: busy.get(c, 0)
    )
    for current, nxt in zip(path.steps, path.steps[1:]):
        if (
            nxt.index in keys
            and current.index not in keys
            and trace.core[current.index] == trace.core[nxt.index]
        ):
            for core in least_loaded[:2]:
                add(
                    "migrate",
                    trace.task[current.index],
                    trace.core[current.index],
                    core,
                    "non-key task delaying a key task",
                )
        if len(moves) >= max_moves:
            break
    return moves[:max_moves]

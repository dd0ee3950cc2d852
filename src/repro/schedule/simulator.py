"""High-level scheduling simulator (paper §4.4).

Estimates how long a candidate layout will take to execute **without running
any application code**: task durations, exit choices, and allocation counts
all come from the profile's Markov model. The simulator mirrors the real
runtime's structure — per-core parameter sets, FIFO invocation formation,
round-robin/tag-hash routing, mesh transfer latencies — but moves abstract
objects that carry only (class, abstract state).

Exit selection follows the paper's count-matching policy: the simulator
keeps a count per destination and picks the exit minimizing the difference
between observed and profile-predicted frequencies (optionally per object,
via developer hints). Task execution time is the profiled average for the
chosen exit; fractional expected allocation counts accumulate so long runs
emit the right totals.

The simulated execution also produces the trace that the critical path
analysis (§4.5.1) consumes: a :class:`SimTrace`, stored one list per field
so a result carries no per-invocation objects for the worker pool to
pickle, the caches to hold or the garbage collector to walk.

Entry points
------------

* :func:`simulate` — simulate one layout once (the facade).
* :class:`SimSession` — a reusable session that shares the per-program
  lookup tables across simulations; every call is one full simulation.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns as _perf_counter_ns
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram

from ..analysis.astate import AState, guard_matches
from ..ir import costs
from ..obs import prof
from ..runtime.profiler import ProfileData
from ..schedule.layout import (
    Layout,
    Router,
    common_tag_binding,
    core_speed,
    scale_duration,
)
from ..sema import builtins

#: Under an active profiler, run() charges the whole event loop to one
#: phase and adds the exact number of events it processed.
_P_SIM_DRAIN = prof.intern_phase("sim.drain")
_C_SIM_EVENTS = prof.intern_phase("sim.events_processed")


#: Nominal duration charged to simulated invocations of tasks the profile
#: never observed (see _SimEngine._dispatch).
UNPROFILED_TASK_CYCLES = 200

#: Heap event kinds (ints compare faster than strings).
_EV_ARRIVE = 0
_EV_KICK = 1

_INIT = costs.RUNTIME_INIT_COST
_ENQUEUE = costs.ENQUEUE_COST
_MSG_SEND = costs.MSG_SEND_COST
_HOP = costs.HOP_COST
_MSG_WORD = costs.MSG_WORD_COST


@dataclass
class SimObject:
    """An abstract object: identity, class, state, optional tag key."""

    obj_id: int
    class_name: str
    state: AState
    tag_key: Optional[int] = None


@dataclass
class QueueEntry:
    obj: SimObject
    arrived_at: int
    producer_event: int  # trace event id that produced the object; -1 = none


@dataclass
class TraceEvent:
    """One simulated task invocation (a node pair in the Fig. 6 graph).

    A read view of one index of a :class:`SimTrace`, built by
    ``trace[i]`` and by iterating the trace; nothing stores these.
    """

    event_id: int
    task: str
    core: int
    start: int
    end: int
    exit_id: int
    data_ready: int
    param_objects: List[int] = field(default_factory=list)
    #: per parameter: (producer event id or None, transfer latency paid)
    inputs: List[Tuple[Optional[int], int]] = field(default_factory=list)
    produced: List[int] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return self.end - self.start


#: The columns of a :class:`SimTrace`, in constructor and pickle order.
_TRACE_COLUMNS = (
    "task", "core", "start", "end", "exit_id", "data_ready",
    "param_obj", "producer", "latency", "param_end",
    "produced", "produced_end",
)


class SimTrace:
    """The simulated invocations of one run, stored one list per field.

    Event ``i`` is index ``i`` of the per-invocation columns ``task``,
    ``core``, ``start``, ``end``, ``exit_id`` and ``data_ready``. Its
    parameters are entries ``param_end[i - 1]`` (0 for the first event)
    up to ``param_end[i]`` of the per-parameter columns ``param_obj``,
    ``producer`` (the producing event, -1 for none) and ``latency``; the
    objects it allocated are the same slice of ``produced``, bounded by
    ``produced_end``. The engine appends in dispatch order, so ``start``
    never decreases along the trace and each core's events appear in
    start order.

    ``len``, ``trace[i]``, iteration and ``==`` behave as on a list of
    :class:`TraceEvent`, which ``trace[i]`` builds on demand. A trace
    pickles as its twelve lists.
    """

    __slots__ = _TRACE_COLUMNS

    def __init__(self, *columns: list):
        """An empty trace, or one over the given columns (in
        :data:`_TRACE_COLUMNS` order)."""
        if not columns:
            columns = tuple([] for _ in _TRACE_COLUMNS)
        for name, column in zip(_TRACE_COLUMNS, columns):
            setattr(self, name, column)

    @classmethod
    def from_events(cls, events) -> "SimTrace":
        """Builds a trace from :class:`TraceEvent`s numbered 0, 1, ...,
        each with one ``inputs`` pair per parameter object."""
        trace = cls()
        for index, event in enumerate(events):
            if event.event_id != index:
                raise ValueError(f"event {index} has event_id {event.event_id}")
            if len(event.inputs) != len(event.param_objects):
                raise ValueError(
                    f"event {index} has {len(event.param_objects)} "
                    f"parameters but {len(event.inputs)} inputs"
                )
            trace.task.append(event.task)
            trace.core.append(event.core)
            trace.start.append(event.start)
            trace.end.append(event.end)
            trace.exit_id.append(event.exit_id)
            trace.data_ready.append(event.data_ready)
            trace.param_obj.extend(event.param_objects)
            for producer, latency in event.inputs:
                trace.producer.append(-1 if producer is None else producer)
                trace.latency.append(latency)
            trace.param_end.append(len(trace.param_obj))
            trace.produced.extend(event.produced)
            trace.produced_end.append(len(trace.produced))
        return trace

    def columns(self) -> Tuple[list, ...]:
        return tuple(getattr(self, name) for name in _TRACE_COLUMNS)

    def __reduce__(self):
        return (SimTrace, self.columns())

    def __len__(self) -> int:
        return len(self.task)

    def __getitem__(self, index: int) -> TraceEvent:
        index = range(len(self.task))[index]
        low = self.param_end[index - 1] if index else 0
        high = self.param_end[index]
        low_out = self.produced_end[index - 1] if index else 0
        return TraceEvent(
            index,
            self.task[index],
            self.core[index],
            self.start[index],
            self.end[index],
            self.exit_id[index],
            self.data_ready[index],
            self.param_obj[low:high],
            [
                (None if producer < 0 else producer, latency)
                for producer, latency in zip(
                    self.producer[low:high], self.latency[low:high]
                )
            ],
            self.produced[low_out:self.produced_end[index]],
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self.__getitem__, range(len(self.task)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimTrace):
            return NotImplemented
        return self.columns() == other.columns()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SimTrace({len(self.task)} events)"


@dataclass
class SimResult:
    """Outcome of one scheduling simulation.

    ``trace`` lists every dispatched invocation as :class:`SimTrace`
    columns; this is what the search pool pickles back, the
    :class:`~repro.search.SimCache` holds and the critical path reads.
    """

    total_cycles: int
    finished: bool
    trace: SimTrace
    core_busy: Dict[int, int]
    invocations: Dict[str, int]
    #: fraction of core-time spent busy — the paper's fallback metric for
    #: profiles that do not terminate
    utilization: float

    def events_on_core(self, core: int) -> List[TraceEvent]:
        trace = self.trace
        return sorted(
            (trace[i] for i, c in enumerate(trace.core) if c == core),
            key=lambda e: e.start,
        )


class ExitChooser:
    """Count-matching exit selection (deterministic low-discrepancy draw).

    ``policy`` selects the realization of the paper's count-matching rule:
    ``"sequence"`` (default) replays the profiled exit order, which keeps
    simulated counts exactly equal to predicted counts at every prefix;
    ``"counts"`` uses only the aggregate per-exit counts (quota matching
    with a proportional fallback) — the ablation baseline.
    """

    def __init__(
        self,
        profile: ProfileData,
        hints: Optional[Dict[str, str]] = None,
        policy: str = "sequence",
    ):
        self.profile = profile
        self.hints = hints or {}
        self.policy = policy
        self._taken: Dict[Tuple, int] = {}
        self._total: Dict[Tuple, int] = {}
        #: per-task lookups the hot path would otherwise recompute per call
        self._exit_ids: Dict[str, List[int]] = {}
        self._sequences: Dict[str, List[int]] = {}

    def _exits(self, task: str) -> List[int]:
        exits = self._exit_ids.get(task)
        if exits is None:
            exits = self.profile.exit_ids(task)
            self._exit_ids[task] = exits
        return exits

    def choose(self, task: str, obj_key: Optional[int]) -> int:
        exits = self._exits(task)
        if not exits:
            return 0
        if len(exits) == 1:
            return exits[0]
        scope: Tuple
        per_object = self.hints.get(task) == "per_object" and obj_key is not None
        if per_object:
            scope = (task, obj_key)
        else:
            scope = (task,)
        n = self._total.get(scope, 0)
        if not per_object and self.policy == "sequence":
            # Replay the profiled exit order while it lasts: this keeps the
            # simulated counts exactly equal to the counts predicted by the
            # recorded statistics at every prefix — the optimum of the
            # paper's count-matching criterion (it also reproduces periodic
            # behaviour like "every 62nd invocation ends a round").
            sequence = self._sequences.get(task)
            if sequence is None:
                sequence = self.profile.exit_sequence(task)
                self._sequences[task] = sequence
            if n < len(sequence):
                chosen = sequence[n]
                self._total[scope] = n + 1
                key = scope + (chosen,)
                self._taken[key] = self._taken.get(key, 0) + 1
                return chosen
        best_exit = exits[0]
        best_score = (float("-inf"), float("-inf"))
        for exit_id in exits:
            prob = self.profile.exit_probability(task, exit_id)
            taken = self._taken.get(scope + (exit_id,), 0)
            # Primary criterion: remaining quota against the profile's
            # absolute counts ("minimize the difference between these
            # counts and the counts predicted by the recorded statistics").
            # When every quota is spent (the simulated run is longer than
            # the profiled one), fall back to proportional matching; ties
            # resolve toward the more probable exit.
            proportional = prob * (n + 1) - taken
            if per_object:
                # Per-object counters have no meaningful absolute quota.
                score = (proportional, prob)
            else:
                quota = self.profile.exit_count(task, exit_id) - taken
                score = (quota if quota > 0 else proportional - 1e9, prob)
            if score > best_score:
                best_score = score
                best_exit = exit_id
        self._total[scope] = n + 1
        key = scope + (best_exit,)
        self._taken[key] = self._taken.get(key, 0) + 1
        return best_exit


# -- shared program tables -----------------------------------------------------


class _TaskRec:
    """Per-task lookups resolved once and shared across simulations."""

    __slots__ = ("params", "nparams", "tag_match", "guards", "func",
                 "has_exits", "fallback_exit")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData,
                 task: str):
        decl = compiled.info.task_info(task).decl
        self.params = tuple(decl.params)
        self.nparams = len(self.params)
        #: every parameter binds one shared tag, so an invocation's objects
        #: must all carry the same tag key
        self.tag_match = common_tag_binding(decl) is not None
        #: per-parameter memo of guard_matches(param, state) by state
        self.guards = tuple({} for _ in self.params)
        self.func = compiled.ir_program.tasks[task]
        self.has_exits = bool(profile.exit_ids(task))
        # The profiled run never invoked this task (e.g. it lost every
        # race for its objects). Fall back to the static exit table — the
        # lowest explicit exit — so the simulated object still transitions.
        self.fallback_exit = min(
            (e for e in self.func.exits if e != 0), default=0
        )


class _ExitPlan:
    """Memoized per-(task, exit) dispatch consequences."""

    __slots__ = ("spec", "steps")

    def __init__(self, spec, nparams: int):
        self.spec = spec
        #: per parameter: {state -> (new_state, tag_mode)} where tag_mode
        #: 0 leaves tag_key alone, 1 sets it to the invocation's event id,
        #: 2 clears it (the last tag removal zeroed the count)
        self.steps = tuple({} for _ in range(nparams))


def _transition(spec, param_index: int, state: AState) -> Tuple[AState, int]:
    """Replays one exit's flag/tag actions for one parameter; memoized by
    :class:`_ExitPlan` since the outcome depends only on the input state."""
    updates = spec.flag_updates.get(param_index)
    if updates:
        state = state.with_flags(updates)
    mode = 0
    for action in spec.tag_updates.get(param_index, ()):
        if action.op == "add":
            state = state.with_tag_delta(action.tag_type, 1)
            # Tag this object with the invocation's key so it pairs (via
            # tag hashing) with objects the same invocation allocated.
            mode = 1
        else:
            state = state.with_tag_delta(action.tag_type, -1)
            if state.tag_count(action.tag_type) == 0:
                mode = 2
    return state, mode


class _ProgramTables:
    """Layout-independent lookup tables shared by every simulation of one
    (program, profile, core-speeds) context — the memo a
    :class:`SimSession` keeps warm across candidates.

    Everything memoized here is a pure function of the program and
    profile, so sharing the tables cannot change results; it only removes
    repeated lookups from the event loop's hot path.
    """

    __slots__ = ("compiled", "info", "profile", "core_speeds", "_recs",
                 "_class_size", "_durations", "_alloc_plans", "_exit_plans")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData,
                 core_speeds: Optional[Dict[int, float]] = None):
        self.compiled = compiled
        self.info = compiled.info
        self.profile = profile
        self.core_speeds = core_speeds
        self._recs: Dict[str, _TaskRec] = {}
        self._class_size: Dict[str, int] = {}
        #: (task, exit_id, core) -> scaled duration; exit -1 = unprofiled
        self._durations: Dict[Tuple[str, int, int], int] = {}
        self._alloc_plans: Dict[Tuple[str, int], tuple] = {}
        self._exit_plans: Dict[Tuple[str, int], Optional[_ExitPlan]] = {}

    def rec(self, task: str) -> _TaskRec:
        rec = self._recs.get(task)
        if rec is None:
            rec = _TaskRec(self.compiled, self.profile, task)
            self._recs[task] = rec
        return rec

    def class_size(self, class_name: str) -> int:
        size = self._class_size.get(class_name)
        if size is None:
            size = len(self.info.class_info(class_name).fields)
            self._class_size[class_name] = size
        return size

    def duration(self, task: str, exit_id: int, core: int,
                 profiled: bool) -> int:
        key = (task, exit_id, core)
        cycles = self._durations.get(key)
        if cycles is None:
            if profiled:
                base = max(1, int(round(self.profile.avg_cycles(task, exit_id))))
            else:
                base = UNPROFILED_TASK_CYCLES
            cycles = scale_duration(base, core_speed(self.core_speeds, core))
            self._durations[key] = cycles
        return cycles

    def exit_plan(self, task: str, exit_id: int,
                  rec: _TaskRec) -> Optional[_ExitPlan]:
        key = (task, exit_id)
        try:
            return self._exit_plans[key]
        except KeyError:
            spec = rec.func.exits.get(exit_id)
            plan = None if spec is None else _ExitPlan(spec, rec.nparams)
            self._exit_plans[key] = plan
            return plan

    def alloc_plan(self, task: str, exit_id: int) -> tuple:
        key = (task, exit_id)
        plan = self._alloc_plans.get(key)
        if plan is None:
            entries = []
            for site_id, avg in sorted(
                self.profile.avg_allocs(task, exit_id).items()
            ):
                site = self.compiled.ir_program.alloc_sites.get(site_id)
                if site is None:
                    continue
                flags = [f for f, v in site.flag_inits.items() if v]
                tags = {t: 1 for t in site.tag_types}
                state = AState.make(flags, tags)
                entries.append(
                    ((task, exit_id, site_id), avg, site.class_name, state,
                     bool(site.tag_types))
                )
            plan = tuple(entries)
            self._alloc_plans[key] = plan
        return plan


# -- the engine ----------------------------------------------------------------


class _SimEngine:
    """One discrete-event simulation of one layout.

    Heap events are flat 7-slot tuples ``(time, seq, kind, target, task,
    param_index, entry)`` — ``(time, seq)`` is unique, so the trailing
    payload slots never participate in heap comparisons. ``kind`` is
    :data:`_EV_ARRIVE` (``target`` is the destination core) or
    :data:`_EV_KICK`, a wake-up whose ``target`` lists the cores it
    visits, in order, with ``(None, 0, None)`` after it.

    A dispatch pushes one wake-up at its end time carrying the dispatching
    core and then every other core that has queued work and is free by
    then, in ascending order; an arrival that finds its core idle pushes a
    one-core wake-up. ``_waiting`` holds the cores with a nonempty ready
    queue, so a dispatch finds them without scanning every core. Each core
    a wake-up visits counts as one processed event against
    ``max_events``.
    """

    def __init__(
        self,
        compiled: "CompiledProgram",
        layout: Layout,
        profile: ProfileData,
        hints: Optional[Dict[str, str]] = None,
        max_events: int = 2_000_000,
        exit_policy: str = "sequence",
        core_speeds: Optional[Dict[int, float]] = None,
        tables: Optional[_ProgramTables] = None,
    ):
        layout.validate(compiled.info)
        self.compiled = compiled
        self.info = compiled.info
        self.layout = layout
        self.profile = profile
        self.max_events = max_events
        self.exit_policy = exit_policy
        self.core_speeds = core_speeds
        self.tables = (
            tables
            if tables is not None
            else _ProgramTables(compiled, profile, core_speeds)
        )
        self.router = Router(compiled.info, layout)
        self._cores_of = self.router._cores
        self.chooser = ExitChooser(profile, hints, exit_policy)
        core_list = layout.cores_used()

        self._events: List[tuple] = []
        self._seq = 0
        self._next_obj_id = 0
        self.busy_until: Dict[int, int] = {
            core: _INIT for core in core_list
        }
        self.core_busy: Dict[int, int] = {core: 0 for core in core_list}
        self.ready: Dict[int, Deque[List[QueueEntry]]] = {}
        sets: Dict[Tuple[int, str], List[Deque[QueueEntry]]] = {}
        tables_rec = self.tables.rec
        for core in core_list:
            self.ready[core] = deque()
            for task in layout.tasks_on_core(core):
                sets[(core, task)] = [
                    deque() for _ in range(tables_rec(task).nparams)
                ]
        self._sets = sets
        self._ready_task: Dict[int, Deque[str]] = {
            core: deque() for core in core_list
        }
        #: cores whose ready queue is nonempty
        self._waiting: Set[int] = set()
        self._rr_state: Dict[Tuple[int, str], int] = {}
        self._alloc_carry: Dict[Tuple[str, int, int], float] = {}
        self.trace = SimTrace()
        self.invocations: Dict[str, int] = {}

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimResult:
        startup = SimObject(
            self._next_obj_id,
            builtins.STARTUP_CLASS,
            AState.make([builtins.STARTUP_FLAG]),
            None,
        )
        self._next_obj_id += 1
        self._route(startup, None, _INIT, -1)

        profiler = prof.active()
        if profiler is None:
            finished, last_time, _ = self._drain()
        else:
            started = _perf_counter_ns()
            finished, last_time, processed = self._drain()
            profiler.add_time(_P_SIM_DRAIN, _perf_counter_ns() - started)
            profiler.add_count(_C_SIM_EVENTS, processed)

        total = max([last_time] + list(self.busy_until.values()))
        busy_time = sum(self.core_busy.values())
        cores = max(1, len(self.core_busy))
        utilization = busy_time / (cores * total) if total else 0.0
        return SimResult(
            total_cycles=total,
            finished=finished,
            trace=self.trace,
            core_busy=dict(self.core_busy),
            invocations=dict(self.invocations),
            utilization=utilization,
        )

    def _drain(self) -> Tuple[bool, int, int]:
        """The event loop: returns ``(finished, last_time, processed)``."""
        events = self._events
        pop = heapq.heappop
        push = heapq.heappush
        max_events = self.max_events
        sets = self._sets
        waiting = self._waiting
        busy_until = self.busy_until
        dispatch = self._dispatch
        try_form = self._try_form
        processed = 0
        finished = True
        # Event times are nondecreasing (pushes never go backwards), so
        # tracking the last popped time needs no max().
        last_time = _INIT
        while events:
            processed += 1
            if processed > max_events:
                finished = False
                break
            time, _, kind, target, task, param_index, entry = pop(events)
            last_time = time
            if kind:
                # Every core after the first is one more processed event,
                # so the budget can run out partway through a wake-up.
                last = processed + len(target) - 1
                if last > max_events:
                    target = target[:max_events - processed + 1]
                for core in target:
                    if core in waiting and busy_until[core] <= time:
                        dispatch(core, time)
                if last > max_events:
                    processed = max_events + 1
                    finished = False
                    break
                processed = last
            else:
                sets[(target, task)][param_index].append(entry)
                try_form(target, task)
                if target in waiting and busy_until[target] <= time:
                    self._seq = s = self._seq + 1
                    push(events, (time, s, _EV_KICK, (target,), None, 0, None))
        return finished, last_time, processed

    # -- invocation formation -----------------------------------------------------

    def _try_form(self, core: int, task: str) -> None:
        sets = self._sets[(core, task)]
        if len(sets) == 1:
            pending = sets[0]
            if pending:
                ready = self.ready[core]
                ready_task = self._ready_task[core]
                while pending:
                    ready.append([pending.popleft()])
                    ready_task.append(task)
                self._waiting.add(core)
            return
        tag_match = self.tables.rec(task).tag_match
        while all(sets):
            combo = self._pop_compatible(sets, tag_match)
            if combo is None:
                return
            self.ready[core].append(combo)
            self._ready_task[core].append(task)
            self._waiting.add(core)

    @staticmethod
    def _pop_compatible(
        sets: List[Deque[QueueEntry]], tag_match: bool
    ) -> Optional[List[QueueEntry]]:
        """Pops one entry per parameter set, the earliest in FIFO order.

        With ``tag_match`` every entry must carry the same tag key: the
        earliest entry of the first set whose key appears in every other
        set wins, paired with the earliest holder of that key in each.
        """
        if not tag_match:
            return [bucket.popleft() for bucket in sets]
        for first in sets[0]:
            key = first.obj.tag_key
            if key is None:
                continue
            combo = [first]
            for bucket in sets[1:]:
                for entry in bucket:
                    if entry.obj.tag_key == key:
                        combo.append(entry)
                        break
                else:
                    break
            else:
                for bucket, entry in zip(sets, combo):
                    bucket.remove(entry)
                return combo
        return None

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, core: int, time: int) -> None:
        """Starts the first still-valid ready invocation on ``core``, which
        the caller found free at ``time`` with a nonempty ready queue."""
        busy_until = self.busy_until
        ready = self.ready[core]
        ready_task = self._ready_task[core]
        tables = self.tables
        combo: Optional[List[QueueEntry]] = None
        task = ""
        rec = None
        while ready:
            candidate = ready.popleft()
            candidate_task = ready_task.popleft()
            rec = tables.rec(candidate_task)
            guards = rec.guards
            params = rec.params
            stale = None
            for index in range(rec.nparams):
                state = candidate[index].obj.state
                memo = guards[index]
                ok = memo.get(state)
                if ok is None:
                    ok = guard_matches(params[index], state)
                    memo[state] = ok
                if not ok:
                    if stale is None:
                        stale = {index}
                    else:
                        stale.add(index)
            if stale is None:
                combo = candidate
                task = candidate_task
                break
            # Mirror the runtime: drop the invocation, put still-valid
            # objects back in their sets, re-route stale objects by their
            # current state.
            sets = self._sets[(core, candidate_task)]
            for index, entry in enumerate(candidate):
                if index in stale:
                    self._route(entry.obj, core, time, entry.producer_event)
                else:
                    sets[index].appendleft(entry)
            self._try_form(core, candidate_task)
        if not ready:
            self._waiting.discard(core)
        if combo is None:
            return

        data_ready = max(entry.arrived_at for entry in combo)
        start = time
        if rec.has_exits:
            exit_id = self.chooser.choose(task, combo[0].obj.obj_id)
            duration = tables.duration(task, exit_id, core, True)
        else:
            exit_id = rec.fallback_exit
            duration = tables.duration(task, -1, core, False)
        end = start + duration

        trace = self.trace
        event_id = len(trace.task)
        trace.task.append(task)
        trace.core.append(core)
        trace.start.append(start)
        trace.end.append(end)
        trace.exit_id.append(exit_id)
        trace.data_ready.append(data_ready)
        param_obj = trace.param_obj
        producer = trace.producer
        latency = trace.latency
        for entry in combo:
            param_obj.append(entry.obj.obj_id)
            producer.append(entry.producer_event)
            arrived = entry.arrived_at
            latency.append(arrived - start if arrived > start else 0)
        trace.param_end.append(len(param_obj))
        invocations = self.invocations
        invocations[task] = invocations.get(task, 0) + 1
        self.core_busy[core] += duration
        busy_until[core] = end

        # Transition parameter objects per the exit's flag/tag actions.
        route = self._route
        plan = tables.exit_plan(task, exit_id, rec)
        if plan is None:
            for entry in combo:
                route(entry.obj, core, end, event_id)
        else:
            steps = plan.steps
            spec = plan.spec
            for param_index, entry in enumerate(combo):
                obj = entry.obj
                memo = steps[param_index]
                state = obj.state
                hit = memo.get(state)
                if hit is None:
                    hit = _transition(spec, param_index, state)
                    memo[state] = hit
                new_state, tag_mode = hit
                if tag_mode:
                    obj.tag_key = event_id if tag_mode == 1 else None
                obj.state = new_state
                route(obj, core, end, event_id)

        # Allocate new objects per the profile's expectations.
        alloc_plan = tables.alloc_plan(task, exit_id)
        produced = trace.produced
        if alloc_plan:
            carry_map = self._alloc_carry
            for carry_key, avg, class_name, state, has_tags in alloc_plan:
                carry = carry_map.get(carry_key, 0.0) + avg
                emit = int(carry)
                carry_map[carry_key] = carry - emit
                if emit:
                    tag_key = event_id if has_tags else None
                    next_id = self._next_obj_id
                    self._next_obj_id = next_id + emit
                    for _ in range(emit):
                        obj = SimObject(next_id, class_name, state, tag_key)
                        next_id += 1
                        produced.append(obj.obj_id)
                        route(obj, core, end, event_id)
        trace.produced_end.append(len(produced))

        # One wake-up at ``end``: this core, then every other core with
        # queued work that is free by then, in ascending order.
        visits = [
            other for other in self._waiting
            if busy_until[other] <= end and other != core
        ]
        visits.sort()
        visits.insert(0, core)
        self._seq = s = self._seq + 1
        heapq.heappush(self._events, (end, s, _EV_KICK, visits, None, 0, None))

    # -- routing --------------------------------------------------------------------

    def _route(
        self,
        obj: SimObject,
        sender: Optional[int],
        time: int,
        producer_event: int,
    ) -> None:
        consumers = self.router.consumers(obj.class_name, obj.state)
        if not consumers:
            return
        cores_of = self._cores_of
        tables = self.tables
        layout = self.layout
        rr_state = self._rr_state
        events = self._events
        for task, param_index in consumers:
            cores = cores_of[task]
            if len(cores) == 1:
                dest = cores[0]
            elif (
                obj.tag_key is not None
                and tables.rec(task).nparams > 1
            ):
                dest = cores[obj.tag_key % len(cores)]
            else:
                # Round-robin, staggered by sender so co-located producers
                # don't all hammer the same replica first (Router.pick_core
                # semantics, inlined).
                origin = sender if sender is not None else 0
                key = (origin, task)
                index = rr_state.get(key)
                if index is None:
                    index = (
                        cores.index(origin)
                        if origin in cores
                        else origin % len(cores)
                    )
                rr_state[key] = index + 1
                dest = cores[index % len(cores)]
            if sender is None:
                latency = 0
            elif dest == sender:
                latency = _ENQUEUE
            else:
                latency = (
                    _MSG_SEND
                    + layout.hops(sender, dest) * _HOP
                    + _MSG_WORD * tables.class_size(obj.class_name)
                    + _ENQUEUE
                )
            arrived = time + latency
            self._seq = s = self._seq + 1
            heapq.heappush(
                events,
                (
                    arrived,
                    s,
                    _EV_ARRIVE,
                    dest,
                    task,
                    param_index,
                    QueueEntry(obj, arrived, producer_event),
                ),
            )


# -- sessions & facade ----------------------------------------------------------


class SimSession:
    """A reusable simulation context for one (program, profile) pair.

    The layout-independent :class:`_ProgramTables` memos are computed
    once and shared by every :meth:`simulate` call; each call is one full
    simulation. Sessions are cheap to create and safe to use from one
    thread at a time.
    """

    # Always 0; the benchmark's traced run (perfbench/spans.py) reads them.
    delta_attempts = delta_resumes = events_skipped = 0

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: ProfileData,
        *,
        hints: Optional[Dict[str, str]] = None,
        core_speeds: Optional[Dict[int, float]] = None,
        exit_policy: str = "sequence",
        max_events: int = 2_000_000,
    ):
        self.compiled = compiled
        self.profile = profile
        self.hints = hints
        self.core_speeds = core_speeds
        self.exit_policy = exit_policy
        self.max_events = max_events
        self.tables = _ProgramTables(compiled, profile, core_speeds)

    def simulate(self, layout: Layout) -> SimResult:
        """Simulates ``layout`` once, sharing the session's tables."""
        return _SimEngine(
            self.compiled,
            layout,
            self.profile,
            hints=self.hints,
            max_events=self.max_events,
            exit_policy=self.exit_policy,
            core_speeds=self.core_speeds,
            tables=self.tables,
        ).run()


def simulate(
    compiled: "CompiledProgram",
    layout: Layout,
    profile: ProfileData,
    *,
    hints: Optional[Dict[str, str]] = None,
    core_speeds: Optional[Dict[int, float]] = None,
    exit_policy: str = "sequence",
    max_events: int = 2_000_000,
) -> SimResult:
    """Simulate one layout and return its :class:`SimResult`.

    To simulate many layouts of one program, share the per-program
    tables through :meth:`SimSession.simulate` instead.
    """
    engine = _SimEngine(
        compiled,
        layout,
        profile,
        hints=hints,
        max_events=max_events,
        exit_policy=exit_policy,
        core_speeds=core_speeds,
    )
    return engine.run()

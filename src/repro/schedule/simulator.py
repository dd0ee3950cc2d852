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
analysis (§4.5.1) consumes.

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
from typing import Deque, Dict, List, Optional, Tuple

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
    mesh_hops,
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
    producer_event: Optional[int]  # trace event id that produced the object


@dataclass
class TraceEvent:
    """One simulated task invocation (a node pair in the Fig. 6 graph)."""

    event_id: int
    task: str
    core: int
    start: int
    end: int
    exit_id: int
    data_ready: int
    param_objects: List[int] = field(default_factory=list)
    #: per parameter: (producer event id, transfer latency paid)
    inputs: List[Tuple[Optional[int], int]] = field(default_factory=list)
    produced: List[int] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def __reduce__(self):
        # SimResult traces dominate the pool's IPC payloads; positional
        # pickling cuts the per-event cost vs. the default __dict__ form.
        return (TraceEvent, (self.event_id, self.task, self.core, self.start,
                             self.end, self.exit_id, self.data_ready,
                             self.param_objects, self.inputs, self.produced))


@dataclass
class SimResult:
    """Outcome of one scheduling simulation."""

    total_cycles: int
    finished: bool
    trace: List[TraceEvent]
    core_busy: Dict[int, int]
    invocations: Dict[str, int]
    #: fraction of core-time spent busy — the paper's fallback metric for
    #: profiles that do not terminate
    utilization: float

    def events_on_core(self, core: int) -> List[TraceEvent]:
        return sorted(
            (e for e in self.trace if e.core == core), key=lambda e: e.start
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

    __slots__ = ("params", "nparams", "guards", "func", "has_exits",
                 "fallback_exit")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData,
                 task: str):
        self.params = tuple(compiled.info.task_info(task).decl.params)
        self.nparams = len(self.params)
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

    Heap events are flat 7-slot tuples ``(time, seq, kind, core, task,
    param_index, entry)`` — ``(time, seq)`` is unique, so the trailing
    payload slots never participate in heap comparisons. ``kind`` is
    :data:`_EV_ARRIVE` or :data:`_EV_KICK`; kicks carry
    ``(core, None, 0, None)``.
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
        self._core_list = layout.cores_used()

        self._events: List[tuple] = []
        self._seq = 0
        self._next_obj_id = 0
        self._next_event_id = 0
        self.busy_until: Dict[int, int] = {
            core: _INIT for core in self._core_list
        }
        self.core_busy: Dict[int, int] = {core: 0 for core in self._core_list}
        self.ready: Dict[int, Deque[List[QueueEntry]]] = {}
        sets: Dict[Tuple[int, str], List[Deque[QueueEntry]]] = {}
        tables_rec = self.tables.rec
        for core in self._core_list:
            self.ready[core] = deque()
            for task in layout.tasks_on_core(core):
                sets[(core, task)] = [
                    deque() for _ in range(tables_rec(task).nparams)
                ]
        self._sets = sets
        self._ready_task: Dict[int, Deque[str]] = {
            core: deque() for core in self._core_list
        }
        self._rr_state: Dict[Tuple[int, str], int] = {}
        self._alloc_carry: Dict[Tuple[str, int, int], float] = {}
        self.trace: List[TraceEvent] = []
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
        self._route(startup, None, _INIT, None)

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
        ready_task = self._ready_task
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
            time, _, kind, core, task, param_index, entry = pop(events)
            last_time = time
            if kind:
                dispatch(core, time)
            else:
                sets[(core, task)][param_index].append(entry)
                try_form(core, task, time)
                if ready_task[core] and busy_until[core] <= time:
                    self._seq = s = self._seq + 1
                    push(events, (time, s, _EV_KICK, core, None, 0, None))
        return finished, last_time, processed

    # -- invocation formation -----------------------------------------------------

    def _try_form(self, core: int, task: str, time: int) -> None:
        sets = self._sets[(core, task)]
        if len(sets) == 1:
            pending = sets[0]
            if pending:
                ready = self.ready[core]
                ready_task = self._ready_task[core]
                while pending:
                    ready.append([pending.popleft()])
                    ready_task.append(task)
            return
        params = self.tables.rec(task).params
        while all(sets):
            combo = self._pop_compatible(params, sets)
            if combo is None:
                return
            self.ready[core].append(combo)
            self._ready_task[core].append(task)

    @staticmethod
    def _pop_compatible(
        params, sets: List[Deque[QueueEntry]]
    ) -> Optional[List[QueueEntry]]:
        shared = None
        for param in params:
            bindings = {g.binding for g in param.tag_guards}
            shared = bindings if shared is None else shared & bindings
        need_tag_match = bool(shared)

        def match(combo: List[QueueEntry]) -> bool:
            if not need_tag_match:
                return True
            keys = {entry.obj.tag_key for entry in combo}
            return len(keys) == 1 and None not in keys

        def search(index: int, chosen: List[QueueEntry]):
            if index == len(sets):
                return list(chosen) if match(chosen) else None
            for entry in sets[index]:
                chosen.append(entry)
                found = search(index + 1, chosen)
                chosen.pop()
                if found is not None:
                    return found
            return None

        combo = search(0, [])
        if combo is None:
            return None
        for bucket, entry in zip(sets, combo):
            bucket.remove(entry)
        return combo

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, core: int, time: int) -> None:
        busy_until = self.busy_until
        if busy_until[core] > time:
            return
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
            self._try_form(core, candidate_task, time)
        if combo is None:
            return

        data_ready = max(entry.arrived_at for entry in combo)
        start = time if time > busy_until[core] else busy_until[core]
        if rec.has_exits:
            exit_id = self.chooser.choose(task, combo[0].obj.obj_id)
            duration = tables.duration(task, exit_id, core, True)
        else:
            exit_id = rec.fallback_exit
            duration = tables.duration(task, -1, core, False)
        end = start + duration

        event_id = self._next_event_id
        self._next_event_id = event_id + 1
        event = TraceEvent(
            event_id,
            task,
            core,
            start,
            end,
            exit_id,
            data_ready,
            [entry.obj.obj_id for entry in combo],
            [
                (
                    entry.producer_event,
                    entry.arrived_at - start
                    if entry.arrived_at > start
                    else 0,
                )
                for entry in combo
            ],
            [],
        )
        self.trace.append(event)
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
        if alloc_plan:
            carry_map = self._alloc_carry
            produced = event.produced
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

        events = self._events
        self._seq = s = self._seq + 1
        heapq.heappush(events, (end, s, _EV_KICK, core, None, 0, None))
        ready_map = self.ready
        for other in self._core_list:
            if other != core and ready_map[other] and busy_until[other] <= end:
                self._seq = s = self._seq + 1
                heapq.heappush(events, (end, s, _EV_KICK, other, None, 0, None))

    # -- routing --------------------------------------------------------------------

    def _route(
        self,
        obj: SimObject,
        sender: Optional[int],
        time: int,
        producer_event: Optional[int],
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

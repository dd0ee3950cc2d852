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

* :class:`SimSession` — a reusable session that shares the per-program
  lookup tables across simulations; every call is one full simulation.
* :func:`simulate` — simulate one layout once: a fresh session's first
  simulation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter_ns as _perf_counter_ns
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram

from ..analysis.astate import AState
from ..ir import costs
from ..obs import prof
from ..runtime.profiler import ProfileData
from ..schedule.layout import (
    Layout,
    common_tag_binding,
    core_speed,
    match_consumers,
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

_INIT = costs.RUNTIME_INIT_COST
_ENQUEUE = costs.ENQUEUE_COST
_MSG_SEND = costs.MSG_SEND_COST
_HOP = costs.HOP_COST
_MSG_WORD = costs.MSG_WORD_COST


class SimObject:
    """An abstract object: identity, state id (its class and abstract
    state, see :class:`_ProgramTables`), optional tag key. A queued object
    is the entry ``(object, arrived_at, producer_event)``, where
    ``producer_event`` is the trace event that produced it (-1 for none)."""

    __slots__ = ("obj_id", "state", "tag_key")

    def __init__(self, obj_id: int, state: int, tag_key: Optional[int] = None):
        self.obj_id = obj_id
        self.state = state
        self.tag_key = tag_key


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
    #: per parameter: the event that produced the object, None for none
    producers: List[Optional[int]] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return self.end - self.start


#: The columns of a :class:`SimTrace`, in constructor and pickle order.
_TRACE_COLUMNS = (
    "task", "core", "start", "end", "exit_id", "data_ready",
    "producer", "param_end",
)


class SimTrace:
    """The simulated invocations of one run, stored one list per field.

    Event ``i`` is index ``i`` of the per-invocation columns ``task``,
    ``core``, ``start``, ``end``, ``exit_id`` and ``data_ready``. Its
    parameters are entries ``param_end[i - 1]`` (0 for the first event)
    up to ``param_end[i]`` of ``producer``, the event that produced each
    parameter object (-1 for none). The engine appends in dispatch order,
    so ``start`` never decreases along the trace and each core's events
    appear in start order.

    ``len``, ``trace[i]``, iteration and ``==`` behave as on a list of
    :class:`TraceEvent`, which ``trace[i]`` builds on demand. A trace
    pickles as its eight lists.
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
        """Builds a trace from :class:`TraceEvent`s numbered from 0."""
        trace = cls()
        for index, event in enumerate(events):
            if event.event_id != index:
                raise ValueError(f"event {index} has event_id {event.event_id}")
            trace.task.append(event.task)
            trace.core.append(event.core)
            trace.start.append(event.start)
            trace.end.append(event.end)
            trace.exit_id.append(event.exit_id)
            trace.data_ready.append(event.data_ready)
            trace.producer.extend(
                -1 if producer is None else producer
                for producer in event.producers
            )
            trace.param_end.append(len(trace.producer))
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
        return TraceEvent(
            index,
            self.task[index],
            self.core[index],
            self.start[index],
            self.end[index],
            self.exit_id[index],
            self.data_ready[index],
            [
                None if producer < 0 else producer
                for producer in self.producer[low:self.param_end[index]]
            ],
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


def check_policies(
    hints: Optional[Dict[str, str]] = None, exit_policy: str = "sequence"
) -> None:
    """Raises ``ValueError`` naming an exit policy or a hint policy the
    simulator does not know: :class:`ExitChooser` runs ``"sequence"`` or
    ``"counts"``, and ``"per_object"`` is the one hint (§4.4)."""
    if exit_policy not in ("sequence", "counts"):
        raise ValueError(
            f"unknown exit policy {exit_policy!r}: expected 'sequence' or 'counts'"
        )
    for task, policy in (hints or {}).items():
        if policy != "per_object":
            raise ValueError(
                f"unknown hint policy {policy!r} for task {task!r}: "
                "expected 'per_object'"
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
        check_policies(hints, policy)
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

    __slots__ = ("name", "index", "nparams", "tag_match", "accepts", "func",
                 "has_exits", "fixed_exit", "exits")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData,
                 task: str, index: int):
        decl = compiled.info.task_info(task).decl
        self.name = task
        #: position in task-name order; indexes a layout's destination table
        self.index = index
        self.nparams = len(decl.params)
        #: every parameter binds one shared tag, so an invocation's objects
        #: must all carry the same tag key
        self.tag_match = common_tag_binding(decl) is not None
        #: per parameter: the state ids whose state satisfies its guard
        self.accepts: Tuple[Set[int], ...] = tuple(set() for _ in decl.params)
        self.func = compiled.ir_program.tasks[task]
        exit_ids = profile.exit_ids(task)
        self.has_exits = bool(exit_ids)
        #: the exit every invocation takes, or None when the ExitChooser
        #: picks among several profiled exits
        self.fixed_exit: Optional[int] = None
        if len(exit_ids) == 1:
            self.fixed_exit = exit_ids[0]
        elif not exit_ids:
            # The profiled run never invoked this task (e.g. it lost every
            # race for its objects). Fall back to the static exit table —
            # the lowest explicit exit — so the simulated object still
            # transitions.
            self.fixed_exit = min(
                (e for e in self.func.exits if e != 0), default=0
            )
        #: exit id -> _ExitRec, filled as exits are first taken
        self.exits: Dict[int, "_ExitRec"] = {}


class _ExitRec:
    """Everything one (task, exit) dispatch needs, built when the exit is
    first taken."""

    __slots__ = ("base", "cycles", "spec", "steps", "allocs")

    def __init__(self, base: int, spec, nparams: int, allocs: tuple):
        #: cycles at speed 1.0; ``cycles`` memoizes them per core
        self.base = base
        self.cycles: Dict[int, int] = {}
        self.spec = spec
        #: per parameter: {state id -> (new state id, tag_mode)} where
        #: tag_mode 0 leaves tag_key alone, 1 sets it to the invocation's
        #: event id, 2 clears it (the last tag removal zeroed the count);
        #: None when the task's exit table has no such exit
        self.steps = None if spec is None else tuple({} for _ in range(nparams))
        #: per allocation site: (carry slot, expected count, state id,
        #: tagged with the invocation's key)
        self.allocs = allocs


def _transition(spec, param_index: int, state: AState) -> Tuple[AState, int]:
    """Replays one exit's flag/tag actions for one parameter; memoized in
    :attr:`_ExitRec.steps` since the outcome depends only on the input state."""
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

    Every (class, abstract state) pair gets a dense int id the first time
    it appears; simulated objects carry that id. Per id the tables hold
    the consumers (from :func:`~repro.schedule.layout.match_consumers`)
    and the message cost of the object's words, and each consumer's
    :attr:`_TaskRec.accepts` records the id, which is the guard result
    the dispatch re-checks. Everything here is a pure function of the
    program and profile, so sharing the tables cannot change results.
    """

    __slots__ = ("compiled", "info", "profile", "core_speeds", "recs",
                 "_ids", "states", "consumers", "words", "_carry_slots")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData,
                 core_speeds: Optional[Dict[int, float]] = None):
        self.compiled = compiled
        self.info = compiled.info
        self.profile = profile
        self.core_speeds = core_speeds
        self.recs: Dict[str, _TaskRec] = {
            task: _TaskRec(compiled, profile, task, index)
            for index, task in enumerate(sorted(self.info.tasks))
        }
        self._ids: Dict[Tuple[str, AState], int] = {}
        #: per state id: (class, abstract state)
        self.states: List[Tuple[str, AState]] = []
        #: per state id: the (task record, param_index) pairs it satisfies
        self.consumers: List[Tuple[Tuple[_TaskRec, int], ...]] = []
        #: per state id: the word cost of sending the object to another core
        self.words: List[int] = []
        self._carry_slots = 0

    def state_id(self, class_name: str, state: AState) -> int:
        key = (class_name, state)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.states)
            self.states.append(key)
            consumers = tuple(
                (self.recs[task], param_index)
                for task, param_index in match_consumers(
                    self.info, class_name, state
                )
            )
            for rec, param_index in consumers:
                rec.accepts[param_index].add(sid)
            self.consumers.append(consumers)
            self.words.append(
                _MSG_WORD * len(self.info.class_info(class_name).fields)
            )
        return sid

    def exit_rec(self, rec: _TaskRec, exit_id: int) -> _ExitRec:
        if rec.has_exits:
            base = max(1, int(round(self.profile.avg_cycles(rec.name, exit_id))))
        else:
            base = UNPROFILED_TASK_CYCLES
        allocs = []
        for site_id, avg in sorted(
            self.profile.avg_allocs(rec.name, exit_id).items()
        ):
            site = self.compiled.ir_program.alloc_sites.get(site_id)
            if site is None:
                continue
            flags = [f for f, v in site.flag_inits.items() if v]
            tags = {t: 1 for t in site.tag_types}
            sid = self.state_id(site.class_name, AState.make(flags, tags))
            allocs.append((self._carry_slots, avg, sid, bool(site.tag_types)))
            self._carry_slots += 1
        exit_rec = _ExitRec(
            base, rec.func.exits.get(exit_id), rec.nparams, tuple(allocs)
        )
        rec.exits[exit_id] = exit_rec
        return exit_rec

    def step(self, exit_rec: _ExitRec, param_index: int, sid: int) -> Tuple[int, int]:
        class_name, state = self.states[sid]
        new_state, mode = _transition(exit_rec.spec, param_index, state)
        step = (self.state_id(class_name, new_state), mode)
        exit_rec.steps[param_index][sid] = step
        return step


@lru_cache(maxsize=8)
def _link_costs(num_cores: int, mesh_width: int, topology: str) -> tuple:
    """``[sender][dest]``: the cost of a message between two cores apart
    from the object's words, built once per process for each network
    shape (a per-session table would tax every fresh daemon session)."""
    hops = Layout(num_cores, mesh_width, (), topology).hops
    return tuple(
        tuple(_MSG_SEND + hops(a, b) * _HOP + _ENQUEUE for b in range(num_cores))
        for a in range(num_cores)
    )


#: Larger machines get a per-layout table over the cores in use, so no
#: request can make the process build a table quadratic in its core count.
_SHARED_LINK_CORES = 256


def _layout_links(layout: Layout):
    if layout.num_cores <= _SHARED_LINK_CORES:
        return _link_costs(layout.num_cores, layout.mesh_width, layout.topology)
    cores = layout.cores_used()
    return {
        a: {b: _MSG_SEND + layout.hops(a, b) * _HOP + _ENQUEUE for b in cores}
        for a in cores
    }


# -- the engine ----------------------------------------------------------------


class _SimEngine:
    """One discrete-event simulation of one layout.

    Pending events sit in one list per time, in the order they were
    scheduled, under a heap of the distinct pending times; the loop runs
    each time's list to its end before popping the next time. Events are
    flat 5-tuples ``(core, rec, slot, param_index, entry)``. An arrival
    carries the destination core, the consuming task's record, the
    destination instance's parameter sets (None for a one-parameter
    task, whose arrivals go straight to the ready queue), the parameter
    index and the queue entry ``(object, arrived_at, producer_event)``.
    A wake-up has ``rec`` None, its core in the first slot, its visit
    count in ``slot`` and, in ``param_index``, the trace length when it
    was scheduled (its stamp).

    A dispatch schedules one wake-up at its end time. The wake-up visits
    the dispatching core, then every other core that was waiting (had
    queued work) and would be free by then when it was scheduled, in
    ascending order, and each visit counts as one processed event against
    ``max_events``. So the wake-up stores the number of its visits (a
    bisect of ``_free_order``) and its stamp, not the list. A listed core
    starts only if it waits and is free when the wake-up runs. Because
    ``busy_until`` only grows, a core that waits and is free then was
    listed exactly when it was waiting at the stamp, which ``_waits``
    records; the wake-up finds such cores in the prefix of
    ``_free_order``, and rebuilds its list only when the budget ends
    inside it. An arrival that finds its core idle with work schedules a
    one-core wake-up at the current time, which joins the end of the list
    being run.
    """

    def __init__(
        self,
        layout: Layout,
        tables: _ProgramTables,
        hints: Optional[Dict[str, str]] = None,
        max_events: int = 2_000_000,
        exit_policy: str = "sequence",
    ):
        layout.validate(tables.info)
        self.tables = tables
        self.max_events = max_events
        self.chooser = ExitChooser(tables.profile, hints, exit_policy)
        self._links = _layout_links(layout)
        core_list = layout.cores_used()

        #: the distinct times that have events pending, as a heap
        self._times: List[int] = []
        #: per pending time: its events, in scheduling order
        self._due: Dict[int, list] = {}
        self._next_obj_id = 0
        self.busy_until: Dict[int, int] = {
            core: _INIT for core in core_list
        }
        self.core_busy: Dict[int, int] = {core: 0 for core in core_list}
        #: per core: (task record, entries, parameter sets) invocations
        self.ready: Dict[int, Deque[tuple]] = {core: deque() for core in core_list}
        #: per task record index: (cores, per-core parameter sets)
        self._dests: List[tuple] = [None] * len(tables.recs)
        for task, cores in layout.instances:
            rec = tables.recs[task]
            self._dests[rec.index] = (cores, tuple(
                [deque() for _ in range(rec.nparams)] if rec.nparams > 1 else None
                for _ in cores
            ))
        #: cores whose ready queue is nonempty
        self._waiting: Set[int] = set()
        #: the waiting cores as sorted keys ``busy_until * _stride + core``:
        #: those free by time ``t`` are the keys below ``(t + 1) * _stride``
        self._stride = layout.num_cores
        self._free_order: List[int] = []
        #: per core: the trace lengths at which it joined and left
        #: ``_waiting``, alternately, so it waits now when the count is odd
        self._waits: Dict[int, List[int]] = {core: [] for core in core_list}
        self._rr_state: Dict[Tuple[int, int], int] = {}
        self._alloc_carry: Dict[int, float] = {}
        self.trace = SimTrace()

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimResult:
        startup = SimObject(
            self._next_obj_id,
            self.tables.state_id(
                builtins.STARTUP_CLASS, AState.make([builtins.STARTUP_FLAG])
            ),
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
            invocations=dict(Counter(self.trace.task)),
            utilization=utilization,
        )

    def _drain(self) -> Tuple[bool, int, int]:
        """The event loop: returns ``(finished, last_time, processed)``,
        where ``last_time`` is the time of the last event the budget let
        start."""
        times = self._times
        due = self._due
        max_events = self.max_events
        ready = self.ready
        waiting = self._waiting
        busy_until = self.busy_until
        free_order = self._free_order
        waits = self._waits
        stride = self._stride
        join = self._join
        dispatch = self._dispatch
        try_form = self._try_form
        processed = 0
        last_time = _INIT
        while times:
            time = times[0]
            batch = due[time]
            # Wake-ups scheduled for ``time`` while the batch runs join
            # its end, and the loop reaches them.
            for target, rec, slot, param_index, entry in batch:
                processed += 1
                if processed > max_events:
                    return False, last_time, processed
                last_time = time
                if rec is not None:
                    # An arrival; a core it leaves idle with work gets a
                    # one-core wake-up.
                    if slot is None:
                        ready[target].append((rec, (entry,), None))
                        if target not in waiting:
                            join(target)
                        if busy_until[target] <= time:
                            batch.append((target, None, 1, 0, None))
                    else:
                        slot[param_index].append(entry)
                        try_form(target, rec, slot)
                        if target in waiting and busy_until[target] <= time:
                            batch.append((target, None, 1, 0, None))
                    continue
                if target in waiting and busy_until[target] <= time:
                    dispatch(target, time)
                if slot == 1:
                    continue
                # Every core after the first is one more processed event,
                # so the budget can run out partway through a wake-up.
                if processed + slot - 1 > max_events:
                    listed = self._listed(target, time, param_index)
                    for core in listed[:max_events - processed]:
                        if core in waiting and busy_until[core] <= time:
                            dispatch(core, time)
                    return False, last_time, max_events + 1
                processed += slot - 1
                limit = (time + 1) * stride
                if not free_order or free_order[0] >= limit:
                    continue
                # The waiting cores free now that were waiting at the
                # stamp; starting one changes no other core's state.
                stamp = param_index
                others = []
                for key in free_order[:bisect_left(free_order, limit)]:
                    core = key % stride
                    if core != target and bisect_left(waits[core], stamp) & 1:
                        others.append(core)
                others.sort()
                for core in others:
                    dispatch(core, time)
            heapq.heappop(times)
            del due[time]
        return True, last_time, processed

    def _listed(self, core: int, time: int, stamp: int) -> List[int]:
        """The cores after ``core`` that a wake-up for ``time`` scheduled
        at ``stamp`` visits, rebuilt from the trace: those that were
        waiting then and free by ``time``, in ascending order."""
        busy = dict.fromkeys(self.busy_until, _INIT)
        trace = self.trace
        for index in range(stamp):
            busy[trace.core[index]] = trace.end[index]
        return [
            other for other in sorted(busy)
            if other != core and busy[other] <= time
            and bisect_left(self._waits[other], stamp) & 1
        ]

    def _join(self, core: int) -> None:
        """Adds ``core``, whose ready queue just became nonempty, to the
        waiting cores."""
        self._waiting.add(core)
        insort(self._free_order, self.busy_until[core] * self._stride + core)
        self._waits[core].append(len(self.trace.task))

    # -- invocation formation -----------------------------------------------------

    def _try_form(self, core: int, rec: _TaskRec, slot: List[deque]) -> None:
        """Moves every invocation ``slot``'s parameter sets can form to
        ``core``'s ready queue."""
        tag_match = rec.tag_match
        while all(slot):
            combo = self._pop_compatible(slot, tag_match)
            if combo is None:
                return
            self.ready[core].append((rec, combo, slot))
            if core not in self._waiting:
                self._join(core)

    @staticmethod
    def _pop_compatible(sets: List[deque], tag_match: bool) -> Optional[list]:
        """Pops one entry per parameter set, the earliest in FIFO order.

        With ``tag_match`` every entry must carry the same tag key: the
        earliest entry of the first set whose key appears in every other
        set wins, paired with the earliest holder of that key in each.
        """
        if not tag_match:
            return [bucket.popleft() for bucket in sets]
        for first in sets[0]:
            key = first[0].tag_key
            if key is None:
                continue
            combo = [first]
            for bucket in sets[1:]:
                for entry in bucket:
                    if entry[0].tag_key == key:
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
        ready = self.ready[core]
        while ready:
            rec, combo, slot = ready.popleft()
            if rec.nparams == 1:
                if combo[0][0].state in rec.accepts[0]:
                    break
            else:
                for entry, accepts in zip(combo, rec.accepts):
                    if entry[0].state not in accepts:
                        break
                else:
                    break  # every object still satisfies its parameter's guard
            self._requeue_stale(core, time, rec, combo, slot)
        else:
            rec = None  # every ready invocation was stale
        trace = self.trace
        event_id = len(trace.task)
        busy_until = self.busy_until
        stride = self._stride
        free_order = self._free_order
        # The core leaves its place in the free order: it is busy until a
        # new time, or it waits no more.
        del free_order[bisect_left(free_order, busy_until[core] * stride + core)]
        if not ready:
            # Stamped before this dispatch's own event, so its wake-up
            # counts the core out.
            self._waiting.discard(core)
            self._waits[core].append(event_id)
            if rec is None:
                return

        tables = self.tables
        task = rec.name
        exit_id = rec.fixed_exit
        if exit_id is None:
            exit_id = self.chooser.choose(task, combo[0][0].obj_id)
        exit_rec = rec.exits.get(exit_id) or tables.exit_rec(rec, exit_id)
        duration = exit_rec.cycles.get(core)
        if duration is None:
            duration = exit_rec.cycles[core] = scale_duration(
                exit_rec.base, core_speed(tables.core_speeds, core)
            )
        start = time
        end = start + duration
        busy_until[core] = end
        if ready:
            insort(free_order, end * stride + core)

        trace.task.append(task)
        trace.core.append(core)
        trace.start.append(start)
        trace.end.append(end)
        trace.exit_id.append(exit_id)
        producer = trace.producer
        data_ready = 0
        for _, arrived, producer_event in combo:
            producer.append(producer_event)
            if arrived > data_ready:
                data_ready = arrived
        trace.data_ready.append(data_ready)
        trace.param_end.append(len(producer))
        self.core_busy[core] += duration

        # Transition parameter objects per the exit's flag/tag actions.
        route = self._route
        steps = exit_rec.steps
        if steps is None:
            for entry in combo:
                route(entry[0], core, end, event_id)
        else:
            for param_index, entry in enumerate(combo):
                obj = entry[0]
                step = steps[param_index].get(obj.state)
                if step is None:
                    step = tables.step(exit_rec, param_index, obj.state)
                obj.state, tag_mode = step
                if tag_mode:
                    obj.tag_key = event_id if tag_mode == 1 else None
                route(obj, core, end, event_id)

        # Allocate new objects per the profile's expectations.
        if exit_rec.allocs:
            carry_map = self._alloc_carry
            for carry_slot, avg, state, has_tags in exit_rec.allocs:
                carry = carry_map.get(carry_slot, 0.0) + avg
                emit = int(carry)
                carry_map[carry_slot] = carry - emit
                if emit:
                    tag_key = event_id if has_tags else None
                    next_id = self._next_obj_id
                    self._next_obj_id = next_id + emit
                    for obj_id in range(next_id, next_id + emit):
                        route(SimObject(obj_id, state, tag_key), core, end,
                              event_id)

        # One wake-up at ``end``: this core, then every other waiting core
        # free by then. This core's own key, when it still waits, is one
        # of the keys below the limit.
        listed = bisect_left(free_order, (end + 1) * stride) - (1 if ready else 0)
        wakeup = (core, None, listed + 1, event_id + 1, None)
        bucket = self._due.get(end)
        if bucket is None:
            self._due[end] = [wakeup]
            heapq.heappush(self._times, end)
        else:
            bucket.append(wakeup)

    def _requeue_stale(self, core: int, time: int, rec: _TaskRec,
                       combo, slot) -> None:
        """Mirrors the runtime for an invocation whose objects changed state
        while it was queued: drops it, puts the still-valid objects back in
        their sets and re-routes the stale ones by their current state."""
        for index, entry in enumerate(combo):
            if entry[0].state in rec.accepts[index]:
                slot[index].appendleft(entry)
            else:
                self._route(entry[0], core, time, entry[2])
        if slot is not None:
            self._try_form(core, rec, slot)

    # -- routing --------------------------------------------------------------------

    def _route(
        self,
        obj: SimObject,
        sender: Optional[int],
        time: int,
        producer_event: int,
    ) -> None:
        tables = self.tables
        consumers = tables.consumers[obj.state]
        if not consumers:
            return
        dests = self._dests
        rr_state = self._rr_state
        due = self._due
        links = None if sender is None else self._links[sender]
        for rec, param_index in consumers:
            cores, slots = dests[rec.index]
            count = len(cores)
            if count == 1:
                index = 0
            elif obj.tag_key is not None and rec.nparams > 1:
                index = obj.tag_key % count
            else:
                # Round-robin, staggered by sender so co-located producers
                # don't all hammer the same replica first (Router.pick_core
                # semantics, inlined).
                origin = sender if sender is not None else 0
                key = (origin, rec.index)
                turn = rr_state.get(key)
                if turn is None:
                    turn = (
                        cores.index(origin)
                        if origin in cores
                        else origin % count
                    )
                rr_state[key] = turn + 1
                index = turn % count
            dest = cores[index]
            if links is None:
                arrived = time
            elif dest == sender:
                arrived = time + _ENQUEUE
            else:
                arrived = time + links[dest] + tables.words[obj.state]
            event = (dest, rec, slots[index], param_index,
                     (obj, arrived, producer_event))
            bucket = due.get(arrived)
            if bucket is None:
                due[arrived] = [event]
                heapq.heappush(self._times, arrived)
            else:
                bucket.append(event)


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
        check_policies(hints, exit_policy)
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
            layout,
            self.tables,
            hints=self.hints,
            max_events=self.max_events,
            exit_policy=self.exit_policy,
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
    return SimSession(
        compiled,
        profile,
        hints=hints,
        core_speeds=core_speeds,
        exit_policy=exit_policy,
        max_events=max_events,
    ).simulate(layout)

"""Deterministic discrete-event many-core machine (TILEPro64 substitute).

The machine executes a compiled Bamboo program under a given layout: each
core runs the distributed scheduler of :mod:`repro.runtime.scheduler`, task
bodies execute through the IR interpreter (charging cycle costs from
:mod:`repro.ir.costs`), and inter-core object transfers pay mesh-distance
message latencies. Virtual time is advanced by a single event queue, so the
simulation is exact and reproducible — the role real silicon plays in the
paper, minus the nondeterminism.

Faithfulness notes:

* A task's effects (flag updates, tag rebinding, lock-group merges, and the
  routing of parameter/new objects) commit at the invocation's *completion*
  time; other cores observing flags mid-execution see pre-transition state,
  exactly as with commit-at-end locking on hardware.
* Locks are all-or-nothing at dispatch; a core that cannot lock simply runs
  a different invocation (tasks never abort, §4.7).
* The optional centralized-scheduler mode serializes every dispatch through
  one scheduling bottleneck — the comparison of §4.6.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.astate import AState, state_of_object
from ..ir import costs
from ..lang.errors import ScheduleError
from ..obs import prof
from ..obs.events import (
    Event,
    LockAcquire,
    LockFail,
    MailRecv,
    MailSend,
    TaskCommit,
    TaskDispatch,
    Tracer,
)
from ..schedule.layout import (
    Layout,
    Router,
    common_tag_binding,
    core_speed,
    scale_duration,
)
from .interp import Interpreter, TaskEffects, make_startup_object
from .objects import BObject, Heap
from .profiler import ProfileData
from .scheduler import CoreScheduler, Invocation, LockManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fault.plan import FaultPlan
    from ..fault.stats import RecoveryStats
    from ..resilience.config import ResilienceConfig
    from ..resilience.watchdog import QuarantineRecord

#: Profiler phase of the task bodies, so a profiled run splits into
#: interpreter time and the machine's own (its parent phase's self time).
_P_INTERP = prof.intern_phase("runtime.interp")

#: Event kinds that are bookkeeping rather than machine activity: they
#: never extend the run's total cycle count.
_SILENT_KINDS = frozenset({"fault", "hb", "monitor", "watchdog"})
#: Event kinds that represent outstanding real work; the resilience
#: machinery keeps its heartbeat/monitor loop armed while any remain.
_REAL_KINDS = frozenset({"arrive", "kick", "complete", "fault"})


@dataclass
class MachineConfig:
    """Tunables for one machine run."""

    centralized_scheduler: bool = False
    #: charge the optional per-access array bounds checks (paper §5.5)
    bounds_checks: bool = False
    #: per-core relative speeds (heterogeneous cores, §4.6 extension);
    #: missing cores default to 1.0
    core_speeds: Optional[Dict[int, float]] = None
    #: injected faults (:mod:`repro.fault`); None means no fault machinery
    #: is installed and the run is bit-identical to one without this field
    fault_plan: Optional["FaultPlan"] = None
    #: detection-driven resilience (:mod:`repro.resilience`): heartbeats,
    #: missed-beat failure detection, watchdog deadlines, retry/backoff,
    #: and poison quarantine; None installs nothing and the run is
    #: bit-identical to one without this field
    resilience: Optional["ResilienceConfig"] = None
    #: assert the termination invariant (no locks held, no queued
    #: invocations on live cores) at end of run
    validate: bool = False
    #: full observability (:mod:`repro.obs`): collect the typed event
    #: stream on ``MachineResult.events`` and derive the metrics snapshot
    #: (utilization, queue depths, latency histograms, machine-checked
    #: cycle accounting) on ``MachineResult.metrics``. Off by default —
    #: ``observe`` is the only config flag that allocates per event; with
    #: it off the run is bit-identical to one without this machinery.
    observe: bool = False
    max_invocations: int = 5_000_000
    max_events: int = 20_000_000
    interp_max_steps: int = 2_000_000_000


@dataclass
class MachineResult:
    """Outcome of a machine run."""

    total_cycles: int
    core_busy: Dict[int, int]
    invocations: Dict[str, int]
    exit_counts: Dict[Tuple[str, int], int]
    messages: int
    retired_objects: int
    stale_invocations: int
    lock_failures: int
    stdout: str
    profile: Optional[ProfileData] = None
    #: fault-handling telemetry; present iff a fault plan or resilience
    #: config was installed
    recovery: Optional["RecoveryStats"] = None
    #: typed event stream (only with ``MachineConfig.observe``)
    events: Optional[List[Event]] = None
    #: metrics snapshot derived from the event stream, including the
    #: machine-checked cycle accounting (only with ``observe``)
    metrics: Optional[Dict[str, object]] = None
    #: dead-letter queue of poison (task, object-group) pairs; present iff
    #: resilience was enabled
    quarantined: Optional[List["QuarantineRecord"]] = None
    #: cycle at which each crashed core died (empty on fault-free runs);
    #: used to keep utilization honest about dead cores
    core_death_cycles: Optional[Dict[int, int]] = None

    def busy_fraction(self) -> float:
        """Mean core utilization over each core's *live* window.

        A crashed core stops accruing busy cycles at its death, so its
        post-crash cycles must not dilute the denominator: each core
        contributes only the cycles it was alive for.
        """
        if not self.core_busy or self.total_cycles == 0:
            return 0.0
        deaths = self.core_death_cycles or {}
        live_window = 0
        for core in self.core_busy:
            live_window += min(deaths.get(core, self.total_cycles), self.total_cycles)
        if live_window == 0:
            return 0.0
        return sum(self.core_busy.values()) / live_window


@dataclass
class _Commit:
    """Deferred effects of a running invocation."""

    invocation: Invocation
    effects: TaskEffects
    flag_updates: Dict[int, Dict[str, bool]]
    routes: List[Tuple[BObject, str, int, int, int]]
    # (object, task, param_index, dest core, extra latency)
    #: dispatch-time state of everything the task can write, for crash
    #: rollback (captured only when a fault plan is installed)
    snapshot: Optional[list] = None
    #: output the task produced, published at commit (fault runs only —
    #: a dropped commit must not leave output behind)
    output: Optional[str] = None


class ManyCoreMachine:
    """Runs one compiled program + layout to completion in virtual time."""

    def __init__(
        self,
        compiled,
        layout: Layout,
        config: Optional[MachineConfig] = None,
        collect_profile: bool = False,
    ):
        layout.validate(compiled.info)
        self.compiled = compiled
        self.info = compiled.info
        self.ir_program = compiled.ir_program
        self.lock_plan = compiled.lock_plan
        self.layout = layout
        self.config = config or MachineConfig()
        self.collect_profile = collect_profile

        self.heap = Heap()
        self.interp = Interpreter(
            self.ir_program,
            self.info,
            self.heap,
            max_steps=self.config.interp_max_steps,
            bounds_checks=self.config.bounds_checks,
        )
        self.router = Router(self.info, layout)
        self.locks = LockManager()
        self.schedulers: Dict[int, CoreScheduler] = {}
        for core in layout.cores_used():
            self.schedulers[core] = CoreScheduler(
                core, self.info, layout.tasks_on_core(core)
            )
        self.busy_until: Dict[int, int] = {
            core: costs.RUNTIME_INIT_COST for core in layout.cores_used()
        }
        self._events: List[Tuple[int, int, str, tuple]] = []
        self._seq = 0
        self._rr_state: Dict[Tuple[int, str], int] = {}
        self._sched_clock = 0  # centralized-scheduler serialization point
        self._commits: Dict[int, _Commit] = {}
        self._commit_id = 0

        # Fault machinery — installed only when a plan or a resilience
        # config is present, so a plain run takes exactly the code paths it
        # always did.
        self.dead_cores: Set[int] = set()
        #: silently crashed cores (halted but not yet discovered by the
        #: failure detector); in oracle mode halt and detection coincide
        self.halted_cores: Set[int] = set()
        #: live cores the detector evicted on a false suspicion; they
        #: rejoin when their heartbeat resumes
        self.suspected_cores: Set[int] = set()
        #: cycle at which each core died (or was evicted); rejoins erase
        self.death_cycles: Dict[int, int] = {}
        #: per-core stall horizon (a frozen core cannot emit heartbeats)
        self.stall_until: Dict[int, int] = {}
        #: dead-lettered object ids (shared with every scheduler)
        self.poisoned_ids: Set[int] = set()
        self.quarantined: List = []
        #: set at the first rejoin: a rejoined core is live but delisted
        #: from the (degraded) layout, so pre-eviction mail still in flight
        #: to it must be re-routed on arrival
        self._stale_routing = False
        self._inflight: Dict[int, int] = {}  # core -> pending commit id
        self._link_multiplier = 1.0
        self._real_events = 0
        self.recovery: Optional["RecoveryStats"] = None
        self._fault_engine = None
        self._injector = None
        self._detector = None
        self._watchdog = None
        resilience = self.config.resilience
        self._resilience_on = resilience is not None
        has_faults = bool(
            self.config.fault_plan is not None and self.config.fault_plan.events
        )
        if has_faults or self._resilience_on:
            from ..fault.injector import FaultInjector
            from ..fault.plan import FaultError
            from ..fault.recovery import RecoveryEngine
            from ..fault.stats import RecoveryStats

            if self.config.centralized_scheduler:
                raise FaultError(
                    "fault injection is not supported with the "
                    "centralized scheduler (its core-0 hub cannot fail over)"
                )
            self.recovery = RecoveryStats()
            self._fault_engine = RecoveryEngine(self, self.recovery)
            if has_faults:
                self._injector = FaultInjector(self, self.config.fault_plan)
        if self._resilience_on:
            from ..resilience.detector import FailureDetector
            from ..resilience.watchdog import TaskWatchdog

            resilience.validate()
            self._detector = FailureDetector(
                self, resilience, self._fault_engine, self.recovery
            )
            self._watchdog = TaskWatchdog(self, resilience, self.recovery)
            for scheduler in self.schedulers.values():
                scheduler.poisoned = self.poisoned_ids
        #: typed event collector; None unless observability was
        #: requested — the ``is not None`` guards keep the off path
        #: allocation-free
        self.tracer: Optional[Tracer] = (
            Tracer() if self.config.observe else None
        )

        # statistics
        self.invocation_counts: Dict[str, int] = {}
        self.exit_counts: Dict[Tuple[str, int], int] = {}
        self.messages = 0
        self.retired = 0
        self.stale_invocations = 0
        self.lock_failures = 0
        self.profile = ProfileData() if collect_profile else None

    # -- event plumbing ----------------------------------------------------------

    def _push(self, time: int, kind: str, payload: tuple) -> None:
        self._seq += 1
        if kind in _REAL_KINDS:
            # Heartbeat/monitor/watchdog events re-arm themselves only while
            # real work remains; this counter is how they know.
            self._real_events += 1
        heapq.heappush(self._events, (time, self._seq, kind, payload))

    def _queue_sample(self, core: int, time: int) -> None:
        """Emits a run-queue depth sample for ``core`` (deduplicated by
        the tracer); call after any mutation of a scheduler's ready queue."""
        if self.tracer is not None:
            self.tracer.queue_sample(time, core, len(self.schedulers[core].ready))

    # -- main loop ----------------------------------------------------------------

    def run(self, args: Sequence[str]) -> MachineResult:
        startup = make_startup_object(self.heap, self.info, list(args))
        start_time = costs.RUNTIME_INIT_COST
        self._route_concrete(startup, sender_core=None, time=start_time)
        if self._injector is not None:
            self._injector.install()
        if self._detector is not None:
            self._detector.install(start_time)

        events_processed = 0
        last_time = start_time
        total_invocations = 0
        while self._events:
            time, _, kind, payload = heapq.heappop(self._events)
            if kind in _REAL_KINDS:
                self._real_events -= 1
            if kind not in _SILENT_KINDS:
                # Bookkeeping events (faults, heartbeats, watchdogs) alone
                # are not machine activity: a crash or heartbeat scheduled
                # after quiescence must not extend the run.
                last_time = max(last_time, time)
            events_processed += 1
            if events_processed > self.config.max_events:
                raise ScheduleError("machine event budget exhausted")
            if kind == "arrive":
                core, task, param_index, obj = payload
                if core in self.dead_cores:
                    # The message was in flight when the core died; the
                    # recovery engine forwards it to a survivor.
                    self._fault_engine.redirect_arrival(
                        core, task, param_index, obj, time
                    )
                    continue
                if self._stale_routing and core not in self.layout.cores_of(task):
                    # The core rejoined after a false suspicion, but the
                    # degraded layout no longer lists it for this task;
                    # delivering here would strand the object (its
                    # co-parameters now live on the adopting core).
                    self._fault_engine.redirect_arrival(
                        core, task, param_index, obj, time
                    )
                    continue
                scheduler = self.schedulers[core]
                scheduler.enqueue_object(task, param_index, obj, time)
                if self.tracer is not None:
                    self.tracer.emit(
                        MailRecv(
                            time=time, core=core, task=task,
                            param_index=param_index,
                        )
                    )
                    self._queue_sample(core, time)
                if core in self.halted_cores:
                    # A silently-dead core still receives mail (the sender
                    # cannot know); it piles up until detection migrates it.
                    continue
                if scheduler.has_work():
                    self._kick(core, time)
            elif kind == "kick":
                (core,) = payload
                self._dispatch(core, time)
            elif kind == "complete":
                core, commit_id = payload
                total_invocations += 1
                if total_invocations > self.config.max_invocations:
                    raise ScheduleError("machine invocation budget exhausted")
                self._complete(core, commit_id, time)
            elif kind == "fault":
                (event,) = payload
                if self._detector is not None:
                    self._detector.on_fault(event, time)
                else:
                    self._fault_engine.apply(event, time)
            elif kind == "hb":
                (core,) = payload
                self._detector.on_heartbeat(core, time)
            elif kind == "monitor":
                self._detector.on_monitor(time)
            elif kind == "watchdog":
                core, commit_id = payload
                self._watchdog.on_deadline(core, commit_id, time)
            else:  # pragma: no cover - exhaustive
                raise ScheduleError(f"unknown event kind {kind}")

        if self._fault_engine is not None:
            # Stalls can leave busy_until past the last event on a core
            # with nothing left to run; the program ends with its last
            # arrival/dispatch/commit, not with an idle core's stall tail.
            total = last_time
        else:
            total = max([last_time] + list(self.busy_until.values()))
        busy = {
            core: self.busy_until[core] - costs.RUNTIME_INIT_COST
            for core in self.busy_until
        }
        if self.profile is not None:
            self.profile.run_cycles = total
        if self.config.validate:
            self._assert_quiescent()
        events = self.tracer.events if self.tracer is not None else None
        result = MachineResult(
            total_cycles=total,
            core_busy=busy,
            invocations=dict(self.invocation_counts),
            exit_counts=dict(self.exit_counts),
            messages=self.messages,
            retired_objects=self.retired,
            stale_invocations=self.stale_invocations,
            lock_failures=self.lock_failures,
            stdout=self.interp.output(),
            profile=self.profile,
            recovery=self.recovery,
            quarantined=list(self.quarantined) if self._resilience_on else None,
            core_death_cycles=dict(self.death_cycles) or None,
            events=events,
        )
        if events is not None:
            from ..obs.metrics import build_metrics

            result.metrics = build_metrics(
                events,
                makespan=result.total_cycles,
                core_busy=result.core_busy,
                death_cycles=result.core_death_cycles or {},
                invocations=result.invocations,
                messages=result.messages,
                lock_failures=result.lock_failures,
                busy_fraction=result.busy_fraction(),
            )
        return result

    def _assert_quiescent(self) -> None:
        """The termination invariant: when the event queue drains, no lock
        may still be held and no live core may have runnable work."""
        held = self.locks.held_groups()
        if held:
            raise ScheduleError(
                f"termination invariant violated: {len(held)} lock group(s) "
                f"still held at end of run: {held}"
            )
        for core, scheduler in self.schedulers.items():
            if core in self.dead_cores or core in self.halted_cores:
                continue
            if scheduler.has_work():
                raise ScheduleError(
                    f"termination invariant violated: core {core} still has "
                    f"{len(scheduler.ready)} queued invocation(s) at end of run"
                )

    # -- dispatch ---------------------------------------------------------------------

    def _kick(self, core: int, time: int) -> None:
        ready_at = max(time, self.busy_until.get(core, 0))
        self._push(ready_at, "kick", (core,))

    def _dispatch(self, core: int, time: int) -> None:
        if core in self.dead_cores or core in self.halted_cores:
            return  # crashed (or silently halted); survivors take the work
        if self.busy_until[core] > time:
            return  # busy; the completion handler re-kicks
        scheduler = self.schedulers[core]
        invocation, stale = scheduler.pick_invocation(self.locks)
        if stale:
            self.stale_invocations += len(stale)
            for obj in stale:
                self._route_concrete(obj, sender_core=core, time=time)
        if self.tracer is not None:
            self._queue_sample(core, time)
        if invocation is None:
            if scheduler.has_work():
                self.lock_failures += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        LockFail(
                            time=time, core=core,
                            queued=len(scheduler.ready),
                        )
                    )
            return

        start = time
        if self.config.centralized_scheduler:
            # Every dispatch serializes through the central scheduler on
            # core 0 and pays the request/response round trip to it (§4.6).
            round_trip = 2 * (
                costs.MSG_SEND_COST
                + self.layout.hops(core, 0) * costs.HOP_COST
            )
            slot = max(self._sched_clock, time)
            self._sched_clock = slot + costs.DISPATCH_COST + round_trip
            start = self._sched_clock

        pre_cost = costs.DISPATCH_COST + costs.LOCK_COST * len(invocation.objects)
        snapshot = None
        out_pos = 0
        if self._fault_engine is not None:
            # A crash between dispatch and completion rolls the invocation
            # back: capture the pre-state of everything the body can write,
            # and divert its output so a dropped commit publishes nothing.
            from ..fault.recovery import snapshot_objects

            snapshot = snapshot_objects(invocation.objects)
            out_pos = self.interp.stdout.tell()
        with prof.phase(_P_INTERP):
            effects = self.interp.run_task(invocation.task, invocation.objects)
        output: Optional[str] = None
        if self._fault_engine is not None:
            buf = self.interp.stdout
            output = buf.getvalue()[out_pos:]
            buf.seek(out_pos)
            buf.truncate()

        func = self.ir_program.tasks[invocation.task]
        spec = func.exits[effects.exit_id]
        flag_updates = {
            index: dict(updates) for index, updates in spec.flag_updates.items()
        }
        commit_cost = costs.FLAG_UPDATE_COST * (
            sum(len(u) for u in flag_updates.values())
            + sum(len(a) for a in effects.tag_actions.values())
        )

        routes, route_cost = self._plan_routing(core, invocation, effects, flag_updates)
        busy = pre_cost + effects.cycles + commit_cost + route_cost
        busy = scale_duration(busy, core_speed(self.config.core_speeds, core))
        completion = start + busy

        self._commit_id += 1
        self._commits[self._commit_id] = _Commit(
            invocation=invocation,
            effects=effects,
            flag_updates=flag_updates,
            routes=routes,
            snapshot=snapshot,
            output=output,
        )
        if self._fault_engine is not None:
            self._inflight[core] = self._commit_id
        self.busy_until[core] = completion
        self._push(completion, "complete", (core, self._commit_id))
        if self._watchdog is not None:
            self._watchdog.arm(core, self._commit_id, invocation.task, start, completion)
        if self.tracer is not None:
            self.tracer.emit(
                LockAcquire(
                    time=time, core=core, task=invocation.task,
                    objects=len(invocation.objects),
                )
            )
            self.tracer.emit(
                TaskDispatch(
                    time=time,
                    core=core,
                    task=invocation.task,
                    span=self._commit_id,
                    start=start,
                    end=completion,
                    formed_at=invocation.formed_at,
                    objects=len(invocation.objects),
                )
            )

        if self.profile is not None:
            allocs: Dict[int, int] = {}
            for record in effects.new_objects:
                allocs[record.site_id] = allocs.get(record.site_id, 0) + 1
            # Profiled cycles include dispatch/lock/commit overhead but not
            # message-send costs: on the profiling (single-core) run all
            # routing is local, matching the paper's bootstrap profiles.
            local_cost = busy - route_cost + self._local_route_cost(routes, core)
            self.profile.record_invocation(
                invocation.task, effects.exit_id, local_cost, allocs
            )

    @staticmethod
    def _local_route_cost(
        routes: List[Tuple[BObject, str, int, int, int]], core: int
    ) -> int:
        return costs.ENQUEUE_COST * sum(1 for r in routes if r[3] == core)

    # -- routing ------------------------------------------------------------------------

    def _future_state(
        self,
        obj: BObject,
        param_index: int,
        flag_updates: Dict[int, Dict[str, bool]],
        effects: TaskEffects,
    ) -> AState:
        flags = set(obj.flags)
        for flag, value in flag_updates.get(param_index, {}).items():
            if value:
                flags.add(flag)
            else:
                flags.discard(flag)
        tag_counts = {t: len(tags) for t, tags in obj.tags.items()}
        for op, tag in effects.tag_actions.get(param_index, []):
            delta = 1 if op == "add" else -1
            tag_counts[tag.tag_type] = tag_counts.get(tag.tag_type, 0) + delta
        return AState.make(flags, tag_counts)

    def _plan_routing(
        self,
        core: int,
        invocation: Invocation,
        effects: TaskEffects,
        flag_updates: Dict[int, Dict[str, bool]],
    ) -> Tuple[List[Tuple[BObject, str, int, int, int]], int]:
        """Determines destinations for parameter and new objects.

        Returns the route list plus the sender-side cycle cost (message
        composition for remote sends, enqueue work for local ones).
        """
        routes: List[Tuple[BObject, str, int, int, int]] = []
        sender_cost = 0
        plans: List[Tuple[BObject, AState, Optional[Dict[str, List[int]]]]] = []
        for param_index, obj in enumerate(invocation.objects):
            future_state = self._future_state(obj, param_index, flag_updates, effects)
            # Routing decisions (tag hashing in particular) must see the
            # tags this exit is *about to* bind, not just the current ones.
            future_tags: Dict[str, List[int]] = {
                tag_type: [t.tag_id for t in tags]
                for tag_type, tags in obj.tags.items()
            }
            for op, tag in effects.tag_actions.get(param_index, []):
                bucket = future_tags.setdefault(tag.tag_type, [])
                if op == "add" and tag.tag_id not in bucket:
                    bucket.append(tag.tag_id)
                elif op == "clear" and tag.tag_id in bucket:
                    bucket.remove(tag.tag_id)
            plans.append((obj, future_state, future_tags))
        for record in effects.new_objects:
            obj = record.obj
            plans.append((obj, state_of_object(obj), None))

        for obj, state, tags_override in plans:
            consumed = False
            for task, param_index in self.router.consumers(obj.class_name, state):
                dest, latency = self._choose_destination(
                    core, task, obj, state, tags_override
                )
                routes.append((obj, task, param_index, dest, latency))
                consumed = True
                if dest == core:
                    sender_cost += costs.ENQUEUE_COST
                else:
                    size = len(obj.fields)
                    sender_cost += costs.MSG_SEND_COST + costs.MSG_WORD_COST * size
            if not consumed:
                self.retired += 1
        return routes, sender_cost

    def _choose_destination(
        self,
        sender: int,
        task: str,
        obj: BObject,
        state: AState,
        tags_override: Optional[Dict[str, List[int]]] = None,
    ) -> Tuple[int, int]:
        tag_hash: Optional[int] = None
        task_info = self.info.task_info(task)
        if len(self.layout.cores_of(task)) > 1 and len(task_info.decl.params) > 1:
            binding = common_tag_binding(task_info.decl)
            if binding is not None:
                tag_type = next(
                    g.tag_type
                    for g in task_info.decl.params[0].tag_guards
                    if g.binding == binding
                )
                if tags_override is not None:
                    tag_ids = tags_override.get(tag_type, [])
                else:
                    tag_ids = [t.tag_id for t in obj.tags_of_type(tag_type)]
                if tag_ids:
                    tag_hash = min(tag_ids)
        dest = self.router.pick_core(task, self._rr_state, sender, tag_hash)
        if dest == sender:
            return dest, 0
        hops = self.layout.hops(sender, dest)
        hop_cost = hops * costs.HOP_COST
        if self._link_multiplier != 1.0:
            # A degraded link fabric (fault injection) inflates per-hop
            # latency; 1.0 leaves the nominal cost expression untouched.
            hop_cost = int(round(hop_cost * self._link_multiplier))
        latency = (
            costs.MSG_SEND_COST
            + hop_cost
            + costs.MSG_WORD_COST * len(obj.fields)
            + costs.ENQUEUE_COST
        )
        return dest, latency

    def _route_concrete(
        self, obj: BObject, sender_core: Optional[int], time: int
    ) -> None:
        """Routes an object according to its *current* state (used for the
        startup object and for stale re-enqueues)."""
        state = state_of_object(obj)
        consumers = self.router.consumers(obj.class_name, state)
        if not consumers:
            self.retired += 1
            return
        for task, param_index in consumers:
            sender = sender_core if sender_core is not None else 0
            dest, latency = self._choose_destination(sender, task, obj, state)
            if sender_core is None:
                latency = 0
            self._push(time + latency, "arrive", (dest, task, param_index, obj))
            if sender_core is not None and dest != sender_core:
                self.messages += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        MailSend(
                            time=time, core=sender_core, dest=dest,
                            task=task, latency=latency,
                        )
                    )

    # -- completion -----------------------------------------------------------------------

    def _complete(self, core: int, commit_id: int, time: int) -> None:
        if commit_id not in self._commits:
            # The owning core crashed mid-flight; the recovery engine
            # already rolled the invocation back and re-routed its objects.
            if self.recovery is not None:
                self.recovery.commits_dropped += 1
            return
        commit = self._commits.pop(commit_id)
        if self._fault_engine is not None:
            self._inflight.pop(core, None)
        invocation = commit.invocation
        effects = commit.effects
        task = invocation.task
        if commit.output:
            self.interp.stdout.write(commit.output)

        # 1. Commit flag updates and tag actions.
        for param_index, updates in commit.flag_updates.items():
            obj = invocation.objects[param_index]
            for flag, value in updates.items():
                obj.set_flag(flag, value)
        for param_index, actions in effects.tag_actions.items():
            obj = invocation.objects[param_index]
            for op, tag in actions:
                if op == "add":
                    obj.bind_tag(tag)
                else:
                    obj.unbind_tag(tag)

        # 2. Merge lock groups for sharing-introducing tasks, then unlock.
        plan = self.lock_plan.plan_for(task)
        for group in plan.shared_groups:
            self.locks.merge(
                [invocation.objects[index].obj_id for index in sorted(group)]
            )
        self.locks.unlock_all(invocation.objects, core)

        # 3. Route objects to their next consumers.
        for obj, dest_task, param_index, dest, latency in commit.routes:
            self._push(time + latency, "arrive", (dest, dest_task, param_index, obj))
            if dest != core:
                self.messages += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        MailSend(
                            time=time, core=core, dest=dest,
                            task=dest_task, latency=latency,
                        )
                    )

        # 4. Statistics.
        self.invocation_counts[task] = self.invocation_counts.get(task, 0) + 1
        key = (task, effects.exit_id)
        self.exit_counts[key] = self.exit_counts.get(key, 0) + 1
        if self.recovery is not None:
            self.recovery.commits_applied += 1
        if self.tracer is not None:
            self.tracer.emit(
                TaskCommit(
                    time=time, core=core, task=task,
                    span=commit_id, exit_id=effects.exit_id,
                )
            )

        # 5. Keep the pipeline moving: this core and any lock-blocked cores.
        self._kick(core, time)
        for other, scheduler in self.schedulers.items():
            if other != core and scheduler.has_work() and self.busy_until[other] <= time:
                self._kick(other, time)

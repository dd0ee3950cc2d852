"""Heartbeats and the missed-beat failure detector.

Every live core emits a heartbeat event each ``heartbeat_interval`` cycles
(paying :data:`repro.ir.costs.HEARTBEAT_COST` on the core). A single
monitor event, on the same period, suspects any core whose last beat is
older than the suspicion window (``interval * suspicion_beats``). The
machine cannot ask the injector what happened — exactly like a runtime on
real silicon, it must classify silence from the outside:

* **Silent halt** (a :class:`repro.fault.plan.CoreCrash` fired): the core
  is truly dead. Suspicion triggers the full recovery path
  (:meth:`repro.fault.recovery.RecoveryEngine.recover_core`) and the
  halt-to-detection latency is accounted in
  ``RecoveryStats.detection_latency_cycles``.
* **Long stall** (a :class:`~repro.fault.plan.TransientStall` outlasting
  the window): the core is alive but frozen. The detector cannot tell, so
  it *evicts* the core identically — rollback, lock reclaim, migration —
  and when the core's heartbeat resumes it rejoins as a live, empty core
  (``false_suspicions``/``rejoins`` telemetry). Exactly-once commit holds
  either way because the evicted core's pending commit was unscheduled.

Heartbeat and monitor events are bookkeeping, not machine activity: they
never extend the run (``total_cycles``) and they stop re-arming once no
real work (arrivals, kicks, completions, pending faults, undetected
halts) remains, so a resilient run still terminates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..fault.plan import CoreCrash, FaultEvent
from ..ir import costs
from ..obs.events import Heartbeat
from .config import ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fault.recovery import RecoveryEngine
    from ..fault.stats import RecoveryStats
    from ..runtime.machine import ManyCoreMachine


class FailureDetector:
    """Emits heartbeats, watches for silence, and drives recovery."""

    def __init__(
        self,
        machine: "ManyCoreMachine",
        config: ResilienceConfig,
        engine: "RecoveryEngine",
        stats: "RecoveryStats",
    ):
        self.machine = machine
        self.config = config
        self.engine = engine
        self.stats = stats
        #: last heartbeat seen per core (monitor reads this)
        self.last_beat: Dict[int, int] = {}
        #: cycle at which each halted core went silent (for latency)
        self.halt_cycle: Dict[int, int] = {}
        #: unscheduled in-flight commits of halted cores, rolled back when
        #: the halt is detected
        self.stashed_commits: Dict[int, object] = {}
        #: every core that ever hosted work — the monitor's watch list
        self.watched: List[int] = sorted(machine.layout.cores_used())

    # -- installation --------------------------------------------------------

    def install(self, start_time: int) -> None:
        """Arms the first heartbeat per core and the monitor."""
        interval = self.config.heartbeat_interval
        for core in self.watched:
            self.last_beat[core] = start_time
            self.machine._push(start_time + interval, "hb", (core,))
        self.machine._push(start_time + interval, "monitor", ())

    # -- fault-event routing --------------------------------------------------

    def on_fault(self, event: FaultEvent, time: int) -> None:
        """Applies a fault event under detection-driven semantics: crashes
        are *silent* (recovery waits for the detector); stalls and link
        events keep their oracle behavior (they need no recovery)."""
        if isinstance(event, CoreCrash):
            commit = self.engine.halt_core(event.core, time)
            if event.core in self.machine.halted_cores:
                self.halt_cycle.setdefault(event.core, time)
                if commit is not None:
                    self.stashed_commits[event.core] = commit
        else:
            self.engine.apply(event, time)

    # -- event handlers -------------------------------------------------------

    def on_heartbeat(self, core: int, time: int) -> None:
        machine = self.machine
        if core in machine.halted_cores:
            return  # dead cores do not beat, and never again
        stalled_until = machine.stall_until.get(core, 0)
        if stalled_until > time:
            # Frozen: the beat is missed (this is exactly the silence the
            # monitor watches for), but the core will beat again.
            if self._keep_alive():
                machine._push(
                    time + self.config.heartbeat_interval, "hb", (core,)
                )
            return
        self.last_beat[core] = time
        self.stats.heartbeats += 1
        if machine.tracer is not None:
            machine.tracer.emit(
                Heartbeat(
                    time=time,
                    core=core,
                    begin=max(machine.busy_until[core], time),
                    cost=costs.HEARTBEAT_COST,
                )
            )
        machine.busy_until[core] = (
            max(machine.busy_until[core], time) + costs.HEARTBEAT_COST
        )
        if machine.schedulers[core].has_work():
            # The charge may push busy_until past an already-scheduled
            # kick (which would then find the core "busy" with no
            # completion left to re-kick it); re-kick at the new horizon
            # so queued work can never be stranded by a heartbeat.
            machine._kick(core, time)
        if core in machine.suspected_cores:
            self.engine.rejoin_core(core, time)
        if self._keep_alive():
            machine._push(time + self.config.heartbeat_interval, "hb", (core,))

    def on_monitor(self, time: int) -> None:
        machine = self.machine
        window = self.config.suspicion_window
        for core in self.watched:
            if core in machine.dead_cores:
                continue  # recovered or already-suspected cores
            if time - self.last_beat.get(core, 0) < window:
                continue
            self.stats.suspicions += 1
            if core in machine.halted_cores:
                # A true crash, discovered from the outside.
                latency = time - self.halt_cycle.get(core, time)
                commit = self.stashed_commits.pop(core, None)
                self.engine.recover_core(
                    core, time, commit, detection_latency=latency
                )
            else:
                # A stall outlasting the window: indistinguishable from a
                # crash, so evict — the core rejoins if it beats again.
                self.engine.evict_live_core(core, time)
        if self._keep_alive():
            machine._push(time + self.config.heartbeat_interval, "monitor", ())

    # -- liveness -------------------------------------------------------------

    def _keep_alive(self) -> bool:
        """True while the heartbeat/monitor machinery must stay armed:
        real work remains, or an undetected halt still needs discovering."""
        machine = self.machine
        if machine._real_events > 0:
            return True
        if machine._commits:
            return True
        if machine.halted_cores - machine.dead_cores:
            return True
        for core, scheduler in machine.schedulers.items():
            if core in machine.dead_cores or core in machine.halted_cores:
                continue
            if scheduler.has_work():
                return True
        return False

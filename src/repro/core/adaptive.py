"""Field re-optimization — the paper's §7 extension.

    "It is straightforward to modify the basic approach to support
    executables that periodically re-optimize themselves for the workloads
    they encounter in the field or for new processor layouts. The basic
    idea is to separate layout information from code in the application
    executable. An executable would periodically profile itself and report
    the results to a system library that implements our optimization
    strategy. The library would then rerun the optimizations, generate a
    new layout, and update the executable's layout information."

:class:`AdaptiveExecutable` realizes exactly that loop on the simulated
machine: the layout is kept separate from the compiled code; every
``profile_every`` runs the executable re-profiles itself (profile collection
piggybacks on a production run), reruns the synthesis pipeline against the
*observed* workload, and swaps in the new layout if the scheduling simulator
predicts an improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..resilience.config import ResilienceConfig
from ..runtime.machine import MachineConfig, MachineResult
from ..runtime.profiler import ProfileData
from ..schedule.anneal import AnnealConfig
from ..schedule.layout import Layout
from ..schedule.simulator import simulate
from .api import CompiledProgram, run_layout, single_core_layout
from .options import RunOptions, SynthesisOptions
from .pipeline import synthesize_layout


@dataclass
class AdaptationRecord:
    """One re-optimization decision."""

    run_index: int
    workload: List[str]
    old_layout: Layout
    new_layout: Layout
    old_estimate: int
    new_estimate: int
    adopted: bool

    @property
    def predicted_gain(self) -> float:
        if self.old_estimate == 0:
            return 0.0
        return 1.0 - self.new_estimate / self.old_estimate


class AdaptiveExecutable:
    """An executable whose layout is data, periodically re-synthesized.

    Parameters
    ----------
    compiled:
        The program (code is never regenerated — only the layout changes).
    num_cores:
        The processor to target. Changing this between runs models the
        paper's "new processor layouts" case.
    profile_every:
        Re-profile and re-optimize after this many production runs.
    min_gain:
        Adopt a new layout only if the scheduling simulator predicts at
        least this relative improvement on the observed workload.
    config:
        The search schedule of each re-optimization; the ``n``-th one
        searches with seed ``config.seed + n``.
    resilience:
        Run production executions with detection-driven resilience
        (:mod:`repro.resilience`). Watchdog deadlines that need cost
        estimates draw them from the executable's own field profile, and a
        run that permanently loses cores auto-degrades the layout for the
        next run — the §7 loop with core failure as the layout change.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        num_cores: int,
        profile_every: int = 3,
        min_gain: float = 0.02,
        config: Optional[AnnealConfig] = None,
        hints: Optional[Dict[str, str]] = None,
        resilience: Optional[ResilienceConfig] = None,
        workers: int = 1,
    ):
        self.compiled = compiled
        self.num_cores = num_cores
        self.profile_every = max(1, profile_every)
        self.min_gain = min_gain
        self.config = config or AnnealConfig()
        self.hints = hints
        self.resilience = resilience
        #: worker processes for each in-field re-optimization's search
        self.workers = workers
        #: current layout information — starts conservative (single core),
        #: like a freshly shipped executable with no field data yet
        self.layout: Layout = single_core_layout(compiled)
        self.history: List[AdaptationRecord] = []
        self._runs = 0
        self._last_profile: Optional[ProfileData] = None

    # -- the field loop --------------------------------------------------------

    def run(self, args: Sequence[str], fault_plan=None) -> MachineResult:
        """One production run; periodically triggers re-optimization.

        Profile collection piggybacks on the production run itself (no
        separate profiling execution), mirroring "an executable would
        periodically profile itself". ``fault_plan`` injects faults into
        this run; with a resilience config installed the failures are
        detected, survived, and folded into the layout for the next run."""
        self._runs += 1
        collect = self._runs % self.profile_every == 0 or self._runs == 1
        machine_config = None
        if self.resilience is not None:
            resilience = self.resilience
            if resilience.profile is None and self._last_profile is not None:
                # Watchdog deadlines come from the executable's own field
                # profile — layout and policy both derived from observation.
                resilience = replace(resilience, profile=self._last_profile)
            machine_config = MachineConfig(
                fault_plan=fault_plan, resilience=resilience
            )
        elif fault_plan is not None:
            machine_config = MachineConfig(fault_plan=fault_plan)
        result = run_layout(
            self.compiled,
            self.layout,
            args,
            options=RunOptions(machine=machine_config, collect_profile=collect),
        )
        if collect and result.profile is not None:
            self._last_profile = result.profile
            self._reoptimize(list(args))
        if self.resilience is not None and result.core_death_cycles:
            # Cores still dead at end of run stay dead for the next one;
            # shrink the layout now and re-optimize on the reduced machine.
            self.degrade(sorted(result.core_death_cycles))
        return result

    def retarget(self, num_cores: int) -> None:
        """Moves the executable to a different processor; the next profiled
        run re-optimizes for it. The current layout is clamped onto the new
        machine so the executable keeps running meanwhile."""
        self.num_cores = num_cores
        mapping = {
            task: [core % num_cores for core in cores]
            for task, cores in self.layout.as_dict().items()
        }
        self.layout = Layout.make(num_cores, mapping)

    def degrade(self, dead_cores: Sequence[int]) -> None:
        """Adapts to a partially failed processor (e.g. after a machine run
        reported crashes in ``result.recovery.dead_cores``).

        The current layout is clamped onto the survivors with the same
        layout edit the fault-recovery engine applies mid-run
        (:func:`repro.schedule.mapping.with_core_failed`), so the
        executable keeps running immediately; the next run re-profiles and
        re-optimizes for the reduced machine — the paper's §7 loop, with
        core failure as the "new processor layout"."""
        from ..schedule.mapping import with_core_failed

        layout = self.layout
        for core in dead_cores:
            if core in layout.cores_used():
                layout = with_core_failed(layout, core)
        self.layout = layout
        # Schedule a profiled (and therefore re-optimizing) next run.
        self._runs = 0

    # -- internals ----------------------------------------------------------------

    def _reoptimize(self, workload: List[str]) -> None:
        assert self._last_profile is not None
        profile = self._last_profile
        report = synthesize_layout(
            self.compiled,
            profile,
            self.num_cores,
            # Each re-optimization starts a fresh simulation cache: the
            # field profile changed, so memoized scores would be stale.
            options=SynthesisOptions(
                anneal=replace(
                    self.config, seed=self.config.seed + len(self.history)
                ),
                hints=self.hints,
                workers=self.workers,
            ),
        )
        old_estimate = simulate(
            self.compiled, self.layout, profile, hints=self.hints
        ).total_cycles
        new_estimate = report.estimated_cycles
        adopted = new_estimate < old_estimate * (1.0 - self.min_gain)
        record = AdaptationRecord(
            run_index=self._runs,
            workload=workload,
            old_layout=self.layout,
            new_layout=report.layout,
            old_estimate=old_estimate,
            new_estimate=new_estimate,
            adopted=adopted,
        )
        self.history.append(record)
        if adopted:
            self.layout = report.layout

    @property
    def adaptations(self) -> List[AdaptationRecord]:
        return [r for r in self.history if r.adopted]

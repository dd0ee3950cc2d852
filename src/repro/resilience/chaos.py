"""Seeded chaos harness: many fault plans, machine-checked invariants.

A chaos sweep runs one compiled program under ``runs`` deterministic fault
plans (plan 0 is always empty — the control) with detection-driven
resilience enabled, and checks the invariants the resilience machinery
promises:

* **Termination** — every run drains its event queue and passes the
  machine's quiescence check (no locks held, no runnable work stranded).
* **Exactly-once commit** — ``RecoveryStats.duplicate_commits`` stays 0
  and the dead-letter ledger balances
  (``len(result.quarantined) == quarantined_groups``).
* **Semantic equivalence** — a run that quarantined nothing produces the
  same output lines as the fault-free baseline (commit order, and hence
  line order, may legally differ under faults).
* **Bit-identity of the control** — plan 0 re-run with resilience
  *off* (``resilience=None``) equals the baseline ``MachineResult``
  field for field, and re-run with resilience *enabled* changes nothing
  observable (same stdout, same invocation counts, no deaths, no
  quarantine).

Every plan keeps one protected survivor core fault-free, so recovery
always has somewhere to migrate — a plan that kills every core is not an
interesting chaos case, it is a configuration error the plan layer already
rejects. The sweep loop, the verdict classes and the control's
zero-activity check come from the shared kernel, :mod:`repro.chaos`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import chaos
from ..fault.plan import CoreCrash, FaultPlan, LinkDegrade, TransientStall
from ..runtime.machine import MachineConfig, MachineResult
from ..schedule.layout import Layout
from .config import ResilienceConfig


def chaos_plan(
    index: int,
    seed: int,
    cores: Sequence[int],
    horizon: int,
    suspicion_window: int,
) -> FaultPlan:
    """Builds the ``index``-th plan of a sweep. Plan 0 is always empty.

    Faults never touch one seed-chosen survivor core, so even a plan that
    crashes or evicts every other core leaves recovery a destination.
    Stall durations range past the suspicion window on purpose: long
    stalls exercise the false-suspicion eviction/rejoin path.
    """
    if index == 0:
        return FaultPlan.make([])
    rng = random.Random(seed)
    ordered = sorted(cores)
    survivor = ordered[rng.randrange(len(ordered))]
    faultable = [c for c in ordered if c != survivor]
    horizon = max(2, horizon)
    events: List[object] = []
    crashes = rng.randint(0, min(2, len(faultable)))
    for core in rng.sample(faultable, crashes):
        events.append(CoreCrash(core=core, cycle=rng.randrange(1, horizon)))
    for _ in range(rng.randint(0, 2)):
        events.append(
            TransientStall(
                core=rng.choice(faultable),
                cycle=rng.randrange(1, horizon),
                duration=rng.randrange(1, max(2, suspicion_window * 2)),
            )
        )
    if rng.random() < 0.5:
        at = rng.randrange(1, horizon)
        events.append(
            LinkDegrade(cycle=at, multiplier=1.0 + rng.random() * 3.0)
        )
        if rng.random() < 0.5:  # sometimes the fabric heals mid-run
            events.append(
                LinkDegrade(cycle=at + rng.randrange(1, horizon), multiplier=1.0)
            )
    return FaultPlan.make(events)


@dataclass
class ChaosRun(chaos.SweepRun):
    """Outcome of one seeded plan."""

    result: Optional[MachineResult] = None

    def counters(self) -> Dict[str, int]:
        if self.result is None:
            return {}
        return {
            "core_deaths": len(self.result.core_death_cycles or {}),
            "quarantined": len(self.result.quarantined or []),
        }


@dataclass
class ChaosReport(chaos.SweepReport):
    """Outcome of a full sweep."""

    baseline: Optional[MachineResult] = None

    INVARIANTS = (
        "termination, exactly-once commit, quarantine accounting, "
        "baseline equivalence"
    )

    def summary(self) -> List[str]:
        faults = sum(len(run.plan.events) for run in self.runs)
        return [
            f"chaos: {len(self.runs)} plan(s), {faults} fault event(s), "
            f"{self.total('core_deaths')} core death(s), "
            f"{self.total('quarantined')} quarantined group(s)"
        ]


def _check_run(
    run: ChaosRun, result: MachineResult, baseline: MachineResult
) -> None:
    """Applies the per-run invariants; violations land on ``run``."""
    stats = result.recovery
    if stats is None:
        run.violations.append("resilient run carried no recovery stats")
        return
    if not stats.exactly_once():
        run.violations.append(
            f"exactly-once violated: {stats.duplicate_commits} duplicate commit(s)"
        )
    quarantined = result.quarantined or []
    if len(quarantined) != stats.quarantined_groups:
        run.violations.append(
            f"quarantine ledger imbalance: {len(quarantined)} record(s) vs "
            f"{stats.quarantined_groups} counted"
        )
    if not quarantined:
        # Nothing was dead-lettered, so every logical task committed and
        # the output must match the fault-free baseline up to commit order.
        if sorted(result.stdout.splitlines()) != sorted(
            baseline.stdout.splitlines()
        ):
            run.violations.append("output diverged from fault-free baseline")
    # A fault-free plan kills no core and quarantines nothing.
    chaos.check_accounting(run)


def run_chaos(
    compiled,
    layout: Layout,
    args: Sequence[str],
    runs: int = 20,
    base_seed: int = 0,
    resilience: Optional[ResilienceConfig] = None,
) -> ChaosReport:
    """Runs a full chaos sweep and returns the per-plan verdicts.

    Raises nothing on invariant violation — the report carries the
    verdicts so callers (tests, the ``--chaos`` CLI) decide how to fail.
    """
    from ..core.api import run_layout
    from ..core.options import RunOptions

    resilience = resilience if resilience is not None else ResilienceConfig()
    resilience.validate()
    baseline = run_layout(compiled, layout, args)
    horizon = max(2, baseline.total_cycles)
    cores = sorted(layout.cores_used())

    def make_plan(index: int, seed: int) -> FaultPlan:
        return chaos_plan(
            index, seed, cores, horizon, resilience.suspicion_window
        )

    def execute(run: ChaosRun) -> None:
        config = MachineConfig(
            fault_plan=None if run.plan.is_empty() else run.plan,
            resilience=resilience,
            validate=True,
        )
        run.result = run_layout(
            compiled, layout, args, options=RunOptions(machine=config)
        )
        _check_run(run, run.result, baseline)
        if run.index == 0:
            _check_control(run, compiled, layout, args, baseline)

    return ChaosReport(
        runs=chaos.sweep(ChaosRun, runs, base_seed, make_plan, execute),
        baseline=baseline,
    )


def _check_control(
    run: ChaosRun,
    compiled,
    layout: Layout,
    args: Sequence[str],
    baseline: MachineResult,
) -> None:
    """Plan-0 extras: the empty plan must be a true control.

    With resilience off (``resilience=None``) the run must be
    *bit-identical* to the baseline; with it on (``run.result``) nothing
    observable may change — heartbeats cost cycles but decide nothing on
    a healthy machine.
    """
    from ..core.api import run_layout
    from ..core.options import RunOptions

    config = MachineConfig(resilience=None)
    control = run_layout(
        compiled, layout, args, options=RunOptions(machine=config)
    )
    if control != baseline:
        run.violations.append(
            "resilience off is not bit-identical to the baseline"
        )
    result = run.result
    if result.stdout != baseline.stdout:
        run.violations.append("fault-free resilient run changed the output")
    if result.invocations != baseline.invocations:
        run.violations.append(
            "fault-free resilient run changed invocation counts"
        )

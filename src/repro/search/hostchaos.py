"""Host-level chaos: seeded worker crashes and hangs, checked invariants.

The mirror image of :mod:`repro.resilience.chaos`, one level up: instead
of injecting faults into the *simulated* TILEPro64 machine, this harness
injects them into the *host* processes that evaluate candidate layouts —
a worker calls ``os._exit`` mid-task (OOM-killer stand-in) or sleeps past
its deadline (hang stand-in) — and checks the supervision invariants:

* **Termination** — every chaos synthesis returns (no lost runs, no
  hangs; bounded retries guarantee it by construction).
* **Result bit-identity** — the chaos run's :class:`SynthesisReport` is
  identical to the fault-free baseline in every deterministic field
  (layout, cycles, history, budget accounting). Supervision may only
  *rescue* work, never change it.
* **Counter consistency** — retry/rebuild counters match the injected
  plan: every planned fault fired, every fired fault forced at least one
  retry and at least one pool rebuild happened; plan 0 (empty, the
  control) fired nothing and its counters are all zero.

Wall-clock timing decides *how many collateral* tasks a pool failure
takes down, so counter invariants are inequalities; the search result
itself is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import chaos


@dataclass(frozen=True)
class HostFault:
    """One injected worker misbehavior, keyed by dispatch sequence id."""

    dispatch: int
    kind: str  # "crash" | "hang"


@dataclass(frozen=True)
class HostChaosPlan:
    """A seeded set of host faults for one supervised synthesis.

    ``dispatch`` ids index the supervisor's global submission counter
    (retries included), so a plan is pure data: the same plan against the
    same workload designates the same simulations.
    """

    faults: Tuple[HostFault, ...]
    seed: int = 0

    @classmethod
    def make(
        cls,
        index: int,
        seed: int,
        horizon: int,
        max_crashes: int = 2,
        max_hangs: int = 1,
    ) -> "HostChaosPlan":
        """Builds the ``index``-th plan of a sweep. Plan 0 is always
        empty — the control. ``horizon`` should be the fault-free run's
        dispatch count (the control's ``dispatches`` counter) so
        designated ids actually fire."""
        if index == 0:
            return cls(faults=(), seed=seed)
        rng = random.Random(seed)
        horizon = max(1, horizon)
        crashes = rng.randint(1, max(1, min(max_crashes, horizon)))
        hangs = rng.randint(0, max_hangs)
        picks = rng.sample(range(horizon), min(horizon, crashes + hangs))
        faults = tuple(
            HostFault(dispatch=pick, kind="crash" if i < crashes else "hang")
            for i, pick in enumerate(picks)
        )
        return cls(faults=faults, seed=seed)

    def kind_for(self, dispatch: int) -> Optional[str]:
        for fault in self.faults:
            if fault.dispatch == dispatch:
                return fault.kind
        return None

    def is_empty(self) -> bool:
        return not self.faults

    def describe(self) -> str:
        if not self.faults:
            return "host chaos: empty plan (control)"
        parts = ", ".join(
            f"{fault.kind}@{fault.dispatch}"
            for fault in sorted(self.faults, key=lambda f: f.dispatch)
        )
        return f"host chaos: {len(self.faults)} fault(s): {parts}"


@dataclass
class HostChaosRun(chaos.SweepRun):
    """Outcome of one plan."""

    report: Optional[object] = None  # SynthesisReport
    supervision: Optional[Dict[str, object]] = None

    def counters(self) -> Dict[str, object]:
        return self.supervision or {}


@dataclass
class HostChaosReport(chaos.SweepReport):
    """Outcome of a full host-chaos sweep."""

    baseline: object = None  # SynthesisReport

    INVARIANTS = "termination, result bit-identity, retry/rebuild accounting"

    def summary(self) -> List[str]:
        injected = sum(len(run.plan.faults) for run in self.runs)
        return [
            f"host chaos: {len(self.runs)} plan(s), {injected} fault(s) "
            f"planned, {self.total('injected_crashes')} crash(es) + "
            f"{self.total('injected_hangs')} hang(s) fired, "
            f"{self.total('worker_retries')} retry(ies), "
            f"{self.total('pool_rebuilds')} pool rebuild(s)"
        ]


def _report_key(report) -> Tuple:
    """Every deterministic field of a SynthesisReport, as comparable data
    (wall-clock excluded)."""
    return (
        report.estimated_cycles,
        report.layout.as_dict(),
        report.layout.num_cores,
        report.history,
        report.evaluations,
        report.cache_hits,
        report.requested_evaluations,
        report.iterations,
    )


def _check_run(run: HostChaosRun, baseline) -> None:
    """Applies the per-plan invariants; violations land on ``run``."""
    report = run.report
    stats = run.supervision or {}
    if _report_key(report) != _report_key(baseline):
        run.violations.append(
            "chaos result diverged from fault-free baseline "
            f"({report.estimated_cycles} vs {baseline.estimated_cycles} "
            "cycles)"
        )
    fired = int(stats.get("injected_crashes", 0)) + int(
        stats.get("injected_hangs", 0)
    )
    retries = int(stats.get("worker_retries", 0))
    rebuilds = int(stats.get("pool_rebuilds", 0))
    chaos.check_accounting(
        run,
        planned=len(run.plan.faults),
        fired=fired,
        retries=retries,
        busy=("dispatches",),
    )
    if fired and rebuilds < 1:
        run.violations.append(
            f"{fired} fault(s) fired but the pool was never rebuilt"
        )
    if rebuilds > retries:
        run.violations.append(
            f"{rebuilds} rebuild(s) exceed {retries} retry(ies)"
        )


def run_host_chaos(
    compiled,
    profile,
    num_cores: int,
    options=None,
    runs: int = 4,
    base_seed: int = 0,
    workers: int = 2,
    policy=None,
) -> HostChaosReport:
    """Runs a full host-chaos sweep and returns the per-plan verdicts.

    ``options`` is the :class:`repro.SynthesisOptions` template for every
    run (anneal schedule, hints, ...); the harness forces ``workers=1``
    for the baseline and ``workers``/``policy``/chaos for the plans.
    Like :func:`repro.resilience.chaos.run_chaos`, nothing raises on
    violation — the report carries the verdicts.
    """
    from dataclasses import replace

    from ..core.options import SynthesisOptions
    from ..core.pipeline import synthesize_layout

    options = options if options is not None else SynthesisOptions()
    baseline = synthesize_layout(
        compiled, profile, num_cores,
        options=replace(options, workers=1, host_chaos=None),
    )
    horizon = max(1, baseline.evaluations)

    def execute(run: HostChaosRun) -> None:
        nonlocal horizon
        run.report = synthesize_layout(
            compiled, profile, num_cores,
            options=replace(
                options,
                workers=max(2, workers),
                retry_policy=policy,
                host_chaos=None if run.plan.is_empty() else run.plan,
            ),
        )
        # Plan 0 runs through the same supervised pool, so its
        # zero-counter check exercises the real dispatch path.
        run.supervision = run.report.search_metrics.get("supervision") or {}
        if run.index == 0:
            # Dispatch ids count chunks, not simulations: the control's
            # dispatch count is the horizon every later plan reaches.
            horizon = max(1, int(run.supervision.get("dispatches", 0)))
        _check_run(run, baseline)

    return HostChaosReport(
        runs=chaos.sweep(
            HostChaosRun,
            runs,
            base_seed,
            lambda index, seed: HostChaosPlan.make(index, seed, horizon),
            execute,
        ),
        baseline=baseline,
    )

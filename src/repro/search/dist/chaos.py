"""Distributed-search chaos: seeded multi-host fault plans, checked
invariants.

The top rung of the fault-layer ladder (``docs/RESILIENCE.md``): below
this, :mod:`repro.resilience.chaos` breaks the *simulated* machine,
:mod:`repro.search.hostchaos` breaks worker *processes* inside one
search, and :mod:`repro.serve.netchaos` breaks the daemon's *network*.
This harness breaks whole worker **hosts** and the links between them —
against real ``repro dist-worker`` subprocesses — and machine-checks:

* **Termination** — every chaos run completes (leases + bounded retries
  + local degradation guarantee it by construction).
* **Dist-vs-serial bit-identity** — the merged
  :class:`~repro.search.dist.shards.DistResult` key (every shard result,
  the incumbent trajectory, the winning layout) equals the single-host
  serial baseline's, whatever crashed, hung, dropped, or garbled.
* **Exactly-once shard accounting** — the
  :meth:`~repro.search.dist.coordinator.DistStats.check_accounting`
  identity holds: every dispatch reaches exactly one terminal state.
* **Fired-fault accounting** — every planned dispatch and wire fault
  fired; plan 0 (empty, the control) records no steals, retries,
  failures, duplicates, injections, or degradation.

A separate **interrupt + resume** phase abandons a coordinator
mid-frontier (no shutdown, exactly what SIGKILL leaves behind: the
checkpoint file) and checks that a resumed coordinator completes only
the missing shards and merges to the identical key — and that a
checkpoint from a *different* job is refused with a typed error.

Fault transport: each run's :class:`repro.chaos.Plan` comes from
:func:`dist_plan` (or :func:`scripted_plan` for the CLI). Its dispatch
faults (``crash_worker``/``hang_worker``/``expire_lease``) ride shard
messages through the coordinator's own chaos hook; a hung worker sleeps
the fault's ``seconds``, past its lease, or until its parent process is
gone, then runs the shard late. Its wire faults (``drop_conn``/
``garble``) fire in the shared full-duplex
:class:`repro.chaos.ChaosProxy` between workers and the coordinator; its
``kill_worker`` phase is a literal ``SIGKILL`` of a worker subprocess
mid-run. The sweep loop and verdict classes come from
:mod:`repro.chaos`.
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ... import chaos
from .coordinator import DistCoordinator, DistError, DistStats, LeasePolicy
from .shards import JobContext, ShardSpec, run_serial_baseline
from .worker import local_workers

#: seconds before a chaos run is declared hung (a termination violation)
RUN_DEADLINE = 180.0


#: faults the coordinator injects itself, keyed by dispatch seq
DIST_DISPATCH_KINDS = ("crash_worker", "hang_worker", "expire_lease")
#: faults the chaos proxy injects in transit, keyed by message seq
DIST_WIRE_KINDS = ("drop_conn", "garble")


def dist_plan(index: int, seed: int, horizon: int) -> chaos.Plan:
    """Builds the ``index``-th plan of a sweep: one or two dispatch
    faults, two wire faults on every even plan and a worker SIGKILL on
    every third. Plan 0 is always empty — the control. ``horizon``
    should be the shard count: with one dispatch per shard guaranteed,
    every designated id in ``1..horizon`` is reached. Fault families
    rotate on fixed strides (like :func:`repro.serve.netchaos.net_plan`)
    so even a 4-plan sweep exercises dispatch faults, wire faults, and
    an external worker SIGKILL. A hang sleeps 3 s, past the sweep's 2 s
    lease floor."""
    if index == 0:
        return chaos.Plan("dist", seed)
    rng = random.Random(seed)
    horizon = max(1, horizon)
    count = rng.randint(1, min(2, horizon))
    picks = rng.sample(range(1, horizon + 1), min(horizon, count))
    faults = tuple(
        chaos.Fault(pick, rng.choice(DIST_DISPATCH_KINDS), 3.0)
        for pick in sorted(picks)
    )
    wire: Tuple[chaos.Fault, ...] = ()
    if index % 2 == 0:
        wire = tuple(
            chaos.Fault(pick, rng.choice(DIST_WIRE_KINDS))
            for pick in sorted(
                rng.sample(range(1, horizon + 1), min(horizon, 2))
            )
        )
    phases = ("kill_worker",) if index % 3 == 2 else ()
    return chaos.Plan("dist", seed, faults, wire, phases)


def scripted_plan(
    crash=(), hang=(), expire=(), hang_seconds: float = 3.0
) -> chaos.Plan:
    """A hand-written plan from explicit dispatch ids — what the CLI's
    ``--chaos-crash/--chaos-hang/--chaos-expire`` flags and the CI
    dist-smoke job build."""
    faults = tuple(
        [chaos.Fault(at, "crash_worker") for at in crash]
        + [chaos.Fault(at, "hang_worker", hang_seconds) for at in hang]
        + [chaos.Fault(at, "expire_lease") for at in expire]
    )
    return chaos.Plan("dist", faults=faults)


@dataclass
class DistChaosRun(chaos.SweepRun):
    """Outcome of one plan."""

    stats: Optional[Dict[str, object]] = None
    wire_fired: List[Tuple[int, str]] = field(default_factory=list)

    def counters(self) -> Dict[str, object]:
        return self.stats or {}


@dataclass
class DistChaosReport(chaos.SweepReport):
    """Outcome of a full dist-chaos sweep (plans + resume phase)."""

    resumed_shards: int = 0

    INVARIANTS = (
        "termination, dist-vs-serial bit-identity, exactly-once shard "
        "accounting, control-plan zero activity, checkpointed resume"
    )
    SWEEP_LABEL = "resume phase"
    RUNS_KEY = "plans"

    def summary(self) -> List[str]:
        lines = [f"dist chaos: {len(self.runs)} plan(s)"]
        for run in self.runs:
            status = "ok" if run.ok else "FAIL"
            lines.append(f"  plan {run.index}: {run.plan.describe()} [{status}]")
        lines.append(
            f"totals: {self.total('dispatches')} dispatch(es), "
            f"{self.total('steals')} steal(s), "
            f"{self.total('retries')} retry(ies), "
            f"{self.total('duplicates_discarded')} duplicate(s) discarded, "
            f"{self.total('worker_crashes')} crash(es), "
            f"{self.total('worker_hangs')} hang(s), "
            f"{self.total('worker_disconnects')} disconnect(s), "
            f"{self.total('garbled_messages')} garbled"
        )
        lines.append(
            f"resume phase: {self.resumed_shards} shard(s) resumed from the "
            "frontier checkpoint"
        )
        return lines

    def artifact_fields(self) -> Dict[str, object]:
        return {
            "schema": "repro.search/dist-chaos-report-v1",
            "resumed_shards": self.resumed_shards,
        }


#: counters every run moves, the control plan included; it must leave
#: all the others at zero
_BUSY = (
    "workers_joined",
    "workers_left",
    "dispatches",
    "local_executions",
    "shards_completed",
    "frontier_checkpoints",
)


def _check_run(run: DistChaosRun, result, baseline, stats: DistStats) -> None:
    if result.key() != baseline.key():
        run.violations.append(
            "chaos result diverged from the serial baseline "
            f"({result.best_cycles} vs {baseline.best_cycles} cycles)"
        )
    run.violations.extend(stats.check_accounting())
    run.stats = stats.snapshot()
    # kill_worker is an external SIGKILL, not a counted injection: it is
    # skipped when its target already died of a crash token.
    chaos.check_accounting(
        run,
        planned=len(run.plan.faults) + len(run.plan.wire),
        fired=stats.injected_crashes
        + stats.injected_hangs
        + stats.forced_lease_expiries
        + len(run.wire_fired),
        busy=_BUSY,
    )


def _run_plan(
    run: DistChaosRun,
    context: JobContext,
    shards: List[ShardSpec],
    baseline,
    lease: LeasePolicy,
    workers: int,
    proxy: chaos.ChaosProxy,
) -> None:
    coordinator = DistCoordinator(
        context,
        shards,
        lease=lease,
        expect_workers=workers,
        degrade_after=30.0,
        chaos_plan=None if run.plan.is_empty() else run.plan,
    )
    proxy.arm(run.plan)
    _, port = coordinator.start()
    proxy.set_upstream(port)
    outcome: Dict[str, object] = {}

    def coordinate() -> None:
        try:
            outcome["result"] = coordinator.run()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    def kill(proc) -> None:
        # SIGKILL one whole worker once the job is demonstrably underway.
        deadline = time.monotonic() + RUN_DEADLINE
        while time.monotonic() < deadline:
            if coordinator.stats.shards_completed >= 1:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.kill()

    try:
        # Workers dial the proxy, not the coordinator.
        with local_workers(proxy.host, proxy.port, workers) as procs:
            running = threading.Thread(target=coordinate, daemon=True)
            running.start()
            if "kill_worker" in run.plan.phases and procs:
                threading.Thread(
                    target=kill, args=(procs[0],), daemon=True
                ).start()
            running.join(timeout=RUN_DEADLINE)
            if running.is_alive():
                raise TimeoutError(
                    f"did not terminate within {RUN_DEADLINE:.0f}s"
                )
    finally:
        coordinator.stop()
        # Read the fired log before disarming: arm() resets it.
        run.wire_fired = list(proxy.fired)
        proxy.arm(None)
    if "error" in outcome:
        raise outcome["error"]
    _check_run(run, outcome["result"], baseline, coordinator.stats)


def _resume_phase(
    context: JobContext,
    shards: List[ShardSpec],
    baseline,
    lease: LeasePolicy,
    report: DistChaosReport,
) -> None:
    """Abandon a coordinator mid-frontier, resume from its checkpoint."""
    interrupt_after = min(2, len(shards) - 1)
    with tempfile.TemporaryDirectory(prefix="repro-dist-chaos-") as tmp:
        path = os.path.join(tmp, "frontier.ckpt")
        first = DistCoordinator(
            context,
            shards,
            lease=lease,
            checkpoint_path=path,
            expect_workers=0,
        )
        # Complete a frontier prefix locally, then walk away without any
        # shutdown — the checkpoint file is all a SIGKILL would leave.
        while first.stats.shards_completed < interrupt_after:
            if not first._maybe_run_local():
                report.sweep_violations.append(
                    "interrupted coordinator ran out of local shards early"
                )
                return
        if first.stats.frontier_checkpoints < 1:
            report.sweep_violations.append(
                "no frontier checkpoint written before the interrupt"
            )
        second = DistCoordinator(
            context,
            shards,
            lease=lease,
            checkpoint_path=path,
            resume=True,
            expect_workers=0,
        )
        result = second.run()
        report.resumed_shards = second.stats.resumed_shards
        if second.stats.resumed_shards != interrupt_after:
            report.sweep_violations.append(
                f"expected {interrupt_after} resumed shard(s), got "
                f"{second.stats.resumed_shards}"
            )
        if result.key() != baseline.key():
            report.sweep_violations.append(
                "resumed result diverged from the serial baseline"
            )
        # A checkpoint from a *different* job must be refused, typed.
        foreign = shards[:-1]
        try:
            DistCoordinator(
                context,
                foreign,
                lease=lease,
                checkpoint_path=path,
                resume=True,
                expect_workers=0,
            )
        except DistError:
            pass
        else:
            report.sweep_violations.append(
                "a foreign job's frontier checkpoint was accepted"
            )


def run_dist_chaos(
    plans: int = 4,
    base_seed: int = 0,
    restarts: int = 6,
    workers: int = 2,
) -> DistChaosReport:
    """Runs a full dist-chaos sweep and returns the per-plan verdicts.

    Builds a small in-process workload (the ``Keyword`` benchmark), runs
    the single-host serial baseline once, then every plan against
    ``workers`` real worker subprocesses behind a fault-injecting proxy.
    Like the other chaos harnesses, nothing raises on violation — the
    report carries the verdicts.
    """
    import hashlib

    from ...bench import get_spec, load_source
    from ...core import compile_program, profile_program
    from ...schedule.anneal import AnnealConfig
    from .shards import make_restart_shards

    spec = get_spec("Keyword")
    source = load_source("Keyword")
    prog_args = ["8"]
    compiled = compile_program(source, spec.filename)
    profile = profile_program(compiled, prog_args)
    context = JobContext(
        compiled=compiled,
        profile=profile,
        num_cores=4,
        source_digest=hashlib.sha256(
            "\x00".join([source] + prog_args).encode("utf-8")
        ).hexdigest(),
    )
    template = AnnealConfig(
        initial_candidates=1,
        max_iterations=3,
        max_evaluations=30,
        patience=2,
        continue_probability=0.2,
    )
    shard_list = make_restart_shards(template, restarts, base_seed=1234)
    # A short lease floor so injected hangs (3 s, see dist_plan) breach
    # their leases quickly; shards take well under a second each.
    lease = LeasePolicy(timeout_floor=2.0, timeout_mult=8.0)
    baseline = run_serial_baseline(context, shard_list)

    # Dist plans number downstream messages from 1.
    proxy = chaos.ChaosProxy(upstream_port=0, first=1)
    try:
        report = DistChaosReport(
            runs=chaos.sweep(
                DistChaosRun,
                plans,
                base_seed,
                lambda index, seed: dist_plan(index, seed, horizon=restarts),
                lambda run: _run_plan(
                    run, context, shard_list, baseline, lease, workers, proxy
                ),
            )
        )
        _resume_phase(context, shard_list, baseline, lease, report)
    finally:
        proxy.close()
    return report

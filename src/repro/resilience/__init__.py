"""Detection-driven resilience: heartbeats, watchdogs, retry, quarantine.

:mod:`repro.fault` (PR 1) gave the machine transactional fault *recovery*,
but the recovery engine fired in the same event as the injected fault — an
oracle no real machine has. This package closes the loop with failure
*detection*:

* :mod:`repro.resilience.config` — :class:`ResilienceConfig`, the policy
  knobs (heartbeat period, suspicion threshold, watchdog multiplier,
  retry/backoff budget). Installed via ``MachineConfig.resilience``;
  absent (None), the machine is bit-identical to the seed.
* :mod:`repro.resilience.detector` — per-core heartbeats and the
  missed-beat monitor. Crashes become *silent halts*, discovered from the
  outside with measurable detection latency; long stalls can be falsely
  suspected, evicted, and later rejoined without double-commit.
* :mod:`repro.resilience.watchdog` — per-invocation deadlines from
  profile cost estimates, preemption via snapshot rollback, deterministic
  exponential backoff, and a dead-letter queue
  (``MachineResult.quarantined``) for poison work.
* :mod:`repro.resilience.chaos` — the seeded chaos harness: sweeps of
  random fault plans with machine-checked termination, exactly-once, and
  baseline-equivalence invariants.
"""

from .chaos import ChaosReport, ChaosRun, chaos_plan, run_chaos
from .config import ResilienceConfig
from .detector import FailureDetector
from .watchdog import QuarantineRecord, TaskWatchdog

__all__ = [
    "ChaosReport",
    "ChaosRun",
    "FailureDetector",
    "QuarantineRecord",
    "ResilienceConfig",
    "TaskWatchdog",
    "chaos_plan",
    "run_chaos",
]

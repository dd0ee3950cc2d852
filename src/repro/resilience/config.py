"""Resilience policy knobs.

One :class:`ResilienceConfig` turns the machine's fault handling from
oracle-driven (the injector announces the failure) into detection-driven:
cores emit heartbeats, a monitor suspects silence, dispatched invocations
carry watchdog deadlines, and failed work retries with exponential backoff
until it is quarantined. Everything is deterministic — all thresholds are
fixed cycle counts, so a resilient run is exactly as reproducible as a
plain one.

With ``MachineConfig.resilience`` absent (None) none of this machinery
is installed and the run stays bit-identical to the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fault.plan import FaultError
from ..ir import costs
from ..runtime.profiler import ProfileData


@dataclass
class ResilienceConfig:
    """Tunables for detection-driven failure handling."""

    #: cycles between liveness heartbeats on each live core
    heartbeat_interval: int = 500
    #: consecutive missed beats before the monitor suspects a core; the
    #: suspicion window is ``heartbeat_interval * suspicion_beats`` cycles
    suspicion_beats: int = 3
    #: cycles a core spends emitting one heartbeat
    heartbeat_cost: int = costs.HEARTBEAT_COST
    #: watchdog deadline = profile cost estimate x this multiplier (scaled
    #: by the core's speed); None disables the watchdog entirely
    deadline_multiplier: Optional[float] = None
    #: cost estimates for the deadline formula (``avg_task_cycles``); tasks
    #: absent from the profile fall back to ``fallback_deadline``
    profile: Optional[ProfileData] = None
    #: absolute deadline in cycles for tasks with no profile estimate;
    #: None leaves unprofiled tasks un-watched
    fallback_deadline: Optional[int] = None
    #: watchdog preemptions allowed per (task, object-group) before the
    #: objects move to the dead-letter queue
    max_retries: int = 3
    #: backoff before retry attempt ``n`` is ``backoff_base * 2**(n-1)``
    backoff_base: int = 512

    def validate(self) -> None:
        if self.heartbeat_interval <= 0:
            raise FaultError(
                f"heartbeat_interval must be positive: {self.heartbeat_interval}"
            )
        if self.suspicion_beats < 1:
            raise FaultError(
                f"suspicion_beats must be >= 1: {self.suspicion_beats}"
            )
        if self.heartbeat_cost < 0:
            raise FaultError(f"heartbeat_cost must be >= 0: {self.heartbeat_cost}")
        if self.deadline_multiplier is not None and self.deadline_multiplier <= 0:
            raise FaultError(
                f"deadline_multiplier must be positive: {self.deadline_multiplier}"
            )
        if self.fallback_deadline is not None and self.fallback_deadline <= 0:
            raise FaultError(
                f"fallback_deadline must be positive: {self.fallback_deadline}"
            )
        if self.max_retries < 0:
            raise FaultError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base < 0:
            raise FaultError(f"backoff_base must be >= 0: {self.backoff_base}")

    @property
    def suspicion_window(self) -> int:
        """Cycles of heartbeat silence before a core is suspected."""
        return self.heartbeat_interval * self.suspicion_beats

    def deadline_for(self, task: str) -> Optional[int]:
        """Unscaled watchdog deadline for one invocation of ``task``.

        ``None`` means the invocation runs unwatched (watchdog disabled, or
        the task has neither a profile estimate nor a fallback).
        """
        if self.deadline_multiplier is None:
            return None
        if self.profile is not None:
            estimate = self.profile.avg_task_cycles(task)
            if estimate > 0:
                return max(1, int(estimate * self.deadline_multiplier))
        return self.fallback_deadline

    def backoff_for(self, attempt: int) -> int:
        """Deterministic backoff before retry ``attempt`` (1-based)."""
        return self.backoff_base * (2 ** max(0, attempt - 1))

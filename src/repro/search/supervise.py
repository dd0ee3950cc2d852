"""Supervision policy and telemetry for the layout search's process pool.

:class:`~repro.search.evaluator.ParallelEvaluator` supervises its
workers the way :mod:`repro.resilience` handles the simulated machine —
detection, bounded retry, graceful degradation — one level up, at the
host. This module holds the plain data it runs on:
:class:`RetryPolicy` (deadlines, retries, backoff, degradation; the
arithmetic is shared through :mod:`repro.search.retry`) and
:class:`SupervisionStats` (what supervision did, including injected
host-chaos faults from :mod:`repro.search.hostchaos`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

from ..obs.events import Event


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for :class:`~repro.search.ParallelEvaluator`.

    The per-dispatch deadline is ``max(timeout_floor, ewma *
    timeout_mult)`` where ``ewma`` tracks observed simulation wall-times;
    queued dispatches get one extra deadline per full wave ahead of them,
    so a deep batch on few workers is not falsely timed out.
    """

    #: deadline = EWMA of observed simulation seconds × this
    timeout_mult: float = 16.0
    #: minimum deadline in seconds (cold pools pay interpreter spawn +
    #: context shipping on the first dispatch)
    timeout_floor: float = 5.0
    #: EWMA smoothing factor for observed wall-times
    ewma_alpha: float = 0.2
    #: pool attempts per task before it falls back to in-process simulation
    max_retries: int = 3
    #: consecutive no-progress pool failures before the evaluator degrades
    #: permanently to serial, in-process simulation
    max_pool_failures: int = 3
    #: base backoff (seconds) between failure rounds; doubles per round
    backoff_base: float = 0.05
    #: backoff ceiling in seconds
    backoff_cap: float = 2.0

    def validate(self) -> None:
        if self.timeout_mult <= 0 or self.timeout_floor <= 0:
            raise ValueError("deadline parameters must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.max_retries < 1 or self.max_pool_failures < 1:
            raise ValueError("retry bounds must be >= 1")


@dataclass
class SupervisionStats:
    """What supervision did during one evaluator's lifetime.

    Counters are exact for a fault-free run (all zero) but only bounded
    for a faulted one: how many collateral tasks a pool failure takes
    down depends on wall-clock timing, so invariants over these are
    inequalities (see :mod:`repro.search.hostchaos`). Events carry no
    wall-clock fields for the same reason.
    """

    #: pool dispatches (every submission, retries included)
    dispatches: int = 0
    #: task re-submissions after a worker failure
    worker_retries: int = 0
    #: pool teardown/rebuild cycles
    pool_rebuilds: int = 0
    #: simulations that fell back to the in-process serial path
    serial_fallbacks: int = 0
    #: chaos faults actually fired (tokens handed to workers)
    injected_crashes: int = 0
    injected_hangs: int = 0
    #: the evaluator degraded permanently to serial mode
    degraded: bool = False
    events: List[Event] = field(default_factory=list)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready counters for the search-metrics snapshot: every
        field but the event log, so the chaos control check sees them
        all."""
        return {
            item.name: getattr(self, item.name)
            for item in fields(self)
            if item.name != "events"
        }

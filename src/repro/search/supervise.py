"""Worker supervision for the parallel layout search.

:class:`~repro.search.evaluator.ParallelEvaluator` trusts its workers: it
blocks on ``future.result()`` with no timeout, and a worker killed by the
OS (OOM, ``kill -9``) surfaces as an unhandled ``BrokenProcessPool`` that
loses the whole search. :class:`SupervisedEvaluator` closes that gap the
same way :mod:`repro.resilience` does for the simulated machine —
detection, bounded retry, and graceful degradation — at the host level:

* **Deadlines** — every dispatched simulation gets a wall-clock deadline
  derived from an EWMA of observed simulation times (×
  :attr:`RetryPolicy.timeout_mult`), floored at
  :attr:`RetryPolicy.timeout_floor` for cold starts. A breach means the
  worker hung (or the pool starved) and triggers recovery.
* **Retry with backoff** — failed dispatches are re-submitted up to
  :attr:`RetryPolicy.max_retries` times, with exponential backoff and a
  deterministic jitter between rounds. Because simulation is
  deterministic, a retried result is bit-identical to the one the lost
  worker would have produced — supervision cannot change search results,
  only rescue them.
* **Pool rebuild** — a ``BrokenProcessPool`` or deadline breach tears the
  pool down (terminating stragglers) and rebuilds it; after
  :attr:`RetryPolicy.max_pool_failures` consecutive failures without
  progress the evaluator degrades permanently to in-process serial
  simulation, which needs no pool at all.
* **Per-task serial fallback** — a single task that exhausts its retries
  is simulated in-process; if it *still* fails, that is a real error and
  propagates with the layout's batch position attached
  (:class:`~repro.search.evaluator.EvaluationError`).

The PR 4 batch-determinism contract is preserved: results are collected
per input position and every position is eventually filled (or a real
error raised), so a supervised run with any number of worker failures is
bit-identical to a fault-free one.

Host-chaos injection (:mod:`repro.search.hostchaos`) plugs in here: the
supervisor numbers every pool dispatch with a global sequence id and asks
the plan whether that dispatch should crash (``os._exit`` inside the
worker) or hang (sleep past its deadline); the worker takes that step
through :func:`repro.chaos.worker_fault`.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

try:  # pragma: no cover - present on every supported runtime
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - defensive
    BrokenProcessPool = OSError  # type: ignore[assignment,misc]

from ..chaos import worker_fault
from ..obs import prof
from ..obs.events import Event, PoolRebuild, WorkerRetry
from ..schedule.layout import Layout
from ..schedule.simulator import SimResult
from . import retry
from .cache import SimCache
from .evaluator import (
    EvaluationError,
    ParallelEvaluator,
    SerialEvaluator,
    _C_POOL_DISPATCHES,
    _P_COMPUTE,
    _ChunkItemError,
    _chunk_bounds,
    _init_worker,
    _simulate_chunk_timed,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram
    from ..runtime.profiler import ProfileData
    from .hostchaos import HostChaosPlan


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for :class:`SupervisedEvaluator`.

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


#: Deterministic jitter fraction in [0, 1) for backoff sleeps, keyed by
#: the dispatch sequence and failure round so concurrent searches do not
#: thunder in lockstep yet replays stay reproducible. Shared with the
#: serve client and the dist lease layer via :mod:`repro.search.retry`.
_jitter = retry.jitter


def _chaos_simulate_chunk(
    layouts: Sequence[Layout],
    cutoff: Optional[int],
    chaos: Optional[Tuple[str, float]],
) -> Tuple[int, List[SimResult]]:
    """The supervised chunk entry point: optionally misbehave, then
    simulate the whole chunk and report its compute nanoseconds."""
    if chaos is not None:
        worker_fault(*chaos)
    return _simulate_chunk_timed(layouts, cutoff)


class SupervisedEvaluator(ParallelEvaluator):
    """A :class:`ParallelEvaluator` that survives worker crashes and hangs.

    Same constructor as the parent plus a :class:`RetryPolicy` and an
    optional :class:`~repro.search.hostchaos.HostChaosPlan`. Fault-free,
    it produces bit-identical results to the unsupervised evaluator (and
    to :class:`SerialEvaluator`); under injected or real worker failures
    it still does, at the cost of retries.
    """

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: "ProfileData",
        hints: Optional[Dict[str, str]] = None,
        core_speeds: Optional[Dict[int, float]] = None,
        cache: Optional[SimCache] = None,
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
        chaos: Optional["HostChaosPlan"] = None,
    ):
        super().__init__(
            compiled, profile, hints=hints, core_speeds=core_speeds,
            cache=cache, workers=workers,
        )
        self.policy = policy or RetryPolicy()
        self.policy.validate()
        self.chaos = chaos
        self.stats = SupervisionStats()
        self._ewma: Optional[float] = None
        self._dispatch_seq = 0
        self._serial_mode = False
        self._consecutive_pool_failures = 0
        self._pending: List[int] = []

    # -- deadline model ------------------------------------------------------

    def _deadline(self) -> float:
        """Per-dispatch deadline in seconds, from the observed EWMA."""
        return retry.ewma_deadline(
            self.policy.timeout_floor, self.policy.timeout_mult, self._ewma
        )

    def _observe(self, elapsed: float) -> None:
        self._ewma = retry.ewma_update(
            self._ewma, elapsed, self.policy.ewma_alpha
        )

    # -- pool lifecycle ------------------------------------------------------

    def _teardown_pool(self) -> None:
        """Tears the pool down without waiting on hung workers."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - py < 3.9 fallback
            executor.shutdown(wait=False)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass

    def close(self) -> None:
        self._teardown_pool()

    def _handle_pool_failure(self, reason: str, retried: int) -> None:
        """One failure round: account, rebuild (or degrade), back off."""
        self._consecutive_pool_failures += 1
        self.stats.pool_rebuilds += 1
        self.stats.events.append(
            PoolRebuild(
                time=self._dispatch_seq,
                consecutive=self._consecutive_pool_failures,
                reason=reason,
            )
        )
        self._teardown_pool()
        if self._consecutive_pool_failures >= self.policy.max_pool_failures:
            self._serial_mode = True
            self.stats.degraded = True
            return
        round_index = self._consecutive_pool_failures
        time.sleep(
            retry.backoff_delay(
                self.policy.backoff_base,
                self.policy.backoff_cap,
                round_index,
                self._dispatch_seq,
                low=1.0,
                high=2.0,
            )
        )

    # -- chaos ---------------------------------------------------------------

    def _chaos_token(self, deadline: float) -> Optional[Tuple[str, float]]:
        """The fault (if any) the chaos plan designates for the dispatch
        about to be numbered ``self._dispatch_seq``."""
        if self.chaos is None:
            return None
        kind = self.chaos.kind_for(self._dispatch_seq)
        if kind is None:
            return None
        if kind == "crash":
            self.stats.injected_crashes += 1
            return ("crash", 0.0)
        self.stats.injected_hangs += 1
        # Sleep comfortably past the batch's most generous allowance so
        # the breach is detected, not raced.
        return ("hang", deadline * (1.0 + len(self._pending or [])))

    # -- the supervised batch ------------------------------------------------

    def _serial_one(self, position: int, total: int, layout: Layout,
                    cutoff: Optional[int]) -> SimResult:
        """In-process ground truth; a failure here is a real error."""
        self.stats.serial_fallbacks += 1
        try:
            return SerialEvaluator._simulate(self, [layout], cutoff)[0]
        except Exception as exc:
            raise EvaluationError(position, total, exc) from exc

    def _simulate(
        self, layouts: Sequence[Layout], cutoff: Optional[int]
    ) -> List[SimResult]:
        if not layouts:
            return []
        policy = self.policy
        total = len(layouts)
        results: List[Optional[SimResult]] = [None] * total
        attempts = [0] * total
        profiler = prof.active()
        # Worker wall-time harvested from completed dispatches; attributed
        # non-exclusively so the parent's dispatch self time stays the
        # IPC + supervision overhead (serial fallbacks compute in-process
        # and are therefore already inside the dispatch wall).
        compute_ns = 0
        compute_count = 0
        self._pending: List[int] = list(range(total))
        try:
            while self._pending:
                pending = self._pending
                if self._serial_mode:
                    for index in pending:
                        results[index] = self._serial_one(
                            index, total, layouts[index], cutoff
                        )
                    break
                # Tasks out of pool retries take the in-process path.
                exhausted = [
                    i for i in pending if attempts[i] >= policy.max_retries
                ]
                for index in exhausted:
                    results[index] = self._serial_one(
                        index, total, layouts[index], cutoff
                    )
                pending = [i for i in pending if results[i] is None]
                self._pending = pending
                if not pending:
                    break

                # The retry unit is a *chunk* (the same wave shape the
                # unsupervised evaluator dispatches): one chaos token,
                # deadline, and re-submission decision per chunk; retry
                # attempts and fallbacks stay accounted per layout.
                chunks = [
                    pending[start:stop]
                    for start, stop in _chunk_bounds(len(pending),
                                                     self.workers)
                ]
                deadline = self._deadline()
                failure: Optional[str] = None
                futures = {}
                try:
                    pool = self._pool()
                    for chunk_id, member_indices in enumerate(chunks):
                        token = self._chaos_token(deadline)
                        futures[chunk_id] = pool.submit(
                            _chaos_simulate_chunk,
                            [layouts[i] for i in member_indices],
                            cutoff,
                            token,
                        )
                        for index in member_indices:
                            attempts[index] += 1
                        self._dispatch_seq += 1
                        self.stats.dispatches += 1
                except (BrokenProcessPool, OSError, RuntimeError):
                    # The pool died before the batch was even in flight.
                    failure = "broken"

                collected: List[int] = []

                def harvest(member_indices, chunk_results, elapsed_ns):
                    nonlocal compute_ns, compute_count
                    # One elapsed covers the whole chunk; the EWMA tracks
                    # per-simulation seconds, so observe the average.
                    self._observe(
                        elapsed_ns / 1e9 / max(1, len(member_indices))
                    )
                    compute_ns += elapsed_ns
                    compute_count += len(member_indices)
                    for index, result in zip(member_indices, chunk_results):
                        results[index] = result
                        collected.append(index)

                if failure is None:
                    started = time.monotonic()
                    for rank, member_indices in enumerate(chunks):
                        allowance = (
                            deadline
                            * len(member_indices)
                            * (1 + rank // self.workers)
                        )
                        remaining = started + allowance - time.monotonic()
                        try:
                            elapsed_ns, chunk_results = futures[rank].result(
                                timeout=max(0.0, remaining)
                            )
                        except FutureTimeout:
                            failure = "deadline"
                            break
                        except BrokenProcessPool:
                            failure = "broken"
                            break
                        except _ChunkItemError as exc:
                            raise EvaluationError(
                                member_indices[exc.offset], total, exc
                            ) from exc
                        except Exception as exc:
                            raise EvaluationError(
                                member_indices[0], total, exc
                            ) from exc
                        harvest(member_indices, chunk_results, elapsed_ns)
                    if failure is not None:
                        # Harvest whatever else finished before the breach;
                        # a completed result is a completed result.
                        for rank, member_indices in enumerate(chunks):
                            if results[member_indices[0]] is not None:
                                continue
                            future = futures.get(rank)
                            if future is None or not future.done():
                                continue
                            try:
                                elapsed_ns, chunk_results = future.result(
                                    timeout=0
                                )
                            except Exception:
                                continue
                            harvest(member_indices, chunk_results, elapsed_ns)

                pending = [i for i in pending if results[i] is None]
                self._pending = pending
                if failure is None:
                    break
                if collected:
                    self._consecutive_pool_failures = 0
                for index in pending:
                    self.stats.worker_retries += 1
                    self.stats.events.append(
                        WorkerRetry(
                            time=self._dispatch_seq,
                            position=index,
                            attempt=attempts[index],
                            reason=failure,
                        )
                    )
                self._handle_pool_failure(failure, retried=len(pending))
        finally:
            self._pending = []
            if profiler is not None and compute_count:
                profiler.add_time(
                    _P_COMPUTE, compute_ns, count=compute_count, exclusive=False
                )
                profiler.add_count(_C_POOL_DISPATCHES)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

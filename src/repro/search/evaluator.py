"""Batch layout evaluation: the engine behind the DSA loop.

The annealer's wall-clock cost is almost entirely independent candidate
simulations, so evaluation is exposed as a *batch* operation with two
interchangeable backends:

* :class:`SerialEvaluator` — simulates in order, in process; and
* :class:`ParallelEvaluator` — fans the batch out across a supervised
  ``ProcessPoolExecutor`` (deadlines, bounded retries, pool rebuilds and
  serial degradation; the knobs and counters live in
  :mod:`repro.search.supervise`).

Both obey the same batch contract, which is what makes ``workers=N``
bit-identical to ``workers=1`` (test-enforced, like the
fault/resilience/obs off-modes):

1. Layouts are fingerprinted and looked up in the (optional)
   :class:`~repro.search.cache.SimCache` **in input order**.
2. A cache miss consumes one unit of the simulation ``budget``; the first
   miss that would exceed the budget stops the batch — layouts from that
   position on are left unscored, exactly as the serial backend would
   have left them.
3. Results are reduced **by input position**, not completion order.

Simulation itself is deterministic (the exit chooser is a deterministic
replay of the profile; all randomness lives in the annealer, in the
parent process), so the only source of order dependence is the cache
policy — which the contract pins down. The same determinism makes
supervision result-transparent: a retried simulation is bit-identical to
the one the lost worker would have produced, so the pool can only
rescue results, never change them.
"""

from __future__ import annotations

import atexit
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..chaos import worker_fault
from ..obs import prof
from ..obs.events import PoolRebuild, WorkerRetry
from ..schedule.layout import Layout, layout_fingerprint
from ..schedule.simulator import SimResult, SimSession
from . import retry
from .cache import CacheEntry, SimCache
from .supervise import RetryPolicy, SupervisionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram
    from ..runtime.profiler import ProfileData
    from .hostchaos import HostChaosPlan

#: Sentinel cycle count for simulations that did not finish — worse than
#: any real layout, so unfinishable candidates always rank last.
INFEASIBLE_CYCLES = 1 << 62

_P_CACHE_LOOKUP = prof.intern_phase("search.cache_lookup")
_P_DISPATCH = prof.intern_phase("search.dispatch")
_P_REDUCE = prof.intern_phase("search.reduce")
#: Worker-reported simulation time, attributed as a *non-exclusive*
#: child of ``search.dispatch`` — so the dispatch phase's self time is
#: the wall the compute does not explain: serialization + IPC + waiting.
_P_COMPUTE = prof.intern_phase("search.worker_compute")
_C_POOL_DISPATCHES = prof.intern_phase("search.pool_dispatches")


class EvaluationError(RuntimeError):
    """A candidate simulation failed inside a worker process.

    Carries the failing layout's position within the dispatched batch so
    a multi-hour search that dies on one candidate says *which* one.
    """

    def __init__(self, position: int, batch_size: int, cause: BaseException):
        # A _ChunkItemError already names the original exception type.
        cause_name = getattr(cause, "cause_type", type(cause).__name__)
        super().__init__(
            f"simulation of layout {position + 1}/{batch_size} in batch "
            f"failed: {cause_name}: {cause}"
        )
        self.position = position
        self.batch_size = batch_size


#: Live pool-backed evaluators, closed at interpreter exit so an exception
#: mid-batch can't leave orphaned worker processes hanging shutdown.
_LIVE_EVALUATORS: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _close_live_evaluators() -> None:  # pragma: no cover - interpreter exit
    for evaluator in list(_LIVE_EVALUATORS):
        try:
            evaluator.close()
        except Exception:
            pass


@dataclass
class ScoredLayout:
    """One scored candidate of a batch."""

    layout: Layout
    #: ``layout``'s :class:`SimCache` key
    fingerprint: str
    cycles: int
    result: SimResult
    from_cache: bool = False


@dataclass
class BatchOutcome:
    """The scored prefix of one batch, plus its accounting."""

    scored: List[ScoredLayout] = field(default_factory=list)
    #: real simulations performed (the unit ``max_evaluations`` budgets)
    simulations: int = 0
    cache_hits: int = 0


def _score(result: SimResult) -> int:
    return result.total_cycles if result.finished else INFEASIBLE_CYCLES


class _EvaluatorBase:
    """Cache bookkeeping and batch planning shared by both backends."""

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: "ProfileData",
        hints: Optional[Dict[str, str]] = None,
        core_speeds: Optional[Dict[int, float]] = None,
        cache: Optional[SimCache] = None,
    ):
        self.compiled = compiled
        self.profile = profile
        self.hints = hints
        self.core_speeds = core_speeds
        self.cache = cache
        # In-process simulation session: shares per-program tables across
        # the whole search.
        self.session = SimSession(
            compiled, profile, hints=hints, core_speeds=core_speeds
        )
        # A simulation depends on the hints, so a shared cache must not
        # answer a hinted lookup with an unhinted result; hint-free keys
        # stay the bare layout fingerprint.
        self._hint_key = "".join(
            f"|{task}={policy}"
            for task, policy in sorted((hints or {}).items())
        )

    def fingerprint(self, layout: Layout) -> str:
        return layout_fingerprint(layout, self.core_speeds) + self._hint_key

    def _plan(
        self,
        layouts: Sequence[Layout],
        budget: Optional[int],
        charge_hits: bool = False,
    ) -> Tuple[List[Tuple[int, Layout, Optional[CacheEntry], str]], int]:
        """Walks the batch in order, resolving cache hits and selecting the
        misses to simulate. Returns ``(plan, hits)`` where each plan item
        is ``(position, layout, entry-or-None, fingerprint)``; the plan
        stops at the first miss the budget cannot cover.

        With ``charge_hits`` every *request* consumes one budget unit, so
        the plan is exactly the first ``budget`` layouts regardless of
        what the cache holds — the scored prefix (and therefore the whole
        search trajectory) is identical against a cold or a warm cache.
        Layouts past the budget are not even looked up, so the cache
        counters stay cache-state-comparable too.
        """
        plan: List[Tuple[int, Layout, Optional[CacheEntry], str]] = []
        hits = 0
        misses = 0
        for position, layout in enumerate(layouts):
            if charge_hits and budget is not None and len(plan) >= budget:
                break
            fingerprint = self.fingerprint(layout)
            entry = (
                self.cache.get(fingerprint)
                if self.cache is not None
                else None
            )
            if entry is None:
                if not charge_hits and budget is not None and misses >= budget:
                    break
                misses += 1
            else:
                hits += 1
            plan.append((position, layout, entry, fingerprint))
        return plan, hits

    def _record(
        self, fingerprint: str, result: SimResult
    ) -> CacheEntry:
        entry = CacheEntry(cycles=_score(result), result=result)
        if self.cache is not None:
            self.cache.put(fingerprint, entry)
        return entry

    def evaluate(
        self,
        layouts: Sequence[Layout],
        budget: Optional[int] = None,
        charge_hits: bool = False,
    ) -> BatchOutcome:
        with prof.phase(_P_CACHE_LOOKUP):
            plan, hits = self._plan(layouts, budget, charge_hits)
        outcome = BatchOutcome(cache_hits=hits)
        miss_indices = [
            index for index, item in enumerate(plan) if item[2] is None
        ]
        with prof.phase(_P_DISPATCH):
            results = self._simulate(
                [plan[index][1] for index in miss_indices]
            )
        with prof.phase(_P_REDUCE):
            for index, result in zip(miss_indices, results):
                outcome.simulations += 1
                position, layout, _, fingerprint = plan[index]
                plan[index] = (
                    position, layout, self._record(fingerprint, result),
                    fingerprint,
                )
            simulated = set(miss_indices)
            for index, (_, layout, entry, fingerprint) in enumerate(plan):
                assert entry is not None
                outcome.scored.append(
                    ScoredLayout(
                        layout=layout,
                        fingerprint=fingerprint,
                        cycles=entry.cycles,
                        result=entry.result,
                        from_cache=index not in simulated,
                    )
                )
        return outcome

    # -- backend hooks -------------------------------------------------------

    def _simulate(self, layouts: Sequence[Layout]) -> List[SimResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Nothing to release by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialEvaluator(_EvaluatorBase):
    """In-process, in-order evaluation — the reference backend."""

    def _simulate(self, layouts: Sequence[Layout]) -> List[SimResult]:
        session = self.session
        return [session.simulate(layout) for layout in layouts]


# -- process-pool backend ------------------------------------------------------

#: Per-worker simulation session, installed by the pool initializer.
_WORKER_CONTEXT: Dict[str, SimSession] = {}


class _ChunkItemError(Exception):
    """Wraps a simulation failure inside a chunk with its item offset, so
    the parent can report the exact batch position."""

    def __init__(self, offset: int, cause_type: str, cause_message: str):
        super().__init__(offset, cause_type, cause_message)
        self.offset = offset
        self.cause_type = cause_type
        self.cause_message = cause_message

    def __str__(self) -> str:
        return self.cause_message


def _init_worker(compiled, profile, hints, core_speeds) -> None:
    # Each worker keeps its own long-lived session, so program tables are
    # built once per process.
    _WORKER_CONTEXT["session"] = SimSession(
        compiled, profile, hints=hints, core_speeds=core_speeds
    )
    # A forked worker inherits the parent's installed profiler; anything
    # it would record dies with the process, so drop it — the parent
    # attributes worker compute from the chunk's reported time instead.
    prof.uninstall()


def _simulate_chunk(
    layouts: Sequence[Layout],
    chaos: Optional[Tuple[str, float]],
) -> Tuple[int, List[SimResult]]:
    """The worker entry point: optionally misbehave (the host-chaos token
    the parent designated for this dispatch), then simulate the chunk in
    order and return ``(compute_ns, results)``.

    Chunking is what amortizes pool IPC across a wave: one submit ships
    several layouts and returns several results, so the per-dispatch
    pickling overhead is paid once per chunk instead of once per
    candidate. The compute time feeds the deadline EWMA and the parent's
    profiler; the result objects never see it."""
    if chaos is not None:
        worker_fault(*chaos)
    started = time.perf_counter_ns()
    session = _WORKER_CONTEXT["session"]
    results: List[SimResult] = []
    for offset, layout in enumerate(layouts):
        try:
            results.append(session.simulate(layout))
        except Exception as exc:
            raise _ChunkItemError(
                offset, type(exc).__name__, str(exc)
            ) from exc
    return time.perf_counter_ns() - started, results


def _chunk_bounds(total: int, workers: int) -> List[Tuple[int, int]]:
    """Splits ``total`` items into contiguous chunks: about two chunks per
    worker (so a straggling chunk can overlap with the rest of the wave),
    capped at 16 items so one chunk never serializes a whole huge batch."""
    if total <= 0:
        return []
    size = -(-total // (workers * 2))
    size = max(1, min(16, size))
    return [
        (start, min(start + size, total)) for start in range(0, total, size)
    ]


class ParallelEvaluator(_EvaluatorBase):
    """Fans batch misses out across supervised worker processes.

    The compiled program and profile ship to each worker exactly once (via
    the pool initializer); per-batch traffic is just layouts out and
    ``SimResult``s back. Results are collected by input position, so the
    reduction is independent of completion order and the outcome is
    bit-identical to :class:`SerialEvaluator` — with or without worker
    failures:

    * **Deadlines** — every dispatch gets a wall-clock deadline from an
      EWMA of observed simulation times (:attr:`RetryPolicy.timeout_mult`,
      floored at :attr:`RetryPolicy.timeout_floor` for cold starts); a
      breach means the worker hung or the pool starved.
    * **Retry with backoff** — a chunk lost to a crash or a breach is
      re-submitted up to :attr:`RetryPolicy.max_retries` times, with
      exponential backoff and deterministic jitter between rounds.
    * **Pool rebuild** — a ``BrokenProcessPool`` or breach tears the pool
      down (terminating stragglers) and rebuilds it; after
      :attr:`RetryPolicy.max_pool_failures` consecutive failures without
      progress the evaluator degrades permanently to in-process serial
      simulation.
    * **Per-task serial fallback** — a task out of retries is simulated
      in-process; if it *still* fails, that is a real error and
      propagates as :class:`EvaluationError` with its batch position.

    Every dispatch is numbered with a global sequence id; an optional
    :class:`~repro.search.hostchaos.HostChaosPlan` uses it to make
    designated dispatches crash or hang inside the worker
    (:func:`repro.chaos.worker_fault`). :attr:`stats` records what
    supervision did.
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
            cache=cache,
        )
        if workers < 2:
            raise ValueError(
                "ParallelEvaluator needs workers >= 2; use SerialEvaluator"
            )
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self.policy = policy or RetryPolicy()
        self.policy.validate()
        self.chaos = chaos
        self.stats = SupervisionStats()
        self._ewma: Optional[float] = None
        self._dispatch_seq = 0
        self._serial_mode = False
        self._consecutive_pool_failures = 0
        self._pending: List[int] = []
        _LIVE_EVALUATORS.add(self)

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

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.compiled, self.profile, self.hints, self.core_speeds,
                ),
            )
        return self._executor

    def _teardown_pool(self) -> None:
        """Tears the pool down without waiting on hung workers:
        ``cancel_futures`` drops everything still queued and stragglers
        are terminated. The next batch rebuilds the pool."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass

    def close(self) -> None:
        self._teardown_pool()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _handle_pool_failure(self, reason: str) -> None:
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
        about to be numbered ``self._dispatch_seq``. The caller counts it
        with :meth:`_count_fault` once the dispatch is submitted."""
        if self.chaos is None:
            return None
        kind = self.chaos.kind_for(self._dispatch_seq)
        if kind is None:
            return None
        if kind == "crash":
            return ("crash", 0.0)
        # Sleep comfortably past the batch's most generous allowance so
        # the breach is detected, not raced.
        return ("hang", deadline * (1.0 + len(self._pending)))

    def _count_fault(self, token: Optional[Tuple[str, float]]) -> None:
        if token is None:
            return
        if token[0] == "crash":
            self.stats.injected_crashes += 1
        else:
            self.stats.injected_hangs += 1

    # -- the supervised batch ------------------------------------------------

    def _serial_one(self, position: int, total: int,
                    layout: Layout) -> SimResult:
        """In-process ground truth; a failure here is a real error."""
        self.stats.serial_fallbacks += 1
        try:
            return self.session.simulate(layout)
        except Exception as exc:
            raise EvaluationError(position, total, exc) from exc

    def _simulate(self, layouts: Sequence[Layout]) -> List[SimResult]:
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
        self._pending = list(range(total))
        try:
            while self._pending:
                pending = self._pending
                if self._serial_mode:
                    for index in pending:
                        results[index] = self._serial_one(
                            index, total, layouts[index]
                        )
                    break
                # Tasks out of pool retries take the in-process path.
                exhausted = [
                    i for i in pending if attempts[i] >= policy.max_retries
                ]
                for index in exhausted:
                    results[index] = self._serial_one(
                        index, total, layouts[index]
                    )
                pending = [i for i in pending if results[i] is None]
                self._pending = pending
                if not pending:
                    break

                # The retry unit is a *chunk*: one chaos token, deadline,
                # and re-submission decision per chunk; retry attempts and
                # fallbacks stay accounted per layout.
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
                            _simulate_chunk,
                            [layouts[i] for i in member_indices],
                            token,
                        )
                        # Counted only once submitted: a submit that finds
                        # the pool already broken (an earlier chunk's
                        # crash) leaves this dispatch id unused, and the
                        # next round hands the same token out again.
                        self._count_fault(token)
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
                self._handle_pool_failure(failure)
        finally:
            self._pending = []
            if profiler is not None and compute_count:
                # Non-exclusive: worker compute overlaps the parent's
                # ``search.dispatch`` wall (and, with N workers, can
                # exceed it), so it must not be subtracted from dispatch
                # self time — dispatch self is the IPC + wait overhead.
                profiler.add_time(
                    _P_COMPUTE, compute_ns, count=compute_count, exclusive=False
                )
                profiler.add_count(_C_POOL_DISPATCHES)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]


def make_evaluator(
    compiled: "CompiledProgram",
    profile: "ProfileData",
    hints: Optional[Dict[str, str]] = None,
    core_speeds: Optional[Dict[int, float]] = None,
    cache: Optional[SimCache] = None,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional["HostChaosPlan"] = None,
) -> "SerialEvaluator | ParallelEvaluator":
    """Builds the right backend for ``workers``: the supervised pool for
    ``workers > 1``, the in-process serial evaluator otherwise.

    Serial evaluation has no worker processes to supervise, so
    ``workers=1`` ignores ``policy`` — and refuses a host-chaos plan,
    which would otherwise run a plain search that fires nothing.
    """
    if workers > 1:
        return ParallelEvaluator(
            compiled, profile, hints=hints, core_speeds=core_speeds,
            cache=cache, workers=workers, policy=policy, chaos=chaos,
        )
    if chaos is not None:
        raise ValueError(
            f"host chaos needs workers >= 2 (got workers={workers}): a "
            "serial search has no worker processes to fault"
        )
    return SerialEvaluator(
        compiled, profile, hints=hints, core_speeds=core_speeds, cache=cache
    )

"""Batch layout evaluation: the engine behind the DSA loop.

The annealer's wall-clock cost is almost entirely independent candidate
simulations, so evaluation is exposed as a *batch* operation with two
interchangeable backends:

* :class:`SerialEvaluator` — simulates in order, in process; and
* :class:`ParallelEvaluator` — fans the batch out across a
  ``ProcessPoolExecutor``.

Both implement the :class:`Evaluator` protocol and obey the same batch
contract, which is what makes ``workers=N`` bit-identical to
``workers=1`` (test-enforced, like the fault/resilience/obs off-modes):

1. Layouts are fingerprinted and looked up in the (optional)
   :class:`~repro.search.cache.SimCache` **in input order**.
2. A cache miss consumes one unit of the simulation ``budget``; the first
   miss that would exceed the budget stops the batch — layouts from that
   position on are left unscored, exactly as the serial backend would
   have left them.
3. Misses are simulated under the batch's fixed ``cutoff`` (the incumbent
   best *entering* the batch — never updated mid-batch, so the outcome
   cannot depend on completion order or worker count).
4. Results are reduced **by input position**, not completion order.

Simulation itself is deterministic (the exit chooser is a deterministic
replay of the profile; all randomness lives in the annealer, in the
parent process), so the only sources of order dependence are the cache
and cutoff policies — which the contract pins down.
"""

from __future__ import annotations

import atexit
import weakref
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter_ns as _perf_counter_ns
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

try:  # pragma: no cover - exercised only where Protocol is available
    from typing import Protocol
except ImportError:  # pragma: no cover - py3.7 fallback
    Protocol = object  # type: ignore[assignment]

from ..obs import prof
from ..schedule.layout import Layout
from ..schedule.mapping import layout_fingerprint
from ..schedule.simulator import SimResult, SimSession
from .cache import CacheEntry, SimCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram
    from ..runtime.profiler import ProfileData

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
    #: simulations stopped early by the cutoff
    pruned: int = 0


class Evaluator(Protocol):
    """Anything that can score a batch of candidate layouts."""

    def evaluate(
        self,
        layouts: Sequence[Layout],
        cutoff: Optional[int] = None,
        budget: Optional[int] = None,
        charge_hits: bool = False,
    ) -> BatchOutcome:
        """Scores ``layouts`` under the batch contract above."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Releases backend resources (worker processes)."""
        ...  # pragma: no cover - protocol

    def __enter__(self) -> "Evaluator":
        ...  # pragma: no cover - protocol

    def __exit__(self, *exc_info) -> None:
        ...  # pragma: no cover - protocol


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

    def fingerprint(self, layout: Layout) -> str:
        return layout_fingerprint(layout, self.core_speeds)

    def _plan(
        self,
        layouts: Sequence[Layout],
        cutoff: Optional[int],
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
                self.cache.get(fingerprint, cutoff)
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
        entry = CacheEntry(
            cycles=_score(result), result=result, pruned=result.pruned
        )
        if self.cache is not None:
            self.cache.put(fingerprint, entry)
        return entry

    def evaluate(
        self,
        layouts: Sequence[Layout],
        cutoff: Optional[int] = None,
        budget: Optional[int] = None,
        charge_hits: bool = False,
    ) -> BatchOutcome:
        with prof.phase(_P_CACHE_LOOKUP):
            plan, hits = self._plan(layouts, cutoff, budget, charge_hits)
        outcome = BatchOutcome(cache_hits=hits)
        miss_indices = [
            index for index, item in enumerate(plan) if item[2] is None
        ]
        with prof.phase(_P_DISPATCH):
            results = self._simulate(
                [plan[index][1] for index in miss_indices], cutoff
            )
        with prof.phase(_P_REDUCE):
            for index, result in zip(miss_indices, results):
                outcome.simulations += 1
                if result.pruned:
                    outcome.pruned += 1
                position, layout, _, fingerprint = plan[index]
                plan[index] = (
                    position, layout, self._record(fingerprint, result),
                    fingerprint,
                )
            simulated = set(miss_indices)
            for index, (_, layout, entry, _) in enumerate(plan):
                assert entry is not None
                outcome.scored.append(
                    ScoredLayout(
                        layout=layout,
                        cycles=entry.cycles,
                        result=entry.result,
                        from_cache=index not in simulated,
                    )
                )
        return outcome

    # -- backend hooks -------------------------------------------------------

    def _simulate(
        self, layouts: Sequence[Layout], cutoff: Optional[int]
    ) -> List[SimResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Nothing to release by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialEvaluator(_EvaluatorBase):
    """In-process, in-order evaluation — the reference backend."""

    def _simulate(
        self, layouts: Sequence[Layout], cutoff: Optional[int]
    ) -> List[SimResult]:
        session = self.session
        return [session.simulate(layout, cutoff=cutoff) for layout in layouts]


# -- process-pool backend ------------------------------------------------------


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Shuts a pool down without stranding queued work.

    ``cancel_futures`` (py >= 3.9) drops everything still queued so the
    shutdown cannot deadlock behind an abandoned batch; on older runtimes
    the plain shutdown is the best available.
    """
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except TypeError:  # pragma: no cover - py < 3.9 fallback
        executor.shutdown(wait=True)

#: Per-worker simulation context, installed by the pool initializer.
_WORKER_CONTEXT: Dict[str, object] = {}


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
    _WORKER_CONTEXT["compiled"] = compiled
    _WORKER_CONTEXT["profile"] = profile
    _WORKER_CONTEXT["hints"] = hints
    _WORKER_CONTEXT["core_speeds"] = core_speeds
    # Each worker keeps its own long-lived session, so program tables are
    # built once per process.
    _WORKER_CONTEXT["session"] = SimSession(
        compiled, profile, hints=hints, core_speeds=core_speeds
    )
    # A forked worker inherits the parent's installed profiler; anything
    # it would record dies with the process, so drop it — the parent
    # attributes worker compute from the timed entry point instead.
    prof.uninstall()


def _worker_session() -> SimSession:
    session = _WORKER_CONTEXT.get("session")
    if session is None:  # pragma: no cover - initializer always ran
        session = SimSession(
            _WORKER_CONTEXT["compiled"],
            _WORKER_CONTEXT["profile"],
            hints=_WORKER_CONTEXT["hints"],
            core_speeds=_WORKER_CONTEXT["core_speeds"],
        )
        _WORKER_CONTEXT["session"] = session
    return session


def _simulate_chunk(
    layouts: Sequence[Layout], cutoff: Optional[int]
) -> List[SimResult]:
    """Simulates one chunk of layouts in order.

    Chunking is what amortizes pool IPC across a wave: one submit ships
    several layouts and returns several results, so the per-dispatch
    pickling overhead is paid once per chunk instead of once per
    candidate."""
    session = _worker_session()
    results: List[SimResult] = []
    for offset, layout in enumerate(layouts):
        try:
            results.append(session.simulate(layout, cutoff=cutoff))
        except Exception as exc:
            raise _ChunkItemError(
                offset, type(exc).__name__, str(exc)
            ) from exc
    return results


def _simulate_chunk_timed(
    layouts: Sequence[Layout], cutoff: Optional[int]
) -> Tuple[int, List[SimResult]]:
    """The chunk entry used when a profiler is active in the parent:
    returns ``(compute_ns, results)`` so the parent can split its dispatch
    wall into worker compute vs IPC overhead. The result objects are
    untouched — cache entries and checkpoints never see the timing."""
    started = _perf_counter_ns()
    results = _simulate_chunk(layouts, cutoff)
    return _perf_counter_ns() - started, results


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
    """Fans batch misses out across worker processes.

    The compiled program and profile ship to each worker exactly once (via
    the pool initializer); per-batch traffic is just layouts out and
    ``SimResult``s back. Futures are collected in submission order, so the
    reduction is independent of completion order and the outcome is
    bit-identical to :class:`SerialEvaluator`.
    """

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: "ProfileData",
        hints: Optional[Dict[str, str]] = None,
        core_speeds: Optional[Dict[int, float]] = None,
        cache: Optional[SimCache] = None,
        workers: int = 2,
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
        _LIVE_EVALUATORS.add(self)

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.compiled,
                    self.profile,
                    self.hints,
                    self.core_speeds,
                ),
            )
        return self._executor

    def _simulate(
        self, layouts: Sequence[Layout], cutoff: Optional[int]
    ) -> List[SimResult]:
        if not layouts:
            return []
        if len(layouts) == 1:
            # Not worth a round trip; the serial path is bit-identical.
            return SerialEvaluator._simulate(self, layouts, cutoff)
        pool = self._pool()
        profiler = prof.active()
        worker = _simulate_chunk if profiler is None else _simulate_chunk_timed
        chunks = _chunk_bounds(len(layouts), self.workers)
        futures = [
            pool.submit(worker, layouts[start:stop], cutoff)
            for start, stop in chunks
        ]
        results: List[SimResult] = []
        compute_ns = 0
        for (start, _), future in zip(chunks, futures):
            try:
                outcome = future.result()
            except _ChunkItemError as exc:
                raise EvaluationError(
                    start + exc.offset, len(layouts), exc
                ) from exc
            except Exception as exc:
                raise EvaluationError(start, len(layouts), exc) from exc
            if profiler is None:
                results.extend(outcome)
            else:
                elapsed, chunk_results = outcome
                compute_ns += elapsed
                results.extend(chunk_results)
        if profiler is not None:
            # Non-exclusive: worker compute overlaps the parent's
            # ``search.dispatch`` wall (and, with N workers, can exceed
            # it), so it must not be subtracted from dispatch self time —
            # dispatch self is exactly the IPC + wait overhead.
            profiler.add_time(
                _P_COMPUTE, compute_ns, count=len(results), exclusive=False
            )
            profiler.add_count(_C_POOL_DISPATCHES)
        return results

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            _shutdown_executor(executor)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def make_evaluator(
    compiled: "CompiledProgram",
    profile: "ProfileData",
    hints: Optional[Dict[str, str]] = None,
    core_speeds: Optional[Dict[int, float]] = None,
    cache: Optional[SimCache] = None,
    workers: int = 1,
    supervise: bool = False,
    policy=None,
    chaos=None,
) -> Evaluator:
    """Builds the right backend for ``workers``.

    With ``supervise=True`` (or an explicit retry ``policy`` / ``chaos``
    plan) a multi-worker evaluator is wrapped in host-fault supervision:
    deadlines, bounded retries, pool rebuilds, and serial degradation —
    see :mod:`repro.search.supervise`. Serial evaluation has no worker
    processes to supervise, so ``workers=1`` ignores these knobs.
    """
    if workers > 1:
        if supervise or policy is not None or chaos is not None:
            from .supervise import SupervisedEvaluator

            return SupervisedEvaluator(
                compiled,
                profile,
                hints=hints,
                core_speeds=core_speeds,
                cache=cache,
                workers=workers,
                policy=policy,
                chaos=chaos,
            )
        return ParallelEvaluator(
            compiled,
            profile,
            hints=hints,
            core_speeds=core_speeds,
            cache=cache,
            workers=workers,
        )
    return SerialEvaluator(
        compiled, profile, hints=hints, core_speeds=core_speeds, cache=cache
    )

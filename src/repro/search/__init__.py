"""Parallel, memoized layout search — the batch evaluation engine behind
directed simulated annealing (:mod:`repro.schedule.anneal`).

The DSA loop (paper §4.5) spends essentially all of its wall-clock time
in *independent* candidate simulations and re-visits layouts constantly.
This package factors the evaluation out of the annealer into:

* two batch evaluators — :class:`SerialEvaluator` in process and the
  supervised process pool :class:`ParallelEvaluator` (``workers=N`` is
  bit-identical to ``workers=1`` by construction — see
  :mod:`repro.search.evaluator` for the batch contract that guarantees
  it),
* a :class:`SimCache` memoizing simulation results by exact layout
  fingerprint across iterations, restarts, and (when shared) whole
  synthesis runs, with hit/miss/eviction counters surfaced through
  :mod:`repro.obs` metrics and :class:`repro.SynthesisReport`.

Because the search may run for hours on a real host, the package is also
fault-tolerant at the *host* level (distinct from the simulated-machine
resilience of :mod:`repro.resilience`):

* pool supervision in :class:`ParallelEvaluator`, with its
  :class:`RetryPolicy` and :class:`SupervisionStats` in
  :mod:`repro.search.supervise` — deadlines from an EWMA of observed
  simulation times, bounded retries with deterministic backoff, pool
  teardown/rebuild on crashes and hangs, and graceful degradation to
  serial evaluation — all result-transparent (bit-identical to a
  fault-free run) because simulation is deterministic,
* :mod:`repro.search.checkpoint` — atomic, digest-verified
  checkpoint/resume of the full annealing state at every iteration
  boundary (resumed runs are bit-identical to uninterrupted ones), and
* :mod:`repro.search.hostchaos` — a seeded host-chaos harness injecting
  worker crashes and hangs and machine-checking the supervision
  invariants.

One level above worker processes, :mod:`repro.search.dist` distributes
whole *annealing restarts* across multiple hosts: a fault-tolerant
coordinator/worker protocol with leases, work-stealing, and frontier
checkpointing whose merged result is bit-identical to a single-host
serial run (its own chaos harness, :mod:`repro.search.dist.chaos`,
machine-checks that). The shared backoff/jitter arithmetic all three
retry layers use, and the EWMA deadline the supervisor and the dist
leases share, live in :mod:`repro.search.retry`.

The user-facing switchboard is :class:`repro.SynthesisOptions`
(``workers=``, ``sim_cache=``, ``cache=``, ``retry_policy=``,
``checkpoint_path=``, ``resume=``, ``host_chaos=``).
"""

from .cache import CacheEntry, SimCache
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    SearchCheckpoint,
    read_checkpoint,
    write_checkpoint,
)
from .evaluator import (
    BatchOutcome,
    EvaluationError,
    INFEASIBLE_CYCLES,
    ParallelEvaluator,
    ScoredLayout,
    SerialEvaluator,
    make_evaluator,
)
from .storage import (
    StorageError,
    read_pickle_record,
    read_record,
    write_pickle_record,
    write_record,
)
from .hostchaos import (
    HostChaosReport,
    HostChaosRun,
    host_plan,
    run_host_chaos,
)
from .supervise import RetryPolicy, SupervisionStats

__all__ = [
    "BatchOutcome",
    "CHECKPOINT_FORMAT",
    "CacheEntry",
    "CheckpointError",
    "EvaluationError",
    "HostChaosReport",
    "HostChaosRun",
    "INFEASIBLE_CYCLES",
    "ParallelEvaluator",
    "RetryPolicy",
    "ScoredLayout",
    "SearchCheckpoint",
    "SerialEvaluator",
    "SimCache",
    "StorageError",
    "SupervisionStats",
    "host_plan",
    "make_evaluator",
    "read_checkpoint",
    "read_pickle_record",
    "read_record",
    "run_host_chaos",
    "write_checkpoint",
    "write_pickle_record",
    "write_record",
]

"""Job decomposition, shard execution, and deterministic reduction.

A distributed synthesis job is a list of **shards** — independent,
seeded annealing restarts (``bench_fig10_dsa``'s natural axis). Each
shard is a pure function of ``(JobContext, ShardSpec)``: a fresh
:class:`~repro.search.cache.SimCache`, a fresh RNG seeded from the spec,
one full DSA run. That purity is the whole determinism story:

* a shard re-executed after a worker crash produces the same
  :class:`ShardResult` bit for bit, so retry can never change the
  answer;
* two workers racing on a stolen shard produce *identical* results, so
  first-result-wins is safe and the loser is discardable;
* the merged outcome — reduced strictly in shard-id order by
  :func:`merge_shard_results` — is independent of which host ran what
  when, which is exactly the single-host serial baseline
  (:func:`run_serial_baseline`) computes.

What distribution gives up is the *shared* cache a single-host
multi-restart loop could thread through its restarts: shards must not
see each other's cache state, or shard ``i``'s result would depend on
shards ``0..i-1`` having run first (and on the same host). Cache
warmth is a wall-clock knob everywhere else in this codebase; here it
is pinned off across shard boundaries by construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ...obs import prof
from ...schedule.anneal import AnnealConfig, DirectedSimulatedAnnealing
from ...schedule.layout import Layout
from ..cache import SimCache
from ..storage import payload_digest, pack_pickle_record

_P_SHARD = prof.intern_phase("dist.shard")

#: cycles sentinel mirroring :data:`repro.search.evaluator.INFEASIBLE_CYCLES`
_NO_RESULT = 1 << 62


@dataclass
class JobContext:
    """Everything a worker needs to execute any shard of one job.

    Shipped once per worker connection (like the process pool's
    initializer payload), so per-shard messages stay small. The group
    graph is deliberately *not* shipped: it is a deterministic function
    of ``(compiled, profile)`` and each worker rebuilds it once, lazily.
    """

    compiled: object
    profile: object
    num_cores: int
    hints: Optional[Dict[str, str]] = None
    mesh_width: Optional[int] = None
    core_speeds: Optional[Dict[int, float]] = None
    #: identifies the program+workload for frontier-checkpoint safety;
    #: callers pass e.g. sha256 of the source text plus arguments
    source_digest: str = ""

    def __post_init__(self):
        self._group_graph = None

    def group_graph(self):
        """The job's group graph, built once per process."""
        if self._group_graph is None:
            from ...core import annotated_cstg
            from ...schedule.coregroup import build_group_graph

            cstg = annotated_cstg(self.compiled, self.profile)
            self._group_graph = build_group_graph(
                self.compiled.info, cstg, self.profile, granularity="task"
            )
        return self._group_graph

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_group_graph"] = None  # rebuilt lazily on the far side
        return state


@dataclass(frozen=True)
class ShardSpec:
    """One independent annealing restart: an id and a complete config."""

    shard_id: int
    config: AnnealConfig


@dataclass
class ShardResult:
    """The deterministic outcome of one shard (plus its wall clock).

    Every field except ``wall_seconds`` is a pure function of the shard;
    :func:`result_key` collects exactly those fields, and the chaos
    harness compares keys — never walls — across execution modes.
    """

    shard_id: int
    best_cycles: int
    best_layout: Layout
    evaluations: int
    cache_hits: int
    requested_evaluations: int
    iterations: int
    history: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0


def result_key(result: ShardResult) -> Tuple:
    """The deterministic identity of one shard result."""
    return (
        result.shard_id,
        result.best_cycles,
        result.best_layout.as_dict(),
        result.evaluations,
        result.cache_hits,
        result.requested_evaluations,
        result.iterations,
        tuple(result.history),
    )


def make_restart_shards(
    template: AnnealConfig, restarts: int, base_seed: int = 1234
) -> List[ShardSpec]:
    """Derives one seeded shard per restart, ``bench_fig10_dsa``-style:
    a base RNG hands each restart its own search seed."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = random.Random(base_seed)
    return [
        ShardSpec(
            shard_id=i,
            config=replace(template, seed=rng.randrange(1 << 30)),
        )
        for i in range(restarts)
    ]


def job_digest(context: JobContext, shards: List[ShardSpec]) -> str:
    """Identifies one (context, shard list) pair for frontier-checkpoint
    resume safety: a checkpoint taken for a different program, workload,
    shard count, or seed schedule must be refused, not merged."""
    summary = {
        "source_digest": context.source_digest,
        "num_cores": context.num_cores,
        "mesh_width": context.mesh_width,
        "core_speeds": sorted((context.core_speeds or {}).items()),
        "hints": sorted((context.hints or {}).items()),
        "shards": [(s.shard_id, s.config) for s in shards],
    }
    return payload_digest(pack_pickle_record("dist-job-summary", summary))


def execute_shard(context: JobContext, spec: ShardSpec) -> ShardResult:
    """Runs one shard to completion: a fresh cache, one full DSA run.

    Called identically by remote workers, the coordinator's local
    fallback path, and the single-host serial baseline — bit-identity
    across the three is by construction, not by reconciliation.
    """
    started = time.perf_counter()
    with prof.phase(_P_SHARD):
        with DirectedSimulatedAnnealing(
            context.compiled,
            context.profile,
            context.num_cores,
            config=spec.config,
            hints=context.hints,
            group_graph=context.group_graph(),
            mesh_width=context.mesh_width,
            core_speeds=context.core_speeds,
            cache=SimCache(),
        ) as dsa:
            outcome = dsa.run()
    return ShardResult(
        shard_id=spec.shard_id,
        best_cycles=outcome.best_cycles,
        best_layout=outcome.best_layout,
        evaluations=outcome.evaluations,
        cache_hits=outcome.cache_hits,
        requested_evaluations=outcome.requested_evaluations,
        iterations=outcome.iterations,
        history=list(outcome.history),
        wall_seconds=time.perf_counter() - started,
    )


@dataclass
class DistResult:
    """The merged outcome of one distributed (or serial-baseline) job."""

    #: per-shard results in shard-id order
    shards: List[ShardResult]
    #: best cycles after merging shards ``0..i`` — the incumbent
    #: trajectory the bit-identity contract covers
    trajectory: List[int]
    best_shard_id: int
    best_cycles: int
    best_layout: Layout
    evaluations: int
    cache_hits: int
    requested_evaluations: int
    wall_seconds: float = 0.0
    #: coordinator accounting snapshot (None for the serial baseline)
    stats: Optional[Dict[str, object]] = None

    def key(self) -> Tuple:
        """Deterministic identity: every shard key + the merged frontier."""
        return (
            tuple(result_key(r) for r in self.shards),
            tuple(self.trajectory),
            self.best_shard_id,
            self.best_cycles,
        )


def merge_shard_results(
    results: Dict[int, ShardResult], shard_count: int
) -> DistResult:
    """Reduces completed shards strictly in shard-id order.

    Arrival order, worker assignment, steal races — none of it can reach
    this function: it sees only ``{shard_id: result}``. Ties on best
    cycles go to the lowest shard id, the same winner a serial loop
    keeping its first-seen incumbent would pick.
    """
    missing = [i for i in range(shard_count) if i not in results]
    if missing:
        raise ValueError(f"cannot merge: shards {missing} incomplete")
    ordered = [results[i] for i in range(shard_count)]
    trajectory: List[int] = []
    best_cycles = _NO_RESULT
    best_id = -1
    for result in ordered:
        if result.best_cycles < best_cycles:
            best_cycles = result.best_cycles
            best_id = result.shard_id
        trajectory.append(best_cycles)
    return DistResult(
        shards=ordered,
        trajectory=trajectory,
        best_shard_id=best_id,
        best_cycles=best_cycles,
        best_layout=results[best_id].best_layout,
        evaluations=sum(r.evaluations for r in ordered),
        cache_hits=sum(r.cache_hits for r in ordered),
        requested_evaluations=sum(r.requested_evaluations for r in ordered),
    )


def run_serial_baseline(
    context: JobContext, shards: List[ShardSpec]
) -> DistResult:
    """The single-host reference: every shard in order, in process."""
    started = time.perf_counter()
    results = {spec.shard_id: execute_shard(context, spec) for spec in shards}
    merged = merge_shard_results(results, len(shards))
    merged.wall_seconds = time.perf_counter() - started
    return merged


def describe_dist_result(result: DistResult) -> str:
    """The deterministic report block shared by every execution mode.

    Contains no wall clocks, worker names, or counters — a distributed
    run's stdout must be byte-identical to the serial baseline's, and CI
    diffs exactly this text.
    """
    lines = [f"dist search: {len(result.shards)} shard(s)"]
    for shard in result.shards:
        lines.append(
            f"  shard {shard.shard_id:3d}: {shard.best_cycles} cycles "
            f"(evaluations {shard.evaluations}, cache hits "
            f"{shard.cache_hits}, iterations {shard.iterations})"
        )
    frontier = " -> ".join(str(v) for v in _frontier_steps(result.trajectory))
    lines.append(f"  frontier: {frontier}")
    lines.append(
        f"  best: shard {result.best_shard_id}, "
        f"{result.best_cycles} cycles"
    )
    placements = result.best_layout.as_dict()
    for group in sorted(placements):
        lines.append(f"    {group}: {placements[group]}")
    return "\n".join(lines)


def _frontier_steps(trajectory: List[int]) -> List[int]:
    """The strictly improving prefix values (the frontier's new bests)."""
    steps: List[int] = []
    for value in trajectory:
        if not steps or value < steps[-1]:
            steps.append(value)
    return steps

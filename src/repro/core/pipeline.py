"""The full synthesis pipeline: profile → CSTG → rules → DSA → layout.

This mirrors the staged strategy of paper §4: dependence and disjointness
analysis happen at :func:`repro.core.api.compile_program` time; this module
drives candidate generation, simulation-based evaluation, and optimization.

Search behaviour is configured through :class:`repro.SynthesisOptions`:
``workers=N`` fans candidate simulations out across worker processes
(bit-identical to the serial search), ``sim_cache`` memoizes simulation
results by layout fingerprint, and the cache counters export through the
:mod:`repro.obs` metrics pipeline (``report.search_metrics``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs import prof
from ..runtime.profiler import ProfileData
from ..schedule.anneal import AnnealResult, DirectedSimulatedAnnealing
from ..schedule.coregroup import GroupGraph, build_group_graph
from ..schedule.layout import Layout
from ..schedule.rules import ReplicaSuggestion, suggest_replicas
from .api import CompiledProgram, annotated_cstg
from .options import SynthesisOptions

_P_SYNTHESIZE = prof.intern_phase("pipeline.synthesize")
_P_CSTG = prof.intern_phase("synthesize.cstg")
_P_GROUP_GRAPH = prof.intern_phase("synthesize.group_graph")
_P_REPLICAS = prof.intern_phase("synthesize.replicas")
_P_ANNEAL = prof.intern_phase("synthesize.anneal")


@dataclass
class SynthesisReport:
    """Everything the synthesis run learned, for logs and experiments."""

    layout: Layout
    estimated_cycles: int
    #: real simulations performed (cache hits are free)
    evaluations: int
    iterations: int
    wall_seconds: float
    group_graph: GroupGraph
    suggestions: Dict[int, ReplicaSuggestion]
    history: List[int] = field(default_factory=list)
    #: evaluation requests answered by the simulation cache
    cache_hits: int = 0
    #: all evaluation requests: ``evaluations + cache_hits``
    requested_evaluations: int = 0
    #: search telemetry snapshot (``repro.obs/search-metrics-v1``)
    search_metrics: Dict[str, object] = field(default_factory=dict)


def synthesize_layout(
    compiled: CompiledProgram,
    profile: ProfileData,
    num_cores: int,
    options: Optional[SynthesisOptions] = None,
) -> SynthesisReport:
    """Synthesizes an optimized layout for ``num_cores`` cores.

    Runs candidate generation seeded by the transformation rules, then the
    directed-simulated-annealing search evaluated by the scheduling
    simulator. All knobs live on :class:`SynthesisOptions`;
    ``options.core_speeds`` enables the heterogeneous-cores extension and
    ``options.workers``/``options.sim_cache`` the parallel, memoized
    search.
    """
    options = options or SynthesisOptions()
    if options.cache is not None and not options.sim_cache:
        raise ValueError(
            "SynthesisOptions.cache is set but SynthesisOptions.sim_cache is "
            "False: a shared cache needs sim_cache=True"
        )

    with prof.phase(_P_SYNTHESIZE):
        return _synthesize(compiled, profile, num_cores, options)


def _synthesize(
    compiled: CompiledProgram,
    profile: ProfileData,
    num_cores: int,
    options: SynthesisOptions,
) -> SynthesisReport:
    started = _time.perf_counter()
    with prof.phase(_P_CSTG):
        cstg = annotated_cstg(compiled, profile)
    with prof.phase(_P_GROUP_GRAPH):
        graph = build_group_graph(compiled.info, cstg, profile)
    with prof.phase(_P_REPLICAS):
        suggestions = suggest_replicas(compiled.info, graph, profile, num_cores)

    from ..obs.metrics import MetricsRegistry, build_search_metrics
    from ..search import SimCache

    registry = MetricsRegistry()
    cache = options.cache
    if cache is None and options.sim_cache:
        cache = SimCache(registry=registry)
    elif cache is not None and cache.registry is None:
        cache.registry = registry

    with DirectedSimulatedAnnealing(
        compiled,
        profile,
        num_cores,
        config=options.effective_anneal(),
        hints=options.hints,
        group_graph=graph,
        mesh_width=options.mesh_width,
        core_speeds=options.core_speeds,
        cache=cache,
        workers=options.workers,
        use_cache=options.sim_cache,
        retry_policy=options.retry_policy,
        host_chaos=options.host_chaos,
        checkpoint_path=options.checkpoint_path,
        resume=options.resume,
        cancel_check=options.cancel_check,
    ) as dsa:
        with prof.phase(_P_ANNEAL):
            result: AnnealResult = dsa.run()
    wall = _time.perf_counter() - started
    supervision = result.supervision
    if supervision is not None:
        for counter, name in (
            ("worker_retries", "search_worker_retries"),
            ("pool_rebuilds", "search_pool_rebuilds"),
            ("serial_fallbacks", "search_serial_fallbacks"),
        ):
            amount = int(supervision.get(counter, 0))
            if amount:
                registry.counter(name).inc(amount)
    if result.checkpoints_written:
        registry.counter("search_checkpoints_written").inc(
            result.checkpoints_written
        )
    return SynthesisReport(
        layout=result.best_layout,
        estimated_cycles=result.best_cycles,
        evaluations=result.evaluations,
        iterations=result.iterations,
        wall_seconds=wall,
        group_graph=graph,
        suggestions=suggestions,
        history=result.history,
        cache_hits=result.cache_hits,
        requested_evaluations=result.requested_evaluations,
        search_metrics=build_search_metrics(
            workers=options.workers,
            wall_seconds=wall,
            evaluations=result.evaluations,
            cache_hits=result.cache_hits,
            cache_stats=result.cache_stats,
            registry=registry,
            supervision=supervision,
            checkpoints_written=result.checkpoints_written,
            events=result.host_events,
        ),
    )

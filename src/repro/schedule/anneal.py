"""Directed simulated annealing over candidate layouts (paper §4.5).

Each iteration simulates the current candidate set, probabilistically prunes
it (best layouts survive with high probability, poor ones with a small
probability), runs the critical path analysis on the survivors' traces, and
spawns new candidates implementing the suggested migrations. The loop stops
at diminishing returns, with a probabilistic chance to keep searching past a
local maximum. Setting ``use_critical_path=False`` degenerates to plain
undirected annealing (random moves only) — the ablation baseline.

Every setting comes from one :class:`repro.SynthesisOptions`, and
:meth:`DirectedSimulatedAnnealing.run` returns the
:class:`SynthesisReport`. Candidate evaluation is delegated to
:mod:`repro.search`: each iteration's candidate set is scored as one batch
(serial in process, or fanned out across the supervised worker pool —
bit-identical either way) and memoized in a :class:`~repro.search.SimCache`
keyed by exact layout fingerprint. Cache hits do **not** consume the
``max_evaluations`` budget — only real simulations do; the report carries
both tallies. The cache also keeps each entry's critical-path neighbours,
so a layout kept again — every layout of a search replayed against a warm
cache — is expanded without recomputing its critical path.

Host-level fault tolerance (this layer's :mod:`repro.resilience`
counterpart) comes in two halves:

* **Supervision** — with ``workers > 1`` the batch goes through
  :class:`repro.search.ParallelEvaluator`, whose pool has per-dispatch
  deadlines, bounded retries, pool rebuilds, and serial degradation,
  all result-transparent (policy and counters in
  :mod:`repro.search.supervise`).
* **Checkpoint/resume** — the search's whole progress is one
  :class:`~repro.search.SearchCheckpoint`, ``self.state``, which the loop
  updates in place. With ``checkpoint_path`` set, every iteration
  boundary writes a copy of it plus the RNG and cache snapshots
  (:mod:`repro.search.checkpoint`), so an interrupt loses at most the
  iteration in flight; ``resume=`` reads one back, and the resumed run is
  bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram
    from ..core.options import SynthesisOptions

from ..lang.errors import ScheduleError
from ..obs import prof
from ..obs.events import CheckpointWritten
from ..obs.metrics import build_search_metrics
from ..runtime.profiler import ProfileData
from ..search import ScoredLayout, SimCache, make_evaluator
from ..search.checkpoint import (
    CheckpointError,
    SearchCheckpoint,
    config_digest,
    read_checkpoint,
    write_checkpoint,
)
from .coregroup import GroupGraph, build_group_graph, task_is_replicable
from .critpath import compute_critical_path, suggest_moves
from .layout import Layout
from .mapping import (
    random_layouts,
    seed_layouts,
    with_instance_added,
    with_instance_moved,
)
from .rules import replica_choice_sets, suggest_replicas

_P_CSTG = prof.intern_phase("synthesize.cstg")
_P_GROUP_GRAPH = prof.intern_phase("synthesize.group_graph")
_P_ITERATION = prof.intern_phase("anneal.iteration")
_P_EVALUATE = prof.intern_phase("anneal.evaluate")
_P_CANDIDATES = prof.intern_phase("anneal.candidates")
_P_CHECKPOINT = prof.intern_phase("anneal.checkpoint")

#: Pruning keeps this many of the best candidates with certainty ...
KEEP_BEST = 4
#: ... and each poorer one with this probability.
KEEP_POOR_PROBABILITY = 0.15
#: Moves taken from one candidate's critical path.
MOVES_PER_CANDIDATE = 4
#: Random moves tried from each candidate.
RANDOM_MOVES_PER_CANDIDATE = 2


class SearchCancelled(ScheduleError):
    """A cooperative cancellation fired between search iterations.

    Raised when the ``cancel_check`` callback installed by the caller
    (the serving layer's request deadlines and graceful drain) returns
    true at an iteration boundary. The search stops cleanly — no partial
    iteration escapes, and the worker thread running it is reclaimed —
    without this being a program error or a crash.
    """


@dataclass
class AnnealConfig:
    seed: int = 0
    initial_candidates: int = 8
    patience: int = 2
    continue_probability: float = 0.75
    max_iterations: int = 40
    #: real simulations only — cache hits are free (see SynthesisReport)
    max_evaluations: int = 600
    use_critical_path: bool = True
    #: charge the ``max_evaluations`` budget per evaluation *request*
    #: (cache hits included) instead of per real simulation. Off by
    #: default — offline searches want hits to be budget-free. The serving
    #: layer (:mod:`repro.serve`) turns it on so a search against a warm
    #: persistent cache follows the exact trajectory of the cold run:
    #: with hits budget-free, a warm cache would leave the budget
    #: unspent and let the search run longer, breaking the served
    #: warm/cold bit-identity contract.
    budget_charges_hits: bool = False


@dataclass
class SynthesisReport:
    """Everything the synthesis run learned, for logs and experiments."""

    layout: Layout
    estimated_cycles: int
    #: real simulations performed (what ``max_evaluations`` budgets)
    evaluations: int
    iterations: int
    wall_seconds: float
    #: best estimate after each iteration
    history: List[int] = field(default_factory=list)
    #: evaluation requests answered by the simulation cache
    cache_hits: int = 0
    #: all evaluation requests: ``evaluations + cache_hits``
    requested_evaluations: int = 0
    #: search telemetry snapshot (``repro.obs/search-metrics-v1``)
    search_metrics: Dict[str, object] = field(default_factory=dict)


class DirectedSimulatedAnnealing:
    """The search driver."""

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: ProfileData,
        num_cores: int,
        options: Optional["SynthesisOptions"] = None,
        group_graph: Optional[GroupGraph] = None,
    ):
        from ..core.options import SynthesisOptions

        #: the report's wall clock covers the group graph build too
        self._started = time.perf_counter()
        options = options or SynthesisOptions()
        if options.cache is not None and not options.sim_cache:
            raise ValueError(
                "SynthesisOptions.cache is set but SynthesisOptions.sim_cache "
                "is False: a shared cache needs sim_cache=True"
            )
        self.compiled = compiled
        self.profile = profile
        self.num_cores = num_cores
        self.options = options
        self.config = options.anneal or AnnealConfig()
        self.rng = random.Random(self.config.seed)
        if group_graph is None:
            from ..core.api import annotated_cstg

            with prof.phase(_P_CSTG):
                cstg = annotated_cstg(compiled, profile)
            with prof.phase(_P_GROUP_GRAPH):
                group_graph = build_group_graph(compiled.info, cstg, profile)
        self.graph = group_graph
        self.cache = None
        if options.sim_cache:
            self.cache = options.cache if options.cache is not None else SimCache()
        self.evaluator = make_evaluator(
            compiled, profile, hints=options.hints,
            core_speeds=options.core_speeds, cache=self.cache,
            workers=options.workers, policy=options.retry_policy,
            chaos=options.host_chaos,
        )
        #: the search's whole progress, updated in place by the loop
        self.state: Optional[SearchCheckpoint] = None

    def close(self) -> None:
        """Releases the evaluator's worker processes."""
        self.evaluator.close()

    def __enter__(self) -> "DirectedSimulatedAnnealing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- neighbor generation ----------------------------------------------------------

    def _critical_path_neighbors(self, item: ScoredLayout) -> Tuple[Layout, ...]:
        """The layouts that make the moves the critical path of ``item``'s
        simulation suggests. They depend on that simulation alone, so the
        cache keeps them beside its entry: keeping the layout again, in
        this search or a later one, reuses them."""
        cache = self.cache
        neighbors = None
        if cache is not None:
            neighbors = cache.derived(item.fingerprint)
        if neighbors is None:
            layout, result = item.layout, item.result
            found: List[Layout] = []
            path = compute_critical_path(result)
            for move in suggest_moves(
                result, layout, path, max_moves=MOVES_PER_CANDIDATE
            ):
                found += self._apply_move(
                    layout, move.task, move.from_core, move.to_core
                )
            neighbors = tuple(found)
            if cache is not None:
                cache.set_derived(item.fingerprint, neighbors)
        return neighbors

    def _apply_move(
        self, layout: Layout, task: str, from_core: int, to_core: int
    ) -> List[Layout]:
        out: List[Layout] = []
        try:
            if from_core in layout.cores_of(task):
                out.append(with_instance_moved(layout, task, from_core, to_core))
                if task_is_replicable(self.compiled.info, task):
                    out.append(with_instance_added(layout, task, to_core))
        except ScheduleError:
            pass
        valid = []
        for candidate in out:
            try:
                candidate.validate(self.compiled.info)
                valid.append(candidate)
            except ScheduleError:
                continue
        return valid

    def _random_neighbors(self, layout: Layout) -> List[Layout]:
        neighbors: List[Layout] = []
        tasks = layout.tasks()
        for _ in range(RANDOM_MOVES_PER_CANDIDATE):
            task = self.rng.choice(tasks)
            cores = layout.cores_of(task)
            from_core = self.rng.choice(cores)
            to_core = self.rng.randrange(self.num_cores)
            neighbors += self._apply_move(layout, task, from_core, to_core)
        return neighbors

    # -- initial candidates ---------------------------------------------------------

    def initial_layouts(self, extra: Optional[List[Layout]] = None) -> List[Layout]:
        mesh_width = self.options.mesh_width
        suggestions = suggest_replicas(
            self.compiled.info, self.graph, self.profile, self.num_cores
        )
        choices = replica_choice_sets(suggestions, self.graph, self.num_cores)
        layouts = seed_layouts(
            self.compiled.info,
            self.graph,
            suggestions,
            self.num_cores,
            mesh_width=mesh_width,
        )
        layouts += random_layouts(
            self.compiled.info,
            self.graph,
            choices,
            self.num_cores,
            count=self.config.initial_candidates,
            rng=self.rng,
            mesh_width=mesh_width,
        )
        if extra:
            layouts = list(extra) + layouts
        if not layouts:
            layouts = [Layout.make(
                self.num_cores,
                {task: [0] for task in self.compiled.info.tasks},
                mesh_width,
            )]
        return layouts

    # -- checkpointing ------------------------------------------------------------------

    def _checkpoint_boundary(self) -> None:
        """Counts and writes the checkpoint of a completed iteration
        boundary. The write is counted *before* the copy, so the
        checkpoint's own counters include it — that is what makes a
        resumed run's accounting bit-identical."""
        state = self.state
        state.checkpoints_written += 1
        state.checkpoint_events.append(
            CheckpointWritten(
                time=state.iteration,
                iteration=state.iteration,
                evaluations=state.evaluations,
            )
        )
        self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Writes a copy of ``self.state`` plus the RNG and cache
        snapshots."""
        write_checkpoint(
            self.options.checkpoint_path,
            replace(
                self.state,
                rng_state=self.rng.getstate(),
                cache_state=(
                    self.cache.state() if self.cache is not None else None
                ),
            ),
        )

    def _restore(self) -> None:
        """Resumes the state a ``resume=`` checkpoint captured."""
        path = self.options.resume
        saved = read_checkpoint(path)
        if saved.config_digest != config_digest(self.config):
            raise CheckpointError(
                f"checkpoint {path!r} was written under a different anneal "
                "schedule (or carries no schedule fingerprint); resuming "
                "would diverge from both runs (only max_iterations may "
                "change)"
            )
        self.rng.setstate(saved.rng_state)
        if self.cache is not None and saved.cache_state is not None:
            self.cache.restore(saved.cache_state)
        self.state = saved

    # -- main loop ----------------------------------------------------------------------

    def run(self, initial: Optional[List[Layout]] = None) -> SynthesisReport:
        if self.options.resume is not None:
            self._restore()
            if self.options.checkpoint_path is not None:
                # The boundary resumed from is the latest one: an interrupt
                # before the next must still find it at checkpoint_path.
                self._write_checkpoint()
        else:
            candidates = self.initial_layouts(initial)
            self.state = SearchCheckpoint(
                iteration=0,
                rng_state=None,
                best_layout=candidates[0],
                best_cycles=1 << 62,
                candidates=candidates,
                history=[],
                patience=self.config.patience,
                evaluations=0,
                cache_hits=0,
                config_digest=config_digest(self.config),
            )
        self._search()
        return self._report()

    def _search(self) -> None:
        config, state = self.config, self.state
        cancel_check = self.options.cancel_check
        checkpointing = self.options.checkpoint_path is not None
        charge_hits = config.budget_charges_hits
        while state.iteration < config.max_iterations:
            if cancel_check is not None and cancel_check():
                raise SearchCancelled(
                    f"layout search cancelled after {state.iteration} "
                    f"iteration(s) / {state.evaluations} simulation(s)"
                )
            state.iteration += 1
            with prof.phase(_P_ITERATION):
                # Score the whole candidate set as one batch. Budget counts
                # real simulations only, unless ``budget_charges_hits``
                # charges every request (the serve mode's
                # cache-state-independent budget).
                spent = state.evaluations + (
                    state.cache_hits if charge_hits else 0
                )
                with prof.phase(_P_EVALUATE):
                    outcome = self.evaluator.evaluate(
                        state.candidates,
                        budget=config.max_evaluations - spent,
                        charge_hits=charge_hits,
                    )
                state.evaluations += outcome.simulations
                state.cache_hits += outcome.cache_hits
                scored = sorted(outcome.scored, key=lambda item: item.cycles)
                improved = scored and scored[0].cycles < state.best_cycles
                if improved:
                    state.best_cycles = scored[0].cycles
                    state.best_layout = scored[0].layout
                state.history.append(state.best_cycles)

                spent = state.evaluations + (
                    state.cache_hits if charge_hits else 0
                )
                if spent >= config.max_evaluations:
                    break

                # Probabilistic pruning: keep the best layouts with
                # certainty, poor layouts with a small probability.
                kept = scored[:KEEP_BEST]
                for item in scored[KEEP_BEST:]:
                    if self.rng.random() < KEEP_POOR_PROBABILITY:
                        kept.append(item)

                next_candidates: List[Layout] = []
                seen = set()

                def push(layout: Layout):
                    key = (layout.canonical_key(), layout.cores_used())
                    if key not in seen:
                        seen.add(key)
                        next_candidates.append(layout)

                with prof.phase(_P_CANDIDATES):
                    for item in kept:
                        push(item.layout)
                        if config.use_critical_path:
                            for neighbor in self._critical_path_neighbors(item):
                                push(neighbor)
                        for neighbor in self._random_neighbors(item.layout):
                            push(neighbor)

                if not improved:
                    state.patience -= 1
                    if state.patience <= 0:
                        # Possibly a local maximum: continue with high
                        # probability (paper §4.5), otherwise stop.
                        if self.rng.random() < config.continue_probability:
                            state.patience = config.patience
                        else:
                            break
                else:
                    state.patience = config.patience
                state.candidates = next_candidates
                if not next_candidates:
                    break
                if checkpointing:
                    with prof.phase(_P_CHECKPOINT):
                        self._checkpoint_boundary()

    def _report(self) -> SynthesisReport:
        state = self.state
        stats = getattr(self.evaluator, "stats", None)
        wall = time.perf_counter() - self._started
        return SynthesisReport(
            layout=state.best_layout,
            estimated_cycles=state.best_cycles,
            evaluations=state.evaluations,
            iterations=state.iteration,
            wall_seconds=wall,
            history=state.history,
            cache_hits=state.cache_hits,
            requested_evaluations=state.evaluations + state.cache_hits,
            search_metrics=build_search_metrics(
                workers=self.options.workers,
                wall_seconds=wall,
                evaluations=state.evaluations,
                cache_hits=state.cache_hits,
                cache_stats=(
                    self.cache.cache_stats() if self.cache is not None else None
                ),
                supervision=stats.snapshot() if stats is not None else None,
                checkpoints_written=state.checkpoints_written,
                events=(
                    (list(stats.events) if stats is not None else [])
                    + state.checkpoint_events
                ),
            ),
        )

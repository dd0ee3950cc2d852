"""Directed simulated annealing over candidate layouts (paper §4.5).

Each iteration simulates the current candidate set, probabilistically prunes
it (best layouts survive with high probability, poor ones with a small
probability), runs the critical path analysis on the survivors' traces, and
spawns new candidates implementing the suggested migrations. The loop stops
at diminishing returns, with a probabilistic chance to keep searching past a
local maximum. Setting ``use_critical_path=False`` degenerates to plain
undirected annealing (random moves only) — the ablation baseline.

Candidate evaluation is delegated to :mod:`repro.search`: each iteration's
candidate set is scored as one batch (serial in process, or fanned out
across the supervised worker pool — bit-identical either way) and
memoized in a :class:`~repro.search.SimCache` keyed by exact layout
fingerprint. Cache hits do **not** consume the ``max_evaluations``
budget — only real simulations do; both tallies are reported on
:class:`AnnealResult`.

Host-level fault tolerance (this layer's :mod:`repro.resilience`
counterpart) comes in two halves:

* **Supervision** — with ``workers > 1`` the batch goes through
  :class:`repro.search.ParallelEvaluator`, whose pool has per-dispatch
  deadlines, bounded retries, pool rebuilds, and serial degradation,
  all result-transparent (policy and counters in
  :mod:`repro.search.supervise`).
* **Checkpoint/resume** — ``checkpoint_path`` +
  ``AnnealConfig.checkpoint_every`` periodically serialize the *full*
  annealing state (RNG, incumbent, candidates, budget counters, cache) at
  iteration boundaries (:mod:`repro.search.checkpoint`);
  ``resume=`` restores one, and the resumed run is bit-identical to an
  uninterrupted one. ``KeyboardInterrupt`` mid-iteration writes a final
  checkpoint of the last completed boundary before propagating.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram
    from ..search import SimCache

from ..lang.errors import ScheduleError
from ..obs import prof
from ..runtime.profiler import ProfileData
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
from .simulator import SimResult

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
    #: real simulations only — cache hits are free (see AnnealResult)
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
    #: iterations between periodic checkpoint writes, when the search was
    #: given a checkpoint path; 0 keeps only the interrupt-time write
    checkpoint_every: int = 1


@dataclass
class AnnealResult:
    best_layout: Layout
    best_cycles: int
    #: real simulations performed (what ``max_evaluations`` budgets)
    evaluations: int
    iterations: int
    history: List[int] = field(default_factory=list)  # best estimate per iter
    initial_layouts: List[Layout] = field(default_factory=list)
    #: evaluation requests answered from the simulation cache
    cache_hits: int = 0
    #: all evaluation requests: ``evaluations + cache_hits``
    requested_evaluations: int = 0
    #: snapshot of the simulation cache counters (None with the cache off)
    cache_stats: Optional[Dict[str, object]] = None
    #: host-level supervision counters (None for serial searches, which
    #: have no worker pool to supervise)
    supervision: Optional[Dict[str, object]] = None
    #: periodic checkpoints written (including any restored-from history)
    checkpoints_written: int = 0
    #: typed host-level events (WorkerRetry / PoolRebuild /
    #: CheckpointWritten) in emission order
    host_events: List[object] = field(default_factory=list)


class DirectedSimulatedAnnealing:
    """The search driver."""

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: ProfileData,
        num_cores: int,
        config: Optional[AnnealConfig] = None,
        hints: Optional[Dict[str, str]] = None,
        group_graph: Optional[GroupGraph] = None,
        mesh_width: Optional[int] = None,
        core_speeds: Optional[Dict[int, float]] = None,
        cache: Optional["SimCache"] = None,
        workers: int = 1,
        use_cache: bool = True,
        retry_policy=None,
        host_chaos=None,
        checkpoint_path: Optional[str] = None,
        resume: Optional[str] = None,
        cancel_check=None,
    ):
        self.compiled = compiled
        self.profile = profile
        self.num_cores = num_cores
        self.config = config or AnnealConfig()
        self.hints = hints
        self.mesh_width = mesh_width
        self.core_speeds = core_speeds
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        #: zero-argument callable polled at iteration boundaries; a true
        #: return raises :class:`SearchCancelled`. Purely an early-exit
        #: hook — it cannot alter the result of a run it does not stop.
        self.cancel_check = cancel_check
        self.rng = random.Random(self.config.seed)
        if group_graph is None:
            from ..core.api import annotated_cstg

            cstg = annotated_cstg(compiled, profile)
            group_graph = build_group_graph(compiled.info, cstg, profile)
        self.graph = group_graph
        from ..search import SimCache, make_evaluator

        if cache is None and use_cache:
            cache = SimCache()
        self.cache = cache if use_cache else None
        self.evaluator = make_evaluator(
            compiled, profile, hints=hints, core_speeds=core_speeds,
            cache=self.cache, workers=workers, policy=retry_policy,
            chaos=host_chaos,
        )
        self.evaluations = 0
        self.cache_hits = 0
        self.checkpoints_written = 0
        #: CheckpointWritten events, restored across resumes
        self._checkpoint_events: List[object] = []
        #: last completed-iteration boundary state (interrupt target)
        self._boundary = None

    def close(self) -> None:
        """Releases the evaluator's worker processes."""
        self.evaluator.close()

    def __enter__(self) -> "DirectedSimulatedAnnealing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, layout: Layout) -> Tuple[int, SimResult]:
        """Scores one layout (budget-free convenience used by tests and the
        Figure 10 driver; the main loop scores whole batches)."""
        outcome = self.evaluator.evaluate([layout])
        self.evaluations += outcome.simulations
        self.cache_hits += outcome.cache_hits
        scored = outcome.scored[0]
        return scored.cycles, scored.result

    # -- neighbor generation ----------------------------------------------------------

    def _critical_path_neighbors(
        self, layout: Layout, result: SimResult
    ) -> List[Layout]:
        neighbors: List[Layout] = []
        path = compute_critical_path(result)
        for move in suggest_moves(
            result, layout, path, max_moves=MOVES_PER_CANDIDATE
        ):
            neighbors += self._apply_move(
                layout, move.task, move.from_core, move.to_core
            )
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
        suggestions = suggest_replicas(
            self.compiled.info, self.graph, self.profile, self.num_cores
        )
        choices = replica_choice_sets(suggestions, self.graph, self.num_cores)
        layouts = seed_layouts(
            self.compiled.info,
            self.graph,
            suggestions,
            self.num_cores,
            mesh_width=self.mesh_width,
        )
        layouts += random_layouts(
            self.compiled.info,
            self.graph,
            choices,
            self.num_cores,
            count=self.config.initial_candidates,
            rng=self.rng,
            mesh_width=self.mesh_width,
        )
        if extra:
            layouts = list(extra) + layouts
        if not layouts:
            layouts = [Layout.make(
                self.num_cores,
                {task: [0] for task in self.compiled.info.tasks},
                self.mesh_width,
            )]
        return layouts

    # -- checkpointing ------------------------------------------------------------------

    def _capture_boundary(
        self, iterations, best_layout, best_cycles, candidates, history,
        patience, initial_snapshot,
    ) -> None:
        """Snapshots the completed-iteration state. Cheap (references plus
        RNG/counter copies), so it runs every iteration while
        checkpointing is active — an interrupt mid-iteration then saves
        the last *boundary*, never a half-mutated state."""
        from ..search.checkpoint import SearchCheckpoint, config_digest

        self._boundary = SearchCheckpoint(
            iteration=iterations,
            rng_state=self.rng.getstate(),
            best_layout=best_layout,
            best_cycles=best_cycles,
            candidates=list(candidates),
            history=list(history),
            patience=patience,
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            initial_layouts=list(initial_snapshot),
            cache_state=(
                self.cache.state() if self.cache is not None else None
            ),
            checkpoints_written=self.checkpoints_written,
            checkpoint_events=list(self._checkpoint_events),
            config_digest=config_digest(self.config),
        )

    def write_final_checkpoint(self) -> Optional[str]:
        """Writes the last completed iteration boundary (the interrupt
        path); returns the path, or None when checkpointing is off or no
        iteration has completed yet."""
        if self.checkpoint_path is None or self._boundary is None:
            return None
        from ..search.checkpoint import write_checkpoint

        write_checkpoint(self.checkpoint_path, self._boundary)
        return self.checkpoint_path

    def _restore(self, config: AnnealConfig):
        """Restores the state a ``resume=`` checkpoint captured."""
        from ..search.checkpoint import (
            CheckpointError,
            config_digest,
            read_checkpoint,
        )

        state = read_checkpoint(self.resume)
        digest = config_digest(config)
        if state.config_digest and state.config_digest != digest:
            raise CheckpointError(
                f"checkpoint {self.resume!r} was written under a different "
                "anneal schedule; resuming would diverge from both runs "
                "(only max_iterations and the checkpoint cadence may change)"
            )
        self.rng.setstate(state.rng_state)
        self.evaluations = state.evaluations
        self.cache_hits = state.cache_hits
        self.checkpoints_written = state.checkpoints_written
        self._checkpoint_events = list(state.checkpoint_events)
        if self.cache is not None and state.cache_state is not None:
            self.cache.restore(state.cache_state)
        return state

    # -- main loop ----------------------------------------------------------------------

    def run(self, initial: Optional[List[Layout]] = None) -> AnnealResult:
        config = self.config
        if self.resume is not None:
            state = self._restore(config)
            candidates = list(state.candidates)
            initial_snapshot = list(state.initial_layouts)
            best_layout = state.best_layout
            best_cycles = state.best_cycles
            history = list(state.history)
            patience = state.patience
            iterations = state.iteration
        else:
            candidates = self.initial_layouts(initial)
            initial_snapshot = list(candidates)
            best_layout = candidates[0]
            best_cycles = 1 << 62
            history = []
            patience = config.patience
            iterations = 0

        checkpointing = self.checkpoint_path is not None
        if checkpointing and self.resume is not None:
            # An interrupt before the first post-resume boundary must
            # still have something to save.
            self._capture_boundary(
                iterations, best_layout, best_cycles, candidates, history,
                patience, initial_snapshot,
            )
        try:
            return self._search(
                config, candidates, initial_snapshot, best_layout,
                best_cycles, history, patience, iterations, checkpointing,
            )
        except KeyboardInterrupt:
            if checkpointing:
                self.write_final_checkpoint()
            raise

    def _search(
        self, config, candidates, initial_snapshot, best_layout, best_cycles,
        history, patience, iterations, checkpointing,
    ) -> AnnealResult:
        charge_hits = config.budget_charges_hits
        while iterations < config.max_iterations:
            if self.cancel_check is not None and self.cancel_check():
                raise SearchCancelled(
                    f"layout search cancelled after {iterations} "
                    f"iteration(s) / {self.evaluations} simulation(s)"
                )
            iterations += 1
            with prof.phase(_P_ITERATION):
                # Score the whole candidate set as one batch. Budget counts
                # real simulations only, unless ``budget_charges_hits``
                # charges every request (the serve mode's
                # cache-state-independent budget).
                spent = self.evaluations + (
                    self.cache_hits if charge_hits else 0
                )
                with prof.phase(_P_EVALUATE):
                    outcome = self.evaluator.evaluate(
                        candidates,
                        budget=config.max_evaluations - spent,
                        charge_hits=charge_hits,
                    )
                self.evaluations += outcome.simulations
                self.cache_hits += outcome.cache_hits
                scored: List[Tuple[int, Layout, SimResult]] = [
                    (item.cycles, item.layout, item.result)
                    for item in outcome.scored
                ]
                scored.sort(key=lambda item: item[0])
                improved = scored and scored[0][0] < best_cycles
                if improved:
                    best_cycles, best_layout = scored[0][0], scored[0][1]
                history.append(best_cycles)

                spent = self.evaluations + (
                    self.cache_hits if charge_hits else 0
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
                    key = (layout.canonical_key(), tuple(layout.cores_used()))
                    if key not in seen:
                        seen.add(key)
                        next_candidates.append(layout)

                with prof.phase(_P_CANDIDATES):
                    for cycles, layout, result in kept:
                        push(layout)
                        if config.use_critical_path:
                            for neighbor in self._critical_path_neighbors(
                                layout, result
                            ):
                                push(neighbor)
                        for neighbor in self._random_neighbors(layout):
                            push(neighbor)

                if not improved:
                    patience -= 1
                    if patience <= 0:
                        # Possibly a local maximum: continue with high
                        # probability (paper §4.5), otherwise stop.
                        if self.rng.random() < config.continue_probability:
                            patience = config.patience
                        else:
                            break
                else:
                    patience = config.patience
                candidates = next_candidates
                if not candidates:
                    break
                if checkpointing:
                    with prof.phase(_P_CHECKPOINT):
                        self._checkpoint_boundary(
                            config, iterations, best_layout, best_cycles,
                            candidates, history, patience, initial_snapshot,
                        )

        stats = getattr(self.evaluator, "stats", None)
        return AnnealResult(
            best_layout=best_layout,
            best_cycles=best_cycles,
            evaluations=self.evaluations,
            iterations=iterations,
            history=history,
            initial_layouts=initial_snapshot,
            cache_hits=self.cache_hits,
            requested_evaluations=self.evaluations + self.cache_hits,
            cache_stats=(
                self.cache.cache_stats() if self.cache is not None else None
            ),
            supervision=stats.snapshot() if stats is not None else None,
            checkpoints_written=self.checkpoints_written,
            host_events=(
                (list(stats.events) if stats is not None else [])
                + list(self._checkpoint_events)
            ),
        )

    def _checkpoint_boundary(
        self, config, iterations, best_layout, best_cycles, candidates,
        history, patience, initial_snapshot,
    ) -> None:
        """End-of-iteration bookkeeping: count a due periodic write
        *before* capturing, so the checkpoint's own counters include it —
        that is what makes a resumed run's accounting bit-identical."""
        from ..obs.events import CheckpointWritten

        due = (
            config.checkpoint_every > 0
            and iterations % config.checkpoint_every == 0
        )
        if due:
            self.checkpoints_written += 1
            self._checkpoint_events.append(
                CheckpointWritten(
                    time=iterations,
                    iteration=iterations,
                    evaluations=self.evaluations,
                )
            )
        self._capture_boundary(
            iterations, best_layout, best_cycles, candidates, history,
            patience, initial_snapshot,
        )
        if due:
            from ..search.checkpoint import write_checkpoint

            write_checkpoint(self.checkpoint_path, self._boundary)

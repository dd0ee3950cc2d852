"""Typed option bundles for the public API.

Four generations of features (fault plans, resilience, observability,
heterogeneous cores, and now the parallel layout search) each grew their
own keyword arguments on :func:`repro.core.api.run_layout` and
:func:`repro.core.pipeline.synthesize_layout`. This module consolidates
them into two dataclasses — one per phase of the paper's workflow:

* :class:`SynthesisOptions` — everything the offline search consumes:
  the anneal schedule, developer hints, machine shape, per-core speeds,
  and the :mod:`repro.search` engine knobs (workers, simulation cache).
* :class:`RunOptions` — everything one machine execution consumes: the
  machine config (or its common fields flattened — fault plan,
  resilience, validation, observability), profile collection, and trace
  or metrics sinks to write after the run.

The CLI and the benchmark drivers build these objects directly, so the
library and the tools share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..runtime.machine import MachineConfig
from ..schedule.anneal import AnnealConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fault.plan import FaultPlan
    from ..obs.metrics import MetricsRegistry
    from ..resilience.config import ResilienceConfig
    from ..search import HostChaosPlan, RetryPolicy, SimCache


@dataclass
class DistOptions:
    """Knobs for the distributed layout search (:mod:`repro.search.dist`).

    Setting :attr:`SynthesisOptions.dist` switches
    :func:`repro.core.pipeline.synthesize_layout` from one annealing run
    to ``restarts`` independent seeded restarts coordinated across
    workers — merged in shard-id order, so the report is bit-identical
    to running the same shard list serially on one host.
    """

    #: independent annealing restarts — the shard axis
    restarts: int = 25
    #: base seed deriving every shard's search seed
    base_seed: int = 1234
    #: local ``dist-worker`` subprocesses to spawn (0 = every shard runs
    #: in the coordinator process, still through the shard machinery)
    workers: int = 0
    #: lease/steal policy; None = :class:`repro.search.dist.LeasePolicy`
    #: defaults
    lease: Optional[object] = None
    #: write the merged-frontier checkpoint here after completed shards
    checkpoint_path: Optional[str] = None
    #: resume from ``checkpoint_path`` (a different job's checkpoint is
    #: refused with a typed error)
    resume: bool = False
    #: seconds the worker set may sit empty before shards run locally
    degrade_after: float = 10.0


@dataclass
class SynthesisOptions:
    """Options for :func:`repro.core.pipeline.synthesize_layout`."""

    #: overrides the anneal schedule's seed when set (kept separate so
    #: callers can reuse one ``anneal`` schedule across seeds)
    seed: Optional[int] = None
    #: the DSA schedule; defaults to ``AnnealConfig()``
    anneal: Optional[AnnealConfig] = None
    #: developer scheduling hints, e.g. ``{"task": "per_object"}`` (§4.4)
    hints: Optional[Dict[str, str]] = None
    #: mesh width of the target machine (defaults to the smallest square)
    mesh_width: Optional[int] = None
    #: per-core relative speeds (heterogeneous cores, §4.6 extension)
    core_speeds: Optional[Dict[int, float]] = None
    #: candidate simulations fan out across this many worker processes;
    #: results are bit-identical to ``workers=1``
    workers: int = 1
    #: memoize simulation results by layout fingerprint
    sim_cache: bool = True
    #: share a cache across synthesis runs (None = a fresh, unbounded
    #: per-run cache)
    cache: Optional["SimCache"] = None
    #: receive ``sim_cache_*`` counters (a fresh registry is created when
    #: None, so cache telemetry is always available on the report)
    metrics: Optional["MetricsRegistry"] = None
    #: supervision policy of the worker pool (deadlines, bounded retries,
    #: pool rebuilds, serial degradation); None = the
    #: :class:`repro.search.RetryPolicy` defaults. Only meaningful with
    #: ``workers > 1``
    retry_policy: Optional["RetryPolicy"] = None
    #: write a resumable checkpoint here every
    #: ``AnnealConfig.checkpoint_every`` iterations
    checkpoint_path: Optional[str] = None
    #: resume from a checkpoint written by an earlier interrupted run
    resume: Optional[str] = None
    #: inject host-level worker faults (testing; needs ``workers >= 2``)
    host_chaos: Optional["HostChaosPlan"] = None
    #: distribute the search as independent seeded restarts across
    #: workers (:mod:`repro.search.dist`); most single-run knobs above
    #: (workers, cache sharing, supervision, checkpointing) are then
    #: per-shard concerns handled by the dist layer instead
    dist: Optional[DistOptions] = None
    #: zero-argument callable polled at iteration boundaries; returning
    #: true raises :class:`repro.schedule.anneal.SearchCancelled` and the
    #: search stops cleanly. Installed by the serving layer's request
    #: deadlines and graceful drain; it can only stop a run early, never
    #: change the result of one it lets finish.
    cancel_check: Optional[Callable[[], bool]] = None

    def effective_anneal(self) -> AnnealConfig:
        """The anneal schedule with the seed override applied."""
        config = self.anneal if self.anneal is not None else AnnealConfig()
        if self.seed is not None and config.seed != self.seed:
            config = replace(config, seed=self.seed)
        return config


@dataclass
class RunOptions:
    """Options for :func:`repro.core.api.run_layout`.

    Either give a full :class:`MachineConfig` via ``machine`` or set the
    flattened fields; with everything left at its default the run takes
    the exact no-config path (bit-identical to a bare ``run_layout``).
    """

    #: full machine config; when set, the flattened fields below (other
    #: than the sinks and ``collect_profile``) are ignored
    machine: Optional[MachineConfig] = None
    #: injected faults (:mod:`repro.fault`)
    fault_plan: Optional["FaultPlan"] = None
    #: detection-driven failure handling (:mod:`repro.resilience`)
    resilience: Optional["ResilienceConfig"] = None
    #: assert the termination invariant at end of run
    validate: bool = False
    #: collect the typed event stream + metrics (:mod:`repro.obs`)
    observe: bool = False
    #: record the legacy string trace
    record_trace: bool = False
    #: per-core relative speeds (§4.6 heterogeneous extension)
    core_speeds: Optional[Dict[int, float]] = None
    #: use the centralized-scheduler ablation instead of per-core queues
    centralized_scheduler: bool = False
    #: charge per-access array bounds checks (§5.5)
    bounds_checks: bool = False
    #: collect a profile during the run (``MachineResult.profile``)
    collect_profile: bool = False
    #: write a Chrome trace-event timeline here after the run (implies
    #: ``observe``)
    trace_path: Optional[str] = None
    #: write the run's metrics snapshot here after the run (implies
    #: ``observe``)
    metrics_path: Optional[str] = None

    def wants_observe(self) -> bool:
        return bool(
            self.observe
            or self.trace_path
            or self.metrics_path
            or (self.machine is not None and self.machine.observe)
        )

    def machine_config(self) -> Optional[MachineConfig]:
        """The :class:`MachineConfig` this run needs — ``None`` when every
        field is at its default, so the machine takes the identical
        no-config path."""
        observe = self.wants_observe()
        if self.machine is not None:
            if observe and not self.machine.observe:
                return replace(self.machine, observe=True)
            return self.machine
        if not (
            self.fault_plan is not None
            or self.resilience is not None
            or self.validate
            or observe
            or self.record_trace
            or self.core_speeds
            or self.centralized_scheduler
            or self.bounds_checks
        ):
            return None
        return MachineConfig(
            centralized_scheduler=self.centralized_scheduler,
            bounds_checks=self.bounds_checks,
            core_speeds=self.core_speeds,
            fault_plan=self.fault_plan,
            resilience=self.resilience,
            validate=self.validate,
            record_trace=self.record_trace,
            observe=observe,
        )

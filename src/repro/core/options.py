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
  :class:`MachineConfig` (fault plan, resilience, validation,
  observability, core speeds), profile collection, and the trace or
  metrics sinks to write after the run.

Each setting has exactly one spelling: a machine knob lives only on
:class:`MachineConfig`, and the distributed search is driven through
:func:`repro.search.dist.run_dist_search`, not through these options.

The CLI and the benchmark drivers build these objects directly, so the
library and the tools share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..runtime.machine import MachineConfig
from ..schedule.anneal import AnnealConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search import HostChaosPlan, RetryPolicy, SimCache


@dataclass
class SynthesisOptions:
    """Options for :func:`repro.core.pipeline.synthesize_layout`."""

    #: the DSA schedule, seed included; defaults to ``AnnealConfig()``
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
    #: per-run cache); requires ``sim_cache``
    cache: Optional["SimCache"] = None
    #: supervision policy of the worker pool (deadlines, bounded retries,
    #: pool rebuilds, serial degradation); None = the
    #: :class:`repro.search.RetryPolicy` defaults. Only meaningful with
    #: ``workers > 1``
    retry_policy: Optional["RetryPolicy"] = None
    #: write a resumable checkpoint here at every iteration boundary
    checkpoint_path: Optional[str] = None
    #: resume from a checkpoint written by an earlier interrupted run
    resume: Optional[str] = None
    #: inject host-level worker faults (testing; needs ``workers >= 2``)
    host_chaos: Optional["HostChaosPlan"] = None
    #: zero-argument callable polled at iteration boundaries; returning
    #: true raises :class:`repro.schedule.anneal.SearchCancelled` and the
    #: search stops cleanly. Installed by the serving layer's request
    #: deadlines and graceful drain; it can only stop a run early, never
    #: change the result of one it lets finish.
    cancel_check: Optional[Callable[[], bool]] = None


@dataclass
class RunOptions:
    """Options for :func:`repro.core.api.run_layout`.

    Machine behaviour comes only from ``machine``; with everything left
    at its default the run takes the exact no-config path (bit-identical
    to a bare ``run_layout``).
    """

    #: the machine config (faults, resilience, validation, observability,
    #: core speeds); None = the defaults
    machine: Optional[MachineConfig] = None
    #: collect a profile during the run (``MachineResult.profile``)
    collect_profile: bool = False
    #: write a Chrome trace-event timeline here after the run (implies
    #: ``observe``)
    trace_path: Optional[str] = None
    #: write the run's metrics snapshot here after the run (implies
    #: ``observe``)
    metrics_path: Optional[str] = None

    def machine_config(self) -> Optional[MachineConfig]:
        """``machine``, with ``observe`` turned on when a sink is set."""
        if not (self.trace_path or self.metrics_path):
            return self.machine
        machine = self.machine if self.machine is not None else MachineConfig()
        return machine if machine.observe else replace(machine, observe=True)

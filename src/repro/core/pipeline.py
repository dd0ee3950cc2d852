"""The full synthesis pipeline: profile → CSTG → rules → DSA → layout.

This mirrors the staged strategy of paper §4: dependence and disjointness
analysis happen at :func:`repro.core.api.compile_program` time; this module
drives candidate generation, simulation-based evaluation, and optimization.

Search behaviour is configured through :class:`repro.SynthesisOptions`:
``workers=N`` fans candidate simulations out across worker processes
(bit-identical to the serial search), ``sim_cache`` memoizes simulation
results by layout fingerprint, and the search's counters export through
the :mod:`repro.obs` search-metrics snapshot (``report.search_metrics``).
"""

from __future__ import annotations

from typing import Optional

from ..obs import prof
from ..runtime.profiler import ProfileData
from ..schedule.anneal import DirectedSimulatedAnnealing, SynthesisReport
from .api import CompiledProgram
from .options import SynthesisOptions

__all__ = ["SynthesisReport", "synthesize_layout"]

_P_SYNTHESIZE = prof.intern_phase("pipeline.synthesize")


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
    with prof.phase(_P_SYNTHESIZE), DirectedSimulatedAnnealing(
        compiled, profile, num_cores, options
    ) as dsa:
        return dsa.run()

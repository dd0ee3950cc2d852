"""Reproduction of *Bamboo: A Data-Centric, Object-Oriented Approach to
Many-core Software* (Zhou & Demsky, PLDI 2010).

Subpackages:

* :mod:`repro.lang` — the Bamboo surface language (lexer/parser/AST).
* :mod:`repro.sema` — type checking and symbol tables.
* :mod:`repro.ir` — register IR, lowering, and the cycle cost model.
* :mod:`repro.analysis` — dependence (ASTG/CSTG) and disjointness analyses.
* :mod:`repro.schedule` — implementation synthesis: layouts, rules, mapping
  search, the scheduling simulator, critical paths, and DSA.
* :mod:`repro.runtime` — the interpreter, distributed scheduler, and the
  many-core machine simulator.
* :mod:`repro.core` — the public API.
* :mod:`repro.search` — the parallel, memoized layout-evaluation engine.
* :mod:`repro.serve` — the synthesis daemon: compile/profile/synthesize/
  simulate served over a socket, with a disk-persistent simulation cache
  shared across requests and restarts (results bit-identical to offline).
* :mod:`repro.bench` — the paper's benchmarks and experiment runners.
* :mod:`repro.viz` — DOT/text visualization.
* :mod:`repro.chaos` — the fault-injection kernel the four seeded chaos
  harnesses (machine, host, network, multi-host) share.

The public API re-exports here, so typical use is just::

    from repro import (
        RunOptions, SynthesisOptions,
        compile_program, profile_program, run_layout, synthesize_layout,
    )
"""

from .core import (
    CompiledProgram,
    RunOptions,
    SequentialResult,
    SynthesisOptions,
    SynthesisReport,
    annotated_cstg,
    compile_program,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)
from .schedule import SimResult, SimSession, simulate

__all__ = [
    "CompiledProgram",
    "RunOptions",
    "SequentialResult",
    "SimResult",
    "SimSession",
    "SynthesisOptions",
    "SynthesisReport",
    "annotated_cstg",
    "compile_program",
    "profile_program",
    "run_layout",
    "run_sequential",
    "simulate",
    "single_core_layout",
    "synthesize_layout",
]

__version__ = "1.1.0"

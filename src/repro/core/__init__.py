"""Public API of the Bamboo reproduction."""

from .api import (
    CompiledProgram,
    SequentialResult,
    annotated_cstg,
    compile_program,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
)
from .options import RunOptions, SynthesisOptions
from .pipeline import SynthesisReport, synthesize_layout

__all__ = [
    "CompiledProgram",
    "RunOptions",
    "SequentialResult",
    "SynthesisOptions",
    "SynthesisReport",
    "annotated_cstg",
    "compile_program",
    "profile_program",
    "run_layout",
    "run_sequential",
    "single_core_layout",
    "synthesize_layout",
]

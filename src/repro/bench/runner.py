"""Experiment runners shared by the benchmark harness and the examples.

These functions implement the measurement protocols of paper §5:

* :func:`run_three_versions` — the Figure 7 protocol: single-core C
  (sequential), single-core Bamboo, and N-core Bamboo, all in simulated
  cycles, plus speedups and the §5.5 overhead.
* :func:`estimate_vs_real` — the Figure 9 protocol: scheduling-simulator
  estimate vs the machine's real cycle count for a layout.
* :func:`generality_run` — the Figure 11 protocol: layouts synthesized from
  Profile(original) and Profile(double), both executed on Input(double).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.api import (
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
)
from ..core.options import RunOptions, SynthesisOptions
from ..core.pipeline import SynthesisReport, synthesize_layout
from ..schedule.anneal import AnnealConfig
from ..schedule.layout import Layout
from ..schedule.simulator import simulate
from .suite import get_spec, load_benchmark

#: The paper's machine: a 64-core TILEPro64 with 2 cores reserved for the
#: PCI bus, leaving 62 usable cores on an 8x8 mesh.
PAPER_CORES = 62
PAPER_MESH_WIDTH = 8


@dataclass
class ThreeVersionResult:
    """Figure 7 row for one benchmark."""

    name: str
    seq_cycles: int
    one_core_cycles: int
    many_core_cycles: int
    num_cores: int
    speedup_vs_bamboo: float
    speedup_vs_seq: float
    overhead: float
    layout: Layout
    report: Optional[SynthesisReport] = None
    outputs_match: bool = True


def _profiled_one_core_run(compiled, args: Sequence[str]):
    """The 1-core machine run, profiled: collecting the profile changes
    nothing else in the run, so one run serves as both the 1-core Bamboo
    measurement and the profile that bootstraps synthesis."""
    return run_layout(
        compiled,
        single_core_layout(compiled),
        args,
        options=RunOptions(collect_profile=True),
    )


def run_three_versions(
    name: str,
    num_cores: int = PAPER_CORES,
    seed: int = 0,
    mesh_width: Optional[int] = PAPER_MESH_WIDTH,
    args: Optional[Sequence[str]] = None,
) -> ThreeVersionResult:
    """Runs the Figure 7 protocol for one benchmark."""
    spec = get_spec(name)
    compiled = load_benchmark(name)
    workload = list(args if args is not None else spec.args)

    seq = run_sequential(compiled, workload)
    one = _profiled_one_core_run(compiled, workload)
    report = synthesize_layout(
        compiled,
        one.profile,
        num_cores,
        options=SynthesisOptions(
            anneal=AnnealConfig(seed=seed),
            hints=spec.hints,
            mesh_width=mesh_width,
        ),
    )
    many = run_layout(compiled, report.layout, workload)

    outputs_match = (
        seq.stdout == one.stdout == many.stdout if spec.check_output else True
    )
    return ThreeVersionResult(
        name=name,
        seq_cycles=seq.cycles,
        one_core_cycles=one.total_cycles,
        many_core_cycles=many.total_cycles,
        num_cores=num_cores,
        speedup_vs_bamboo=one.total_cycles / many.total_cycles,
        speedup_vs_seq=seq.cycles / many.total_cycles,
        overhead=(one.total_cycles - seq.cycles) / seq.cycles,
        layout=report.layout,
        report=report,
        outputs_match=outputs_match,
    )


@dataclass
class AccuracyRow:
    """Figure 9 row: estimated vs real cycles for one layout."""

    name: str
    layout_kind: str  # "1-core" | "N-core"
    estimated: int
    real: int

    @property
    def error(self) -> float:
        return (self.estimated - self.real) / self.real


def estimate_vs_real(
    name: str,
    layout: Layout,
    layout_kind: str,
    args: Optional[Sequence[str]] = None,
) -> AccuracyRow:
    spec = get_spec(name)
    compiled = load_benchmark(name)
    workload = list(args if args is not None else spec.args)
    profile = profile_program(compiled, workload)
    estimate = simulate(compiled, layout, profile, hints=spec.hints)
    real = run_layout(compiled, layout, workload)
    return AccuracyRow(
        name=name,
        layout_kind=layout_kind,
        estimated=estimate.total_cycles,
        real=real.total_cycles,
    )


@dataclass
class GeneralityRow:
    """Figure 11 row for one benchmark."""

    name: str
    one_core_cycles: int  # 1-core Bamboo on Input_double
    original_profile_cycles: int  # layout from Profile_original on Input_double
    double_profile_cycles: int  # layout from Profile_double on Input_double
    speedup_original: float
    speedup_double: float


def generality_run(
    name: str,
    num_cores: int = PAPER_CORES,
    seed: int = 0,
    mesh_width: Optional[int] = PAPER_MESH_WIDTH,
) -> GeneralityRow:
    spec = get_spec(name)
    compiled = load_benchmark(name)
    original_args = list(spec.args)
    double_args = list(spec.double_args)

    profile_original = profile_program(compiled, original_args)
    one = _profiled_one_core_run(compiled, double_args)

    options = SynthesisOptions(
        anneal=AnnealConfig(seed=seed), hints=spec.hints, mesh_width=mesh_width
    )
    layout_original = synthesize_layout(
        compiled, profile_original, num_cores, options=options
    ).layout
    layout_double = synthesize_layout(
        compiled, one.profile, num_cores, options=options
    ).layout

    with_original = run_layout(compiled, layout_original, double_args)
    with_double = run_layout(compiled, layout_double, double_args)
    return GeneralityRow(
        name=name,
        one_core_cycles=one.total_cycles,
        original_profile_cycles=with_original.total_cycles,
        double_profile_cycles=with_double.total_cycles,
        speedup_original=one.total_cycles / with_original.total_cycles,
        speedup_double=one.total_cycles / with_double.total_cycles,
    )

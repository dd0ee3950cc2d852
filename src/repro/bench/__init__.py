"""Benchmark suite: the paper's six applications plus the §2 example."""

from .runner import (
    PAPER_CORES,
    PAPER_MESH_WIDTH,
    AccuracyRow,
    GeneralityRow,
    ThreeVersionResult,
    estimate_vs_real,
    generality_run,
    run_three_versions,
)
from .workloads import double_args, scale_args
from .suite import (
    BENCHMARKS,
    PAPER_BENCHMARKS,
    BenchmarkSpec,
    benchmark_names,
    get_spec,
    load_benchmark,
    load_source,
)

__all__ = [
    "BENCHMARKS",
    "PAPER_BENCHMARKS",
    "PAPER_CORES",
    "PAPER_MESH_WIDTH",
    "AccuracyRow",
    "BenchmarkSpec",
    "GeneralityRow",
    "ThreeVersionResult",
    "benchmark_names",
    "estimate_vs_real",
    "generality_run",
    "get_spec",
    "load_benchmark",
    "load_source",
    "run_three_versions",
    "scale_args",
    "double_args",
]

"""Benchmark program validation.

Each of the paper's six benchmarks (plus the §2 example) must compute the
same answer in all three execution modes: sequential (the C-baseline
substitute), single-core Bamboo, and multi-core Bamboo. Small inputs keep
these tests fast; the full-size runs live in ``benchmarks/``.
"""

import pytest

from repro.bench import PAPER_BENCHMARKS, benchmark_names, get_spec, load_benchmark
from repro.core import (
    SynthesisOptions,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)
from repro.schedule.anneal import AnnealConfig

#: Reduced workloads for fast test runs (same shape, less work).
SMALL_ARGS = {
    "Tracking": ["12", "6"],
    "KMeans": ["6", "8", "3"],
    "MonteCarlo": ["10", "40"],
    "FilterBank": ["8", "24"],
    "Fractal": ["16"],
    "Series": ["10", "12"],
    "Keyword": ["8"],
}


@pytest.mark.parametrize("name", benchmark_names())
def test_compiles_and_analyzes(name):
    compiled = load_benchmark(name)
    assert compiled.ir_program.tasks
    assert "startup" in compiled.info.tasks


@pytest.mark.parametrize("name", benchmark_names())
def test_sequential_matches_single_core(name):
    compiled = load_benchmark(name)
    args = SMALL_ARGS[name]
    seq = run_sequential(compiled, args)
    one = run_layout(compiled, single_core_layout(compiled), args)
    assert seq.stdout == one.stdout
    assert seq.stdout  # every benchmark prints its result


@pytest.mark.parametrize("name", benchmark_names())
def test_multi_core_matches_sequential(name):
    compiled = load_benchmark(name)
    args = SMALL_ARGS[name]
    seq = run_sequential(compiled, args)
    profile = profile_program(compiled, args)
    config = AnnealConfig(
        initial_candidates=3, max_iterations=4, max_evaluations=40, patience=1,
        continue_probability=0.1,
    )
    report = synthesize_layout(compiled, profile, num_cores=8, options=SynthesisOptions(anneal=config))
    many = run_layout(compiled, report.layout, args)
    assert many.stdout == seq.stdout


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_benchmark_overhead_in_paper_range(name):
    # §5.5: Bamboo overhead vs the C baseline between 0.1% and 10.6% at
    # benchmark-scale inputs. Use the real workloads but only for the two
    # cheap single-core runs.
    compiled = load_benchmark(name)
    args = list(get_spec(name).args)
    seq = run_sequential(compiled, args)
    one = run_layout(compiled, single_core_layout(compiled), args)
    overhead = (one.total_cycles - seq.cycles) / seq.cycles
    assert 0.0 < overhead < 0.15


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_benchmark_tasks_have_fine_grained_locks(name):
    # All six ports keep task parameters disjoint, like the paper's.
    compiled = load_benchmark(name)
    assert compiled.lock_plan.shared_lock_tasks() == []


def test_invocation_counts_fractal():
    compiled = load_benchmark("Fractal")
    result = run_layout(compiled, single_core_layout(compiled), ["16"])
    assert result.invocations["computeRow"] == 16
    assert result.invocations["mergeRow"] == 16


def test_invocation_counts_kmeans():
    compiled = load_benchmark("KMeans")
    result = run_layout(compiled, single_core_layout(compiled), ["6", "8", "3"])
    assert result.invocations["computeChunk"] == 18  # chunks * rounds
    assert result.invocations["aggregate"] == 18
    assert result.invocations["refresh"] == 12  # chunks * (rounds - 1)


def test_invocation_counts_tracking():
    compiled = load_benchmark("Tracking")
    result = run_layout(compiled, single_core_layout(compiled), ["12", "6"])
    assert result.invocations["blurStrip"] == 12
    assert result.invocations["gradientStrip"] == 12
    assert result.invocations["scoreStrip"] == 12
    assert result.invocations["collectFeatures"] == 12
    assert result.invocations["trackFeatures"] == 6
    assert result.invocations["mergeTracks"] == 6


def test_montecarlo_deterministic_across_modes():
    compiled = load_benchmark("MonteCarlo")
    args = ["10", "40"]
    outputs = {
        run_sequential(compiled, args).stdout,
        run_layout(compiled, single_core_layout(compiled), args).stdout,
    }
    assert len(outputs) == 1  # the in-language LCG makes runs reproducible


def test_workload_scaling_monotone():
    compiled = load_benchmark("Series")
    small = run_sequential(compiled, ["6", "10"])
    large = run_sequential(compiled, ["12", "10"])
    assert large.cycles > small.cycles

"""Ablation: distributed vs centralized scheduling (paper §4.6).

The paper argues a centralized scheduler becomes the bottleneck as core
counts grow, which is why Bamboo's generated implementations distribute
scheduling across all cores. We run identical synthesized layouts with the
runtime's centralized-dispatch mode (every dispatch serializes through a
scheduler on core 0, paying the request/response round trip) and measure
the slowdown at increasing core counts. A fine-grained Series workload
(many small coefficient tasks) exposes the bottleneck."""

from conftest import bench_config, emit
from repro.bench import load_benchmark
from repro.core import (
    RunOptions,
    SynthesisOptions,
    profile_program,
    run_layout,
    synthesize_layout,
)
from repro.runtime.machine import MachineConfig
from repro.viz import render_table

NAME = "Series"
#: Many tiny tasks: 248 coefficients of only 8 integration points each.
ARGS = ["248", "8"]
CORE_COUNTS = [4, 16, 32]


def run_all(ctx):
    compiled = load_benchmark(NAME)
    profile = profile_program(compiled, ARGS)
    rows = []
    for cores in CORE_COUNTS:
        layout = synthesize_layout(
            compiled,
            profile,
            cores,
            options=SynthesisOptions(anneal=bench_config()),
        ).layout
        distributed = run_layout(compiled, layout, ARGS)
        centralized = run_layout(
            compiled,
            layout,
            ARGS,
            options=RunOptions(
                machine=MachineConfig(centralized_scheduler=True)
            ),
        )
        assert distributed.stdout == centralized.stdout
        rows.append(
            {
                "cores": cores,
                "distributed": distributed.total_cycles,
                "centralized": centralized.total_cycles,
                "slowdown": centralized.total_cycles / distributed.total_cycles,
            }
        )
    return rows


def test_ablation_centralized_scheduler(benchmark, ctx):
    rows = benchmark.pedantic(run_all, args=(ctx,), iterations=1, rounds=1)

    table = render_table(
        ["Cores", "Distributed (cyc)", "Centralized (cyc)", "Slowdown"],
        [
            [r["cores"], r["distributed"], r["centralized"], f"{r['slowdown']:.2f}x"]
            for r in rows
        ],
    )
    emit(
        f"Ablation: centralized vs distributed scheduler "
        f"({NAME}, fine-grained workload {ARGS})",
        table,
        artifact="ablation_scheduler.txt",
    )

    # The centralized scheduler is never faster, and its penalty grows with
    # the core count — the paper's scaling argument.
    for r in rows:
        assert r["slowdown"] >= 0.99
    assert rows[-1]["slowdown"] > rows[0]["slowdown"]
    assert rows[-1]["slowdown"] > 1.1

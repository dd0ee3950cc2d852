"""Extension: heterogeneous cores (paper §4.6).

The paper notes its approach extends to heterogeneous cores "by simply
extending the simulation to model these factors". We model a big.LITTLE-
style 16-core part (8 fast cores at 2x, 8 slow at 0.5x) and compare a
heterogeneity-aware synthesis (the scheduling simulator sees the speeds)
against a heterogeneity-blind one (synthesized as if cores were uniform),
both executed on the heterogeneous machine."""

from conftest import bench_config, emit
from repro.bench import load_benchmark
from repro.core import RunOptions, SynthesisOptions, run_layout, synthesize_layout
from repro.runtime.machine import MachineConfig
from repro.viz import render_table

NUM_CORES = 16
#: cores 0-7 are fast (2x), cores 8-15 slow (0.5x)
SPEEDS = {core: (2.0 if core < 8 else 0.5) for core in range(NUM_CORES)}
BENCHES = ["Fractal", "MonteCarlo"]


def run_all(ctx):
    rows = []
    for name in BENCHES:
        compiled = load_benchmark(name)
        args = ctx.args(name)
        profile = ctx.profile(name)

        aware = synthesize_layout(
            compiled, profile, NUM_CORES,
            options=SynthesisOptions(
                anneal=bench_config(), core_speeds=SPEEDS
            ),
        ).layout
        blind = ctx.synthesis_report(name, num_cores=NUM_CORES).layout

        hetero = RunOptions(machine=MachineConfig(core_speeds=SPEEDS))
        aware_run = run_layout(compiled, aware, args, options=hetero)
        blind_run = run_layout(compiled, blind, args, options=hetero)
        assert aware_run.stdout == blind_run.stdout
        rows.append(
            {
                "name": name,
                "aware": aware_run.total_cycles,
                "blind": blind_run.total_cycles,
                "gain": blind_run.total_cycles / aware_run.total_cycles,
            }
        )
    return rows


def test_heterogeneous_synthesis(benchmark, ctx):
    rows = benchmark.pedantic(run_all, args=(ctx,), iterations=1, rounds=1)

    table = render_table(
        ["Benchmark", "Hetero-aware (cyc)", "Hetero-blind (cyc)", "Gain"],
        [
            [r["name"], r["aware"], r["blind"], f"{r['gain']:.2f}x"]
            for r in rows
        ],
    )
    emit(
        f"Extension: heterogeneous cores ({NUM_CORES}-core big.LITTLE, "
        "8 fast @2x + 8 slow @0.5x)",
        table,
        artifact="hetero.txt",
    )

    for r in rows:
        # Synthesis that models the speeds never loses to blind synthesis,
        # and wins visibly on at least one benchmark.
        assert r["aware"] <= r["blind"] * 1.02, r["name"]
    assert any(r["gain"] > 1.05 for r in rows)

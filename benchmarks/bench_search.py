"""The search engine's own performance: memoization and parallel fan-out.

Two measurements on a fixed DSA workload (KMeans at 16 cores, the
Figure 10 setting):

1. **Cache effectiveness** — identical synthesis with the simulation
   cache on vs off. The DSA loop re-scores kept candidates every
   iteration, so the cache converts a large fraction of evaluation
   requests into hits; wall-clock must drop measurably.
2. **Worker sweep** — the same synthesis at ``workers`` 1, 2, and 4.
   Results must be bit-identical across the sweep (the
   :mod:`repro.search` batch contract); wall seconds are recorded per
   worker count.

Both are recorded as one JSON telemetry document
(``benchmarks/out/search.json``) for trend tracking.
"""

import os

from conftest import emit
from repro.bench import get_spec, load_benchmark
from repro.core import SynthesisOptions, synthesize_layout
from repro.schedule.anneal import AnnealConfig
from repro.viz import render_table
from telemetry import write_telemetry

BENCH = "KMeans"
NUM_CORES = 16
WORKER_SWEEP = [1, 2, 4]


def search_config() -> AnnealConfig:
    return AnnealConfig(seed=0, max_iterations=10, max_evaluations=600)


def synthesize(ctx, workers: int, sim_cache: bool):
    return synthesize_layout(
        load_benchmark(BENCH),
        ctx.profile(BENCH),
        NUM_CORES,
        options=SynthesisOptions(
            anneal=search_config(),
            hints=get_spec(BENCH).hints,
            workers=workers,
            sim_cache=sim_cache,
        ),
    )


def run_all(ctx):
    cached = synthesize(ctx, workers=1, sim_cache=True)
    uncached = synthesize(ctx, workers=1, sim_cache=False)
    sweep = {1: cached}
    for workers in WORKER_SWEEP[1:]:
        sweep[workers] = synthesize(ctx, workers=workers, sim_cache=True)
    return cached, uncached, sweep


def test_search_engine(benchmark, ctx):
    cached, uncached, sweep = benchmark.pedantic(
        run_all, args=(ctx,), iterations=1, rounds=1
    )

    # The cache is semantically transparent (unbounded-budget equality is
    # enforced in tests/test_search.py; here budget applies, so only the
    # per-simulation accounting must line up)...
    assert cached.requested_evaluations == (
        cached.evaluations + cached.cache_hits
    )
    assert uncached.cache_hits == 0
    # ...and it must convert enough requests into hits to pay off.
    assert cached.cache_hits > 0
    hit_rate = cached.search_metrics["cache_hit_rate"]
    assert 0.0 < hit_rate < 1.0
    # The headline claim: memoization reduces wall-clock measurably.
    assert cached.wall_seconds < uncached.wall_seconds

    # Worker-count independence on the full-size workload.
    base = sweep[1]
    for workers, report in sweep.items():
        assert report.estimated_cycles == base.estimated_cycles, workers
        assert report.layout.as_dict() == base.layout.as_dict(), workers
        assert report.history == base.history, workers

    rows = [
        ["cache off", 1, uncached.evaluations, uncached.cache_hits,
         f"{uncached.wall_seconds:.2f}s"],
    ] + [
        [f"cache on", workers, report.evaluations, report.cache_hits,
         f"{report.wall_seconds:.2f}s"]
        for workers, report in sorted(sweep.items())
    ]
    table = render_table(
        ["Variant", "Workers", "Simulations", "Cache hits", "Wall"],
        rows,
    )
    emit(
        f"Search engine: memoized, parallel DSA ({BENCH}, {NUM_CORES} cores)",
        table
        + f"\n\ncache hit rate: {hit_rate:.1%}"
        + f"\ncache speedup:  "
        f"{uncached.wall_seconds / cached.wall_seconds:.2f}x"
        + "\nworker sweep bit-identical: True"
        + f"\nhost cpus: {os.cpu_count()}"
        " (worker walls only meaningful on a multi-core host)",
        artifact="search.txt",
    )
    write_telemetry(
        "search",
        {
            "benchmark": BENCH,
            "num_cores": NUM_CORES,
            "estimated_cycles": cached.estimated_cycles,
            "cache_off": {
                "wall_seconds": uncached.wall_seconds,
                "search": uncached.search_metrics,
            },
            "cache_on": {
                "wall_seconds": cached.wall_seconds,
                "search": cached.search_metrics,
            },
            "cache_speedup": uncached.wall_seconds / cached.wall_seconds,
            "worker_sweep": {
                str(workers): {
                    "wall_seconds": report.wall_seconds,
                    "search": report.search_metrics,
                }
                for workers, report in sorted(sweep.items())
            },
            "worker_sweep_bit_identical": True,
        },
    )

"""Figure 10 — efficiency of directed simulated annealing.

Following §5.3: on a 16-core machine we (1) exhaustively enumerate candidate
implementations (task-granularity placements with per-task replica counts)
and plot the distribution of their estimated execution times, and (2) run
DSA from many random starting candidates and plot the distribution of the
layouts it converges to. The paper's claims: good implementations are rare
in the raw candidate space, and DSA reaches the best-performing bucket from
at least 98% of random starts (Tracking is excluded — exhaustive search is
prohibitively expensive even at 16 cores, §5.3).
"""

import random

from conftest import emit
from repro.bench import get_spec
from repro.core import SynthesisOptions, annotated_cstg
from repro.schedule.anneal import AnnealConfig, DirectedSimulatedAnnealing
from repro.schedule.coregroup import build_group_graph
from repro.schedule.mapping import enumerate_layouts
from repro.schedule.simulator import simulate
from repro.search import SimCache
from repro.viz import render_histogram

NUM_CORES = 16
#: §5.3 uses 1000 random starts; scaled to the simulator substrate.
DSA_STARTS = 25
FIG10_BENCHMARKS = ["KMeans", "MonteCarlo", "FilterBank", "Fractal", "Series"]


def candidate_space(compiled, profile):
    cstg = annotated_cstg(compiled, profile)
    graph = build_group_graph(compiled.info, cstg, profile, granularity="task")
    choices = {
        g.group_id: ([1, 2, 4, 8, 12, NUM_CORES - 1, NUM_CORES]
                     if g.replicable else [1])
        for g in graph.groups
    }
    layouts = enumerate_layouts(
        compiled.info, graph, choices, NUM_CORES, limit=4000
    )
    return graph, layouts


def run_benchmark(ctx, name):
    compiled = ctx.compiled(name)
    profile = ctx.profile(name)
    hints = get_spec(name).hints

    graph, layouts = candidate_space(compiled, profile)
    all_estimates = [
        simulate(compiled, layout, profile, hints=hints).total_cycles
        for layout in layouts
    ]
    best = min(all_estimates)

    dsa_results = []
    # One cache shared across all random starts: the profile is fixed, so
    # layouts revisited by later starts are never re-simulated.
    shared_cache = SimCache()
    rng = random.Random(1234)
    for start in range(DSA_STARTS):
        config = AnnealConfig(
            seed=rng.randrange(1 << 30),
            initial_candidates=1,
            max_iterations=12,
            max_evaluations=70,
            patience=2,
            continue_probability=0.5,
        )
        options = SynthesisOptions(
            anneal=config, hints=hints, cache=shared_cache
        )
        with DirectedSimulatedAnnealing(
            compiled, profile, NUM_CORES, options, group_graph=graph
        ) as dsa:
            dsa_results.append(dsa.run().estimated_cycles)

    # "Best bucket": within 5% of the global best estimate.
    threshold = best * 1.05
    success = sum(1 for v in dsa_results if v <= threshold) / len(dsa_results)
    return {
        "name": name,
        "candidates": len(layouts),
        "all": all_estimates,
        "dsa": dsa_results,
        "best": best,
        "best_rate_all": sum(1 for v in all_estimates if v <= threshold)
        / len(all_estimates),
        "success": success,
    }


def test_fig10_dsa_efficiency(benchmark, ctx):
    results = benchmark.pedantic(
        lambda: [run_benchmark(ctx, name) for name in FIG10_BENCHMARKS],
        iterations=1,
        rounds=1,
    )

    blocks = []
    for r in results:
        blocks.append(
            f"{r['name']}: {r['candidates']} candidate implementations, "
            f"best estimate {r['best']} cycles\n"
            f"  fraction of candidates within 5% of best: "
            f"{r['best_rate_all']:.1%}\n"
            f"  DSA runs reaching within 5% of best:      {r['success']:.1%} "
            f"(paper: >= 98%)\n"
            + render_histogram(
                r["all"], bins=14, label="  all candidates (est. cycles)"
            )
            + "\n"
            + render_histogram(
                r["dsa"], bins=14, label="  DSA results from random starts"
            )
        )
    emit(
        "Figure 10: DSA efficiency at 16 cores",
        "\n\n".join(blocks),
        artifact="fig10_dsa.txt",
    )

    for r in results:
        # Good candidates are rare in the raw space...
        assert r["best_rate_all"] < 0.5, r["name"]
        # ...but DSA finds the best bucket from nearly every random start.
        assert r["success"] >= 0.9, (r["name"], r["success"])
        # And DSA's median result beats the space's median by a wide margin.
        all_sorted = sorted(r["all"])
        dsa_sorted = sorted(r["dsa"])
        assert dsa_sorted[len(dsa_sorted) // 2] < all_sorted[len(all_sorted) // 2]

"""Ablations of the synthesis search (DESIGN.md §5, items 1-2).

1. *Directed* vs *undirected* annealing: DSA's critical-path-guided moves
   against random moves only, at equal evaluation budget.
2. *Transformation rules* vs locality-only placement: the best estimate
   reachable when the data-parallelization and rate-matching rules are
   disabled (every group gets one replica).
"""

from conftest import emit
from repro.bench import get_spec
from repro.core import SynthesisOptions, annotated_cstg, synthesize_layout
from repro.schedule.anneal import AnnealConfig
from repro.schedule.coregroup import build_group_graph
from repro.schedule.mapping import seed_layouts
from repro.schedule.rules import suggest_replicas
from repro.schedule.simulator import simulate
from repro.viz import render_table

NUM_CORES = 16
BENCHES = ["Tracking", "KMeans", "FilterBank"]
BUDGET = 120


def run_search(ctx, name, use_critical_path, seed=7):
    compiled = ctx.compiled(name)
    profile = ctx.profile(name)
    config = AnnealConfig(
        seed=seed,
        initial_candidates=4,
        max_iterations=25,
        max_evaluations=BUDGET,
        patience=2,
        continue_probability=0.5,
        use_critical_path=use_critical_path,
    )
    return synthesize_layout(
        compiled, profile, NUM_CORES,
        options=SynthesisOptions(anneal=config, hints=get_spec(name).hints),
    )


def locality_only_estimate(ctx, name):
    compiled = ctx.compiled(name)
    profile = ctx.profile(name)
    cstg = annotated_cstg(compiled, profile)
    graph = build_group_graph(compiled.info, cstg, profile)
    suggestions = suggest_replicas(
        compiled.info, graph, profile, NUM_CORES,
        enable_data_parallel=False, enable_rate_match=False,
    )
    layouts = seed_layouts(compiled.info, graph, suggestions, NUM_CORES)
    return min(
        simulate(compiled, layout, profile,
                        hints=get_spec(name).hints).total_cycles
        for layout in layouts
    )


def run_all(ctx):
    rows = []
    for name in BENCHES:
        directed = run_search(ctx, name, use_critical_path=True)
        undirected = run_search(ctx, name, use_critical_path=False)
        locality = locality_only_estimate(ctx, name)
        rows.append(
            {
                "name": name,
                "directed": directed.estimated_cycles,
                "undirected": undirected.estimated_cycles,
                "locality": locality,
            }
        )
    return rows


def test_ablation_dsa(benchmark, ctx):
    rows = benchmark.pedantic(run_all, args=(ctx,), iterations=1, rounds=1)

    table = render_table(
        [
            "Benchmark",
            "DSA (directed)",
            "Undirected anneal",
            "Locality-only rules",
            "dir/undir",
            "dir/locality",
        ],
        [
            [
                r["name"],
                r["directed"],
                r["undirected"],
                r["locality"],
                f"{r['undirected'] / r['directed']:.2f}x",
                f"{r['locality'] / r['directed']:.2f}x",
            ]
            for r in rows
        ],
    )
    emit(
        f"Ablation: search strategy at {NUM_CORES} cores "
        f"(budget {BUDGET} evaluations)",
        table,
        artifact="ablation_dsa.txt",
    )

    for r in rows:
        # The directed search never loses to the undirected one, and the
        # parallelizing rules are essential: locality-only placement is far
        # slower than the synthesized implementation.
        assert r["directed"] <= r["undirected"] * 1.02, r["name"]
        assert r["locality"] > 2 * r["directed"], r["name"]

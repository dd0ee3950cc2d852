"""Figure 7 — speedups of the six benchmarks on 62 cores.

For each benchmark we run the single-core C-baseline substitute, the
single-core Bamboo version, and the synthesized 62-core Bamboo version, and
report the two speedups plus the Bamboo overhead (§5.5). The paper's rows,
for reference:

    benchmark    1-core C  1-core Bamboo  62-core  spd/Bamboo  spd/C  ovh
    Tracking       405.2      406.4         15.5     26.2      26.1   0.3%
    KMeans        1124.6     1243.8         32.0     38.9      35.1  10.6%
    MonteCarlo      44.4       47.0          1.3     36.2      34.2   5.9%
    FilterBank     554.6      554.9         14.8     37.5      37.5   0.1%
    Fractal        162.5      172.6          2.8     61.6      58.0   6.2%
    Series        1774.7     1885.7         30.8     61.2      57.6   6.3%

The table reports each search's simulation count alongside; the DSA
optimization wall times of §5.1 go only to ``fig7_speedup.json``
(``dsa_seconds``), so the text artifact is deterministic.
"""

from conftest import emit
from repro.bench import PAPER_BENCHMARKS
from repro.viz import render_table
from telemetry import write_telemetry

#: The paper's 62-core speedups vs 1-core Bamboo, for the report.
PAPER_SPEEDUPS = {
    "Tracking": 26.2,
    "KMeans": 38.9,
    "MonteCarlo": 36.2,
    "FilterBank": 37.5,
    "Fractal": 61.6,
    "Series": 61.2,
}


def run_all(ctx):
    rows = []
    for name in PAPER_BENCHMARKS:
        seq = ctx.sequential_run(name)
        one = ctx.one_core_run(name)
        many = ctx.many_core_run(name)
        report = ctx.synthesis_report(name)
        assert seq.stdout == one.stdout == many.stdout, name
        rows.append(
            {
                "name": name,
                "seq": seq.cycles,
                "one": one.total_cycles,
                "many": many.total_cycles,
                "speedup_bamboo": one.total_cycles / many.total_cycles,
                "speedup_seq": seq.cycles / many.total_cycles,
                "overhead": (one.total_cycles - seq.cycles) / seq.cycles,
                "dsa_seconds": report.wall_seconds,
                "dsa_evals": report.evaluations,
                "busy_fraction": many.busy_fraction(),
                "metrics": many.metrics,
            }
        )
    return rows


def test_fig7_speedups(benchmark, ctx):
    rows = benchmark.pedantic(run_all, args=(ctx,), iterations=1, rounds=1)

    table = render_table(
        [
            "Benchmark",
            "1-Core C (cyc)",
            "1-Core Bamboo",
            "62-Core Bamboo",
            "Speedup/Bamboo",
            "Speedup/C",
            "Overhead",
            "Paper spd",
            "DSA sims",
        ],
        [
            [
                r["name"],
                r["seq"],
                r["one"],
                r["many"],
                f"{r['speedup_bamboo']:.1f}x",
                f"{r['speedup_seq']:.1f}x",
                f"{r['overhead']:.1%}",
                f"{PAPER_SPEEDUPS[r['name']]:.1f}x",
                r["dsa_evals"],
            ]
            for r in rows
        ],
    )
    emit("Figure 7: speedups on 62 cores", table, artifact="fig7_speedup.txt")
    write_telemetry("fig7_speedup", {"rows": rows})

    by_name = {r["name"]: r for r in rows}

    # -- shape assertions (who wins, roughly what factor) ------------------------
    for r in rows:
        # Large many-core speedups for every benchmark (paper: 26.2-61.6x).
        assert r["speedup_bamboo"] > 12, r["name"]
        # Small single-core overhead (paper: 0.1%-10.6%).
        assert 0.0 < r["overhead"] < 0.12, r["name"]

    # Fractal is the best-scaling benchmark, Tracking the worst (paper order).
    best = max(rows, key=lambda r: r["speedup_bamboo"])["name"]
    worst = min(rows, key=lambda r: r["speedup_bamboo"])["name"]
    assert best == "Fractal"
    assert worst == "Tracking"
    # The embarrassingly parallel pair outruns the merge-bound pair.
    assert (
        by_name["Series"]["speedup_bamboo"]
        > by_name["Tracking"]["speedup_bamboo"]
    )

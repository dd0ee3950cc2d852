"""Extension: speedup scaling curves (not a paper figure).

The paper reports only the 62-core endpoint; this bench sweeps the core
count for two contrasting benchmarks — embarrassingly parallel Fractal and
merge-bound KMeans — and checks the expected scaling shapes: Fractal keeps
climbing to the full machine, while KMeans' serialized aggregation flattens
its curve early (the §4.6/§5 discussion of merge bottlenecks)."""

from conftest import emit
from repro.core import RunOptions, run_layout
from repro.runtime.machine import MachineConfig
from repro.viz import render_table
from telemetry import write_telemetry

CORE_COUNTS = [2, 4, 8, 16, 32, 62]
BENCHES = ["Fractal", "KMeans"]


def run_all(ctx):
    rows = {}
    for name in BENCHES:
        compiled = ctx.compiled(name)
        args = ctx.args(name)
        one = ctx.one_core_run(name).total_cycles
        series = []
        for cores in CORE_COUNTS:
            layout = ctx.synthesis_report(name, num_cores=cores).layout
            result = run_layout(
                compiled,
                layout,
                args,
                options=RunOptions(machine=MachineConfig(observe=True)),
            )
            series.append(
                {
                    "cores": cores,
                    "cycles": result.total_cycles,
                    "speedup": one / result.total_cycles,
                    "busy_fraction": result.busy_fraction(),
                    "accounting": result.metrics["accounting"]["totals"],
                }
            )
        rows[name] = {"one": one, "series": series}
    return rows


def test_scaling_curves(benchmark, ctx):
    rows = benchmark.pedantic(run_all, args=(ctx,), iterations=1, rounds=1)

    table_rows = []
    for cores_index, cores in enumerate(CORE_COUNTS):
        row = [cores]
        for name in BENCHES:
            point = rows[name]["series"][cores_index]
            row.append(f"{point['speedup']:.1f}x")
        table_rows.append(row)
    table = render_table(["Cores"] + BENCHES, table_rows)
    emit(
        "Extension: speedup vs core count",
        table,
        artifact="scaling.txt",
    )
    write_telemetry("scaling", {"curves": rows})

    for name in BENCHES:
        series = rows[name]["series"]
        # Monotone non-decreasing speedup with more cores (small tolerance
        # for layout-search noise).
        for before, after in zip(series, series[1:]):
            assert after["speedup"] >= before["speedup"] * 0.9, name

    fractal = {p["cores"]: p["speedup"] for p in rows["Fractal"]["series"]}
    kmeans = {p["cores"]: p["speedup"] for p in rows["KMeans"]["series"]}
    # Fractal still gains substantially from 32 -> 62 cores...
    assert fractal[62] > fractal[32] * 1.25
    # ...while merge-bound KMeans has visibly flattened by then.
    assert kmeans[62] < kmeans[32] * 1.25
    # And at the full machine, Fractal scales far better than KMeans.
    assert fractal[62] > kmeans[62] * 1.4

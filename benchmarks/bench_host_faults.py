"""What the supervised worker pool costs: its fault-free wall against the
serial reference, and the recovery price when workers fail.

Two measurements on a fixed DSA workload (Keyword at 8 cores — cheap
enough that pool management, not simulation, dominates, which is the
worst case for the pool):

1. **Pool vs serial** — identical fault-free synthesis through the
   serial reference (``workers=1``) and through the supervised pool
   (``workers=2``). The pool adds dispatch, IPC and supervision
   bookkeeping (deadline computation, EWMA update, sequence numbering)
   but no extra simulations, so the results must be bit-identical; both
   walls are reported.
2. **Recovery cost** — the same synthesis under seeded host-chaos plans
   (worker crashes and hangs). Each fired fault forces retries and a
   pool rebuild; the run must still be bit-identical to fault-free, and
   the telemetry records the wall-clock price per injected fault.

Recorded as one JSON telemetry document
(``benchmarks/out/host_faults.json``) for trend tracking.
"""

from conftest import emit
from repro.bench import get_spec, load_benchmark
from repro.core import SynthesisOptions, synthesize_layout
from repro.schedule.anneal import AnnealConfig
from repro.search import RetryPolicy, run_host_chaos
from repro.viz import render_table
from telemetry import write_telemetry

BENCH = "Keyword"
NUM_CORES = 8
WORKERS = 2
CHAOS_RUNS = 4

#: Short deadlines and near-zero backoff: the benchmark measures the
#: recovery machinery, not the default policy's patience with slow hosts.
POLICY = RetryPolicy(
    timeout_mult=8.0, timeout_floor=2.0, max_retries=3,
    backoff_base=0.01, backoff_cap=0.1,
)


def search_config() -> AnnealConfig:
    return AnnealConfig(seed=0, max_iterations=8, max_evaluations=400)


def synthesize(ctx, workers: int):
    return synthesize_layout(
        load_benchmark(BENCH),
        ctx.profile(BENCH),
        NUM_CORES,
        options=SynthesisOptions(
            anneal=search_config(),
            hints=get_spec(BENCH).hints,
            workers=workers,
            retry_policy=POLICY,
        ),
    )


def run_all(ctx):
    serial = synthesize(ctx, workers=1)
    pooled = synthesize(ctx, workers=WORKERS)
    chaos = run_host_chaos(
        load_benchmark(BENCH),
        ctx.profile(BENCH),
        NUM_CORES,
        options=SynthesisOptions(
            anneal=search_config(), hints=get_spec(BENCH).hints
        ),
        runs=CHAOS_RUNS,
        base_seed=0,
        workers=WORKERS,
        policy=POLICY,
    )
    return serial, pooled, chaos


def test_host_fault_costs(benchmark, ctx):
    serial, pooled, chaos = benchmark.pedantic(
        run_all, args=(ctx,), iterations=1, rounds=1
    )

    # The pool is result-transparent...
    assert pooled.estimated_cycles == serial.estimated_cycles
    assert pooled.layout.as_dict() == serial.layout.as_dict()
    assert pooled.history == serial.history
    # ...and fault-free it recovers nothing.
    assert serial.search_metrics["supervision"] is None
    stats = pooled.search_metrics["supervision"]
    assert stats["dispatches"] > 0
    assert stats["worker_retries"] == 0
    assert stats["pool_rebuilds"] == 0

    # The chaos sweep held every invariant and actually fired faults.
    assert chaos.ok, chaos.describe()
    fired = chaos.total("injected_crashes") + chaos.total("injected_hangs")
    assert fired >= 1
    assert chaos.total("worker_retries") >= fired

    pool_over_serial = (
        pooled.wall_seconds / serial.wall_seconds
        if serial.wall_seconds
        else 1.0
    )
    faulted = [run for run in chaos.runs if not run.plan.is_empty()]
    recovery_rows = []
    for run in faulted:
        run_fired = int(run.supervision.get("injected_crashes", 0)) + int(
            run.supervision.get("injected_hangs", 0)
        )
        cost = run.report.wall_seconds - pooled.wall_seconds
        recovery_rows.append(
            [f"plan {run.index}", WORKERS, len(run.plan.faults), run_fired,
             int(run.supervision.get("worker_retries", 0)),
             int(run.supervision.get("pool_rebuilds", 0)),
             f"{run.report.wall_seconds:.2f}s",
             f"{cost:+.2f}s"]
        )

    table = render_table(
        ["Run", "Workers", "Planned", "Fired", "Retries", "Rebuilds",
         "Wall", "vs clean pool"],
        [
            ["serial", 1, "-", "-", "-", "-",
             f"{serial.wall_seconds:.2f}s", "-"],
            ["pool", WORKERS, 0, 0, 0, 0,
             f"{pooled.wall_seconds:.2f}s", "-"],
        ]
        + recovery_rows,
    )
    emit(
        f"Host faults: pool vs serial, and recovery "
        f"({BENCH}, {NUM_CORES} cores, {WORKERS} workers)",
        table
        + f"\n\npool / serial wall: {pool_over_serial:.2f}x (fault-free)"
        + f"\nchaos invariants:   all held "
        f"({fired} fault(s) fired, {chaos.total('worker_retries')} "
        f"retries, {chaos.total('pool_rebuilds')} rebuilds)",
        artifact="host_faults.txt",
    )
    write_telemetry(
        "host_faults",
        {
            "benchmark": BENCH,
            "num_cores": NUM_CORES,
            "workers": WORKERS,
            "estimated_cycles": pooled.estimated_cycles,
            "serial": {
                "wall_seconds": serial.wall_seconds,
                "search": serial.search_metrics,
            },
            "pool": {
                "wall_seconds": pooled.wall_seconds,
                "search": pooled.search_metrics,
            },
            "pool_over_serial": pool_over_serial,
            "chaos": {
                "runs": CHAOS_RUNS,
                "ok": chaos.ok,
                "fired": fired,
                "worker_retries": chaos.total("worker_retries"),
                "pool_rebuilds": chaos.total("pool_rebuilds"),
                "serial_fallbacks": chaos.total("serial_fallbacks"),
                "per_plan": [
                    {
                        "index": run.index,
                        "plan": run.plan.describe(),
                        "wall_seconds": (
                            run.report.wall_seconds
                            if run.report is not None
                            else None
                        ),
                        "supervision": run.supervision,
                    }
                    for run in chaos.runs
                ],
            },
        },
    )

"""Extension: fault-injection recovery latency and zero-fault overhead.

Two claims of the `repro.fault` subsystem, measured:

1. **Zero-fault overhead.** With ``fault_plan=None`` the machine takes
   exactly the seed code paths: cycle counts on all six paper benchmarks
   are *bit-identical* to runs without the config field. The fault
   machinery is pay-for-what-you-use.
2. **Bounded recovery latency.** Crashing one worker core mid-run adds a
   modest cycle penalty — the rolled-back invocation replays, resident
   objects migrate at mesh message cost, and the survivors absorb the dead
   core's share of the pipeline. We report the penalty (recovery latency)
   for a crash at 25%, 50%, and 75% of the fault-free runtime, on an
   8-core synthesized layout, with exactly-once commit accounting.
"""

from conftest import emit
from repro.bench import PAPER_BENCHMARKS
from repro.core import RunOptions, run_layout, single_core_layout
from repro.fault import FaultPlan
from repro.runtime.machine import MachineConfig
from repro.viz import render_table


def run_overhead(ctx):
    rows = []
    for name in PAPER_BENCHMARKS:
        compiled = ctx.compiled(name)
        args = ctx.args(name)
        base = ctx.one_core_run(name)
        gated = run_layout(
            compiled,
            single_core_layout(compiled),
            args,
            options=RunOptions(
                machine=MachineConfig(fault_plan=None, validate=True)
            ),
        )
        rows.append(
            {
                "name": name,
                "base": base.total_cycles,
                "gated": gated.total_cycles,
                "identical": base.total_cycles == gated.total_cycles,
            }
        )
    return rows


def run_recovery(ctx):
    rows = []
    for name in ["Keyword", "Fractal", "MonteCarlo"]:
        compiled = ctx.compiled(name)
        args = ctx.args(name)
        layout = ctx.synthesis_report(name, num_cores=8).layout
        base = run_layout(compiled, layout, args)
        used = layout.cores_used()
        victim = used[-1] if len(used) > 1 else None
        for fraction in (0.25, 0.50, 0.75):
            if victim is None:
                continue
            cycle = int(base.total_cycles * fraction)
            plan = FaultPlan.single_crash(victim, cycle)
            faulted = run_layout(
                compiled,
                layout,
                args,
                options=RunOptions(
                    machine=MachineConfig(fault_plan=plan, validate=True)
                ),
            )
            rec = faulted.recovery
            rows.append(
                {
                    "name": name,
                    "victim": victim,
                    "fraction": fraction,
                    "base": base.total_cycles,
                    "faulted": faulted.total_cycles,
                    "latency": faulted.total_cycles - base.total_cycles,
                    "replayed": rec.tasks_replayed,
                    "migrated": rec.objects_migrated,
                    "downtime": rec.downtime_cycles,
                    "exactly_once": rec.exactly_once(),
                    "output_ok": faulted.stdout == base.stdout,
                }
            )
    return rows


def test_fault_recovery(benchmark, ctx):
    overhead, recovery = benchmark.pedantic(
        lambda c: (run_overhead(c), run_recovery(c)),
        args=(ctx,),
        iterations=1,
        rounds=1,
    )

    o_table = render_table(
        ["benchmark", "no-config cycles", "fault_plan=None cycles", "identical"],
        [
            [r["name"], f"{r['base']:,}", f"{r['gated']:,}", str(r["identical"])]
            for r in overhead
        ],
    )
    r_table = render_table(
        ["benchmark", "crash@", "base", "faulted", "latency", "replayed",
         "migrated", "downtime", "1x-commit", "output ok"],
        [
            [
                r["name"],
                f"{r['fraction']:.0%}",
                f"{r['base']:,}",
                f"{r['faulted']:,}",
                f"{r['latency']:+,}",
                r["replayed"],
                r["migrated"],
                f"{r['downtime']:,}",
                str(r["exactly_once"]),
                str(r["output_ok"]),
            ]
            for r in recovery
        ],
    )
    emit(
        "Extension: fault recovery — zero-fault overhead + recovery latency",
        o_table + "\n\n" + r_table,
        artifact="fault_recovery.txt",
    )

    # Zero-fault overhead must be exactly zero (bit-identical cycles).
    for row in overhead:
        assert row["identical"], row

    for row in recovery:
        # Recovery must preserve the answer and commit exactly once.
        assert row["output_ok"], row
        assert row["exactly_once"], row
        # Recovery latency stays a small fraction of the run: losing one of
        # eight cores mid-run should not double the runtime.
        assert row["faulted"] < row["base"] * 2.0, row

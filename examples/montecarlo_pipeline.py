#!/usr/bin/env python3
"""MonteCarlo pipelining — reproducing the paper's §5.4 observation.

The paper was "surprised to find" that Bamboo's synthesis generated a
heterogeneous implementation of the MonteCarlo benchmark that used
pipelining to overlap the simulation and aggregation phases. This example
synthesizes a layout for the MonteCarlo benchmark, then inspects the
scheduling-simulator trace to show the overlap: aggregate invocations run
on their own core *while* simulate invocations are still executing
elsewhere.

Run:  python examples/montecarlo_pipeline.py
"""

from repro.bench import get_spec, load_benchmark
from repro.core import (
    SynthesisOptions,
    profile_program,
    run_layout,
    synthesize_layout,
)
from repro.schedule.simulator import simulate

NUM_CORES = 16


def overlap_fraction(trace) -> float:
    """Fraction of aggregate busy-time overlapping some simulate event."""
    sim_windows = [(e.start, e.end) for e in trace if e.task == "simulate"]
    agg_events = [e for e in trace if e.task == "aggregate"]
    if not agg_events:
        return 0.0
    overlapped = 0
    total = 0
    for event in agg_events:
        total += event.duration
        for start, end in sim_windows:
            low = max(start, event.start)
            high = min(end, event.end)
            if high > low:
                overlapped += high - low
                break
    return overlapped / total if total else 0.0


def main() -> None:
    spec = get_spec("MonteCarlo")
    compiled = load_benchmark("MonteCarlo")
    args = list(spec.args)

    print(f"profiling MonteCarlo {args} ...")
    profile = profile_program(compiled, args)

    print(f"synthesizing a {NUM_CORES}-core implementation ...")
    report = synthesize_layout(
        compiled, profile, NUM_CORES, options=SynthesisOptions(seed=0)
    )
    layout = report.layout
    print(layout.describe())

    sim_cores = set(layout.cores_of("simulate"))
    agg_cores = set(layout.cores_of("aggregate"))
    print(f"\nsimulate instances: {len(sim_cores)} cores")
    print(f"aggregate instance: core {sorted(agg_cores)}")
    if agg_cores - sim_cores:
        print("-> heterogeneous: aggregation has a dedicated core, so it can")
        print("   pipeline with simulation (the paper's §5.4 observation)")

    result = simulate(compiled, layout, profile)
    fraction = overlap_fraction(result.trace)
    print(f"\nsimulated trace: {len(result.trace)} invocations, "
          f"{result.total_cycles:,} cycles")
    print(f"aggregate work overlapped with simulation: {fraction:.0%}")

    machine = run_layout(compiled, layout, args)
    print(f"\nreal machine run: {machine.total_cycles:,} cycles "
          f"-> {machine.stdout!r}")
    print(f"messages between cores: {machine.messages}")


if __name__ == "__main__":
    main()

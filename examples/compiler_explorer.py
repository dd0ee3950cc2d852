#!/usr/bin/env python3
"""Compiler explorer: dump every intermediate artifact for a benchmark.

Shows what the Bamboo compiler computes for a program, stage by stage:
the IR of a task, the per-class ASTGs, the profile-annotated CSTG (Figure 3
style), the core-group graph with replica suggestions, the synthesized
layout, and the critical path of its simulated schedule (Figure 6 style).

Run:  python examples/compiler_explorer.py [benchmark]
      (default: Fractal; try Keyword, KMeans, Tracking, ...)
"""

import sys

from repro.bench import benchmark_names, get_spec, load_benchmark
from repro.core import (
    annotated_cstg,
    profile_program,
    synthesize_layout,
)
from repro.schedule.coregroup import build_group_graph
from repro.schedule.critpath import compute_critical_path
from repro.schedule.rules import suggest_replicas
from repro.schedule.simulator import simulate
from repro.viz import render_critical_path

NUM_CORES = 8


def header(title: str) -> None:
    print("\n" + "=" * 70)
    print(title)
    print("=" * 70)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Fractal"
    if name not in benchmark_names():
        raise SystemExit(f"unknown benchmark {name!r}; have {benchmark_names()}")
    spec = get_spec(name)
    compiled = load_benchmark(name)
    args = list(spec.args)

    header(f"{name}: task declarations")
    from repro.lang.pretty import format_task_signature

    for task in compiled.program.tasks:
        print(" ", format_task_signature(task))

    header("IR of the first worker task")
    worker = next(
        t for t in compiled.task_names() if t != "startup"
    )
    print(compiled.ir_program.tasks[worker].format())

    header("abstract state transition graphs (dependence analysis, §4.1)")
    for class_name, astg in compiled.astgs.items():
        if astg.states:
            print(astg.format())

    header("disjointness analysis (§4.2)")
    for task in compiled.task_names():
        plan = compiled.lock_plan.plan_for(task)
        kind = "fine-grained locks" if plan.is_fine_grained else (
            f"shared-lock groups {plan.shared_groups}"
        )
        print(f"  {task}: {kind}")

    header(f"profiling with args {args}")
    profile = profile_program(compiled, args)
    for task in profile.task_names():
        print(
            f"  {task}: x{profile.invocations(task)}, "
            f"avg {profile.avg_task_cycles(task):,.0f} cycles, "
            f"exits {profile.exit_ids(task)}"
        )

    header("profile-annotated CSTG (Figure 3 style)")
    cstg = annotated_cstg(compiled, profile)
    print(cstg.format())

    header("core groups and transformation rules (§4.3)")
    graph = build_group_graph(compiled.info, cstg, profile)
    print(graph.format())
    for suggestion in suggest_replicas(
        compiled.info, graph, profile, NUM_CORES
    ).values():
        tasks = graph.group(suggestion.group_id).label()
        print(
            f"  {tasks}: {suggestion.replicas} replicas ({suggestion.rule})"
        )

    header(f"synthesized {NUM_CORES}-core layout (§4.5)")
    report = synthesize_layout(compiled, profile, NUM_CORES)
    print(report.layout.describe())
    print(f"  estimated: {report.estimated_cycles:,} cycles "
          f"({report.evaluations} layouts evaluated in "
          f"{report.wall_seconds:.2f}s)")

    header("critical path of the simulated schedule (Figure 6 style, §4.5.1)")
    result = simulate(compiled, report.layout, profile, hints=spec.hints)
    path = compute_critical_path(result)
    text = render_critical_path(path)
    lines = text.splitlines()
    for line in lines[:25]:
        print(line)
    if len(lines) > 25:
        print(f"  ... {len(lines) - 25} more steps")


if __name__ == "__main__":
    main()

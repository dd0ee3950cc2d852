#!/usr/bin/env python3
"""Quickstart: compile, profile, synthesize, and run a Bamboo program.

This walks the full pipeline of the paper on its §2 keyword-counting
example: write a data-centric program as tasks with abstract-state guards,
let the compiler analyze it, bootstrap a single-core profile, synthesize an
optimized many-core layout with directed simulated annealing, and execute
it on the simulated many-core machine.

Run:  python examples/quickstart.py
"""

from repro.core import (
    compile_program,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)

SOURCE = """
// Objects carry abstract states ("flags"); tasks declare guards over them
// and the runtime invokes a task when matching objects exist (paper §2).
class Text {
    flag process;
    flag submit;
    String data;
    int result;

    Text(String s) { this.data = s; this.result = 0; }

    void work() {
        String[] words = this.data.split();
        int n = 0;
        for (int i = 0; i < words.length; i++) {
            if (words[i].equals("bamboo")) n = n + 1;
        }
        this.result = n;
    }
}

class Results {
    flag finished;
    int total;
    int expected;
    int merged;

    Results(int e) { this.expected = e; this.total = 0; this.merged = 0; }

    boolean mergeResult(Text t) {
        this.total = this.total + t.result;
        this.merged = this.merged + 1;
        return this.merged == this.expected;
    }
}

class SeqMain {
    SeqMain() { }
    void run(String[] args) {
        int sections = Integer.parseInt(args[0]);
        int total = 0;
        for (int s = 0; s < sections; s++) {
            String[] words = "bamboo grows fast bamboo".split();
            for (int i = 0; i < words.length; i++) {
                if (words[i].equals("bamboo")) total = total + 1;
            }
        }
        System.printString("total=" + total);
    }
}

task startup(StartupObject s in initialstate) {
    int sections = Integer.parseInt(s.args[0]);
    for (int i = 0; i < sections; i++) {
        Text tp = new Text("bamboo grows fast bamboo"){process := true};
    }
    Results rp = new Results(sections){finished := false};
    taskexit(s: initialstate := false);
}

task processText(Text tp in process) {
    tp.work();
    taskexit(tp: process := false, submit := true);
}

task mergeIntermediateResult(Results rp in !finished, Text tp in submit) {
    boolean allprocessed = rp.mergeResult(tp);
    if (allprocessed) {
        System.printString("total=" + rp.total);
        taskexit(rp: finished := true; tp: submit := false);
    }
    taskexit(tp: submit := false);
}
"""


def main() -> None:
    args = ["24"]

    print("1. compiling (parse, typecheck, lower, dependence + disjointness)")
    compiled = compile_program(SOURCE, "quickstart.bam")
    print(f"   tasks: {compiled.task_names()}")
    print(f"   fine-grained-lock tasks: {compiled.lock_plan.fine_grained_tasks()}")
    print()
    print("   Text's abstract state machine (ASTG):")
    for line in compiled.astgs["Text"].format().splitlines():
        print("   " + line)

    print()
    print("2. baselines")
    seq = run_sequential(compiled, args)
    print(f"   sequential (C-substitute): {seq.cycles:>9,} cycles -> {seq.stdout!r}")
    one = run_layout(compiled, single_core_layout(compiled), args)
    print(f"   1-core Bamboo:             {one.total_cycles:>9,} cycles -> {one.stdout!r}")
    overhead = (one.total_cycles - seq.cycles) / seq.cycles
    print(f"   Bamboo runtime overhead:   {overhead:.1%}")

    print()
    print("3. profiling (bootstraps the Markov model, paper §4.3.1)")
    profile = profile_program(compiled, args)
    for task in profile.task_names():
        print(
            f"   {task}: {profile.invocations(task)} invocations, "
            f"avg {profile.avg_task_cycles(task):,.0f} cycles"
        )

    print()
    print("4. synthesizing an 8-core implementation (rules + DSA, §4.3-4.5)")
    report = synthesize_layout(compiled, profile, num_cores=8)
    print(f"   evaluated {report.requested_evaluations} candidate layouts "
          f"({report.evaluations} simulated, {report.cache_hits} from the "
          f"simulation cache) in {report.wall_seconds:.2f}s")
    for line in report.layout.describe().splitlines():
        print("   " + line)

    print()
    print("5. running the synthesized layout on the machine simulator")
    many = run_layout(compiled, report.layout, args)
    print(f"   8-core Bamboo: {many.total_cycles:>9,} cycles -> {many.stdout!r}")
    print(f"   speedup vs 1-core Bamboo: "
          f"{one.total_cycles / many.total_cycles:.2f}x")
    print(f"   inter-core messages: {many.messages}")
    assert many.stdout == seq.stdout


if __name__ == "__main__":
    main()

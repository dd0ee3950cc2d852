"""Workload ``pipeline``: what ``repro run`` does, for each paper program.

One op is one program's ``compile_program`` -> profiling run ->
serial ``synthesize_layout`` (62 cores, 8x8 mesh, the program's hints,
``AnnealConfig(seed=0, max_evaluations=400)``) -> 62-core machine run.
A round is the six programs, in an order drawn from the workload seed.

The anneal seed stays at Figure 7's 0: across anneal seeds the search
length varies about 4x (9.8 s to 36.7 s of synthesis over the six
programs on one 2-CPU host), which no bound on ``wall_s`` could absorb.
So every seed reproduces ``benchmarks/out/fig7_speedup.txt`` exactly.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from common import (
    PROGRAMS,
    Outcome,
    add_search_counts,
    geomean,
    load_digests,
    median,
    peak_rss_mb,
    stdout_digest,
)
from spans import Tracer, maybe_span

CORES = 62
MESH_WIDTH = 8
MAX_EVALUATIONS = 400
ANNEAL_SEED = 0


def run(seed: int, rounds: int, tracer: Optional[Tracer],
        setup_samples: List[float]) -> Outcome:
    from repro.bench.suite import get_spec, load_source
    from repro.core.api import compile_program, run_layout, single_core_layout
    from repro.core.options import RunOptions, SynthesisOptions
    from repro.core.pipeline import synthesize_layout
    from repro.schedule.anneal import AnnealConfig

    digests = load_digests()
    order = list(PROGRAMS)
    random.Random(seed).shuffle(order)
    outcome = Outcome()
    outcome.metrics["setup_s"] = median(setup_samples)

    round_walls = []
    speedups, errors = {}, {}
    for round_index in range(rounds):
        started = time.perf_counter()
        for name in order:
            outcome.attempted += 1
            op = f"r{round_index}.{name}"
            if tracer is not None:
                tracer.set_op(op)
            spec = get_spec(name)
            args = list(spec.args)
            expected = digests[name]["sha256"]
            try:
                with maybe_span(tracer, "compile"):
                    compiled = compile_program(load_source(name), spec.filename)
                # profile_program's body: a 1-core run collecting the
                # profile, kept as a MachineResult so its stdout is checked.
                with maybe_span(tracer, "profile"):
                    profiled = run_layout(
                        compiled,
                        single_core_layout(compiled),
                        args,
                        options=RunOptions(collect_profile=True),
                    )
                profile = profiled.profile
                with maybe_span(tracer, "synthesize"):
                    report = synthesize_layout(
                        compiled,
                        profile,
                        CORES,
                        options=SynthesisOptions(
                            anneal=AnnealConfig(
                                seed=ANNEAL_SEED,
                                max_evaluations=MAX_EVALUATIONS,
                            ),
                            hints=spec.hints,
                            mesh_width=MESH_WIDTH,
                        ),
                    )
                with maybe_span(tracer, "run"):
                    many = run_layout(compiled, report.layout, args)
            except Exception as exc:  # one failed op must not end the run
                outcome.fail(f"{op}: {type(exc).__name__}: {exc}")
                continue
            bad = [
                kind
                for kind, stdout in (("profiling run", profiled.stdout),
                                     ("62-core run", many.stdout))
                if stdout_digest(stdout) != expected
            ]
            if bad:
                outcome.fail(f"{op}: stdout digest mismatch in {', '.join(bad)}")
                continue
            one_core = profile.run_cycles
            speedups[name] = one_core / many.total_cycles
            errors[name] = (
                abs(report.estimated_cycles - many.total_cycles)
                / many.total_cycles
            )
            outcome.counts[f"{name}.one_core_cycles"] = one_core
            outcome.counts[f"{name}.machine_cycles"] = many.total_cycles
            outcome.counts[f"{name}.estimated_cycles"] = report.estimated_cycles
            outcome.counts[f"{name}.invocations"] = (
                sum(profiled.invocations.values()),
                sum(many.invocations.values()),
            )
            outcome.counts[f"{name}.messages"] = (profiled.messages, many.messages)
            outcome.counts[f"{name}.simulations"] = report.evaluations
            outcome.counts[f"{name}.requests"] = report.requested_evaluations
            outcome.counts[f"{name}.cache_hits"] = report.cache_hits
            outcome.counts[f"{name}.layout"] = [
                [task, list(cores)] for task, cores in report.layout.instances
            ]
            add_search_counts(outcome.layer, report)
        round_walls.append(time.perf_counter() - started)

    outcome.wall_s = sum(round_walls)
    outcome.metrics["wall_s"] = median(round_walls)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    if speedups:
        outcome.metrics["speedup_geomean"] = geomean(speedups.values())
        outcome.metrics["sim_error_pct"] = max(errors.values()) * 100
        outcome.counts["speedup_geomean"] = outcome.metrics["speedup_geomean"]
        outcome.counts["sim_error_pct"] = outcome.metrics["sim_error_pct"]
    return outcome


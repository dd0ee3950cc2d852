"""Workload ``search``: ``synthesize_layout`` alone, through the pool.

Set-up compiles and profiles the six paper programs. A round is twelve
syntheses — each program at 62 cores (8x8 mesh) and at 16 cores — through
the default supervised process pool with 2 workers, in an order drawn
from the workload seed. The interpreter does none of the timed work.

Each search spends exactly ``EVALUATIONS`` real simulations
(``continue_probability=1.0``, so patience never ends it early), which
keeps the twelve comparable in cost. The anneal seed is pinned, as in
the pipeline: with seeds drawn per run the round's wall spread 7% and
the median synthesis 10% over five seeds, from trajectory alone.
"""

from __future__ import annotations

import random
import time
from typing import Optional

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

WORKERS = 2
EVALUATIONS = 100
ANNEAL_SEED = 0
TARGETS = ((62, 8), (16, None))  # (cores, mesh width)


def run(seed: int, rounds: int, tracer: Optional[Tracer], t_start: float) -> Outcome:
    from repro.bench.suite import get_spec, load_source
    from repro.core.api import compile_program, run_layout, single_core_layout
    from repro.core.options import RunOptions, SynthesisOptions
    from repro.core.pipeline import synthesize_layout
    from repro.schedule.anneal import AnnealConfig
    from repro.schedule.simulator import simulate

    digests = load_digests()
    outcome = Outcome()
    jobs = [(name, cores, mesh) for cores, mesh in TARGETS for name in PROGRAMS]
    random.Random(seed).shuffle(jobs)

    # -- set-up: compile and profile every program ------------------------
    prepared = {}
    bad_programs = {}
    if tracer is not None:
        tracer.set_op("setup")
    for name in PROGRAMS:
        spec = get_spec(name)
        try:
            with maybe_span(tracer, "compile"):
                compiled = compile_program(load_source(name), spec.filename)
            with maybe_span(tracer, "profile"):
                profiled = run_layout(
                    compiled,
                    single_core_layout(compiled),
                    list(spec.args),
                    options=RunOptions(collect_profile=True),
                )
        except Exception as exc:
            bad_programs[name] = f"set-up {type(exc).__name__}: {exc}"
            continue
        if stdout_digest(profiled.stdout) != digests[name]["sha256"]:
            bad_programs[name] = "profiling run stdout digest mismatch"
            continue
        prepared[name] = (spec, compiled, profiled.profile)
    outcome.metrics["setup_s"] = time.perf_counter() - t_start

    # -- timed rounds ----------------------------------------------------------
    round_walls = []
    speedups = {}
    for round_index in range(rounds):
        started = time.perf_counter()
        for name, cores, mesh in jobs:
            outcome.attempted += 1
            op = f"r{round_index}.{name}/{cores}"
            if name in bad_programs:
                outcome.fail(f"{op}: {bad_programs[name]}")
                continue
            if tracer is not None:
                tracer.set_op(op)
            spec, compiled, profile = prepared[name]
            try:
                with maybe_span(tracer, "synthesize"):
                    report = synthesize_layout(
                        compiled,
                        profile,
                        cores,
                        options=SynthesisOptions(
                            anneal=AnnealConfig(
                                seed=ANNEAL_SEED,
                                max_evaluations=EVALUATIONS,
                                continue_probability=1.0,
                            ),
                            hints=spec.hints,
                            mesh_width=mesh,
                            workers=WORKERS,
                        ),
                    )
            except Exception as exc:
                outcome.fail(f"{op}: {type(exc).__name__}: {exc}")
                continue
            speedups[op] = profile.run_cycles / report.estimated_cycles
            key = f"{name}/{cores}"
            outcome.counts[f"{key}.estimated_cycles"] = report.estimated_cycles
            outcome.counts[f"{key}.simulations"] = report.evaluations
            outcome.counts[f"{key}.requests"] = report.requested_evaluations
            outcome.counts[f"{key}.cache_hits"] = report.cache_hits
            outcome.counts[f"{key}.history"] = list(report.history)
            add_search_counts(outcome.layer, report)
        round_walls.append(time.perf_counter() - started)
    outcome.wall_s = sum(round_walls)

    # -- after timing: 1-core estimate vs the profiling run (Figure 9) -----
    if tracer is not None:
        tracer.set_op("check")
    errors = []
    for name, (spec, compiled, profile) in prepared.items():
        estimate = simulate(
            compiled, single_core_layout(compiled), profile, hints=spec.hints
        ).total_cycles
        errors.append(abs(estimate - profile.run_cycles) / profile.run_cycles)
        outcome.counts[f"{name}.one_core"] = (profile.run_cycles, estimate)

    outcome.metrics["wall_s"] = median(round_walls)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    if speedups:
        outcome.metrics["speedup_geomean"] = geomean(speedups.values())
        outcome.counts["speedup_geomean"] = outcome.metrics["speedup_geomean"]
    if errors:
        outcome.metrics["sim_error_pct"] = max(errors) * 100
        outcome.counts["sim_error_pct"] = outcome.metrics["sim_error_pct"]
    return outcome

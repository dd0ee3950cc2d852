"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``compile FILE``
    Parse + analyze a Bamboo program; print tasks, ASTGs, and the lock plan.
``seq FILE [ARGS...]``
    Run the program's ``SeqMain.run`` sequentially (the C-baseline mode).
``run FILE [ARGS...] --cores N``
    Full pipeline: profile, synthesize a layout, execute on the machine.
    ``--workers N`` fans the layout search's candidate simulations across
    N worker processes (bit-identical results to the serial search) and
    ``--no-sim-cache`` disables simulation memoization;
    ``--search-metrics-out FILE`` writes the search telemetry snapshot
    (evaluations, cache hit rate, wall seconds) as JSON.
    ``--resilience`` runs with detection-driven failure handling
    (heartbeats, watchdog deadlines, retry/quarantine); ``--chaos N``
    instead sweeps N seeded fault plans and exits nonzero if any
    resilience invariant (termination, exactly-once commit, quarantine
    accounting, baseline equivalence) is violated. ``--trace-out FILE``
    writes a Chrome trace-event timeline (Perfetto-loadable) and
    ``--metrics-out FILE`` the run's metrics snapshot; either implies
    observation (``MachineConfig.observe``).

    The search itself is fault tolerant at the host level:
    ``--checkpoint FILE`` writes a resumable checkpoint at every
    iteration boundary (Ctrl-C exits 130 with the last one on disk);
    ``--resume FILE`` continues an interrupted search bit-identically;
    ``--worker-timeout-mult X`` scales the supervision deadline for slow
    hosts; ``--host-chaos N`` sweeps N seeded host-fault plans (worker
    crashes/hangs) and exits nonzero if any supervision invariant is
    violated.
``cstg FILE [ARGS...] [--dot]``
    Print the profile-annotated CSTG (optionally as Graphviz DOT).
``bench NAME [--cores N]``
    Run one of the paper's benchmarks through the Figure 7 protocol.
``profile TARGET [ARGS...] [--cores N] [--out FILE]``
    Wall-clock-profile the whole pipeline (compile → profile →
    synthesize) on a benchmark name or ``.bam`` file: print the
    hierarchical self/cumulative phase table and optionally write the
    ``repro.obs/profile-v1`` JSON artifact. ``--overhead`` reruns the
    pipeline unprofiled and records the instrumentation's measured
    overhead fraction (and a results-identity check) in the artifact.
``obs validate|summarize FILE``
    Schema-check (or render one screen about) any exported
    observability artifact: Chrome traces, machine/search/serve
    metrics (a serve document's nested profile included), profiles, or
    benchmark telemetry.
``serve [--cache FILE] [--port N]``
    Start the synthesis daemon (:mod:`repro.serve`): compile / profile /
    synthesize / simulate served over newline-delimited JSON, with a
    disk-persistent simulation cache shared across requests and
    restarts. ``--max-concurrency``/``--queue-limit`` bound admission
    (excess requests are load-shed), ``--workers`` fans each search
    across worker processes. ``--request-deadline`` bounds each heavy
    request's wall clock (cooperative cancellation reclaims the worker
    thread), ``--drain-timeout`` bounds the graceful drain on shutdown,
    ``--idle-timeout`` reclaims silent connections, and ``--allow-chaos``
    gates the fault-injection operation used by ``serve-chaos``.
    The daemon always runs a wall-clock profiler, which never changes a
    result. The ``metrics`` operation answers, even while the daemon
    drains, with a ``repro.obs/serve-metrics-v1`` document that carries
    the profile as ``profile``.
``request OP [FILE [ARGS...]] --port N``
    Send one request to a running daemon and print the deterministic
    result JSON on stdout (telemetry goes to stderr). With ``--offline``
    the same operation runs in-process through the identical code path —
    the two stdouts are byte-comparable, which is how CI checks the
    serving-transparency contract. ``--retries N`` survives connection
    drops and overloaded/draining daemons (retry is safe because served
    results are deterministic); ``--deadline MS`` bounds the request's
    wall clock server-side. ``--trace-out FILE`` sends a ``trace_id``
    with the request and writes the merged client+server wall-clock
    Chrome trace built from the daemon's telemetry.
``serve-chaos [N]``
    Sweep N seeded network/daemon fault plans (connection resets,
    truncated/garbled/delayed responses, flush failures, mid-request
    SIGKILL + restart) against a live daemon subprocess and exit nonzero
    if any serve-layer invariant (typed outcomes, result bit-identity,
    liveness, cache durability, degradation reporting) is violated.
``dist-coordinator PROGRAM [ARGS...] --restarts N``
    Decompose one synthesis job into N seeded annealing-restart shards
    and coordinate them across workers (:mod:`repro.search.dist`):
    every dispatched shard is held under an EWMA lease, expired leases
    trigger work-stealing, and results merge in shard-id order — so the
    report on stdout is byte-identical to ``--serial`` (the single-host
    baseline) no matter how workers crash, hang, or disconnect.
    ``--local-workers N`` spawns N worker subprocesses;
    ``--expect-workers N`` waits for externally started ones instead.
    ``--checkpoint FILE`` persists the merged frontier after every
    completed shard and ``--resume`` continues a killed coordinator
    bit-identically. ``--metrics-out`` writes the search metrics
    snapshot with the coordinator's counters in its ``dist`` block;
    ``--chaos-crash/--chaos-hang/--chaos-expire SEQ`` inject
    deterministic faults on dispatch SEQ (CI's dist-smoke uses these).
``dist-worker --port N``
    Serve shards to a coordinator until it says bye: stateless, killable
    at any instant, reconnects with capped backoff on connection loss.
``dist-chaos [N]``
    Sweep N seeded distributed-search fault plans (worker SIGKILLs,
    hangs, dropped/garbled connections, forced lease expiries, plus a
    coordinator interrupt+resume phase) against real worker subprocesses
    and exit nonzero if any invariant (termination, dist-vs-serial
    bit-identity, exactly-once shard accounting, control-plan zero
    activity) is violated.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from typing import List, Optional

from .bench import benchmark_names, run_three_versions
from .core import (
    RunOptions,
    SynthesisOptions,
    annotated_cstg,
    compile_program,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)
from .fault.plan import FaultPlan
from .lang.errors import BambooError, RuntimeBambooError, ScheduleError
from .runtime.machine import MachineConfig
from .schedule.anneal import AnnealConfig


def _load(path: str, optimize: bool = False):
    with open(path, "r") as handle:
        source = handle.read()
    return compile_program(source, path, optimize=optimize)


def _cmd_compile(args: argparse.Namespace) -> int:
    compiled = _load(args.file)
    print(f"tasks: {', '.join(compiled.task_names())}")
    print()
    for astg in compiled.astgs.values():
        if astg.states:
            print(astg.format())
    print()
    print("lock plan:")
    for task in compiled.task_names():
        plan = compiled.lock_plan.plan_for(task)
        kind = (
            "fine-grained"
            if plan.is_fine_grained
            else f"shared groups {plan.shared_groups}"
        )
        print(f"  {task}: {kind}")
    from .analysis.diagnostics import analyze_diagnostics

    diagnostics = analyze_diagnostics(
        compiled.info, compiled.ir_program, compiled.astgs
    )
    if diagnostics:
        print()
        print("diagnostics:")
        for diagnostic in diagnostics:
            print(f"  {diagnostic}")
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    compiled = _load(args.file)
    result = run_sequential(compiled, args.args)
    if result.stdout:
        print(result.stdout)
    print(f"[{result.cycles:,} cycles]", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    compiled = _load(args.file, optimize=args.optimize)
    resilience = None
    profile = None
    if args.resilience or args.chaos:
        from .resilience import ResilienceConfig

        profile = profile_program(compiled, args.args)
        resilience = ResilienceConfig(
            heartbeat_interval=args.heartbeat_interval,
            deadline_multiplier=args.deadline_mult,
            profile=profile if args.deadline_mult is not None else None,
        )
    fault_plan = FaultPlan.parse(args.inject_fault) if args.inject_fault else None
    if args.verbose and fault_plan is not None:
        print(fault_plan.describe(), file=sys.stderr)
    run_options = RunOptions(
        machine=MachineConfig(
            fault_plan=fault_plan,
            resilience=resilience,
            validate=args.validate,
        ),
        trace_path=args.trace_out,
        metrics_path=args.metrics_out,
    )
    retry_policy = None
    if args.worker_timeout_mult is not None:
        from .search import RetryPolicy

        retry_policy = RetryPolicy(timeout_mult=args.worker_timeout_mult)
    if args.host_chaos:
        from .search import run_host_chaos

        if profile is None:
            profile = profile_program(compiled, args.args)
        host_report = run_host_chaos(
            compiled,
            profile,
            max(2, args.cores),
            options=SynthesisOptions(
                anneal=AnnealConfig(seed=args.seed),
                sim_cache=not args.no_sim_cache,
            ),
            runs=args.host_chaos,
            base_seed=args.seed,
            workers=max(2, args.workers),
            policy=retry_policy,
        )
        return _chaos_verdict(host_report)
    if args.cores <= 1:
        layout = single_core_layout(compiled)
    else:
        if profile is None:
            profile = profile_program(compiled, args.args)
        try:
            report = synthesize_layout(
                compiled,
                profile,
                args.cores,
                options=SynthesisOptions(
                    anneal=AnnealConfig(seed=args.seed),
                    workers=args.workers,
                    sim_cache=not args.no_sim_cache,
                    retry_policy=retry_policy,
                    checkpoint_path=args.checkpoint,
                    resume=args.resume,
                ),
            )
        except KeyboardInterrupt:
            # The annealer wrote every completed iteration boundary.
            if args.checkpoint:
                print(
                    f"interrupted: checkpoint written to {args.checkpoint}; "
                    f"resume with --resume {args.checkpoint}",
                    file=sys.stderr,
                )
            else:
                print(
                    "interrupted (no --checkpoint given, progress lost)",
                    file=sys.stderr,
                )
            return 130
        if args.search_metrics_out:
            import json

            with open(args.search_metrics_out, "w") as handle:
                json.dump(report.search_metrics, handle, indent=2)
                handle.write("\n")
            print(f"[search metrics: {args.search_metrics_out}]", file=sys.stderr)
        if args.verbose:
            print(report.layout.describe(), file=sys.stderr)
            print(
                f"[synthesis: {report.evaluations} simulations "
                f"(+{report.cache_hits} cache hits), "
                f"{report.wall_seconds:.2f}s, workers={args.workers}]",
                file=sys.stderr,
            )
        layout = report.layout
    if args.chaos:
        from .resilience import run_chaos

        chaos = run_chaos(
            compiled,
            layout,
            args.args,
            runs=args.chaos,
            base_seed=args.seed,
            resilience=resilience,
        )
        return _chaos_verdict(chaos)
    result = run_layout(compiled, layout, args.args, options=run_options)
    if result.stdout:
        print(result.stdout)
    print(
        f"[{result.total_cycles:,} cycles on {args.cores} cores, "
        f"{result.messages} messages]",
        file=sys.stderr,
    )
    if result.recovery is not None:
        print(f"[{result.recovery.describe()}]", file=sys.stderr)
    if args.trace_out:
        print(f"[trace: {args.trace_out}]", file=sys.stderr)
    if args.metrics_out:
        print(f"[metrics: {args.metrics_out}]", file=sys.stderr)
    if args.verbose and result.events is not None:
        from .viz import render_machine_timeline

        print(
            render_machine_timeline(result.events, result.total_cycles),
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_path=args.cache,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        workers=args.workers,
        cache_entries=args.cache_entries,
        flush_interval=args.flush_interval,
        request_deadline=args.request_deadline,
        drain_timeout=args.drain_timeout,
        idle_timeout=args.idle_timeout,
        allow_fault_injection=args.allow_chaos,
    )

    def announce(server):
        print(
            f"repro.serve: listening on {server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
        print(
            f"repro.serve: {server.load_report.describe()}",
            file=sys.stderr,
            flush=True,
        )

    return run_server(config, announce=announce)


def _chaos_verdict(report, path: Optional[str] = None) -> int:
    """Prints a chaos sweep's report (and writes its JSON artifact to
    ``path``); the exit code is nonzero on any invariant violation."""
    print(report.describe())
    if path:
        import json

        with open(path, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"[report: {path}]", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    if args.command == "serve-chaos":
        from .serve.netchaos import run_net_chaos as run_sweep
    else:
        from .search.dist.chaos import run_dist_chaos as run_sweep
    return _chaos_verdict(
        run_sweep(plans=args.plans, base_seed=args.seed), args.report
    )


def _resolve_program(target: str, args: List[str]):
    """``TARGET`` as (source, label, args): a ``.bam`` file path or a
    benchmark name (the benchmark's canonical args fill in when none are
    given). An unknown target is a usage error (exit 2)."""
    import os

    if os.path.exists(target):
        with open(target, "r") as handle:
            return handle.read(), target, list(args)
    if target in benchmark_names():
        from .bench import get_spec, load_source

        spec = get_spec(target)
        return (
            load_source(target),
            spec.filename,
            list(args) if args else list(spec.args),
        )
    raise FileNotFoundError(
        f"{target!r} is neither a file nor a benchmark "
        f"(benchmarks: {', '.join(benchmark_names())})"
    )


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    from .search.dist import run_dist_worker

    stats = run_dist_worker(
        args.host,
        args.port,
        name=args.name,
        idle_timeout=args.max_idle,
        log=sys.stderr if args.verbose else None,
    )
    print(f"[dist worker: {stats.snapshot()}]", file=sys.stderr)
    return 0


def _cmd_dist_coordinator(args: argparse.Namespace) -> int:
    import hashlib
    import json

    from .obs.metrics import build_search_metrics
    from .search.dist import (
        DistCoordinator,
        JobContext,
        LeasePolicy,
        describe_dist_result,
        make_restart_shards,
        run_serial_baseline,
    )

    source, label, prog_args = _resolve_program(args.target, args.args)
    compiled = compile_program(source, label, optimize=args.optimize)
    profile = profile_program(compiled, prog_args)
    context = JobContext(
        compiled=compiled,
        profile=profile,
        num_cores=args.cores,
        mesh_width=args.mesh_width,
        source_digest=hashlib.sha256(
            "\x00".join([source] + prog_args).encode("utf-8")
        ).hexdigest(),
    )
    template = AnnealConfig(
        initial_candidates=args.initial_candidates,
        max_iterations=args.max_iterations,
        max_evaluations=args.max_evaluations,
        patience=args.patience,
        continue_probability=args.continue_probability,
    )
    shards = make_restart_shards(template, args.restarts, base_seed=args.seed)
    if args.serial:
        result = run_serial_baseline(context, shards)
    else:
        chaos = None
        if args.chaos_crash or args.chaos_hang or args.chaos_expire:
            from .search.dist import scripted_plan

            chaos = scripted_plan(
                crash=args.chaos_crash,
                hang=args.chaos_hang,
                expire=args.chaos_expire,
                hang_seconds=2.0 * args.lease_floor,
            )
        coordinator = DistCoordinator(
            context,
            shards,
            lease=LeasePolicy(
                timeout_mult=args.lease_mult,
                timeout_floor=args.lease_floor,
                max_retries=args.max_retries,
            ),
            host=args.host,
            port=args.port,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            degrade_after=args.degrade_after,
            expect_workers=args.expect_workers or args.local_workers,
            chaos_plan=chaos,
            announce=sys.stderr,
        )
        from .search.dist.worker import local_workers

        host, port = coordinator.start()
        try:
            with local_workers(host, port, args.local_workers):
                result = coordinator.run()
        finally:
            coordinator.stop()
    print(describe_dist_result(result))
    if result.stats is not None:
        print(f"[dist: {json.dumps(result.stats, sort_keys=True)}]",
              file=sys.stderr)
    print(f"[dist: {result.wall_seconds:.2f}s]", file=sys.stderr)
    if args.metrics_out:
        snapshot = build_search_metrics(
            workers=0 if args.serial else max(
                args.local_workers, args.expect_workers
            ),
            wall_seconds=result.wall_seconds,
            evaluations=result.evaluations,
            cache_hits=result.cache_hits,
            cache_stats=None,
            dist=result.stats,
        )
        with open(args.metrics_out, "w") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        print(f"[dist metrics: {args.metrics_out}]", file=sys.stderr)
    return 0


def _request_params(args: argparse.Namespace) -> dict:
    """The request parameters shared by the online and offline paths."""
    if not args.file:
        raise BambooError(f"operation {args.op!r} needs a program FILE")
    with open(args.file, "r") as handle:
        source = handle.read()
    params = {
        "source": source,
        "filename": args.file,
        "args": list(args.args),
        "optimize": args.optimize,
    }
    if args.op in ("synthesize", "simulate"):
        params["cores"] = args.cores
        if args.mesh_width is not None:
            params["mesh_width"] = args.mesh_width
    if args.op == "synthesize":
        params["seed"] = args.seed
        if args.max_iterations is not None:
            params["max_iterations"] = args.max_iterations
        if args.max_evaluations is not None:
            params["max_evaluations"] = args.max_evaluations
    if args.op == "simulate":
        import json

        if not args.mapping:
            raise BambooError(
                "simulate needs --mapping '{\"Task\": [cores...], ...}'"
            )
        params["layout"] = json.loads(args.mapping)
    return params


def _cmd_request(args: argparse.Namespace) -> int:
    import json

    from .serve.protocol import HEAVY_OPS

    heavy = args.op in HEAVY_OPS
    if args.offline:
        if not heavy:
            print(
                f"error: --offline only applies to {', '.join(HEAVY_OPS)}",
                file=sys.stderr,
            )
            return 2
        from .serve import Request, execute

        result, telemetry = execute(
            Request.parse(args.op, _request_params(args))
        )
    else:
        if args.port is None:
            print(
                "error: --port is required (or use --offline)",
                file=sys.stderr,
            )
            return 2
        from .serve import ClientRetryPolicy, ServeClient

        params = _request_params(args) if heavy else {}
        if heavy and args.deadline is not None:
            params["deadline_ms"] = args.deadline
        policy = (
            ClientRetryPolicy(max_attempts=args.retries + 1)
            if args.retries > 0
            else None
        )
        trace_wanted = args.trace_out is not None
        if trace_wanted and not heavy:
            print(
                f"error: --trace-out only applies to {', '.join(HEAVY_OPS)}",
                file=sys.stderr,
            )
            return 2
        with ServeClient(
            args.host,
            args.port,
            timeout=args.timeout,
            retry_policy=policy,
            trace=trace_wanted,
        ) as client:
            response = client.call(args.op, **params)
            trace = client.last_trace
        result = response["result"]
        telemetry = response.get("telemetry")
        if trace_wanted:
            from .obs import prof

            server = trace.get("server") if trace else None
            doc = prof.build_request_trace(
                trace["trace_id"],
                trace["client_span"],
                server.get("spans", []) if isinstance(server, dict) else [],
            )
            prof.write_json(args.trace_out, doc)
            print(f"[trace: {args.trace_out}]", file=sys.stderr)
    # The deterministic result alone goes to stdout (sorted keys), so a
    # served stdout and an --offline stdout are byte-comparable.
    print(json.dumps(result, sort_keys=True, indent=2))
    if telemetry is not None:
        print(
            f"[telemetry: {json.dumps(telemetry, sort_keys=True)}]",
            file=sys.stderr,
        )
    return 0


def _cmd_cstg(args: argparse.Namespace) -> int:
    compiled = _load(args.file)
    profile = profile_program(compiled, args.args)
    cstg = annotated_cstg(compiled, profile)
    if args.dot:
        from .viz import cstg_to_dot

        print(cstg_to_dot(cstg, args.file))
    else:
        print(cstg.format())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.name not in benchmark_names():
        print(
            f"unknown benchmark {args.name!r}; available: "
            f"{', '.join(benchmark_names())}",
            file=sys.stderr,
        )
        return 2
    row = run_three_versions(args.name, num_cores=args.cores, seed=args.seed)
    print(f"{args.name} on {args.cores} cores:")
    print(f"  1-core C substitute : {row.seq_cycles:>12,} cycles")
    print(f"  1-core Bamboo       : {row.one_core_cycles:>12,} cycles")
    print(f"  {args.cores}-core Bamboo      : {row.many_core_cycles:>12,} cycles")
    print(f"  speedup vs Bamboo   : {row.speedup_vs_bamboo:.1f}x")
    print(f"  speedup vs C        : {row.speedup_vs_seq:.1f}x")
    print(f"  Bamboo overhead     : {row.overhead:.1%}")
    print(f"  outputs match       : {row.outputs_match}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from .obs import prof
    from .obs.runmeta import run_metadata

    source, label, prog_args = _resolve_program(args.target, args.args)
    anneal = AnnealConfig(
        seed=args.seed,
        max_iterations=args.iterations,
        max_evaluations=args.evaluations,
    )

    def run_pipeline():
        compiled = compile_program(source, label, optimize=args.optimize)
        profile = profile_program(compiled, prog_args)
        return synthesize_layout(
            compiled,
            profile,
            args.cores,
            options=SynthesisOptions(anneal=anneal, workers=args.workers),
        )

    started = time.perf_counter_ns()
    with prof.profiled(record_spans=False) as profiler:
        report = run_pipeline()
    wall_ns = time.perf_counter_ns() - started

    extra = {
        "target": label,
        "args": prog_args,
        "cores": args.cores,
        "seed": args.seed,
        "workers": args.workers,
        "estimated_cycles": report.estimated_cycles,
        "evaluations": report.evaluations,
    }
    if args.overhead:
        # The same pipeline with and without a profiler: the overhead the
        # instrumentation costs when ON, and a results-identity check for
        # the off-mode contract (same cycles either way). Min-of-N walls
        # per mode, because single runs carry machine noise larger than
        # the overhead being measured.
        profiled_walls = [wall_ns]
        unprofiled_walls = []
        identical = True
        for _ in range(args.overhead_runs):
            rerun_started = time.perf_counter_ns()
            baseline = run_pipeline()
            unprofiled_walls.append(time.perf_counter_ns() - rerun_started)
            identical &= baseline.estimated_cycles == report.estimated_cycles
        for _ in range(args.overhead_runs - 1):
            rerun_started = time.perf_counter_ns()
            with prof.profiled(record_spans=False):
                rerun = run_pipeline()
            profiled_walls.append(time.perf_counter_ns() - rerun_started)
            identical &= rerun.estimated_cycles == report.estimated_cycles
        best_on, best_off = min(profiled_walls), min(unprofiled_walls)
        extra["overhead"] = {
            "profiled_wall_ns": best_on,
            "unprofiled_wall_ns": best_off,
            "profiled_walls_ns": profiled_walls,
            "unprofiled_walls_ns": unprofiled_walls,
            "overhead_fraction": (best_on - best_off) / best_off,
            "results_identical": identical,
        }

    doc = profiler.snapshot(wall_ns=wall_ns, meta=run_metadata(), extra=extra)
    print(prof.render_report(doc, top=args.top))
    if args.overhead:
        overhead = extra["overhead"]
        print(
            f"\noverhead vs unprofiled run: "
            f"{overhead['overhead_fraction']:+.1%} "
            f"(results identical: {overhead['results_identical']})"
        )
    if args.out:
        prof.write_json(args.out, doc)
        print(f"[profile: {args.out}]", file=sys.stderr)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .obs.artifacts import ArtifactError, summarize_artifact, validate_artifact

    try:
        if args.obs_command == "validate":
            verdict = validate_artifact(args.file)
            print(json.dumps(verdict, sort_keys=True, indent=2))
        else:
            print(summarize_artifact(args.file))
    except (ArtifactError, ValueError) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_chaos_sweep(parser: argparse.ArgumentParser, plans: int) -> None:
    """The arguments shared by the ``serve-chaos`` and ``dist-chaos``
    sweeps."""
    parser.add_argument(
        "plans", type=int, nargs="?", default=plans,
        help="number of seeded plans (plan 0 is the fault-free control)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the machine-readable sweep report as JSON",
    )
    parser.set_defaults(func=_cmd_chaos_sweep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bamboo (PLDI 2010) reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="analyze a .bam program")
    p_compile.add_argument("file")
    p_compile.set_defaults(func=_cmd_compile)

    p_seq = sub.add_parser("seq", help="run SeqMain.run sequentially")
    p_seq.add_argument("file")
    p_seq.add_argument("args", nargs="*")
    p_seq.set_defaults(func=_cmd_seq)

    p_run = sub.add_parser("run", help="profile, synthesize, and execute")
    p_run.add_argument("file")
    p_run.add_argument("args", nargs="*")
    p_run.add_argument("--cores", type=int, default=8)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the layout search's candidate "
             "simulations (results are bit-identical to --workers 1)",
    )
    p_run.add_argument(
        "--no-sim-cache", action="store_true",
        help="disable simulation memoization in the layout search",
    )
    p_run.add_argument(
        "--search-metrics-out", metavar="FILE", default=None,
        help="write the layout search's telemetry snapshot (simulations, "
             "cache hit rate, wall seconds) as JSON",
    )
    p_run.add_argument("--verbose", action="store_true")
    p_run.add_argument(
        "-O", "--optimize", action="store_true",
        help="run the scalar IR optimization passes",
    )
    p_run.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="inject a fault (repeatable): core=K@CYCLE crashes core K, "
             "stall=K@CYCLE:DUR stalls it, link=MULT@CYCLE degrades hops",
    )
    p_run.add_argument(
        "--validate", action="store_true",
        help="assert the termination invariant at end of run",
    )
    p_run.add_argument(
        "--resilience", action="store_true",
        help="enable detection-driven failure handling (heartbeats, "
             "missed-beat detection, watchdog deadlines, quarantine)",
    )
    p_run.add_argument(
        "--heartbeat-interval", type=int, default=500, metavar="CYCLES",
        help="cycles between liveness heartbeats (with --resilience)",
    )
    p_run.add_argument(
        "--deadline-mult", type=float, default=None, metavar="X",
        help="watchdog deadline = profiled task cost x X (with --resilience)",
    )
    p_run.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON timeline of the run "
             "(load in Perfetto or chrome://tracing); implies observation",
    )
    p_run.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the run's metrics snapshot (utilization, queue depths, "
             "latency histograms, cycle accounting) as JSON",
    )
    p_run.add_argument(
        "--chaos", type=int, default=0, metavar="N",
        help="run a chaos sweep of N seeded fault plans under resilience; "
             "exit nonzero if any invariant is violated",
    )
    p_run.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="checkpoint the layout search here at every iteration "
             "boundary; resume with --resume",
    )
    p_run.add_argument(
        "--resume", metavar="FILE", default=None,
        help="resume an interrupted layout search from a checkpoint "
             "(bit-identical to the uninterrupted run)",
    )
    p_run.add_argument(
        "--worker-timeout-mult", type=float, default=None, metavar="X",
        help="supervision deadline = observed mean simulation time x X "
             "(raise on slow/oversubscribed hosts)",
    )
    p_run.add_argument(
        "--host-chaos", type=int, default=0, metavar="N",
        help="sweep N seeded host-fault plans (worker crashes/hangs) "
             "against the layout search; exit nonzero if any supervision "
             "invariant is violated",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cstg = sub.add_parser("cstg", help="print the annotated CSTG")
    p_cstg.add_argument("file")
    p_cstg.add_argument("args", nargs="*")
    p_cstg.add_argument("--dot", action="store_true")
    p_cstg.set_defaults(func=_cmd_cstg)

    p_bench = sub.add_parser("bench", help="run a paper benchmark")
    p_bench.add_argument("name")
    p_bench.add_argument("--cores", type=int, default=62)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)

    p_profile = sub.add_parser(
        "profile",
        help="wall-clock-profile the pipeline on a benchmark or program",
    )
    p_profile.add_argument(
        "target",
        help="a paper benchmark name (e.g. KMeans) or a .bam file path",
    )
    p_profile.add_argument(
        "args", nargs="*",
        help="program arguments (default: the benchmark's paper workload)",
    )
    p_profile.add_argument("--cores", type=int, default=16)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the layout search (note: the sim.drain "
             "phase is only visible with 1 — pool workers profile "
             "compute as a single search.worker_compute phase)",
    )
    p_profile.add_argument(
        "--iterations", type=int, default=10, metavar="N",
        help="anneal iteration budget (small default keeps runs short)",
    )
    p_profile.add_argument(
        "--evaluations", type=int, default=600, metavar="N",
        help="anneal simulation budget",
    )
    p_profile.add_argument(
        "-O", "--optimize", action="store_true",
        help="run the scalar IR optimization passes",
    )
    p_profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows in the hottest-by-self-time table",
    )
    p_profile.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the repro.obs/profile-v1 JSON artifact here",
    )
    p_profile.add_argument(
        "--overhead", action="store_true",
        help="rerun the pipeline unprofiled, record the profiler's "
             "overhead fraction in the artifact, and check the results "
             "are identical either way",
    )
    p_profile.add_argument(
        "--overhead-runs", type=int, default=2, metavar="N",
        help="runs per mode for --overhead (min-of-N walls; single runs "
             "carry machine noise larger than the overhead itself)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_obs = sub.add_parser(
        "obs", help="validate or summarize an exported observability artifact"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_validate = obs_sub.add_parser(
        "validate",
        help="schema-check one exported JSON artifact (a serve-metrics "
             "document's profile included); nonzero exit on any violation",
    )
    p_obs_validate.add_argument("file")
    p_obs_validate.set_defaults(func=_cmd_obs)
    p_obs_summarize = obs_sub.add_parser(
        "summarize", help="one screen of text describing a validated export"
    )
    p_obs_summarize.add_argument("file")
    p_obs_summarize.set_defaults(func=_cmd_obs)

    p_serve = sub.add_parser(
        "serve",
        help="start the synthesis daemon (repro.serve); it always runs a "
             "wall-clock profiler, reported in its 'metrics' answer",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 picks an ephemeral one, announced on stderr)",
    )
    p_serve.add_argument(
        "--cache", metavar="FILE", default=None,
        help="persist the shared simulation cache here (atomic writes; "
             "restored on restart, so repeated requests stay warm)",
    )
    p_serve.add_argument(
        "--max-concurrency", type=int, default=2, metavar="N",
        help="heavy requests executing at once",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="heavy requests allowed to wait; beyond this the daemon "
             "load-sheds with an 'overloaded' error",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes per layout search (bit-identical results)",
    )
    p_serve.add_argument(
        "--cache-entries", type=int, default=None, metavar="N",
        help="LRU bound per context cache (default: unbounded)",
    )
    p_serve.add_argument(
        "--flush-interval", type=float, default=0.25, metavar="SECONDS",
        help="write-behind flush period for the persistent cache",
    )
    p_serve.add_argument(
        "--request-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per heavy request; past it the daemon "
             "answers 'deadline_exceeded' and cancels the execution "
             "cooperatively (default: unbounded)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="on shutdown, answer in-flight requests for up to this long "
             "before cancelling them",
    )
    p_serve.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="SECONDS",
        help="close connections silent for this long",
    )
    p_serve.add_argument(
        "--allow-chaos", action="store_true",
        help="accept the 'inject' fault-point operation (testing only)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_request = sub.add_parser(
        "request", help="send one request to a running daemon"
    )
    p_request.add_argument(
        "op",
        choices=(
            "ping", "metrics", "flush", "shutdown",
            "compile", "profile", "synthesize", "simulate",
        ),
    )
    p_request.add_argument("file", nargs="?", default=None)
    p_request.add_argument("args", nargs="*")
    p_request.add_argument("--host", default="127.0.0.1")
    p_request.add_argument("--port", type=int, default=None)
    p_request.add_argument("--timeout", type=float, default=300.0)
    p_request.add_argument("--cores", type=int, default=8)
    p_request.add_argument("--seed", type=int, default=0)
    p_request.add_argument("--mesh-width", type=int, default=None)
    p_request.add_argument("--max-iterations", type=int, default=None)
    p_request.add_argument("--max-evaluations", type=int, default=None)
    p_request.add_argument(
        "--mapping", metavar="JSON", default=None,
        help="explicit layout for simulate: '{\"Task\": [0, 1], ...}'",
    )
    p_request.add_argument(
        "-O", "--optimize", action="store_true",
        help="run the scalar IR optimization passes",
    )
    p_request.add_argument(
        "--offline", action="store_true",
        help="run the operation in-process instead of contacting a "
             "daemon; stdout is byte-identical to the served result",
    )
    p_request.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry the request up to N times across reconnects and "
             "overloaded/draining responses (safe: served results are "
             "deterministic, so a retry can only recover the answer)",
    )
    p_request.add_argument(
        "--deadline", type=int, default=None, metavar="MS",
        help="ask the daemon to abandon the request past this wall-clock "
             "budget (it answers 'deadline_exceeded')",
    )
    p_request.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="trace the request end to end: send a trace_id, collect the "
             "daemon's wall-clock spans from telemetry, and write the "
             "merged client+server Chrome trace here",
    )
    p_request.set_defaults(func=_cmd_request)

    _add_chaos_sweep(
        sub.add_parser(
            "serve-chaos",
            help="sweep seeded network/daemon fault plans against a live "
                 "serve subprocess; exit nonzero on any invariant violation",
        ),
        plans=8,
    )

    p_dco = sub.add_parser(
        "dist-coordinator",
        help="decompose a synthesis job into seeded restart shards and "
             "coordinate them across workers (or run the serial baseline)",
    )
    p_dco.add_argument("target", metavar="PROGRAM",
                       help="a .bam file or a benchmark name")
    p_dco.add_argument("args", nargs="*", help="program arguments")
    p_dco.add_argument("--cores", type=int, default=16)
    p_dco.add_argument("--mesh-width", type=int, default=None)
    p_dco.add_argument("--optimize", action="store_true")
    p_dco.add_argument(
        "--restarts", type=int, default=25,
        help="independent annealing restarts = shards (default 25)",
    )
    p_dco.add_argument(
        "--seed", type=int, default=1234,
        help="base seed deriving every shard's search seed",
    )
    p_dco.add_argument("--initial-candidates", type=int, default=1)
    p_dco.add_argument("--max-iterations", type=int, default=12)
    p_dco.add_argument("--max-evaluations", type=int, default=70)
    p_dco.add_argument("--patience", type=int, default=2)
    p_dco.add_argument("--continue-probability", type=float, default=0.5)
    p_dco.add_argument(
        "--serial", action="store_true",
        help="run the single-host serial baseline (no sockets); its "
             "stdout is byte-identical to any distributed run's",
    )
    p_dco.add_argument(
        "--local-workers", type=int, default=0, metavar="N",
        help="spawn N local `dist-worker` subprocesses",
    )
    p_dco.add_argument(
        "--expect-workers", type=int, default=0, metavar="N",
        help="N externally started workers will attach; wait "
             "--degrade-after seconds before degrading to local execution",
    )
    p_dco.add_argument("--host", default="127.0.0.1")
    p_dco.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 = ephemeral; announced on stderr)",
    )
    p_dco.add_argument("--checkpoint", metavar="FILE", default=None,
                       help="write the merged-frontier checkpoint here")
    p_dco.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint (a different job's checkpoint "
             "is refused)",
    )
    p_dco.add_argument("--degrade-after", type=float, default=10.0)
    p_dco.add_argument("--lease-floor", type=float, default=10.0)
    p_dco.add_argument("--lease-mult", type=float, default=8.0)
    p_dco.add_argument("--max-retries", type=int, default=5)
    p_dco.add_argument(
        "--chaos-crash", type=int, action="append", default=[],
        metavar="SEQ", help="inject a worker crash on dispatch SEQ",
    )
    p_dco.add_argument(
        "--chaos-hang", type=int, action="append", default=[],
        metavar="SEQ", help="inject a worker hang on dispatch SEQ",
    )
    p_dco.add_argument(
        "--chaos-expire", type=int, action="append", default=[],
        metavar="SEQ", help="force-expire the lease of dispatch SEQ",
    )
    p_dco.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the search metrics snapshot (JSON)")
    p_dco.set_defaults(func=_cmd_dist_coordinator)

    p_dwk = sub.add_parser(
        "dist-worker",
        help="serve shards to a dist coordinator until it says bye",
    )
    p_dwk.add_argument("--host", default="127.0.0.1")
    p_dwk.add_argument("--port", type=int, required=True)
    p_dwk.add_argument("--name", default=None)
    p_dwk.add_argument(
        "--max-idle", type=float, default=300.0,
        help="seconds of coordinator silence before giving up",
    )
    p_dwk.add_argument("--verbose", action="store_true")
    p_dwk.set_defaults(func=_cmd_dist_worker)

    _add_chaos_sweep(
        sub.add_parser(
            "dist-chaos",
            help="sweep seeded distributed-search fault plans (worker "
                 "crashes/hangs, dropped/garbled connections, forced lease "
                 "expiries, coordinator kill+resume) and exit nonzero on any "
                 "invariant violation",
        ),
        plans=4,
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except pickle.PickleError as exc:
        # Worker dispatch serializes the compiled program; a pickling
        # failure is an environment problem, not a program error.
        print(
            f"error: cannot serialize work for worker processes: {exc} "
            "(rerun with --workers 1)",
            file=sys.stderr,
        )
        return 3
    except (BambooError, RuntimeBambooError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

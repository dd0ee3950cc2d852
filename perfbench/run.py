"""The repository benchmark: one seeded workload, one JSON result line.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that splits the wall time across the layers and
reports the per-layer metrics. Both check every output. The metric names
and units come from ``BENCHMARK.json``; ``perfbench/README.md`` defines
them. The last stdout line is the result::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

Everything a run writes stays under ``.perfbench/`` in the checkout: a
fresh temp dir per run (removed at the end), the per-seed count records
behind the exact-count self-check, and a result file per run stamped
with provenance (plus the spans, for a traced run).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up time
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import common  # noqa: E402 - perfbench/ is on sys.path as the script's dir
import spans  # noqa: E402

WORKLOADS = ("pipeline", "search", "serve")
#: a run repeats its workload's round floor(--seconds / this) times, at
#: least once, so the work in a run is fixed by its arguments
NOMINAL_ROUND_S = {"pipeline": 40.0, "search": 20.0, "serve": 20.0}
#: a run that is still going after this long stops and reports no result
WATCHDOG_S = 170
#: the set-up of every workload starts by importing these
IMPORTS = ("repro.bench.suite", "repro.core.api", "repro.core.pipeline",
           "repro.serve.client")
SETUP_SAMPLES = 4


def _fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_import_seconds(checkout: str) -> float:
    """Times the set-up imports in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    code = (
        "import time; t = time.perf_counter(); "
        f"import {', '.join(IMPORTS)}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=checkout, env=env,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    checkout = os.getcwd()
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _fail(f"no program to measure: {src}/repro is missing "
              "(run from the root of a checkout)")
    spec_path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        _fail("BENCHMARK.json is missing from the checkout root")
    with open(spec_path) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, src)
    # run_metadata asks git for a commit id; keep its search in the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(checkout)
    state = os.path.join(checkout, ".perfbench")
    for sub in ("tmp", "records", "results"):
        os.makedirs(os.path.join(state, sub), exist_ok=True)
    workdir = tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=os.path.join(state, "tmp")
    )

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        return _run(args, checkout, workdir, state, wanted)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, checkout, workdir, state, wanted) -> int:
    load_before = common.loadavg()
    for module in IMPORTS:
        importlib.import_module(module)
    from repro.obs.runmeta import run_metadata

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    rounds = max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    try:
        if args.workload == "pipeline":
            import wl_pipeline

            # Set-up is the imports: this process's, then fresh interpreters'.
            samples = [time.perf_counter() - T_START] + [
                _fresh_import_seconds(checkout) for _ in range(SETUP_SAMPLES)
            ]
            outcome = wl_pipeline.run(args.seed, rounds, tracer, samples)
        elif args.workload == "search":
            import wl_search

            outcome = wl_search.run(args.seed, rounds, tracer, T_START)
        else:
            import wl_serve

            outcome = wl_serve.run(
                args.seed, rounds, tracer, T_START, checkout, workdir
            )
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    # -- exact-count self-check -------------------------------------------------
    name = f"{args.workload}-seed{args.seed}"
    code = common.tree_digest(os.path.join(checkout, "src"), common.HERE)[:16]
    record = common.RunRecord(
        os.path.join(state, "records", f"{name}-{code}.json")
    )
    counts = dict(outcome.counts)
    if tracer is not None:
        counts.update({f"trace.{key}": value for key, value in tracer.counts.items()})
    mismatched = [] if args.workload == "serve" else record.check(counts)
    walls = record.data["walls"]
    other = walls.get(str(1 - args.trace))
    walls[str(args.trace)] = outcome.wall_s
    record.save()

    # -- metrics ----------------------------------------------------------------
    attempted = max(outcome.attempted, 1)  # the result line needs at least 1
    measured = dict(outcome.metrics)
    if args.trace:
        measured = _per_layer(tracer, outcome)
    else:
        measured["success_rate"] = 1.0 - outcome.failed / attempted
    metrics = {}
    missing = []
    for metric in wanted:
        if metric["name"] in measured:
            value = measured[metric["name"]]
        elif args.trace:
            value = 0.0  # a layer this workload does not reach
        else:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    # -- report and provenance -----------------------------------------------------
    cpus = common.nproc()
    provenance = dict(
        run_metadata(schema="perfbench/result-v1"),
        cpu_model=common.cpu_model(),
        nproc=cpus,
        loadavg_before=load_before,
        loadavg_after=common.loadavg(),
        evidence=cpus >= 2,
    )
    report = sys.stderr
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} round(s), {outcome.attempted} ops, {outcome.failed} failed; "
          f"{cpus} CPU(s) ({provenance['cpu_model']}), load "
          f"{load_before[0]:.2f} -> {provenance['loadavg_after'][0]:.2f}", file=report)
    if not provenance["evidence"]:
        print("perfbench: NOT EVIDENCE: fewer than 2 CPUs on this host", file=report)
    for why in outcome.failures:
        print(f"perfbench: FAILED {why}", file=report)
    for key in mismatched:
        print(f"perfbench: COUNT MISMATCH {key}: differs from an earlier run "
              "of this seed", file=report)
    for key in missing:
        print(f"perfbench: metric {key} was not measured", file=report)
    for key, entry in metrics.items():
        print(f"  {key:32s} {entry['value']:.6g} {entry['unit']}", file=report)
    if tracer is not None:
        _attribution(tracer, outcome, report)
    if other is not None:
        traced, untraced = (
            (outcome.wall_s, other) if args.trace else (other, outcome.wall_s)
        )
        print(f"perfbench: tracing overhead: traced {traced:.3f} s - untraced "
              f"{untraced:.3f} s = {traced - untraced:+.3f} s "
              f"({(traced - untraced) / untraced:+.1%}) of timed wall, this seed",
              file=report)

    correct = (
        outcome.attempted > 0
        and outcome.failed == 0
        and not mismatched
        and not missing
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    base = os.path.join(state, "results", f"{name}-trace{args.trace}")
    with open(base + ".json", "w") as handle:
        json.dump(dict(result, provenance=provenance, counts=counts,
                       layer=outcome.layer, failures=outcome.failures,
                       mismatched=mismatched), handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(base + "-spans.json")
    print(json.dumps(result, sort_keys=True))
    return 0


def _timed(op) -> bool:
    """Op ids of the timed rounds start with ``r``."""
    return op is not None and op.startswith("r")


def _split(tracer, outcome):
    """How the timed wall splits: label -> seconds."""
    if outcome.attribution:
        return outcome.attribution
    timed = tracer.times(_timed)
    return {
        layer: timed.get(span, {}).get("self", 0.0)
        for span, layer in spans.LAYER_OF_SPAN.items()
    }


def _per_layer(tracer, outcome):
    """The traced run's per-layer values (totals over the whole run)."""
    counts = tracer.counts
    values = dict(tracer.busy_metrics())
    values.update({key: float(value) for key, value in counts.items()})
    values.update(outcome.layer)
    attempts = counts.get("schedule.delta_attempts", 0)
    values["schedule.delta_resume_rate"] = (
        counts.get("schedule.delta_resumes", 0) / attempts if attempts else 0.0
    )
    requests = outcome.layer.get("search.requests", 0)
    values["search.cache_hit_rate"] = (
        outcome.layer.get("search.cache_hits", 0) / requests if requests else 0.0
    )
    values["trace.wall_s"] = outcome.wall_s
    values["trace.unattributed_s"] = outcome.wall_s - sum(
        _split(tracer, outcome).values()
    )
    return values


def _attribution(tracer, outcome, out) -> None:
    """Prints how the timed wall splits across the layers."""
    wall = outcome.wall_s
    split = _split(tracer, outcome)
    print(f"perfbench: attribution of the timed wall ({wall:.3f} s):", file=out)
    for label, seconds in split.items():
        print(f"  {label:48s} {seconds:9.3f} s {seconds / wall:7.1%}", file=out)
    rest = wall - sum(split.values())
    note = ""
    if not outcome.attribution:
        note = "  (self time of the benchmark's own spans: " + ", ".join(
            f"{span} {entry['self']:.3f} s"
            for span, entry in sorted(tracer.times(_timed).items())
            if span not in spans.LAYER_OF_SPAN
        ) + ")"
    print(f"  {'unattributed':48s} {rest:9.3f} s {rest / wall:7.1%}{note}",
          file=out)
    setup = tracer.times(lambda op: op == "setup")
    if setup:
        print("perfbench: set-up busy time by span: " + ", ".join(
            f"{spans.LAYER_OF_SPAN.get(span, span)} {entry['self']:.3f} s"
            for span, entry in sorted(setup.items())), file=out)
    print("perfbench: counts: " + ", ".join(
        f"{k}={v}" for k, v in sorted(tracer.counts.items())), file=out)


if __name__ == "__main__":
    sys.exit(main())

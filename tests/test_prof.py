"""The wall-clock profiler (repro.obs.prof) and its exports.

The load-bearing claims:

1. **Off means off.** No profiler is installed by default; every
   instrumentation site guards on one load, and a synthesize run with
   the profiler on is bit-identical to the same run with it off.
2. **Accounting is exact** (under an injectable fake clock): ``total``
   includes children, ``self`` excludes them, exclusive ``add_time``
   subtracts from the parent's self and non-exclusive does not, and
   per-thread trees merge by phase path, also while a thread is still
   adding to its tree.
3. **Every export validates.** Snapshots are schema-valid
   ``repro.obs/profile-v1``, span tracks and merged request traces pass
   the Chrome-trace validator, and ``repro obs validate`` routes them
   all (and refuses a file that is not JSON).
"""

import json
import sys
import threading
import time

import pytest

from conftest import KEYWORD_SOURCE

from repro.core import (
    SynthesisOptions,
    compile_program,
    profile_program,
    run_layout,
    single_core_layout,
    synthesize_layout,
)
from repro.obs import prof
from repro.obs.artifacts import (
    ArtifactError,
    summarize_artifact,
    validate_artifact,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import Histogram, MetricsRegistry, build_serve_metrics
from repro.obs.runmeta import run_metadata
from repro.schedule.anneal import AnnealConfig

A = prof.intern_phase("test.a")
B = prof.intern_phase("test.b")
C = prof.intern_phase("test.c")
N = prof.intern_phase("test.n")


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def by_name(nodes):
    return {node["name"]: node for node in nodes}


def small_synthesis():
    compiled = compile_program(KEYWORD_SOURCE, "keyword-test", optimize=True)
    profile = profile_program(compiled, ["6"])
    return synthesize_layout(
        compiled,
        profile,
        4,
        options=SynthesisOptions(
            anneal=AnnealConfig(seed=7, max_iterations=3, max_evaluations=20)
        ),
    )


# -- exact accounting ----------------------------------------------------------


class TestAccounting:
    def test_nested_phases_split_total_and_self(self):
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.enter(B)
        clock.advance(5)
        p.exit()
        clock.advance(3)
        p.exit()
        doc = p.snapshot(wall_ns=18)
        a = by_name(doc["phases"])["test.a"]
        assert (a["count"], a["total_ns"], a["self_ns"]) == (1, 18, 13)
        b = by_name(a["children"])["test.b"]
        assert (b["count"], b["total_ns"], b["self_ns"]) == (1, 5, 5)
        assert prof.coverage(doc) == 1.0

    def test_reentering_a_phase_accumulates_one_node(self):
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        for _ in range(3):
            p.enter(A)
            clock.advance(7)
            p.exit()
        phases = p.snapshot()["phases"]
        assert len(phases) == 1
        assert phases[0]["count"] == 3
        assert phases[0]["total_ns"] == 21

    def test_add_time_exclusive_subtracts_from_parent_self(self):
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.add_time(C, 4, count=2, exclusive=True)
        p.exit()
        a = by_name(p.snapshot()["phases"])["test.a"]
        assert a["total_ns"] == 10
        assert a["self_ns"] == 6
        c = by_name(a["children"])["test.c"]
        assert (c["count"], c["total_ns"], c["self_ns"]) == (2, 4, 4)

    def test_add_time_non_exclusive_leaves_parent_self(self):
        """Cross-process worker compute overlaps the parent's wait, so
        the parent's self time (the IPC the compute does not explain)
        must stay intact — it can even exceed the parent's wall."""
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.add_time(C, 15, exclusive=False)
        p.exit()
        a = by_name(p.snapshot()["phases"])["test.a"]
        assert a["self_ns"] == 10
        assert by_name(a["children"])["test.c"]["total_ns"] == 15

    def test_counters_merge_into_snapshot(self):
        p = prof.Profiler(clock=FakeClock())
        p.add_count(N, 3)
        p.add_count(N, 4)
        assert p.snapshot()["counters"] == {"test.n": 7}

    def test_threads_merge_by_phase_path(self):
        clock = FakeClock()
        lock = threading.Lock()

        def tick():
            with lock:
                return clock()

        p = prof.Profiler(clock=tick)

        def body():
            p.enter(A)
            with lock:
                clock.advance(5)
            p.exit()

        body()
        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        doc = p.snapshot()
        assert doc["threads"] == 2
        a = by_name(doc["phases"])["test.a"]
        assert a["count"] == 2
        assert a["total_ns"] == 10

    def test_snapshot_while_another_thread_grows_its_tree(self):
        """The daemon's ``metrics`` answer snapshots the profiler while
        its request threads are still adding phases."""
        p = prof.Profiler(record_spans=True)
        leaves = [prof.intern_phase(f"test.leaf.{i}") for i in range(300)]
        done = threading.Event()

        def grow():
            try:
                p.enter(A)
                for leaf in leaves:
                    p.enter(leaf)
                    p.add_count(leaf)
                    p.exit()
                    time.sleep(0)  # let the snapshots in between
                p.exit()
            finally:
                done.set()

        interval = sys.getswitchinterval()
        # Switch threads as often as the interpreter can, so snapshots
        # land in the middle of the other thread's additions.
        sys.setswitchinterval(1e-6)
        worker = threading.Thread(target=grow)
        worker.start()
        try:
            while not done.is_set():
                p.snapshot()
        finally:
            worker.join()
            sys.setswitchinterval(interval)
        doc = p.snapshot()
        a = by_name(doc["phases"])["test.a"]
        assert len(a["children"]) == len(leaves)
        assert len(doc["counters"]) == len(leaves)

    def test_interning_is_stable(self):
        key = prof.intern_phase("test.interned")
        assert prof.intern_phase("test.interned") == key


# -- the off mode --------------------------------------------------------------


class TestOffMode:
    def test_no_profiler_by_default(self):
        assert prof.active() is None

    def test_phase_is_a_noop_when_inactive(self):
        with prof.phase(A) as profiler:
            assert profiler is None

    def test_collect_spans_empty_when_inactive(self):
        with prof.collect_spans(reset=True) as spans:
            pass
        assert spans == []

    def test_profiled_installs_and_restores(self):
        with prof.profiled() as profiler:
            assert prof.active() is profiler
            with prof.profiled() as inner:
                assert prof.active() is inner
            assert prof.active() is profiler
        assert prof.active() is None

    def test_synthesize_bit_identical_with_profiler_on(self):
        """The tentpole contract: profiling never changes results."""
        plain = small_synthesis()
        with prof.profiled(record_spans=True) as profiler:
            profiled = small_synthesis()
        assert profiled.estimated_cycles == plain.estimated_cycles
        assert profiled.layout.instances == plain.layout.instances
        assert profiled.history == plain.history
        assert profiled.evaluations == plain.evaluations
        # ... and the profiler actually saw the whole stack.
        doc = profiler.snapshot()
        paths = {row["path"] for row in prof.flatten(doc)}
        assert "pipeline.synthesize" in paths
        assert any(path.endswith("anneal.iteration") for path in paths)
        assert any(path.endswith("search.dispatch") for path in paths)
        assert any(path.endswith("sim.drain") for path in paths)
        assert "pipeline.profile/pipeline.run/runtime.interp" in paths
        assert doc["counters"]["sim.events_processed"] > 0

    def test_machine_run_bit_identical_with_profiler_on(self):
        """The interpreter phase splits a machine run without changing it."""
        compiled = compile_program(KEYWORD_SOURCE, "keyword-test")
        layout = single_core_layout(compiled)
        plain = run_layout(compiled, layout, ["6"])
        with prof.profiled() as profiler:
            profiled = run_layout(compiled, layout, ["6"])
        assert profiled.total_cycles == plain.total_cycles
        assert profiled.stdout == plain.stdout
        assert profiled.invocations == plain.invocations
        run = by_name(profiler.snapshot()["phases"])["pipeline.run"]
        interp = by_name(run["children"])["runtime.interp"]
        assert interp["count"] == sum(plain.invocations.values())
        assert 0 < interp["total_ns"] <= run["total_ns"]


# -- the simulator's event loop ------------------------------------------------


class TestSimulatorBuckets:
    """The simulator's one profiler bucket: the whole loop as ``sim.drain``."""

    def test_buckets_tile_the_dispatch_wall(self):
        with prof.profiled() as profiler:
            small_synthesis()
        rows = {row["path"]: row for row in prof.flatten(profiler.snapshot())}
        dispatch = next(
            row for path, row in rows.items()
            if path.endswith("search.dispatch")
        )
        buckets = [
            row
            for path, row in rows.items()
            if row["name"].startswith("sim.")
        ]
        assert {row["name"] for row in buckets} == {"sim.drain"}
        total = sum(row["total_ns"] for row in buckets)
        # The loop is timed once per simulation, inside the serial
        # dispatch phase.
        assert 0 < total <= dispatch["total_ns"]
        assert dispatch["self_ns"] >= 0

    def test_bucket_counts_are_exact(self):
        with prof.profiled() as profiler:
            report = small_synthesis()
        doc = profiler.snapshot()
        rows = {row["name"]: row for row in prof.flatten(doc)}
        # One phase entry per simulation, and every event counted.
        assert rows["sim.drain"]["count"] == report.evaluations
        assert doc["counters"]["sim.events_processed"] == 1025


# -- spans ---------------------------------------------------------------------


class TestSpans:
    def test_spans_balanced_and_bounded(self):
        clock = FakeClock()
        p = prof.Profiler(clock=clock, record_spans=True, max_spans_per_thread=2)
        for _ in range(4):
            p.enter(A)
            clock.advance(1)
            p.exit()
        doc = p.snapshot()
        assert doc["spans_recorded"] == 2
        assert doc["spans_dropped"] == 2

    def test_collect_spans_yields_the_slice(self):
        clock = FakeClock()
        with prof.profiled(record_spans=True, clock=clock):
            with prof.collect_spans(reset=True) as spans:
                with prof.phase(A):
                    clock.advance(10)
                    with prof.phase(B):
                        clock.advance(5)
        names = [(s["name"], s["depth"]) for s in spans]
        assert names == [("test.b", 1), ("test.a", 0)]
        assert all(s["dur_ns"] >= 0 and s["start_ns"] >= 0 for s in spans)

    def test_span_trace_events_merge_validates(self):
        clock = FakeClock()
        with prof.profiled(record_spans=True, clock=clock) as profiler:
            with prof.phase(A):
                clock.advance(10)
        events = prof.span_trace_events(profiler)
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": prof.TRACE_SCHEMA, "time_unit": "us"},
        }
        summary = validate_chrome_trace(doc)
        assert summary["spans"] == 1
        # Wall-clock tracks live far above machine core ids.
        assert all(track >= 10_000 for track in summary["tracks"])

    def test_build_request_trace_validates(self):
        client_span = {"name": "client.synthesize", "start_ns": 0,
                       "dur_ns": 2_000_000}
        server_spans = [
            {"name": "serve.synthesize", "start_ns": 0,
             "dur_ns": 1_000_000, "depth": 0},
            {"name": "pipeline.synthesize", "start_ns": 100_000,
             "dur_ns": 800_000, "depth": 1},
        ]
        doc = prof.build_request_trace("abc123", client_span, server_spans)
        summary = validate_chrome_trace(doc)
        assert summary["spans"] == 3
        assert summary["tracks"] == [0, 1]
        assert doc["otherData"]["trace_id"] == "abc123"


# -- artifacts and reports -----------------------------------------------------


class TestArtifacts:
    def test_snapshot_roundtrips_through_validate(self, tmp_path):
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.exit()
        doc = p.snapshot(wall_ns=10, meta=run_metadata())
        path = tmp_path / "profile.json"
        prof.write_json(str(path), doc)
        verdict = validate_artifact(str(path))
        assert verdict["schema"] == prof.PROFILE_SCHEMA
        assert verdict["summary"]["coverage"] == 1.0
        assert "test.a" in summarize_artifact(str(path))

    def test_negative_accounting_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": prof.PROFILE_SCHEMA,
            "phases": [{"name": "x", "count": -1, "total_ns": 0,
                        "self_ns": 0, "children": []}],
            "counters": {},
            "threads": 1,
        }))
        with pytest.raises(ArtifactError):
            validate_artifact(str(path))

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ArtifactError):
            validate_artifact(str(path))

    def test_non_json_file_refused(self, tmp_path):
        path = tmp_path / "metrics.txt"
        path.write_text("serve_requests_total 1\n")
        with pytest.raises(ArtifactError, match="not a JSON artifact"):
            validate_artifact(str(path))
        with pytest.raises(ArtifactError, match="not a JSON artifact"):
            summarize_artifact(str(path))

    def test_serve_metrics_profile_is_checked(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("serve_requests").inc()
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.exit()
        doc = build_serve_metrics(
            registry=registry, store={}, memo={}, load_report={},
            uptime_seconds=1.0, admitted=0, capacity=10,
            profile=p.snapshot(),
        )
        path = tmp_path / "serve-metrics.json"
        path.write_text(json.dumps(doc))
        summary = validate_artifact(str(path))["summary"]
        assert summary["requests"] == 1
        assert summary["profile"]["phases"] == 1
        # The nested profile is held to the profile schema.
        doc["profile"]["phases"][0]["count"] = -1
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="negative accounting"):
            validate_artifact(str(path))
        doc["profile"] = {"phases": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError):
            validate_artifact(str(path))

    def test_bench_telemetry_meta_is_checked(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": "repro.bench/telemetry-v1",
            "experiment": "t",
            "meta": run_metadata(),
        }))
        verdict = validate_artifact(str(path))
        assert verdict["summary"]["stamped"] is True
        # A meta block missing its provenance keys is a violation.
        path.write_text(json.dumps({
            "schema": "repro.bench/telemetry-v1",
            "experiment": "t",
            "meta": {"git_sha": "x"},
        }))
        with pytest.raises(ArtifactError):
            validate_artifact(str(path))

    def test_render_report_mentions_every_phase(self):
        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.enter(B)
        clock.advance(5)
        p.exit()
        p.exit()
        report = prof.render_report(p.snapshot(wall_ns=15))
        assert "test.a" in report and "test.b" in report
        assert "coverage" in report

    def test_run_metadata_has_provenance_keys(self):
        meta = run_metadata(schema="x/y-v1")
        for key in ("git_sha", "git_dirty", "timestamp_utc", "python",
                    "platform", "cpu_count"):
            assert key in meta
        assert meta["git_dirty"] in (True, False, None)
        assert meta["schema"] == "x/y-v1"


# -- configurable histogram boundaries ----------------------------------------


class TestHistogramBuckets:
    def test_custom_boundaries_and_summary(self):
        histogram = Histogram("h", buckets=(0.001, 0.1, 1.0))
        for value in (0.0005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        counts = histogram.bucket_counts()
        assert counts["0.001"] == 1
        assert counts["0.1"] == 2
        assert counts["1"] == 3
        assert counts["+Inf"] == 4
        assert histogram.summary()["buckets"] == counts

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.1))


# -- the CLI -------------------------------------------------------------------


class TestCLI:
    def test_profile_command_writes_valid_artifact(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "prog.bam"
        source.write_text(KEYWORD_SOURCE)
        out = tmp_path / "profile.json"
        code = main([
            "profile", str(source), "6", "--cores", "4",
            "--iterations", "2", "--evaluations", "10",
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pipeline.synthesize" in stdout
        assert "hottest by self time" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == prof.PROFILE_SCHEMA
        assert doc["meta"]["python"]
        assert prof.coverage(doc) > 0.5
        assert validate_artifact(str(out))["schema"] == prof.PROFILE_SCHEMA
        # The CLI run uninstalled its profiler on the way out.
        assert prof.active() is None

    def test_profile_command_rejects_unknown_target(self, capsys):
        from repro.cli import main

        assert main(["profile", "NoSuchBenchmark"]) == 2
        assert "neither a file nor a benchmark" in capsys.readouterr().err

    def test_obs_validate_and_summarize(self, tmp_path, capsys):
        from repro.cli import main

        clock = FakeClock()
        p = prof.Profiler(clock=clock)
        p.enter(A)
        clock.advance(10)
        p.exit()
        path = tmp_path / "profile.json"
        prof.write_json(str(path), p.snapshot(wall_ns=10))
        assert main(["obs", "validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == (
            prof.PROFILE_SCHEMA
        )
        assert main(["obs", "summarize", str(path)]) == 0
        assert "test.a" in capsys.readouterr().out

    def test_obs_validate_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "garbage.json"
        path.write_text('{"schema": "no/such-schema"}')
        assert main(["obs", "validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

"""Observability (repro.obs): typed events, metrics, exporters.

The load-bearing claims:

1. **Cycle accounting tiles the run.** For every observed run — every
   benchmark, multi-core layouts, fault runs, resilience runs, chaos
   plans — each core's ``[0, makespan)`` partitions exactly into busy +
   blocked + idle + dead, machine-checked inside ``build_metrics`` (a
   violation raises, so merely finishing an observed run is the assert).
2. **Observation is free when off and inert when on.** ``observe=False``
   runs are bit-identical to the seed machine; ``observe=True`` changes
   nothing about the simulation, only attaches ``events``/``metrics``.
3. **The Chrome trace is schema-valid** — one track per core, properly
   nested spans, a span for every invocation.
"""

import json

import pytest

from repro.bench import benchmark_names, load_benchmark
from repro.core import (
    RunOptions,
    profile_program,
    run_layout,
    single_core_layout,
)
from repro.fault import CoreCrash, FaultPlan, LinkDegrade, TransientStall
from repro.lang.errors import ScheduleError
from repro.obs import (
    chrome_trace,
    cycle_accounting,
    occupancy_intervals,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.obs.events import (
    Crash,
    QueueDepth,
    Stall,
    TaskCommit,
    TaskDispatch,
    Tracer,
)
from repro.resilience import ResilienceConfig, chaos_plan
from repro.runtime.machine import MachineConfig
from repro.schedule.layout import Layout
from repro.viz import render_machine_timeline

SMALL_ARGS = {
    "Tracking": ["12", "6"],
    "KMeans": ["6", "8", "3"],
    "MonteCarlo": ["10", "40"],
    "FilterBank": ["8", "24"],
    "Fractal": ["16"],
    "Series": ["10", "12"],
    "Keyword": ["8"],
}


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


def fingerprint(result):
    """The seed-observable state of a run (events/metrics excluded)."""
    return (
        result.total_cycles,
        sorted(result.core_busy.items()),
        sorted(result.invocations.items()),
        sorted(result.exit_counts.items()),
        result.messages,
        result.retired_objects,
        result.stale_invocations,
        result.lock_failures,
        result.stdout,
    )


def accounting_ok(result):
    """True iff the metrics snapshot carries a verified accounting (the
    identity is machine-checked during the run; re-check it here)."""
    acc = result.metrics["accounting"]
    totals = sum(acc["totals"].values())
    assert totals == acc["makespan_x_cores"]
    for core, account in acc["per_core"].items():
        assert sum(account.values()) == result.total_cycles, core
        assert all(value >= 0 for value in account.values()), core
    return True


class TestCycleAccounting:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_every_benchmark_tiles(self, name):
        compiled = load_benchmark(name)
        result = run_layout(
            compiled,
            single_core_layout(compiled),
            SMALL_ARGS[name], options=RunOptions(machine=MachineConfig(observe=True)))
        assert result.events
        assert accounting_ok(result)

    def test_multi_core_tiles(self, keyword_compiled):
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(observe=True)))
        assert accounting_ok(result)
        # A 4-core run has idle somewhere (the merge task serializes).
        assert result.metrics["accounting"]["totals"]["idle"] > 0

    def test_fault_run_tiles_with_dead_cycles(self, keyword_compiled):
        plan = FaultPlan.make(
            [
                CoreCrash(core=1, cycle=2000),
                TransientStall(core=2, cycle=1200, duration=700),
                LinkDegrade(cycle=500, multiplier=2.0),
            ]
        )
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True, observe=True)))
        assert accounting_ok(result)
        acc = result.metrics["accounting"]
        assert acc["per_core"][1]["dead"] == result.total_cycles - 2000
        assert result.metrics["counters"]["crashes"] == 1
        assert result.metrics["counters"]["stalls"] == 1
        assert result.metrics["counters"]["link_events"] == 1

    def test_resilient_run_tiles(self, keyword_compiled):
        plan = FaultPlan.make(
            [
                CoreCrash(core=1, cycle=2000),
                TransientStall(core=2, cycle=1200, duration=2500),
            ]
        )
        config = MachineConfig(
            fault_plan=plan,
            resilience=ResilienceConfig(
                heartbeat_interval=300, suspicion_beats=3
            ),
            validate=True,
            observe=True,
        )
        result = run_layout(
            keyword_compiled, quad_layout(keyword_compiled), ["12"], options=RunOptions(machine=config))
        assert accounting_ok(result)
        counters = result.metrics["counters"]
        assert counters["heartbeats"] == result.recovery.heartbeats
        assert counters["detections"] == result.recovery.detections
        assert counters["crashes"] == result.recovery.crashes

    def test_watchdog_quarantine_run_tiles(self, keyword_compiled):
        resilience = ResilienceConfig(
            deadline_multiplier=1.0,
            fallback_deadline=5,
            max_retries=2,
            backoff_base=64,
        )
        config = MachineConfig(
            resilience=resilience, validate=True, observe=True
        )
        result = run_layout(
            keyword_compiled, quad_layout(keyword_compiled), ["4"], options=RunOptions(machine=config))
        assert accounting_ok(result)
        counters = result.metrics["counters"]
        assert counters["task_preemptions"] == result.recovery.watchdog_preemptions
        assert counters["task_retries"] == result.recovery.retries
        assert counters["quarantines"] == len(result.quarantined)

    @pytest.mark.parametrize("index", range(6))
    def test_chaos_plans_tile(self, index, keyword_compiled):
        resilience = ResilienceConfig()
        plan = chaos_plan(
            index,
            seed=1000 + index,
            cores=[0, 1, 2, 3],
            horizon=5000,
            suspicion_window=resilience.suspicion_window,
        )
        config = MachineConfig(
            fault_plan=plan,
            resilience=resilience,
            validate=True,
            observe=True,
        )
        result = run_layout(
            keyword_compiled, quad_layout(keyword_compiled), ["8"], options=RunOptions(machine=config))
        assert accounting_ok(result)

    def test_busy_fraction_agrees_with_metrics(self, keyword_compiled):
        # build_metrics recomputes busy_fraction term for term and raises
        # on disagreement; assert the published value matches too, in a
        # run with a real dead window (the live-window denominator path).
        plan = FaultPlan.single_crash(1, 2000)
        config = MachineConfig(
            fault_plan=plan,
            resilience=ResilienceConfig(heartbeat_interval=300, suspicion_beats=3),
            validate=True,
            observe=True,
        )
        result = run_layout(
            keyword_compiled, quad_layout(keyword_compiled), ["12"], options=RunOptions(machine=config))
        assert result.core_death_cycles == {1: 2000}
        assert result.metrics["busy_fraction"] == result.busy_fraction()

    def test_violations_raise(self):
        # Overlapping occupancy on one core must be rejected.
        events = [
            TaskDispatch(time=0, core=0, task="a", span=1, start=0, end=100,
                         formed_at=0, objects=1),
            TaskDispatch(time=50, core=0, task="b", span=2, start=50, end=150,
                         formed_at=0, objects=1),
        ]
        with pytest.raises(ScheduleError, match="overlapping"):
            cycle_accounting(events, 200, [0], {})
        # Negative queue depth must be rejected.
        with pytest.raises(ScheduleError, match="negative queue depth"):
            cycle_accounting(
                [QueueDepth(time=10, core=0, depth=-1)], 100, [0], {}
            )


class TestOffModeIdentity:
    def test_observe_off_bit_identical(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plain = run_layout(keyword_compiled, layout, ["12"])
        observed = run_layout(
            keyword_compiled, layout, ["12"], options=RunOptions(machine=MachineConfig(observe=True)))
        assert fingerprint(plain) == fingerprint(observed)
        assert plain.events is None and plain.metrics is None
        assert observed.events and observed.metrics

    def test_observe_off_bit_identical_under_faults(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plan = FaultPlan.make(
            [
                CoreCrash(core=1, cycle=2000),
                TransientStall(core=2, cycle=1200, duration=700),
            ]
        )
        plain = run_layout(
            keyword_compiled, layout, ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        observed = run_layout(
            keyword_compiled, layout, ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True, observe=True)))
        assert fingerprint(plain) == fingerprint(observed)
        assert plain.recovery == observed.recovery
        crashes = [e for e in observed.events if isinstance(e, Crash)]
        assert [e.core for e in crashes] == [1]
        stalls = [e for e in observed.events if isinstance(e, Stall)]
        assert [(e.core, e.until) for e in stalls] == [(2, 1900)]

    def test_default_config_has_no_tracer(self):
        assert MachineConfig().observe is False

    def test_event_stream_deterministic(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        config = MachineConfig(observe=True)
        first = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        second = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert first.events == second.events
        assert first.metrics == second.metrics


class TestChromeExport:
    def test_schema_and_tracks(self, keyword_compiled, tmp_path):
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(observe=True)))
        path = tmp_path / "trace.json"
        write_chrome_trace(
            str(path), result.events, sorted(result.core_busy),
            makespan=result.total_cycles,
        )
        doc = json.loads(path.read_text())
        summary = validate_chrome_trace(doc)
        assert summary["tracks"] == [0, 1, 2, 3]
        # One span per invocation (no stalls/heartbeats in a clean run).
        assert summary["spans"] == sum(result.invocations.values())
        assert doc["otherData"]["makespan"] == result.total_cycles

    def test_fault_run_exports_instants(self, keyword_compiled):
        plan = FaultPlan.make(
            [
                CoreCrash(core=1, cycle=2000),
                TransientStall(core=2, cycle=1200, duration=700),
            ]
        )
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True, observe=True)))
        doc = chrome_trace(
            result.events, sorted(result.core_busy),
            makespan=result.total_cycles,
        )
        summary = validate_chrome_trace(doc)
        assert summary["instants"] >= 1  # the crash
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert "crash" in names
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["cat"] == "stall" for e in spans)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="missing 'ph'"):
            validate_chrome_trace({"traceEvents": [{"pid": 0, "tid": 0}]})
        with pytest.raises(ValueError, match="missing 'ts'"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}
            )
        with pytest.raises(ValueError, match="negative span"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "pid": 0, "tid": 0, "ts": 5, "dur": -1,
                         "name": "bad"}
                    ]
                }
            )
        with pytest.raises(ValueError, match="without nesting"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 10,
                         "name": "a"},
                        {"ph": "X", "pid": 0, "tid": 0, "ts": 5, "dur": 10,
                         "name": "b"},
                    ]
                }
            )

    def test_metrics_snapshot_roundtrips(self, keyword_compiled, tmp_path):
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(observe=True)))
        path = tmp_path / "metrics.json"
        write_metrics_snapshot(str(path), result.metrics)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.obs/metrics-v1"
        assert loaded["makespan"] == result.total_cycles
        assert loaded["counters"]["task_commits"] == sum(
            result.invocations.values()
        )


class TestOccupancyReplay:
    def test_truncate_cuts_intervals(self):
        tracer = Tracer()
        tracer.emit(
            TaskDispatch(time=0, core=0, task="a", span=1, start=0, end=100,
                         formed_at=0, objects=1)
        )
        from repro.obs.events import Truncate

        tracer.emit(Truncate(time=40, core=0, at=40))
        intervals = occupancy_intervals(tracer.events)
        assert intervals == {0: [(0, 40, "a", 1)]}

    def test_queue_samples_dedup(self):
        tracer = Tracer()
        tracer.queue_sample(10, 0, 0)  # implied initial 0: not emitted
        tracer.queue_sample(20, 0, 1)
        tracer.queue_sample(30, 0, 1)  # unchanged: not emitted
        tracer.queue_sample(40, 0, 0)
        depths = [e.depth for e in tracer.events]
        assert depths == [1, 0]


class TestTimelineRenderer:
    def test_renders_all_cores(self, keyword_compiled):
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(observe=True)))
        text = render_machine_timeline(
            result.events, result.total_cycles, cores=sorted(result.core_busy)
        )
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 cores
        assert all(line.startswith("core ") for line in lines[1:])
        assert "%" in lines[1]

    def test_dead_core_marked(self, keyword_compiled):
        plan = FaultPlan.single_crash(1, 2000)
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True, observe=True)))
        text = render_machine_timeline(
            result.events, result.total_cycles, cores=sorted(result.core_busy)
        )
        core1 = next(l for l in text.splitlines() if l.startswith("core   1"))
        assert "x" in core1


class TestCLI:
    def test_trace_and_metrics_out(self, tmp_path):
        from repro.cli import main

        source = tmp_path / "prog.bam"
        import conftest

        source.write_text(conftest.KEYWORD_SOURCE)
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "run", str(source), "8", "--cores", "4",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        summary = validate_chrome_trace(doc)
        metrics = json.loads(metrics_path.read_text())
        # One track per machine core (synthesis may use fewer than --cores).
        assert summary["tracks"] == doc["otherData"]["cores"]
        assert len(summary["tracks"]) == metrics["cores"] >= 1
        assert metrics["schema"] == "repro.obs/metrics-v1"
        totals = metrics["accounting"]["totals"]
        assert sum(totals.values()) == metrics["accounting"]["makespan_x_cores"]


class TestWallClockTrackMerge:
    def test_profiled_run_merges_wall_track(self, keyword_compiled, tmp_path):
        """With a span-recording profiler active, a run's Chrome trace
        gains a wall-clock track (pid 1000, tids >= 10000) alongside the
        simulated per-core tracks — one Perfetto-loadable document."""
        from repro.obs import prof

        path = tmp_path / "trace.json"
        with prof.profiled(record_spans=True):
            result = run_layout(
                keyword_compiled,
                quad_layout(keyword_compiled),
                ["12"],
                options=RunOptions(
                    machine=MachineConfig(observe=True),
                    trace_path=str(path),
                ),
            )
        doc = json.loads(path.read_text())
        summary = validate_chrome_trace(doc)
        sim_tracks = [t for t in summary["tracks"] if t < 10_000]
        wall_tracks = [t for t in summary["tracks"] if t >= 10_000]
        assert sim_tracks == [0, 1, 2, 3]
        assert wall_tracks  # the profiler's track made it in
        names = {
            e["name"]
            for e in doc["traceEvents"]
            if e.get("pid") == 1000 and e["ph"] == "X"
        }
        assert "pipeline.run" in names
        # The simulated spans are still all there.
        machine_spans = [
            e
            for e in doc["traceEvents"]
            if e.get("pid") != 1000 and e["ph"] == "X"
        ]
        assert len(machine_spans) >= sum(result.invocations.values())

    def test_unprofiled_run_trace_unchanged(self, keyword_compiled, tmp_path):
        path = tmp_path / "trace.json"
        run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"],
            options=RunOptions(
                machine=MachineConfig(observe=True),
                trace_path=str(path),
            ),
        )
        doc = json.loads(path.read_text())
        assert all(e.get("pid") != 1000 for e in doc["traceEvents"])

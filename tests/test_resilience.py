"""Detection-driven resilience (repro.resilience).

The contract under test: with ``MachineConfig.resilience`` absent the
machine is bit-identical to the seed; enabled on a healthy
machine it changes nothing observable; under faults, failures are
*discovered* (not announced by the injector), recovery preserves
exactly-once commit, long stalls survive false suspicion, overruns are
preempted and retried, and poison work lands in the dead-letter queue.
"""

import json

import pytest

from repro.core import RunOptions, profile_program, run_layout
from repro.core.adaptive import AdaptiveExecutable
from repro.fault import CoreCrash, FaultError, FaultPlan, TransientStall
from repro.obs.events import Crash, Detect, Evict, Quarantine, Rejoin
from repro.resilience import QuarantineRecord, ResilienceConfig
from repro.runtime.machine import MachineConfig, MachineResult
from repro.schedule.layout import Layout


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


def fingerprint(result):
    lines = [
        f"cycles={result.total_cycles}",
        f"messages={result.messages}",
        f"busy={sorted(result.core_busy.items())}",
        f"invocations={sorted(result.invocations.items())}",
        f"exits={sorted(result.exit_counts.items())}",
        f"stale={result.stale_invocations}",
        f"lock_failures={result.lock_failures}",
        f"stdout={result.stdout!r}",
    ]
    if result.events is not None:
        lines.extend(
            json.dumps(event.to_json(), sort_keys=True)
            for event in result.events
        )
    return "\n".join(lines).encode()


def event_cores(result, kind):
    """Cores of the typed events of one kind, in emission order."""
    return [event.core for event in result.events if isinstance(event, kind)]


#: Crash cycle landing mid-run on the quad layout with 12 sections.
MIDRUN_CYCLE = 2000


class TestConfig:
    def test_defaults_validate(self):
        ResilienceConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_interval": 0},
            {"suspicion_beats": 0},
            {"heartbeat_interval": -1},
            {"deadline_multiplier": 0.0},
            {"fallback_deadline": 0},
            {"max_retries": -1},
            {"backoff_base": -1},
        ],
        # `knob=value`: two cases share a knob, so the name alone collides
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(FaultError):
            ResilienceConfig(**kwargs).validate()

    def test_suspicion_window(self):
        config = ResilienceConfig(heartbeat_interval=100, suspicion_beats=4)
        assert config.suspicion_window == 400

    def test_backoff_doubles(self):
        config = ResilienceConfig(backoff_base=100)
        assert [config.backoff_for(n) for n in (1, 2, 3)] == [100, 200, 400]

    def test_deadline_prefers_profile_over_fallback(self, keyword_compiled):
        profile = profile_program(keyword_compiled, ["4"])
        config = ResilienceConfig(
            deadline_multiplier=2.0, profile=profile, fallback_deadline=77
        )
        expected = max(1, int(profile.avg_task_cycles("processText") * 2.0))
        assert config.deadline_for("processText") == expected
        assert config.deadline_for("noSuchTask") == 77
        assert ResilienceConfig().deadline_for("processText") is None


class TestGating:
    def test_enabled_healthy_machine_semantically_identical(
        self, keyword_compiled
    ):
        layout = quad_layout(keyword_compiled)
        plain = run_layout(keyword_compiled, layout, ["12"])
        resilient = run_layout(
            keyword_compiled,
            layout,
            ["12"], options=RunOptions(machine=MachineConfig(resilience=ResilienceConfig(), validate=True)))
        assert resilient.stdout == plain.stdout
        assert resilient.invocations == plain.invocations
        assert resilient.exit_counts == plain.exit_counts
        assert resilient.recovery is not None
        assert resilient.recovery.heartbeats > 0
        assert resilient.recovery.suspicions == 0
        assert resilient.quarantined == []
        assert resilient.core_death_cycles is None

    def test_resilient_runs_deterministic(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plan = FaultPlan.make(
            [
                CoreCrash(core=1, cycle=MIDRUN_CYCLE),
                TransientStall(core=2, cycle=1200, duration=700),
            ]
        )
        config = MachineConfig(
            fault_plan=plan,
            resilience=ResilienceConfig(),
            validate=True,
            observe=True,
        )
        first = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        second = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert fingerprint(first) == fingerprint(second)
        assert first.recovery == second.recovery


class TestDetection:
    def test_crash_discovered_with_latency(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        resilience = ResilienceConfig(heartbeat_interval=300, suspicion_beats=3)
        config = MachineConfig(
            fault_plan=FaultPlan.single_crash(1, MIDRUN_CYCLE),
            resilience=resilience,
            validate=True,
            observe=True,
        )
        result = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        stats = result.recovery
        assert stats.crashes == 1
        assert stats.detections == 1
        assert stats.suspicions == 1
        assert stats.false_suspicions == 0
        # The silence clock starts at the core's *last beat*, which can
        # predate the crash by up to one heartbeat period; detection then
        # lands on a monitor tick. Latency is the window, give or take a
        # couple of periods.
        window = resilience.suspicion_window
        period = resilience.heartbeat_interval
        assert (
            window - 2 * period
            <= stats.detection_latency_cycles
            <= window + 2 * period
        )
        assert stats.mean_detection_latency() == stats.detection_latency_cycles
        assert event_cores(result, Crash) == [1]
        assert event_cores(result, Detect) == [1]
        # Work still finishes, exactly once, with the right answer.
        assert result.stdout == base.stdout
        assert stats.exactly_once()
        assert result.core_death_cycles == {1: MIDRUN_CYCLE}

    def test_short_stall_not_suspected(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        resilience = ResilienceConfig(heartbeat_interval=300, suspicion_beats=3)
        plan = FaultPlan.make(
            [TransientStall(core=1, cycle=1200, duration=500)]
        )
        config = MachineConfig(
            fault_plan=plan, resilience=resilience, validate=True
        )
        result = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        stats = result.recovery
        assert stats.stalls == 1
        assert stats.suspicions == 0
        assert stats.false_suspicions == 0
        assert result.stdout == base.stdout
        assert result.core_death_cycles is None

    def test_long_stall_evicted_then_rejoins(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        resilience = ResilienceConfig(heartbeat_interval=200, suspicion_beats=2)
        # The stall dwarfs the 400-cycle suspicion window: the detector
        # must evict the core, migrate its work, and let it rejoin later.
        plan = FaultPlan.make(
            [TransientStall(core=1, cycle=800, duration=2500)]
        )
        config = MachineConfig(
            fault_plan=plan,
            resilience=resilience,
            validate=True,
            observe=True,
        )
        result = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        stats = result.recovery
        assert stats.crashes == 0
        assert stats.suspicions >= 1
        assert stats.false_suspicions >= 1
        assert stats.rejoins == stats.false_suspicions
        assert stats.detections == 0
        assert 1 in event_cores(result, Evict)
        assert 1 in event_cores(result, Rejoin)
        # No double-commit: the evicted core's in-flight work was rolled
        # back before its migrated copy re-executed.
        assert stats.exactly_once()
        assert result.stdout == base.stdout
        # The rejoined core is live again at end of run.
        assert result.core_death_cycles is None

    def test_evicted_core_that_really_dies_stays_dead(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        resilience = ResilienceConfig(heartbeat_interval=200, suspicion_beats=2)
        # Evicted at ~1200 (stall from 800 outlasting the window), then the
        # core truly crashes while still frozen: the eviction must become
        # permanent, with no rejoin and no double recovery.
        plan = FaultPlan.make(
            [
                TransientStall(core=1, cycle=800, duration=2500),
                CoreCrash(core=1, cycle=2200),
            ]
        )
        config = MachineConfig(
            fault_plan=plan, resilience=resilience, validate=True
        )
        result = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        stats = result.recovery
        assert stats.crashes == 1
        assert stats.rejoins == 0
        assert stats.exactly_once()
        assert result.stdout == base.stdout
        assert 1 in (result.core_death_cycles or {})


class TestWatchdog:
    def test_generous_deadline_never_fires(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        profile = profile_program(keyword_compiled, ["12"])
        resilience = ResilienceConfig(
            deadline_multiplier=100.0, profile=profile
        )
        config = MachineConfig(resilience=resilience, validate=True)
        result = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert result.recovery.watchdog_preemptions == 0
        assert result.stdout == base.stdout
        assert result.quarantined == []

    def test_tight_deadline_preempts_retries_then_quarantines(
        self, keyword_compiled
    ):
        layout = quad_layout(keyword_compiled)
        resilience = ResilienceConfig(
            deadline_multiplier=1.0,
            fallback_deadline=5,  # absurdly tight: everything overruns
            max_retries=2,
            backoff_base=64,
        )
        config = MachineConfig(
            resilience=resilience, validate=True, observe=True
        )
        result = run_layout(keyword_compiled, layout, ["4"], options=RunOptions(machine=config))
        stats = result.recovery
        assert stats.watchdog_preemptions > 0
        assert stats.retries > 0
        assert stats.backoff_cycles > 0
        assert stats.quarantined_groups == len(result.quarantined) > 0
        # Deterministic re-execution overruns identically, so the retry
        # budget is exactly exhausted before quarantine.
        record = result.quarantined[0]
        assert isinstance(record, QuarantineRecord)
        assert record.attempts == resilience.max_retries + 1
        assert [
            (event.task, event.object_ids)
            for event in result.events
            if isinstance(event, Quarantine)
        ] == [(record.task, record.object_ids) for record in result.quarantined]
        # The run still terminates cleanly (validate=True above) and the
        # dropped work published nothing.
        assert stats.exactly_once()

    def test_quarantined_objects_barred_from_schedulers(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        resilience = ResilienceConfig(
            deadline_multiplier=1.0, fallback_deadline=5, max_retries=0
        )
        config = MachineConfig(resilience=resilience, validate=True)
        result = run_layout(keyword_compiled, layout, ["4"], options=RunOptions(machine=config))
        # max_retries=0: first preemption quarantines immediately; nothing
        # is ever retried.
        assert result.recovery.retries == 0
        assert result.recovery.quarantined_groups >= 1
        poisoned = {
            obj_id
            for record in result.quarantined
            for obj_id in record.object_ids
        }
        assert poisoned  # and the run terminated with them dead-lettered


class TestBusyFraction:
    def test_dead_core_excluded_from_denominator(self):
        result = MachineResult(
            total_cycles=100,
            core_busy={0: 50, 1: 10},
            invocations={},
            exit_counts={},
            messages=0,
            retired_objects=0,
            stale_invocations=0,
            lock_failures=0,
            stdout="",
            core_death_cycles={1: 20},
        )
        # Core 1 was only alive for 20 of the 100 cycles.
        assert result.busy_fraction() == pytest.approx(60 / 120)

    def test_no_deaths_matches_naive_mean(self):
        result = MachineResult(
            total_cycles=100,
            core_busy={0: 50, 1: 10},
            invocations={},
            exit_counts={},
            messages=0,
            retired_objects=0,
            stale_invocations=0,
            lock_failures=0,
            stdout="",
        )
        assert result.busy_fraction() == pytest.approx(60 / 200)

    def test_crash_run_populates_death_cycles(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        config = MachineConfig(fault_plan=FaultPlan.single_crash(1, MIDRUN_CYCLE))
        result = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert result.core_death_cycles == {1: MIDRUN_CYCLE}
        # The fault-aware fraction beats the naive one: the dead core's
        # post-crash idle window no longer dilutes the mean.
        naive = sum(result.core_busy.values()) / (
            len(result.core_busy) * result.total_cycles
        )
        assert result.busy_fraction() > naive


class TestAdaptiveIntegration:
    def test_resilient_adaptive_degrades_after_detected_crash(
        self, keyword_compiled
    ):
        executable = AdaptiveExecutable(
            keyword_compiled,
            num_cores=4,
            profile_every=100,  # keep synthesis out of the picture
            resilience=ResilienceConfig(heartbeat_interval=300),
        )
        executable.layout = quad_layout(keyword_compiled)
        plan = FaultPlan.single_crash(1, MIDRUN_CYCLE)
        result = executable.run(["12"], fault_plan=plan)
        assert result.recovery.detections == 1
        assert result.stdout == "total=24"
        # The next run's layout no longer targets the dead core.
        assert 1 not in executable.layout.cores_used()
        healthy = executable.run(["12"])
        assert healthy.stdout == "total=24"
        assert healthy.core_death_cycles is None

    def test_watchdog_uses_field_profile(self, keyword_compiled):
        executable = AdaptiveExecutable(
            keyword_compiled,
            num_cores=4,
            profile_every=1,
            resilience=ResilienceConfig(deadline_multiplier=100.0),
        )
        executable.layout = quad_layout(keyword_compiled)
        first = executable.run(["8"])  # seeds the field profile
        second = executable.run(["8"])  # watchdog now armed from it
        assert first.stdout == second.stdout == "total=16"
        assert second.recovery.watchdog_preemptions == 0

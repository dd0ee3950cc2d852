"""Fault injection and transactional task recovery (repro.fault)."""

import pytest

from repro.core import RunOptions, run_layout, run_sequential
from repro.fault import (
    CoreCrash,
    FaultError,
    FaultPlan,
    LinkDegrade,
    TransientStall,
    parse_fault_spec,
)
from repro.fault.recovery import restore_snapshot, snapshot_objects
from repro.obs.events import LinkDegradeEvent
from repro.runtime.machine import MachineConfig
from repro.runtime.objects import BArray, Heap
from repro.runtime.scheduler import LockManager
from repro.schedule.layout import Layout
from repro.schedule.mapping import with_core_failed


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


def merge_on_3_layout(compiled):
    """mergeIntermediateResult isolated on core 3 — crashing core 3 forces
    the layout rebuild to reassign a sole-instance task to a survivor."""
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [1, 2, 3]
    mapping["mergeIntermediateResult"] = [3]
    return Layout.make(4, mapping)


#: Crash cycle that reliably lands while a worker core is mid-invocation on
#: the quad layout with 12 sections (the machine is deterministic, so this
#: is stable; see the in-flight assertion in test_crash_rolls_back_inflight).
MIDRUN_CYCLE = 2000


class TestPlan:
    def test_events_sorted_by_cycle(self):
        plan = FaultPlan.make(
            [CoreCrash(core=1, cycle=500), LinkDegrade(cycle=100, multiplier=2.0)]
        )
        assert plan.events[0].cycle == 100

    def test_single_crash(self):
        plan = FaultPlan.single_crash(2, 1000)
        assert plan.crash_cores() == [2]
        assert not plan.is_empty()

    def test_rejects_bad_events(self):
        with pytest.raises(FaultError):
            FaultPlan.make([CoreCrash(core=0, cycle=-1)])
        with pytest.raises(FaultError):
            FaultPlan.make([TransientStall(core=0, cycle=5, duration=0)])
        with pytest.raises(FaultError):
            FaultPlan.make([LinkDegrade(cycle=5, multiplier=0.0)])

    def test_parse_specs(self):
        assert parse_fault_spec("core=3@1500") == CoreCrash(core=3, cycle=1500)
        assert parse_fault_spec("stall=1@200:50") == TransientStall(
            core=1, cycle=200, duration=50
        )
        assert parse_fault_spec("link=2.5@900") == LinkDegrade(
            cycle=900, multiplier=2.5
        )
        with pytest.raises(FaultError):
            parse_fault_spec("core=1")
        with pytest.raises(FaultError):
            parse_fault_spec("meteor=1@5")

    def test_describe_lists_events(self):
        plan = FaultPlan.parse(["core=1@500", "stall=0@100:20", "link=2@50"])
        text = plan.describe()
        assert "crash core 1" in text
        assert "stall core 0" in text
        assert "link degrade" in text


class TestZeroOverhead:
    def test_none_plan_is_bit_identical(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plain = run_layout(keyword_compiled, layout, ["12"])
        gated = run_layout(
            keyword_compiled,
            layout,
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=None, validate=True)))
        assert plain.total_cycles == gated.total_cycles
        assert plain.messages == gated.messages
        assert plain.invocations == gated.invocations
        assert plain.stdout == gated.stdout
        assert gated.recovery is None

    def test_empty_plan_is_bit_identical(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plain = run_layout(keyword_compiled, layout, ["12"])
        gated = run_layout(
            keyword_compiled,
            layout,
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=FaultPlan.make([]))))
        assert plain.total_cycles == gated.total_cycles
        assert gated.recovery is None


class TestCrashRecovery:
    def test_crash_rolls_back_inflight_and_completes(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        seq = run_sequential(keyword_compiled, ["12"])
        plan = FaultPlan.single_crash(1, MIDRUN_CYCLE)
        result = run_layout(
            keyword_compiled,
            layout,
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        rec = result.recovery
        assert rec is not None
        assert rec.crashes == 1 and rec.dead_cores == [1]
        # The crash landed mid-invocation: the in-flight task rolled back,
        # was re-routed, and re-executed on a survivor.
        assert rec.tasks_replayed > 0
        assert rec.commits_dropped == rec.tasks_replayed
        assert rec.locks_reclaimed > 0
        assert rec.objects_migrated > 0
        assert rec.downtime_cycles > 0
        # Exactly-once: every logical invocation committed once — the counts
        # match a fault-free run, and the final answer is correct.
        assert result.invocations == {
            "startup": 1,
            "processText": 12,
            "mergeIntermediateResult": 12,
        }
        assert rec.commits_applied == 25
        assert rec.exactly_once()
        assert result.stdout == seq.stdout == "total=24"

    def test_final_flag_states_correct(self, keyword_compiled):
        from repro.runtime.machine import ManyCoreMachine

        plan = FaultPlan.single_crash(1, MIDRUN_CYCLE)
        machine = ManyCoreMachine(
            keyword_compiled,
            quad_layout(keyword_compiled),
            config=MachineConfig(fault_plan=plan, validate=True),
        )
        result = machine.run(["12"])
        assert result.stdout == "total=24"
        results_objs = [
            o for o in machine.heap.objects.values() if o.class_name == "Results"
        ]
        assert len(results_objs) == 1
        assert results_objs[0].flags == {"finished"}
        for obj in machine.heap.objects.values():
            if obj.class_name == "Text":
                assert "process" not in obj.flags and "submit" not in obj.flags

    def test_crash_of_sole_task_host_reassigns_task(self, keyword_compiled):
        layout = merge_on_3_layout(keyword_compiled)
        for cycle in (1500, 2000, 2500, 3000):
            plan = FaultPlan.single_crash(3, cycle)
            result = run_layout(
                keyword_compiled,
                layout,
                ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
            assert result.stdout == "total=24"
            assert result.recovery.crashes == 1

    def test_double_crash(self, keyword_compiled):
        plan = FaultPlan.make(
            [CoreCrash(core=1, cycle=1600), CoreCrash(core=2, cycle=2100)]
        )
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        assert result.stdout == "total=24"
        assert result.recovery.dead_cores == [1, 2]
        assert result.recovery.exactly_once()

    def test_crash_before_any_work_is_harmless(self, keyword_compiled):
        plan = FaultPlan.single_crash(3, 1)
        result = run_layout(
            keyword_compiled,
            quad_layout(keyword_compiled),
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        assert result.stdout == "total=24"
        assert result.recovery.tasks_replayed == 0

    def test_crash_after_quiescence_is_harmless(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        plan = FaultPlan.single_crash(1, base.total_cycles * 2)
        result = run_layout(
            keyword_compiled,
            layout,
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        assert result.stdout == base.stdout
        assert result.invocations == base.invocations

    def test_crashing_every_core_rejected(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plan = FaultPlan.make([CoreCrash(core=c, cycle=100) for c in range(4)])
        with pytest.raises(FaultError):
            run_layout(
                keyword_compiled,
                layout,
                ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan)))

    def test_crash_of_unknown_core_rejected(self, keyword_compiled):
        plan = FaultPlan.single_crash(99, 100)
        with pytest.raises(FaultError):
            run_layout(
                keyword_compiled,
                quad_layout(keyword_compiled),
                ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan)))

    def test_centralized_scheduler_unsupported(self, keyword_compiled):
        config = MachineConfig(
            centralized_scheduler=True, fault_plan=FaultPlan.single_crash(1, 100)
        )
        with pytest.raises(FaultError):
            run_layout(
                keyword_compiled, quad_layout(keyword_compiled), ["12"], options=RunOptions(machine=config))

    def test_tagged_pipeline_survives_crash(self, tagged_compiled):
        # Tag-hashed routing must still pair each Drawing with its Image
        # after the degraded routing table replaces the dead instance.
        mapping = {t: [0] for t in tagged_compiled.info.tasks}
        mapping["compress"] = [1, 2]
        mapping["startsave"] = [1, 2, 3]
        layout = Layout.make(4, mapping)
        base = run_layout(tagged_compiled, layout, ["5"])
        plan = FaultPlan.single_crash(2, base.total_cycles // 2)
        result = run_layout(
            tagged_compiled,
            layout,
            ["5"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        assert result.invocations["finishsave"] == 5
        assert result.recovery.exactly_once()


class TestStallAndLink:
    def test_stall_delays_completion(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        plan = FaultPlan.make([TransientStall(core=1, cycle=1500, duration=50_000)])
        result = run_layout(
            keyword_compiled,
            layout,
            ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        assert result.stdout == base.stdout
        assert result.total_cycles > base.total_cycles
        assert result.recovery.stalls == 1
        assert result.recovery.stall_cycles == 50_000

    def _remote_worker_layout(self, compiled):
        # One worker on the far corner of a 1x16 mesh: every Text makes the
        # 15-hop round trip, so hop latency sits on the critical path (the
        # same construction as test_machine.TestTopology).
        mapping = {t: [0] for t in compiled.info.tasks}
        mapping["processText"] = [15]
        return Layout.make(16, mapping, mesh_width=16)

    def test_link_degrade_slows_messages(self, keyword_compiled):
        layout = self._remote_worker_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["1"])
        plan = FaultPlan.make([LinkDegrade(cycle=0, multiplier=50.0)])
        result = run_layout(
            keyword_compiled,
            layout,
            ["1"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True)))
        assert result.stdout == base.stdout
        assert result.total_cycles > base.total_cycles
        assert result.messages == base.messages  # slower, not fewer

    def test_link_restore(self, keyword_compiled):
        layout = self._remote_worker_layout(keyword_compiled)
        degraded = FaultPlan.make([LinkDegrade(cycle=0, multiplier=50.0)])
        restored = FaultPlan.make(
            [
                LinkDegrade(cycle=0, multiplier=50.0),
                LinkDegrade(cycle=2000, multiplier=1.0),
            ]
        )
        slow = run_layout(
            keyword_compiled, layout, ["4"], options=RunOptions(machine=MachineConfig(fault_plan=degraded)))
        fast = run_layout(
            keyword_compiled, layout, ["4"], options=RunOptions(machine=MachineConfig(fault_plan=restored)))
        assert fast.total_cycles < slow.total_cycles


class TestPrimitives:
    def test_lock_manager_release_core(self):
        heap = Heap()
        a = heap.new_object("A", 0)
        b = heap.new_object("B", 0)
        locks = LockManager()
        assert locks.try_lock_all([a], core=1)
        assert locks.try_lock_all([b], core=2)
        assert not locks.try_lock_all([a], core=2)
        assert locks.release_core(1) == 1
        assert locks.try_lock_all([a], core=2)
        assert locks.held_groups()  # core 2 still holds both
        assert locks.release_core(2) == 2
        assert not locks.held_groups()

    def test_snapshot_restores_fields_and_arrays(self):
        heap = Heap()
        obj = heap.new_object("A", 2)
        arr = heap.new_array("int", 3, fill=0)
        obj.fields[0] = arr
        obj.fields[1] = 7
        snap = snapshot_objects([obj])
        obj.fields[1] = 99
        arr.values[2] = 42
        restore_snapshot(snap)
        assert obj.fields[1] == 7
        assert arr.values == [0, 0, 0]
        assert obj.fields[0] is arr  # identity preserved, contents restored

    def test_snapshot_follows_object_references(self):
        heap = Heap()
        outer = heap.new_object("A", 1)
        inner = heap.new_object("B", 1)
        outer.fields[0] = inner
        inner.fields[0] = "x"
        snap = snapshot_objects([outer])
        inner.fields[0] = "mutated"
        restore_snapshot(snap)
        assert inner.fields[0] == "x"

    def test_with_core_failed_moves_to_nearest_survivor(self):
        layout = Layout.make(
            4, {"a": [0, 3], "b": [3], "c": [1]}, mesh_width=2
        )
        degraded = with_core_failed(layout, 3)
        assert 3 not in degraded.cores_used()
        # core 3's nearest survivors at distance 1 are cores 1 and 2 (only
        # 1 is used); 'b' moves there, 'a' keeps its surviving replica
        assert degraded.cores_of("b") == (1,)
        assert degraded.cores_of("a") == (0, 1)

    def test_with_core_failed_requires_survivor(self):
        layout = Layout.make(1, {"a": [0]})
        with pytest.raises(Exception):
            with_core_failed(layout, 0)

    def test_with_core_failed_preserves_topology(self):
        layout = Layout.make(4, {"a": [0, 3], "b": [1]}, topology="torus")
        degraded = with_core_failed(layout, 3)
        assert degraded.topology == "torus"


class TestValidateFlag:
    def test_validate_passes_on_clean_runs(self, keyword_compiled):
        for args in (["1"], ["8"]):
            run_layout(
                keyword_compiled,
                quad_layout(keyword_compiled),
                args, options=RunOptions(machine=MachineConfig(validate=True)))

    def test_validate_detects_leaked_lock(self, keyword_compiled):
        from repro.lang.errors import ScheduleError
        from repro.runtime.machine import ManyCoreMachine

        machine = ManyCoreMachine(
            keyword_compiled,
            quad_layout(keyword_compiled),
            config=MachineConfig(validate=True),
        )
        # Simulate a buggy runtime that forgets to release a lock.
        leaked = machine.heap.new_object("Text", 0)
        machine.locks.try_lock_all([leaked], core=0)
        with pytest.raises(ScheduleError, match="termination invariant"):
            machine.run(["2"])


class TestAdaptiveDegrade:
    def test_degrade_clamps_layout_and_reoptimizes(self, keyword_compiled):
        from repro.core.adaptive import AdaptiveExecutable
        from repro.schedule.anneal import AnnealConfig

        config = AnnealConfig(
            initial_candidates=2, max_iterations=2, max_evaluations=12, patience=1
        )
        executable = AdaptiveExecutable(
            keyword_compiled, num_cores=4, profile_every=1, config=config
        )
        executable.run(["6"])  # profiled run adopts a multi-core layout
        executable.layout = quad_layout(keyword_compiled)
        executable.degrade([1])
        assert 1 not in executable.layout.cores_used()
        result = executable.run(["6"])  # still runs, and re-optimizes
        assert result.stdout == "total=12"


class TestCli:
    def test_inject_fault_flag(self, capsys, keyword_compiled):
        import os
        import tempfile

        from repro.cli import main
        from conftest import KEYWORD_SOURCE

        with tempfile.NamedTemporaryFile(
            "w", suffix=".bam", delete=False
        ) as handle:
            handle.write(KEYWORD_SOURCE)
            path = handle.name
        try:
            code = main(
                [
                    "run",
                    path,
                    "6",
                    "--cores",
                    "4",
                    "--validate",
                    "--inject-fault",
                    "core=1@2000",
                ]
            )
        finally:
            os.unlink(path)
        captured = capsys.readouterr()
        assert code == 0
        assert "total=12" in captured.out
        assert "recovery:" in captured.err

    def test_bad_fault_spec_reports_error(self, capsys, keyword_compiled):
        import os
        import tempfile

        from repro.cli import main
        from conftest import KEYWORD_SOURCE

        with tempfile.NamedTemporaryFile(
            "w", suffix=".bam", delete=False
        ) as handle:
            handle.write(KEYWORD_SOURCE)
            path = handle.name
        try:
            code = main(
                ["run", path, "6", "--cores", "1", "--inject-fault", "bogus"]
            )
        finally:
            os.unlink(path)
        assert code == 1
        assert "bad fault spec" in capsys.readouterr().err


class TestFaultEdgeCases:
    """PR-1 machinery corners the original suite left uncovered."""

    def test_stall_spanning_dispatch_commit_boundary(self, keyword_compiled):
        # MIDRUN_CYCLE lands while core 1 is mid-invocation (asserted by
        # test_crash_rolls_back_inflight_and_completes), so this stall
        # begins after dispatch and ends after the scheduled completion:
        # the commit must still publish exactly once, on time, and the
        # stall may only push back *future* dispatches.
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        plan = FaultPlan.make(
            [TransientStall(core=1, cycle=MIDRUN_CYCLE, duration=3_000)]
        )
        config = MachineConfig(fault_plan=plan, validate=True, observe=True)
        first = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        second = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert first.stdout == base.stdout
        assert first.invocations == base.invocations
        assert first.recovery.stalls == 1
        assert first.recovery.exactly_once()
        assert first.total_cycles >= base.total_cycles
        # The in-flight invocation still committed (no rollback on stall).
        assert first.recovery.commits_dropped == 0
        # Deterministic across runs, boundary included.
        assert [e.to_json() for e in first.events] == [
            e.to_json() for e in second.events
        ]
        assert first.total_cycles == second.total_cycles

    def test_link_restore_before_first_message_is_bit_identical(
        self, keyword_compiled
    ):
        # Degrade-then-restore entirely inside the runtime-init window
        # (before any inter-core message is priced): the run must be
        # bit-identical to fault-free, not merely close.
        from repro.ir import costs

        assert costs.RUNTIME_INIT_COST > 2  # the premise of this test
        layout = quad_layout(keyword_compiled)
        base = run_layout(
            keyword_compiled, layout, ["12"], options=RunOptions(machine=MachineConfig(observe=True)))
        plan = FaultPlan.make(
            [
                LinkDegrade(cycle=1, multiplier=9.0),
                LinkDegrade(cycle=2, multiplier=1.0),
            ]
        )
        result = run_layout(
            keyword_compiled, layout, ["12"], options=RunOptions(machine=MachineConfig(fault_plan=plan, validate=True, observe=True)))
        assert result.recovery.link_events == 2
        assert result.total_cycles == base.total_cycles
        assert result.messages == base.messages
        assert result.core_busy == base.core_busy
        assert result.stdout == base.stdout
        # Apart from the two link events themselves, the streams agree.
        assert [
            e.to_json()
            for e in result.events
            if not isinstance(e, LinkDegradeEvent)
        ] == [e.to_json() for e in base.events]

    def test_link_restore_mid_run_recovers_speed(self, keyword_compiled):
        # Restore to exactly 1.0 mid-run: the remaining messages are priced
        # at nominal cost, so the run beats the never-restored one but
        # cannot beat fault-free.
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [15]
        layout = Layout.make(16, mapping, mesh_width=16)
        base = run_layout(keyword_compiled, layout, ["4"])
        degraded_forever = run_layout(
            keyword_compiled, layout, ["4"], options=RunOptions(machine=MachineConfig(
                fault_plan=FaultPlan.make([LinkDegrade(cycle=0, multiplier=40.0)])
            )))
        restored = run_layout(
            keyword_compiled, layout, ["4"], options=RunOptions(machine=MachineConfig(
                fault_plan=FaultPlan.make(
                    [
                        LinkDegrade(cycle=0, multiplier=40.0),
                        LinkDegrade(cycle=3_000, multiplier=1.0),
                    ]
                ),
                validate=True,
            )))
        assert base.total_cycles <= restored.total_cycles < degraded_forever.total_cycles
        assert restored.stdout == base.stdout
        assert restored.recovery.link_events == 2

    def test_two_crashes_same_cycle(self, keyword_compiled):
        # Same-cycle crashes resolve in deterministic core order; both
        # cores' work migrates to the two survivors and every logical task
        # still commits exactly once.
        layout = quad_layout(keyword_compiled)
        base = run_layout(keyword_compiled, layout, ["12"])
        plan = FaultPlan.make(
            [
                CoreCrash(core=2, cycle=MIDRUN_CYCLE),
                CoreCrash(core=1, cycle=MIDRUN_CYCLE),
            ]
        )
        # The plan layer orders the tie by core number.
        assert plan.crash_cores() == [1, 2]
        config = MachineConfig(fault_plan=plan, validate=True, observe=True)
        first = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        second = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        rec = first.recovery
        assert rec.crashes == 2
        assert rec.dead_cores == [1, 2]
        assert first.core_death_cycles == {1: MIDRUN_CYCLE, 2: MIDRUN_CYCLE}
        assert first.stdout == base.stdout == "total=24"
        assert first.invocations == base.invocations
        assert rec.exactly_once()
        assert [e.to_json() for e in first.events] == [
            e.to_json() for e in second.events
        ]
        # Dead cores stop accruing busy cycles at the crash.
        assert first.core_busy[1] <= MIDRUN_CYCLE
        assert first.core_busy[2] <= MIDRUN_CYCLE
